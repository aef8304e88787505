"""Scalar reference for the G1-orbit numbering.

orbit_representatives builds one element per G1-orbit, row by row in the
numbering of spectrum.orbit_row_map, from nested sums over Teichmuller
digits.  orbit_row_oracle finds the orbit of an element by dividing out its
leading Teichmuller digit (from ring_oracle.padic_coords) with scalar
Element multiplication, then looking the quotient up among those rows.
twisted_rows finds the row of gamma times each representative in a table
of the row of every element, each row times each Teichmuller unit; its
products come from matrices whose columns are scalar Element products.  None
of it shares code with the vectorised digit-ratio map or its inverse,
spectrum.orbit_digits.
"""

import numpy as np

from grcayley import RingContext, SizeError
from grcayley.spectrum import ORBIT_CUTOFF
from ring_oracle import element, from_index, lift, padic_coords, units


def orbit_representatives(ctx: RingContext) -> tuple[np.ndarray, np.ndarray]:
    """One element per G1-orbit of the ring, as (digits, valuation).

    Row 0 is zero, valuation e, an orbit of one element.  The other rows
    are p^v * (1 + sum_{i=1}^{e-1-v} b_i p^i) with b_i in G1 or zero, for
    v = 0..e-1; each has valuation v and stands for an orbit of p^r - 1
    elements.  Raises SizeError above ORBIT_CUTOFF digit entries, before
    allocating.
    """
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    count = (ctx.size - 1) // (p**r - 1) + 1
    if count * r > ORBIT_CUTOFF:
        raise SizeError(
            f"{count} orbit representatives of {r} digits exceed the cutoff {ORBIT_CUTOFF}"
        )
    zero = np.zeros((1, r), dtype=np.int64)
    table = np.vstack([zero, ctx.teich_digits])
    blocks, vals = [zero], [np.array([e])]
    for v in range(e):
        rows = zero.copy()
        rows[0, 0] = p**v
        for i in range(1, e - v):
            rows = (rows[:, None, :] + p ** (v + i) * table) % q
            rows = rows.reshape(-1, r)
        blocks.append(rows)
        vals.append(np.full(rows.shape[0], v))
    return np.concatenate(blocks), np.concatenate(vals).astype(np.int64)


def orbit_row_oracle(ctx):
    """Function from a RingElement to its row of orbit_representatives(ctx)."""
    digits, _ = orbit_representatives(ctx)
    index = ctx.indices_from_digits(digits)
    by_index = np.argsort(index)
    order = ctx.p**ctx.r - 1

    def row(a):
        coords = padic_coords(a)
        if coords.valuation == ctx.e:
            return 0
        lead = coords.digits[coords.valuation]
        quotient = (lift(a) * lead ** (order - 1)).index
        found = by_index[np.searchsorted(index, quotient, sorter=by_index)]
        assert index[found] == quotient, "quotient is no orbit representative"
        return int(found)

    return row


def multiplication_by(a):
    """(r, r) int64 matrix of b -> a*b on coefficient vectors: column i is
    the scalar product a * x^i."""
    ctx, a = a.ctx, lift(a)
    cols = [(a * element(ctx, [0] * i + [1])).coeffs for i in range(ctx.r)]
    return np.array(cols, dtype=np.int64).T


def twisted_rows(ctx, gamma):
    """Row of gamma * rep(k) for each row k of orbit_representatives(ctx),
    read off the row of every element: each row times each Teichmuller
    unit covers the ring."""
    digits, _ = orbit_representatives(ctx)
    rows = np.arange(len(digits))
    table = np.full(ctx.size, -1, dtype=np.int64)
    for unit in units(ctx):
        table[ctx.indices_from_digits(digits @ multiplication_by(unit).T % ctx.q)] = rows
    assert (table >= 0).all(), "the orbits do not cover the ring"
    gamma_reps = digits @ multiplication_by(gamma).T % ctx.q
    return table[ctx.indices_from_digits(gamma_reps)]


def vertex_distances(spec, dist):
    """Distances from bfs_distances(spec), entry k that of gamma * O_k,
    expanded to one distance per vertex: v lies in gamma * O_k for k the row
    of gamma^-1 v, gamma^-1 = gamma^(|R^x| - 1)."""
    ctx = spec.ctx
    count = ctx.p ** ((ctx.e - 1) * ctx.r) * (ctx.p**ctx.r - 1)  # |R^x|
    inverse = lift(spec.gamma) ** (count - 1)
    row = orbit_row_oracle(ctx)
    return [int(dist[row(inverse * from_index(ctx, v))]) for v in range(spec.n)]
