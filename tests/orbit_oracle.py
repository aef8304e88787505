"""Scalar reference for the G1-orbit numbering.

orbit_representatives builds one element per G1-orbit, row by row in the
numbering of spectrum.orbit_row_map, from nested sums over Teichmuller
digits.  orbit_row_oracle finds the orbit of an element by dividing out its
leading Teichmuller digit (from ring_oracle.padic_coords) with RingElement
multiplication, then looking the quotient up among those rows.  Neither
shares code with the vectorised digit-ratio map or its inverse,
spectrum.orbit_digits.
"""

import numpy as np

from grcayley import RingContext, SizeError
from grcayley.spectrum import ORBIT_CUTOFF
from ring_oracle import padic_coords


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
        quotient = (a * lead ** (order - 1)).index
        found = by_index[np.searchsorted(index, quotient, sorter=by_index)]
        assert index[found] == quotient, "quotient is no orbit representative"
        return int(found)

    return row


def vertex_distances(spec, dist):
    """Per-orbit distances expanded to one distance per vertex."""
    row = orbit_row_oracle(spec.ctx)
    return [int(dist[row(spec.ctx.from_index(v))]) for v in range(spec.n)]
