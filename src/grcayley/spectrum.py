"""Eigenvalues of the Cayley graphs through additive character sums.

Eigenvectors of a Cayley graph on an abelian group are the group
characters.  For the additive group of GR(p^e, p^(er)) the characters are
psi_beta(x) = omega^(T(beta*x)), omega a primitive p^e-th root of unity
and T the trace, one character per ring element beta.  One kernel,
character_sums, computes every such sum in the package: given a summation
set S and a block of coefficient rows beta, it returns
sum_{s in S} psi_beta(s) for each row.  The package sums over one set
only, the Teichmuller units G1: zeta(beta) = sum_{u in G1} psi_beta(u),
the sums behind the wcu and bhk checks and the spectrum.

x -> gamma*x takes +-G1 onto the connection set, so the eigenvalue at beta
is zeta(beta*gamma) + zeta(-beta*gamma): 2 Re zeta(beta*gamma) for p = 2,
and zeta(beta*gamma) for odd p, where -1 lies in G1.  As beta*gamma runs
over the ring with beta, the spectrum is the same for every unit gamma.

G1 is fixed by multiplication with any u in G1, so zeta(beta*u) =
zeta(beta) and the kernel only needs one beta per G1-orbit.  G1 acts
freely on the nonzero elements: an element of valuation v is
u * p^v * (1 + sum_{i=1}^{e-1-v} b_i p^i) for exactly one u in G1 and b_i
in G1 or zero.  orbit_representatives lists those (n-1)/(p^r-1)
representatives, each standing for an orbit of p^r - 1 elements, after
beta = 0, an orbit of its own.  full_spectrum weights every value by its
orbit size, so a spectrum needs one sum per representative instead of n.

The Frobenius map sigma fixes the trace and permutes G1, so
zeta(sigma(beta)) = zeta(beta) as well, and sigma permutes the
representatives.  frobenius_heads picks the smallest representative of
each class under sigma, by arithmetic on the row numbers, and one sweep,
zeta_sums, runs the kernel in blocks over those heads only, about r times
fewer sums, then hands every representative the sums of its head.

The kernel gets the trace values of a block at once through the linear
form T(beta*s) = sum_i a_i * T(x^i * s), a_i the coefficients of beta, as
one float64 product against trace_basis_matrix(S).  That product is
exact, since its entries are bounded by r*(p^e - 1)^2 < 2^53 for every
supported ring, so it converts to int64 without rounding.  As T(a) is
tr M(a), trace_basis_matrix(S) is S @ ctx.trace_gram mod q, gram T(x^(i+j)).

For p^e = 4 the character values lie in {1, i, -1, -i}, the sums are the
exact Gaussian integers (counts[0] - counts[2]) + i(counts[1] - counts[3]),
and full spectra are exact.  Otherwise the sums are float64 cos/sin sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .cayley import BLOCK_PAIRS, GraphSpec
from .errors import IntegrityError, SizeError
from .ring import RingContext

MERGE_TOL = 1e-6
NUMERIC_SPECTRUM_CUTOFF = 1 << 24
ORBIT_CUTOFF = 1 << 26


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, descending by value.

    exact means the values are integers computed without rounding; numeric
    spectra carry floats merged at tolerance 1e-6.
    """

    entries: tuple[tuple[Union[int, float], int], ...]
    exact: bool
    n: int
    d: int

    def __post_init__(self) -> None:
        if sum(m for _, m in self.entries) != self.n:
            raise IntegrityError("multiplicities do not sum to the vertex count")

    @property
    def distinct(self) -> int:
        return len(self.entries)

    @property
    def max_value(self) -> Union[int, float]:
        return self.entries[0][0]

    @property
    def min_value(self) -> Union[int, float]:
        return self.entries[-1][0]

    def expanded(self) -> np.ndarray:
        """All n eigenvalues, descending, as float64."""
        out = np.empty(self.n, dtype=np.float64)
        pos = 0
        for v, m in self.entries:
            out[pos : pos + m] = v
            pos += m
        return out

    def multiplicity_of(self, value: Union[int, float], tol: float = MERGE_TOL) -> int:
        total = 0
        for v, m in self.entries:
            if abs(v - value) <= tol:
                total += m
        return total

    def lambda_g(self) -> Union[int, float]:
        """Largest |eigenvalue| after dropping values equal to +-degree."""
        best: Union[int, float] = 0
        for v, m in self.entries:
            if abs(abs(v) - self.d) <= (0 if self.exact else MERGE_TOL):
                continue
            best = max(best, abs(v))
        return best

    def energy(self) -> Union[int, float]:
        return sum(abs(v) * m for v, m in self.entries)


# ---------------------------------------------------------------------------
# The character-sum kernel.


def trace_basis_matrix(ctx: RingContext, digits: np.ndarray) -> np.ndarray:
    """(m, r) matrix with entry [j, i] = T(x^i * a_j) for coefficient rows
    a_j: the rows @ the trace form's Gram matrix, mod q."""
    return np.asarray(digits, dtype=np.int64) @ ctx.trace_gram % ctx.q


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


def _valuation_starts(ctx: RingContext) -> np.ndarray:
    """First row of valuation v in orbit_representatives(ctx), for v = 0..e-1,
    then 0 for valuation e (zero is row 0).  Valuation v holds p^(r(e-1-v))
    rows."""
    pr = ctx.p**ctx.r
    start = [1]
    for v in range(ctx.e - 1):
        start.append(start[-1] + pr ** (ctx.e - 1 - v))
    return np.array(start + [0], dtype=np.int64)


def orbit_row_map(ctx: RingContext) -> Callable[[np.ndarray], np.ndarray]:
    """Map (m, r) digit rows to the rows of orbit_representatives(ctx)
    whose G1-orbits hold those elements.

    An element of valuation v has Teichmuller digits x = sum_{i>=v} t_i p^i
    with t_v != 0, and lies in the orbit of p^v * (1 + sum_{i>v} (t_i/t_v)
    p^(i-v)).  Its row is therefore the first row of valuation v plus a
    mixed-radix number over the digit ratios t_i/t_v, each read as 0 for
    zero and 1 + k for xi^k through a discrete-log table on the residue
    field.  The digits come from residues mod p and the ring's lift table,
    ctx._residue_lift; no ring multiplication and no n-sized table is
    involved.
    """
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    pr = p**r
    place = p ** np.arange(r, dtype=np.int64)
    log, lift = ctx._residue_lift
    # residue index -> (t - residue)/p for the Teichmuller digit t over it
    lift_high = lift // p
    start = _valuation_starts(ctx)

    def rows(digits: np.ndarray) -> np.ndarray:
        x = np.array(digits, dtype=np.int64)
        row = np.zeros(len(x), dtype=np.int64)
        lead = np.full(len(x), -1, dtype=np.int64)  # log t_v, -1 before v
        val = np.full(len(x), e, dtype=np.int64)
        for i in range(e):
            high = x // p
            x -= high * p  # in place here and below: fewer block-sized temporaries
            k = x @ place  # residue index of t_i
            t = log[k]
            before = lead < 0
            ratio = (t - lead) % (pr - 1) + 1
            ratio[before | (t < 0)] = 0
            row = row * pr + ratio  # stays 0 up to the leading digit
            first = before & (t >= 0)
            lead[first] = t[first]
            val[first] = i
            if i + 1 < e:
                # x <- (x - t_i)/p, coefficientwise mod q/p^(i+1)
                high -= lift_high[k]
                x = np.remainder(high, q // p ** (i + 1), out=high)
        return row + start[val]

    return rows


def character_sums(
    ctx: RingContext, w_t: np.ndarray, digits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of sum_s omega^(T(beta*s)), one per
    coefficient row beta of digits.

    w_t is the transposed trace-basis matrix of the summation set, as
    float64.  Exact int64 parts when p^e = 4, float64 otherwise.
    """
    q = ctx.q
    tv = (np.asarray(digits, dtype=np.float64) @ w_t).astype(np.int64)
    tv %= q
    if q == 4:
        re = (tv == 0).sum(axis=1) - (tv == 2).sum(axis=1)
        im = (tv == 1).sum(axis=1) - (tv == 3).sum(axis=1)
        return re, im
    angles = 2.0 * np.pi * np.arange(q) / q
    return np.cos(angles)[tv].sum(axis=1), np.sin(angles)[tv].sum(axis=1)


def frobenius_heads(ctx: RingContext) -> np.ndarray:
    """For each row of orbit_representatives(ctx), the smallest row of its
    Frobenius class.

    The Frobenius map sigma, b -> b^p on every Teichmuller digit, takes the
    representative p^v * (1 + sum_i b_i p^i) to p^v * (1 + sum_i b_i^p p^i),
    another representative of valuation v.  On the row number within the
    valuation block, a mixed-radix number whose slots read 0 for zero and
    1 + k for xi^k, it maps each slot t > 0 to 1 + (p*(t-1) mod p^r - 1)
    and keeps 0.  sigma has order r, so a class is the images of a row
    under sigma^0 .. sigma^(r-1); no ring multiplication is involved.
    """
    p, e, r = ctx.p, ctx.e, ctx.r
    pr = p**r
    start = _valuation_starts(ctx)
    slot = np.zeros(pr, dtype=np.int64)  # sigma on one slot
    slot[1:] = 1 + p * np.arange(pr - 1) % (pr - 1)
    head = np.arange(start[e - 1] + 1)  # valuation e - 1 and zero: one row each
    for v in range(e - 1):
        size = pr ** (e - 1 - v)
        row = np.arange(size)
        best = row.copy()
        for _ in range(r - 1):
            rest, image, place = row, np.zeros_like(row), 1
            for _ in range(e - 1 - v):
                rest, t = np.divmod(rest, pr)
                image += slot[t] * place
                place *= pr
            row = image
            np.minimum(best, row, out=best)
        head[start[v] : start[v] + size] = start[v] + best
    return head


ZetaSums = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def zeta_sums(ctx: RingContext) -> ZetaSums:
    """zeta(beta) = sum_{u in G1} omega^(T(beta*u)) on one beta per
    G1-orbit, as (digits, valuation, re, im) over the rows of
    orbit_representatives.

    sigma fixes the trace and permutes G1, so zeta(sigma(beta)) =
    zeta(beta): the kernel runs on the head row of each Frobenius class
    only, and every row takes the sums of its head."""
    digits, val = orbit_representatives(ctx)
    head = frobenius_heads(ctx)
    heads = np.flatnonzero(head == np.arange(len(head)))
    w_t = trace_basis_matrix(ctx, ctx.teich_digits).T.astype(np.float64)
    block = max(1, BLOCK_PAIRS // len(ctx.teich_digits))
    parts = [
        character_sums(ctx, w_t, digits[heads[lo : lo + block]])
        for lo in range(0, len(heads), block)
    ]
    of_head = np.searchsorted(heads, head)
    re, im = (np.concatenate(part)[of_head] for part in zip(*parts))
    return digits, val, re, im


def full_spectrum(spec: GraphSpec, zeta: Optional[ZetaSums] = None) -> Spectrum:
    """Spectrum of the graph from zeta_sums(spec.ctx), swept here unless
    given as zeta.

    Each orbit's eigenvalue, 2 Re zeta for p = 2 and zeta for odd p, counts
    once per element of the orbit; of the connection set only d is read.
    Exact integers for p^e = 4; floats at merge tolerance 1e-6 otherwise.
    The numeric path is capped at 2^24 vertices.  Raises IntegrityError
    when the moments disagree with n and d.
    """
    ctx = spec.ctx
    n, d = spec.n, spec.d
    exact = ctx.q == 4
    if not exact and n > NUMERIC_SPECTRUM_CUTOFF:
        raise SizeError(f"numeric spectrum on {n} vertices exceeds the 2^24 cutoff")
    _, val, re, _ = zeta_sums(ctx) if zeta is None else zeta
    eig = 2 * re if ctx.p == 2 else re
    weights = np.where(val == ctx.e, 1, ctx.p**ctx.r - 1)

    if not exact:
        first = float(eig @ weights)
        second = float((eig * eig) @ weights)
        if abs(first) > MERGE_TOL * n * d or abs(second - n * d) > MERGE_TOL * n * d:
            raise IntegrityError("numeric moment check failed")
        entries = _merge_numeric(eig, MERGE_TOL, weights)
        return Spectrum(entries=entries, exact=False, n=n, d=d)

    values, inverse = np.unique(eig, return_inverse=True)
    mults = np.bincount(inverse, weights=weights).astype(np.int64)
    entries = tuple(zip(values[::-1].tolist(), mults[::-1].tolist()))
    first = sum(v * m for v, m in entries)
    second = sum(v * v * m for v, m in entries)
    if first != 0 or second != n * d:
        raise IntegrityError(
            f"moment check failed: sum {first}, sum of squares {second} != {n * d}"
        )
    return Spectrum(entries=entries, exact=True, n=n, d=d)


def _merge_numeric(
    values: np.ndarray, tol: float, weights: Optional[np.ndarray] = None
) -> tuple[tuple[Union[int, float], int], ...]:
    """Group sorted values whose consecutive gaps stay within tol.

    Each value counts weights[i] times (once when weights is None); a group
    reports its weighted mean and total weight.
    """
    values = np.asarray(values, dtype=np.float64)
    if weights is None:
        weights = np.ones(values.size, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    values, weights = values[order], np.asarray(weights)[order]
    if values.size == 0:
        return ()
    cuts = np.flatnonzero(np.diff(values) > tol)
    starts = np.concatenate(([0], cuts + 1))
    ends = np.concatenate((cuts + 1, [values.size]))
    entries = []
    for s, e in zip(starts, ends):
        m = int(weights[s:e].sum())
        entries.append((float((values[s:e] * weights[s:e]).sum() / m), m))
    entries.reverse()
    return tuple(entries)
