"""Eigenvalues of the Cayley graphs through additive character sums.

Eigenvectors of a Cayley graph on an abelian group are the group
characters.  For the additive group of GR(p^e, p^(er)) the characters are
psi_beta(x) = omega^(T(beta*x)), omega a primitive p^e-th root of unity
and T the trace, one character per ring element beta.  The package sums
characters over one set only, the Teichmuller units G1:
zeta(beta) = sum_{t in G1} psi_beta(t), the sums behind the wcu and bhk
checks and the spectrum.

x -> gamma*x takes +-G1 onto the connection set, so the eigenvalue at beta
is zeta(beta*gamma) + zeta(-beta*gamma): 2 Re zeta(beta*gamma) for p = 2,
and zeta(beta*gamma) for odd p, where -1 lies in G1.  As beta*gamma runs
over the ring with beta, the spectrum is the same for every unit gamma.

G1 is fixed by multiplication with any u in G1, so zeta is constant on
G1-orbits, and G1 acts freely on the nonzero elements: besides the orbit
{0}, valuation v holds p^(r(e-1-v)) orbits of p^r - 1 elements each.
zeta_sums gets one zeta per nonzero orbit, as one block of sums per
valuation, each from one Fourier transform.  With N = p^(e-1-v), every
beta of valuation v lies in the orbit of exactly one beta = p^v (1 + p*c),
c in (Z/N)^r, and
    T(beta*t) = p^v T(t) + p^(v+1) c.y(t),   y(t) = trace_gram @ t mod N,
so zeta(beta) = sum_y F_v(y) exp(2 pi i c.y / N), where
F_v(y) = sum of omega^(p^v T(t)) over the t in G1 with y(t) = y: the
inverse DFT of F_v over (Z/N)^r, times N^r, read at c.  The bound of the
wcu check, (N-1) sqrt(p^r) + 1, is one constant per block.

For p^e = 4 the weights lie in {1, i, -1, -i} and no block has N > 2, so
the transform is an integer Hadamard butterfly and the sums and spectra
are exact.  Otherwise the transform is numpy.fft.ifftn in float64.
orbit_row_map numbers all orbits, zero first and then valuation by
valuation (_valuation_starts), and orbit_digits turns an orbit's number
back into one of its elements, so the breadth-first search holds row
numbers only; frobenius_cycles gives the least row of each row's cycle
under the Frobenius, and its length, from row numbers alone.  The map reads any
nonnegative digits congruent mod q, such as unreduced sums u + s, as r
int32 columns, one Teichmuller digit at a time, with floor division by p
and table lookups but no integer modulo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .cayley import GraphSpec
from .errors import IntegrityError, SizeError
from .ring import BLOCK_PAIRS, RingContext, _matmul_mod, _row_blocks

MERGE_TOL = 1e-6
NUMERIC_SPECTRUM_CUTOFF = 1 << 24
ORBIT_CUTOFF = 1 << 26


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues with multiplicities, descending by value.

    values are int64 when exact, integers computed without rounding, and
    float64 for numeric spectra merged at MERGE_TOL; mults are int64.  tol is
    the one tolerance every spectral claim reads: 0 when exact, MERGE_TOL
    otherwise.  Every reduction returns Python scalars.
    """

    values: np.ndarray
    mults: np.ndarray
    n: int
    d: int

    def __post_init__(self) -> None:
        if int(self.mults.sum()) != self.n:
            raise IntegrityError("multiplicities do not sum to the vertex count")

    @property
    def exact(self) -> bool:
        return self.values.dtype.kind == "i"

    @property
    def tol(self) -> float:
        return 0 if self.exact else MERGE_TOL

    @property
    def entries(self) -> tuple[tuple[Union[int, float], int], ...]:
        """(value, multiplicity) pairs of Python scalars, descending."""
        return tuple(zip(self.values.tolist(), self.mults.tolist()))

    @property
    def distinct(self) -> int:
        return self.values.size

    @property
    def max_value(self) -> Union[int, float]:
        return self.values[0].item()

    @property
    def min_value(self) -> Union[int, float]:
        return self.values[-1].item()

    def expanded(self) -> np.ndarray:
        """All n eigenvalues, descending, as float64."""
        return np.repeat(self.values.astype(np.float64), self.mults)

    def multiplicity_of(self, value: Union[int, float]) -> int:
        return int(self.mults[abs(self.values - value) <= self.tol].sum())

    def lambda_g(self) -> Union[int, float]:
        """Largest |eigenvalue| after dropping values within tol of +-degree."""
        size = abs(self.values)
        return size[abs(size - self.d) > self.tol].max(initial=0).item()

    def energy(self) -> Union[int, float]:
        return sum((abs(self.values) * self.mults).tolist())


# ---------------------------------------------------------------------------
# G1-orbits and the character sums over G1.


def _valuation_starts(ctx: RingContext) -> np.ndarray:
    """First row of valuation v in orbit_row_map's numbering, for
    v = 0..e-1, then 0 for valuation e (zero is row 0).  Valuation v holds
    p^(r(e-1-v)) rows."""
    pr = ctx.p**ctx.r
    start = [1]
    for v in range(ctx.e - 1):
        start.append(start[-1] + pr ** (ctx.e - 1 - v))
    return np.array(start + [0], dtype=np.int64)


def orbit_row_map(ctx: RingContext) -> Callable[[np.ndarray], np.ndarray]:
    """Map (m, r) digit rows to the int32 numbers, or rows, of the G1-orbits
    that hold those elements; orbit_digits(ctx, rows) is the inverse.

    The digits may be any nonnegative int32 values congruent mod q to the
    element's coefficients, such as an unreduced sum u + s; the caller's
    array is left unchanged.

    An element of valuation v has Teichmuller digits x = sum_{i>=v} t_i p^i
    with t_v != 0, and lies in the orbit of p^v * (1 + sum_{i>v} (t_i/t_v)
    p^(i-v)).  Its row is therefore the first row of valuation v plus a
    mixed-radix number over the digit ratios t_i/t_v, each read as 0 for
    zero and 1 + k for xi^k through a discrete-log table on the residue
    field.  The input is read one block of BLOCK_PAIRS digits at a time
    (ring._row_blocks), so the working arrays stay cache-sized whatever the
    caller passes.  A block is held as r contiguous int32 columns, and each
    digit t_i takes a few passes over them with no integer modulo and no
    masked store: the residues are x - (x // p) * p, their index in the
    residue field comes by Horner's rule, x // p + adj (ctx._residue_lift,
    uint16) is (x - t_i)/p + q/p in int32, nonnegative and exact mod
    q/p^(i+1), and the conditional updates add a uint8 view of a comparison
    times the change.  No ring multiplication and no n-sized table is
    involved.
    """
    p, e, r = ctx.p, ctx.e, ctx.r
    pr = p**r
    log, adj = ctx._residue_lift
    # the lead of a row before its first nonzero digit, and minus the log + 1
    # of a zero digit: either puts 1 + log t_i - lead at or below -pr - 1,
    # still negative after the wrap by pr - 1, so its ratio is clamped to 0
    unset = 2 * pr
    plus_one = np.where(log < 0, -unset, log + 1).astype(np.int32)
    set_lead = np.where(log < 0, 0, log - unset).astype(np.int32)  # unset -> log t_v
    wrap = np.int32(pr - 1)
    start = _valuation_starts(ctx).astype(np.int32)

    def rows(digits: np.ndarray) -> np.ndarray:
        digits = np.asarray(digits)
        out = np.zeros(len(digits), dtype=np.int32)
        for block in _row_blocks(len(digits), r):
            x = np.array(digits[block].T, dtype=np.int32, order="C")
            high, low = np.empty_like(x), np.empty_like(x)
            lead = np.full(x.shape[1], unset, dtype=np.int32)  # log t_v once set
            val = np.zeros(x.shape[1], dtype=np.int32)
            row = out[block]  # stays 0 up to t_v
            for i in range(e):
                np.floor_divide(x, p, out=high)
                x -= np.multiply(high, p, out=low)
                k = x[r - 1].copy()  # residue index of t_i
                for j in range(r - 2, -1, -1):
                    k *= p
                    k += x[j]
                ratio = plus_one.take(k)
                ratio -= lead  # 1 + (log t_i - log t_v) when both are set
                ratio += (ratio < 1).view(np.uint8) * wrap
                np.maximum(ratio, 0, out=ratio)
                row *= pr
                row += ratio
                lead += (lead == unset).view(np.uint8) * set_lead.take(k)
                val += lead == unset  # ends as v, or e for zero
                if i + 1 < e:
                    np.add(high, adj.take(k, axis=1), out=x)
            row += start.take(val)
        return out

    return rows


def orbit_digits(ctx: RingContext, rows: np.ndarray) -> np.ndarray:
    """int32 digit rows of one element in each of the G1-orbits `rows`,
    numbered as by orbit_row_map(ctx).

    Row start[v] + k (_valuation_starts) stands for p^v (1 + sum_{i=1}^{e-1-v}
    b_i p^i): base-p^r digit j of k names b_i, zero for j = 0 and xi^(j-1)
    otherwise, and the least significant digit sits at p^(e-1).  Row 0 is
    zero, found in the slot of valuation e: start[-1] = 0 and p^e = 0 mod q.
    Each term p^i b_i mod q is one column of the cached table
    ctx._orbit_slots, so the sum stays below e*q and one multiply-subtract
    reduces it.  The rows come as the transpose of r contiguous columns, the
    layout in which orbit_row_map and the breadth-first search add digits.
    """
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    pr = p**r
    start = _valuation_starts(ctx)
    rows = np.asarray(rows)
    v = np.searchsorted(start[:-1], rows, side="right") - 1  # -1 for row 0
    k = rows - start[v]
    slots = ctx._orbit_slots
    out = np.zeros((r, rows.size), dtype=np.int32)
    out[0] = (p ** np.arange(e + 1) % q)[v]
    for i in range(e - 1, 0, -1):
        high = k // pr
        out += slots[i - 1].take(k - high * pr, axis=1)
        k = high
    out -= out // q * q
    return out.T


def frobenius_cycles(ctx: RingContext) -> tuple[np.ndarray, np.ndarray]:
    """The least row of each row's cycle under the Frobenius sigma, int32,
    and the cycle's length, uint8, one of each per row of orbit_row_map's
    numbering.

    sigma(xi) = xi^p generates Gal(GR(p^e, p^er) / Z/p^e).  It fixes Z/p^e
    and maps xi^m to xi^(pm), so it takes the orbit of p^v (1 + sum b_i p^i)
    to that of p^v (1 + sum sigma(b_i) p^i), fixes 0, maps G1 onto itself
    and is an automorphism of Cay(R, +-G1).  On a row number it keeps the
    valuation's first row (_valuation_starts) and maps each base-p^r digit
    of the offset, 0 to 0 and 1 + m to 1 + (p*m mod (p^r - 1))
    (orbit_digits).  So the tables come from row numbers alone, with no
    ring arithmetic: one block of BLOCK_PAIRS rows at a time, its offsets
    read once, in groups of as many digits as a table of at most
    BLOCK_PAIRS entries maps at a time, and sigma^i for i = 1 .. r - 1
    applied group by group.  The length is r over the number of i < r with
    sigma^i(row) = row.
    """
    p, e, r = ctx.p, ctx.e, ctx.r
    pr = p**r
    slot = np.zeros(pr, dtype=np.int32)
    slot[1:] = 1 + p * np.arange(pr - 1) % (pr - 1)
    table, width = slot, 1  # sigma on `width` digits, the last the least
    while width < e - 1 and table.size * pr <= BLOCK_PAIRS:
        table, width = (table[:, None] * pr + slot).ravel(), width + 1
    radix = table.size
    start = _valuation_starts(ctx).astype(np.int32)
    count = (ctx.size - 1) // (pr - 1) + 1
    canon = np.empty(count, dtype=np.int32)
    lengths = np.empty(count, dtype=np.uint8)
    for block in _row_blocks(count, 1):
        least = canon[block]
        rows = np.arange(block.start, block.start + least.size, dtype=np.int32)
        least[:] = rows
        base = start.take(np.searchsorted(start[:-1], rows, side="right") - 1)
        k = rows - base
        groups = np.empty((-(-(e - 1) // width), rows.size), dtype=np.int32)  # least first
        for i in range(len(groups)):
            high = k // radix
            groups[i] = k - high * radix
            k = high
        fixed = np.ones(rows.size, dtype=np.uint8)
        for _ in range(r - 1):
            groups = table.take(groups)
            image = groups[-1]
            for group in groups[-2::-1]:
                image = image * radix + group
            image = image + base
            np.minimum(least, image, out=least)
            fixed += image == rows
        np.floor_divide(r, fixed, out=lengths[block])
    return canon, lengths


def _hadamard(f: np.ndarray, r: int) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform of f, shape (2^r, k), over
    its r binary row axes, in place: (a, b) -> (a + b, a - b) per axis."""
    for axis in range(r):
        pair = f.reshape(1 << axis, 2, -1)
        lo, hi = pair[:, 0], pair[:, 1]
        lo += hi
        hi *= -2
        hi += lo
    return f


ZetaSums = list[tuple[np.ndarray, np.ndarray]]


def zeta_sums(ctx: RingContext) -> ZetaSums:
    """zeta(beta) = sum_{t in G1} omega^(T(beta*t)) on one beta per nonzero
    G1-orbit, as one (re, im) pair per valuation v = 0..e-1.

    Entry k of block v stands for beta = p^v (1 + p*c), c the flat index k
    in (Z/N)^r, N = p^(e-1-v) (zeta_beta); zeta(0) = p^r - 1 is left out.
    Each block is one transform of G1 bucketed by y(t) = trace_gram @ t
    mod N.  Exact int64 parts when p^e = 4, float64 otherwise.  Raises
    SizeError before allocating when a block exceeds ORBIT_CUTOFF entries.
    """
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    largest = p ** (r * (e - 1))
    if largest > ORBIT_CUTOFF:
        raise SizeError(f"a transform of {largest} entries exceeds the cutoff {ORBIT_CUTOFF}")
    y = _matmul_mod(ctx.teich_digits, ctx.trace_gram, q)  # column i: T(x^i * t)
    blocks = []
    for v in range(e):
        n = p ** (e - 1 - v)
        cell = np.ravel_multi_index(tuple((y % n).T), (n,) * r)
        # omega^k weighs t; p^v * y < q^2 / p <= 2^31 is widened from int32
        k = p**v * y[:, 0].astype(np.int64) % q
        if q == 4:
            counts = np.bincount(4 * cell + k, minlength=4 * n**r).reshape(-1, 4)
            f = counts[:, :2] - counts[:, 2:]  # (re, im) of F_v
            z = _hadamard(f, r) if n == 2 else f
            blocks.append((z[:, 0], z[:, 1]))
        else:
            angle = 2.0 * np.pi / q * k
            f = np.empty(n**r, dtype=np.complex128)  # F_v, transformed in place
            f.real = np.bincount(cell, np.cos(angle), n**r)
            f.imag = np.bincount(cell, np.sin(angle), n**r)
            grid = f.reshape((n,) * r)
            # scaled after, not norm="forward", which rounds odd-p results apart
            # from the frozen outputs in their last digit
            np.fft.ifftn(grid, out=grid)
            f *= n**r
            blocks.append((f.real, f.imag))
    return blocks


def zeta_beta(ctx: RingContext, v: int, k: int) -> np.ndarray:
    """Coefficients of the beta that entry k of block v of zeta_sums stands
    for: p^v (1 + p*c), c the flat index k in (Z/N)^r, N = p^(e-1-v)."""
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    n = p ** (e - 1 - v)
    beta = p ** (v + 1) * np.array(np.unravel_index(k, (n,) * r), dtype=np.int64)
    beta[0] += p**v
    return beta % q


def _require_spectrum_size(spec: GraphSpec) -> None:
    """Raise SizeError if a numeric spectrum exceeds NUMERIC_SPECTRUM_CUTOFF vertices."""
    if spec.ctx.q != 4 and spec.n > NUMERIC_SPECTRUM_CUTOFF:
        raise SizeError(f"numeric spectrum on {spec.n} vertices exceeds the 2^24 cutoff")


def full_spectrum(spec: GraphSpec, zeta: Optional[ZetaSums] = None) -> Spectrum:
    """Spectrum of the graph from zeta_sums(spec.ctx), computed here unless
    given as zeta.

    Each nonzero orbit's eigenvalue, 2 Re zeta for p = 2 and zeta for odd
    p, counts p^r - 1 times, once per element of the orbit, after d once for
    beta = 0; of the connection set only d is read.  The eigenvalues are
    sorted in place and grouped by _merge_numeric.
    Exact for p^e = 4 (int64 moments: n*d < 2^49), tolerance MERGE_TOL and
    at most 2^24 vertices otherwise.  Raises IntegrityError when the moments
    disagree with n and d by more than tol*n*d.
    """
    _require_spectrum_size(spec)
    ctx = spec.ctx
    n, d, weight = spec.n, spec.d, ctx.p**ctx.r - 1
    tol = 0 if ctx.q == 4 else MERGE_TOL
    blocks = zeta_sums(ctx) if zeta is None else zeta
    eig = np.concatenate([[d]] + [2 * re if ctx.p == 2 else re for re, _ in blocks])
    first = weight * (eig.sum() - d) + d
    second = weight * (eig @ eig - d * d) + d * d
    if abs(first) > tol * n * d or abs(second - n * d) > tol * n * d:
        raise IntegrityError(
            f"moment check failed: sum {first}, sum of squares {second} != {n * d}"
        )
    eig.sort()
    return Spectrum(*_merge_numeric(eig, tol, weight, d), n=n, d=d)


def _merge_numeric(
    values: np.ndarray, tol: float, weight: int, d: Union[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Group ascending values whose consecutive gaps stay within tol, each
    value counting weight times but for one entry equal to d, which counts
    once, as (values, total counts), descending.

    A group's count is its run length times weight, less weight - 1 in the
    group of d, so no per-value weight or sort order is built.  A group's
    value is the one value it holds when tol is 0, else its weighted mean:
    bincount sums the products value * weight (d * 1 at the first entry
    equal to d) of each group in ascending order, as a loop would.
    """
    first = np.concatenate(([True], np.diff(values) > tol))
    starts = np.flatnonzero(first)
    mults = np.diff(starts, append=values.size) * weight
    at = np.searchsorted(values, d)
    mults[np.searchsorted(starts, at, side="right") - 1] -= weight - 1
    if tol:
        products = values * weight
        products[at] = values[at]
        values = np.bincount(np.cumsum(first), products)[1:] / mults
    else:
        values = values[starts]
    return values[::-1], mults[::-1]
