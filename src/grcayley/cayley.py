"""Cayley graphs on the additive group of a Galois ring.

The connection set is a unit multiple gamma*G1 of the Teichmuller units,
closed up under negation.  For p = 2 that means adjoining -gamma*G1, which
is disjoint from gamma*G1 (no Teichmuller unit is -1 times another when
2 != 0); for odd p the set gamma*G1 is already symmetric because -1 is the
unique order-2 element of the cyclic group G1.  Vertices are the ring
elements under their flat index, so the graph on p^(er) vertices is
d-regular with d = 2(p^r - 1) or p^r - 1.

The connection set is only ever held as int32 digit rows: gamma*G1 is
teich_digits @ M(gamma)^T mod q, M(gamma) the multiplication matrix of
gamma, and -gamma*G1 follows it for p = 2, both written straight into one
(d, r) array.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Optional, Union

import numpy as np

from .errors import IntegrityError, ParameterError
from .ring import (
    BLOCK_PAIRS,
    MAX_RING_SIZE,
    RingContext,
    RingElement,
    RingParams,
    _matmul_mod,
    _multiplication_matrix,
    _require_prime,
    _row_blocks,
    coeff_string,
    is_unit,
    log,
)


# the most decimal digits of n a family row prints: Python's default
# limit on int-to-str conversion (sys.get_int_max_str_digits)
FAMILY_MAX_DIGITS = 4300


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """A built graph: context, twist gamma, and the connection set as flat
    indices s_indices and (d, r) int32 digit rows s_digits, in the same order.

    The row order is a contract that the orbit algorithms read and
    _require_connection_set checks: row k is gamma*xi^k for k = 0..p^r-2,
    and for p = 2 row p^r - 1 + k is -gamma*xi^k, so gamma^-1 S = +-G1 (G1
    for odd p) row by row.  gamma stays a RingElement record because
    perfbench/check.py reads spec.gamma.coeffs."""

    ctx: RingContext
    gamma: RingElement
    n: int
    d: int
    s_indices: np.ndarray
    s_digits: np.ndarray


def build_graph(ctx: RingContext, gamma: Optional[RingElement] = None) -> GraphSpec:
    """Construct Cay(GR+, gamma*G1 (union -gamma*G1 for p = 2)).  gamma is a
    RingElement, not digits, also because perfbench/workloads.py passes one."""
    start = time.perf_counter()
    if gamma is None:
        gamma = ctx.one
    if gamma.ctx.key != ctx.key:
        raise ParameterError("gamma belongs to a different ring")
    if not is_unit(gamma):
        raise ParameterError(
            f"gamma = {coeff_string(gamma)} is not a unit; a zero-divisor "
            "multiple collapses the Teichmuller set and the construction "
            "degenerates to a directed multigraph, which is unsupported"
        )

    q, h = ctx.q, len(ctx.teich_digits)
    s_digits = np.empty((2 * h if ctx.p == 2 else h, ctx.r), dtype=np.int32)
    half = _matmul_mod(ctx.teich_digits, _multiplication_matrix(gamma).T, q, out=s_digits[:h])
    if ctx.p == 2:
        _negate(half, q, out=s_digits[h:])
    s_indices = ctx.indices_from_digits(s_digits)
    ordered = np.sort(s_indices)
    if (ordered[1:] == ordered[:-1]).any():
        if ctx.p == 2 and _in_sorted(s_indices[h:], np.sort(s_indices[:h])).any():
            raise IntegrityError("gamma*G1 meets its own negation in characteristic 2^e")
        raise IntegrityError("connection set has repeated elements")
    if ordered[0] == 0:
        raise IntegrityError("connection set contains zero")
    # -S = S when row k + m of the 2m rows negates to row k: for p = 2 the
    # second half is -gamma*G1; for odd p, -1 = xi^(h/2), so row k + h/2 is
    # -gamma*xi^k.  Negation is an involution, so each pair holds both ways.
    m, odd = divmod(len(s_digits), 2)
    if odd or any(
        not np.array_equal(_negate(s_digits[m:][rows], q), s_digits[:m][rows])
        for rows in _row_blocks(m, ctx.r)
    ):
        raise IntegrityError("connection set is not closed under negation")

    expected_d = 2 * (ctx.p**ctx.r - 1) if ctx.p == 2 else ctx.p**ctx.r - 1
    if len(s_indices) != expected_d:
        raise IntegrityError(
            f"connection set has {len(s_indices)} elements, expected {expected_d}"
        )

    log.debug("build_graph d = %d: %.4f s", expected_d, time.perf_counter() - start)
    return GraphSpec(ctx, gamma, ctx.size, expected_d, s_indices, s_digits)


def _require_connection_set(spec: GraphSpec) -> None:
    """Raise IntegrityError unless d and the digit rows are those build_graph
    writes (GraphSpec): gamma*G1 = teich_digits @ M(gamma)^T mod q, then its
    negation for p = 2, compared a block of rows at a time.  Such an S is
    xi-stable and gamma^-1 S = +-G1 (G1 for odd p), as the orbit algorithms need."""
    ctx, q, h = spec.ctx, spec.ctx.q, len(spec.ctx.teich_digits)
    half, rest = spec.s_digits[:h], spec.s_digits[h:]
    by_gamma = _multiplication_matrix(spec.gamma).T
    if spec.d != len(spec.s_digits) or len(rest) != (h if ctx.p == 2 else 0) or any(
        not np.array_equal(_matmul_mod(ctx.teich_digits[rows], by_gamma, q), half[rows])
        or (ctx.p == 2 and not np.array_equal(_negate(half[rows], q), rest[rows]))
        for rows in _row_blocks(h, ctx.r)
    ):
        raise IntegrityError("connection set rows are not gamma*xi^k, then -gamma*xi^k for p = 2")


def _negate(digits: np.ndarray, q: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """-digits mod q for (m, r) int32 digit rows in [0, q): q - x, with 0
    kept at 0 by subtracting q where q - x = q, one block of rows at a time."""
    out = np.empty_like(digits) if out is None else out
    q32 = np.int32(q)
    for block in _row_blocks(len(digits), digits.shape[1]):
        o = np.subtract(q32, digits[block], out=out[block])
        o -= (o == q32).view(np.uint8) * q32
    return out


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Elementwise membership of values in the sorted, nonempty 1-D table.

    A searchsorted lookup: unlike np.isin, it does not import numpy.ma."""
    at = np.searchsorted(table, values)
    return table[np.minimum(at, len(table) - 1)] == values


def _neighbour_indices(spec: GraphSpec, digits: np.ndarray) -> np.ndarray:
    """(m, d) uint32 flat indices of u + S, in connection-set order, for the
    (m, r) digit rows of m vertices u.

    The sum is formed digit by digit on two (m, d) arrays, whatever q is;
    uint32 holds it, since every flat index is below n <= MAX_RING_SIZE =
    2^32 and every digit sum below 2q <= 2^17.
    """
    q = np.uint32(spec.ctx.q)
    u = digits.astype(np.uint32)
    s = spec.s_digits.view(np.uint32)  # int32 digits below q, read in place
    targets = np.zeros((len(u), spec.d), dtype=np.uint32)
    digit = np.empty_like(targets)
    for i, w in enumerate(spec.ctx._weights):
        np.add(u[:, i, None], s[:, i], out=digit)
        digit %= q
        digit *= np.uint32(w)
        targets += digit
    return targets


def _decimal_chunks() -> np.ndarray:
    """Four ASCII bytes per chunk value c < 10^4, as one uint32 word each.

    Entry c writes c with leading zeros, for a chunk with a nonzero chunk
    above it.  Entry 10^4 + c writes NUL bytes in place of those zeros (0 is
    all NUL), for a chunk with none above it; entry 2*10^4 + c is the same
    but writes 0 as "0", for the lowest chunk with none above it.  The
    padded digits are broadcast one byte column at a time, and the zeros
    blanked as the slices below 1000, 100, 10 and 1 of each byte column.
    """
    table = np.empty((3, 10_000, 4), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    padded = table[0].reshape(10, 10, 10, 10, 4)
    for b in range(4):
        padded[..., b] = digits.reshape((10,) + (1,) * (3 - b))
    table[1] = table[0]
    for b in range(4):
        table[1, : 10 ** (3 - b), b] = 0
    table[2] = table[1]
    table[2, 0, 3] = ord("0")
    return table.view(np.uint32).ravel()


def _chunk_words(
    x: np.ndarray, width: int, least: int, chunks: np.ndarray, out: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """(words, m) chunk words, lowest first, of m uint32 ids x in [least,
    10^width), written into out, (words + 1, >= m), with the intp buffer at.

    A chunk below the top is x - 10^4 * (x // 10^4): one divide, as numpy
    divides by a scalar far faster than it takes a remainder; the top one is
    what is left.  Chunk k can have none above it only if least < 10^(4k+4).
    np.take gets intp indices, and mode="clip" writes into out unbuffered."""
    m, words = len(x), -(-width // 4)
    at, spare = at[:m], out[words, :m]
    for k in range(words - 1):
        low, high = out[k, :m], out[k + 1, :m]
        np.floor_divide(x, np.uint32(10_000), out=high)
        np.multiply(high, np.uint32(10_000), out=spare)
        np.subtract(x, spare, out=low)
        if least < 10 ** (4 * k + 4):
            low += (high == 0) * np.uint32(20_000 if k == 0 else 10_000)
        np.copyto(at, low)
        np.take(chunks, at, out=low, mode="clip")
        x = high
    np.copyto(at, x)
    np.take(chunks[20_000 if words == 1 else 10_000 :], at, out=out[words - 1, :m], mode="clip")
    return out[:words, :m]


def _fill(field: np.ndarray, words: np.ndarray) -> None:
    """Write (words, m) chunk words right aligned into the (m, w) byte columns
    field of a line array: each whole word through an unaligned uint32 view
    of four columns, the partial top word byte by byte."""
    for k, word in enumerate(words):
        right = field.shape[1] - 4 * k
        if right >= 4:
            field[:, right - 4 : right].view(np.uint32)[:, 0] = word
        else:
            for j in range(right):
                field[:, j] = word.view(np.uint8)[4 - right + j :: 4]


def export_edges(spec: GraphSpec, sink: IO[str]) -> int:
    """Write the undirected edge list as text and return the edge count.

    One header line `# p e r gamma n d`, then one `u v` line per edge with
    u < v, sorted by u then v.  The edges are formed, sorted and formatted
    a block of about BLOCK_PAIRS neighbours at a time, with no Python code
    per edge.  Blocks are split where u reaches a power of ten, so u's field
    is as wide as u; v's is as wide as n - 1, its leading zeros NUL bytes
    that are dropped unless u, and so every v > u, has that width too.

    Neighbours come by translation: l = u mod q^k and h = u - l share no
    nonzero digit, so idx(u + s) = idx(l + s) + idx(h + s) - idx(s).  One
    (q^k, d) table of idx(l + s) - idx(s) is added to h + S, formed for as
    many blocks' high parts h as fit BLOCK_PAIRS at once; it wraps mod 2^32,
    harmlessly, as every true index is below n <= 2^32.
    """
    ctx, n, d = spec.ctx, spec.n, spec.d
    sink.write(f"# {ctx.p} {ctx.e} {ctx.r} {coeff_string(spec.gamma)} {n} {d}\n")
    chunks = _decimal_chunks()
    width = len(str(n - 1))
    rows = 1  # q^k, the largest with q^k * q * d <= BLOCK_PAIRS and q^k <= n
    while rows < n and rows * ctx.q * ctx.q * d <= BLOCK_PAIRS:
        rows *= ctx.q
    low = _neighbour_indices(spec, ctx.digits_of(np.arange(rows)))
    low -= spec.s_indices.astype(np.uint32)
    highs = max(1, BLOCK_PAIRS // (rows * d))  # high parts a block
    step = rows * highs
    batch = step * max(1, BLOCK_PAIRS // (highs * d))
    targets = np.empty((step, d), dtype=np.uint32)  # reused by every block
    words = np.empty((-(-width // 4) + 1, step * d), dtype=np.uint32)
    at = np.empty(step * d, dtype=np.intp)
    text = np.empty(step * d * (2 * width + 2), dtype=np.uint8)
    count = 0
    for top in range(0, n, batch):
        high = _neighbour_indices(spec, ctx.digits_of(np.arange(top, min(top + batch, n), rows)))
        for lo in range(top, min(top + batch, n), step):
            h = high[(lo - top) // rows :][:highs]
            block = targets[: len(h) * rows]
            np.add(h[:, None, :], low, out=block.reshape(len(h), rows, d))
            block.sort(axis=1)
            later = block > np.arange(lo, lo + len(block), dtype=np.uint32)[:, None]
            vs = block[later]
            per_u = later.sum(axis=1)
            cuts = [lo] + [10**k for k in range(1, width) if lo < 10**k < lo + len(block)]
            for a, b in zip(cuts, cuts[1:] + [lo + len(block)]):
                first = int(per_u[: a - lo].sum())
                m, wu = int(per_u[a - lo : b - lo].sum()), len(str(a))
                line = text[: m * (wu + width + 2)].reshape(m, wu + width + 2)
                us = _chunk_words(np.arange(a, b, dtype=np.uint32), wu, a, chunks, words, at)
                _fill(line[:, :wu], np.repeat(us, per_u[a - lo : b - lo], axis=1))
                line[:, wu] = ord(" ")
                vw = _chunk_words(vs[first : first + m], width, a + 1, chunks, words, at)
                _fill(line[:, wu + 1 : -1], vw)
                line[:, -1] = ord("\n")
                out = line.tobytes()
                sink.write((out if wu == width else out.translate(None, b"\0")).decode("ascii"))
                count += m
    expected = n * d // 2
    if count != expected:
        raise IntegrityError(f"wrote {count} edges, expected {expected}")
    return count


def spectral_interval_bound(p: int, e: int, r: int) -> tuple[int, int, int, float]:
    """Bound on non-principal eigenvalues as (c, k, p^r, float value).

    The bound is c*sqrt(p^r) + k with c = 2^e - 2, k = 2 for p = 2 and
    c = p^(e-1) - 1, k = 1 for odd p; returning the pieces lets callers
    compare exactly against integer eigenvalues by squaring.
    """
    pr = p**r
    if p == 2:
        c, k = 2**e - 2, 2
    else:
        c, k = p ** (e - 1) - 1, 1
    return c, k, pr, c * math.sqrt(pr) + k


def parse_delta(delta: Union[Fraction, str, int]) -> Fraction:
    """The family slope delta as a Fraction, which must lie in (0, 1/2]."""
    try:
        delta = Fraction(delta)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse delta {delta!r}") from exc
    if not (0 < delta <= Fraction(1, 2)):
        raise ParameterError(f"delta must lie in (0, 1/2], got {delta}")
    return delta


def family_params(p: int, delta: Union[Fraction, str, int], r: int) -> dict:
    """Parameters of the family member with e = delta*r at a given r.

    delta must be a rational in (0, 1/2] and delta*r an integer >= 2.
    Returns p, e, r, n, d and the eigenvalue bound; `params` is a ready
    RingParams when the ring fits the supported size, else None.  Raises
    ParameterError when n has more than FAMILY_MAX_DIGITS decimal digits
    or the bound is not a finite float.
    """
    _require_prime(p)
    delta = parse_delta(delta)
    if r < 2:
        raise ParameterError(f"r must be at least 2, got {r}")
    e_frac = delta * r
    if e_frac.denominator != 1:
        raise ParameterError(f"delta*r = {e_frac} is not an integer at r = {r}")
    e = int(e_frac)
    if e < 2:
        raise ParameterError(f"delta*r = {e} is below 2 at r = {r}")

    # n has floor(e*r*log10(p)) + 1 digits: decided before p^(e*r) is formed
    if e * r * math.log10(p) >= FAMILY_MAX_DIGITS:
        raise ParameterError(
            f"n = {p}^{e * r} at r = {r} has more than {FAMILY_MAX_DIGITS} digits"
        )
    try:
        bound = spectral_interval_bound(p, e, r)[3]
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ParameterError(f"the eigenvalue bound at r = {r} exceeds the float range")
    n = p ** (e * r)
    d = 2 * (p**r - 1) if p == 2 else p**r - 1
    buildable = n <= MAX_RING_SIZE
    return {
        "p": p,
        "e": e,
        "r": r,
        "n": n,
        "d": d,
        "lambda_bound": bound,
        "params": RingParams(p, e, r) if buildable else None,
    }
