"""Cayley graphs on the additive group of a Galois ring.

The connection set is a unit multiple gamma*G1 of the Teichmuller units,
closed up under negation.  For p = 2 that means adjoining -gamma*G1, which
is disjoint from gamma*G1 (no Teichmuller unit is -1 times another when
2 != 0); for odd p the set gamma*G1 is already symmetric because -1 is the
unique order-2 element of the cyclic group G1.  Vertices are the ring
elements under their flat index, so the graph on p^(er) vertices is
d-regular with d = 2(p^r - 1) or p^r - 1.

The connection set is only ever held as digit rows: gamma*G1 is
teich_digits @ M(gamma)^T mod q, M(gamma) the multiplication matrix of
gamma, and -gamma*G1 follows it for p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Optional, Union

import numpy as np

from .errors import (
    ContextMismatchError,
    IntegrityError,
    ParameterError,
    RangeError,
)
from .ring import (
    MAX_RING_SIZE,
    RingContext,
    RingElement,
    RingParams,
    _is_prime,
    _multiplication_matrix,
    coeff_string,
    is_unit,
)

VertexId = int

EXPORT_BLOCK = 1 << 20  # neighbours formed per block


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """A built graph: context, twist gamma, and the connection set as flat
    indices s_indices and (d, r) digit rows s_digits, in the same order:
    gamma*xi^k for k = 0..p^r-2, then -gamma*xi^k when p = 2."""

    ctx: RingContext
    gamma: RingElement
    n: int
    d: int
    s_indices: np.ndarray
    s_digits: np.ndarray

    def describe(self) -> str:
        return (
            f"Cay(+GR({self.ctx.q}, {self.ctx.q}^{self.ctx.r}), "
            f"gamma={coeff_string(self.gamma)}) on {self.n} vertices, degree {self.d}"
        )


def build_graph(ctx: RingContext, gamma: Optional[RingElement] = None) -> GraphSpec:
    """Construct Cay(GR+, gamma*G1 (union -gamma*G1 for p = 2))."""
    if gamma is None:
        gamma = ctx.one
    if gamma.ctx.key != ctx.key:
        raise ContextMismatchError("gamma belongs to a different ring")
    if not is_unit(gamma):
        raise ParameterError(
            f"gamma = {coeff_string(gamma)} is not a unit; a zero-divisor "
            "multiple collapses the Teichmuller set and the construction "
            "degenerates to a directed multigraph, which is unsupported"
        )

    q = ctx.q
    half = (ctx.teich_digits @ _multiplication_matrix(gamma).T) % q
    s_digits = np.vstack([half, (-half) % q]) if ctx.p == 2 else half
    s_indices = ctx.indices_from_digits(s_digits)
    if ctx.p == 2:
        h = len(half)
        if not set(s_indices[:h].tolist()).isdisjoint(s_indices[h:].tolist()):
            raise IntegrityError("gamma*G1 meets its own negation in characteristic 2^e")

    seen = set(s_indices.tolist())
    if len(seen) != len(s_indices):
        raise IntegrityError("connection set has repeated elements")
    if 0 in seen:
        raise IntegrityError("connection set contains zero")
    if not seen.issuperset(ctx.indices_from_digits((-s_digits) % q).tolist()):
        raise IntegrityError("connection set is not closed under negation")

    expected_d = 2 * (ctx.p**ctx.r - 1) if ctx.p == 2 else ctx.p**ctx.r - 1
    if len(s_indices) != expected_d:
        raise IntegrityError(
            f"connection set has {len(s_indices)} elements, expected {expected_d}"
        )

    return GraphSpec(ctx, gamma, ctx.size, expected_d, s_indices, s_digits)


def _neighbour_indices(spec: GraphSpec, digits: np.ndarray) -> np.ndarray:
    """(m, d) uint32 flat indices of u + S, in connection-set order, for the
    (m, r) digit rows of m vertices u.

    The sum is formed digit by digit on two (m, d) arrays, whatever q is;
    uint32 holds it, since every flat index is below n <= MAX_RING_SIZE =
    2^32 and every digit sum below 2q <= 2^17.
    """
    q = np.uint32(spec.ctx.q)
    u = digits.astype(np.uint32)
    s = spec.s_digits.astype(np.uint32)
    targets = np.zeros((len(u), spec.d), dtype=np.uint32)
    digit = np.empty_like(targets)
    for i, w in enumerate(spec.ctx._weights):
        np.add(u[:, i, None], s[:, i], out=digit)
        digit %= q
        digit *= np.uint32(w)
        targets += digit
    return targets


def neighbors(spec: GraphSpec, v: VertexId) -> list[VertexId]:
    """The d neighbours of vertex v, ascending."""
    if not (0 <= v < spec.n):
        raise RangeError(f"vertex {v} outside [0, {spec.n})")
    vd = spec.ctx.digits_of(np.array([v], dtype=np.int64))
    return np.sort(_neighbour_indices(spec, vd)[0]).tolist()


def _decimal_chunks() -> np.ndarray:
    """Four ASCII bytes per chunk value c < 10^4, as one uint32 word each.

    Entry c writes c with leading zeros, for a chunk with a nonzero chunk
    above it.  Entry 10^4 + c writes NUL bytes in place of those zeros (0 is
    all NUL), for a chunk with none above it; entry 2*10^4 + c is the same
    but writes 0 as "0", for the lowest chunk with none above it.
    """
    c = np.arange(10_000)[:, None]
    place = np.array([1000, 100, 10, 1])
    padded = c // place % 10 + ord("0")
    leading = np.where(c >= place, padded, 0)
    lowest = np.where((c >= place) | (place == 1), padded, 0)
    return np.vstack([padded, leading, lowest]).astype(np.uint8).view(np.uint32).ravel()


def _decimal(x: np.ndarray, words: int, chunks: np.ndarray) -> np.ndarray:
    """(m, words) uint32 chunk words of the decimal ASCII of m integers in
    [0, min(10^(4*words), 2^32)), right aligned, NUL bytes in place of
    leading zeros."""
    x = x.astype(np.uint32, copy=False)
    out = np.empty((len(x), words), dtype=np.uint32)
    for k in range(words - 1, -1, -1):
        x, low = np.divmod(x, np.uint32(10_000))
        lead = 20_000 if k == words - 1 else 10_000
        out[:, k] = chunks[np.where(x, low, low + lead)]
    return out


def export_edges(spec: GraphSpec, sink: IO[str]) -> int:
    """Write the undirected edge list as text and return the edge count.

    One header line `# p e r gamma n d`, then one `u v` line per edge with
    u < v, sorted by u then v.  The edges are formed, sorted and formatted
    a block of about EXPORT_BLOCK neighbours at a time: each line is laid
    out at a fixed width with NUL bytes for leading zeros, which are then
    dropped, so no Python code runs per edge.
    """
    ctx = spec.ctx
    sink.write(
        f"# {ctx.p} {ctx.e} {ctx.r} {coeff_string(spec.gamma)} {spec.n} {spec.d}\n"
    )
    chunks = _decimal_chunks()
    width = len(str(spec.n - 1))
    words = -(-width // 4)
    field = slice(4 * words - width, None)
    count = 0
    rows = max(1, EXPORT_BLOCK // spec.d)
    for lo in range(0, spec.n, rows):
        block = np.arange(lo, min(lo + rows, spec.n), dtype=np.int64)
        targets = _neighbour_indices(spec, ctx.digits_of(block))
        targets.sort(axis=1)
        later = targets > block[:, None]
        ws = targets[later]
        us = np.repeat(_decimal(block, words, chunks), later.sum(axis=1), axis=0)
        line = np.empty((len(ws), 2 * width + 2), dtype=np.uint8)
        line[:, :width] = us.view(np.uint8)[:, field]
        line[:, width] = ord(" ")
        line[:, width + 1 : -1] = _decimal(ws, words, chunks).view(np.uint8)[:, field]
        line[:, -1] = ord("\n")
        sink.write(line.tobytes().translate(None, b"\0").decode("ascii"))
        count += len(ws)
    expected = spec.n * spec.d // 2
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
    RingParams when the ring fits the supported size, else None.
    """
    if not _is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")
    delta = parse_delta(delta)
    if r < 2:
        raise ParameterError(f"r must be at least 2, got {r}")
    e_frac = delta * r
    if e_frac.denominator != 1:
        raise ParameterError(f"delta*r = {e_frac} is not an integer at r = {r}")
    e = int(e_frac)
    if e < 2:
        raise ParameterError(f"delta*r = {e} is below 2 at r = {r}")

    n = p ** (e * r)
    d = 2 * (p**r - 1) if p == 2 else p**r - 1
    c, k, pr, bound = spectral_interval_bound(p, e, r)
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
