"""Cayley graphs on the additive group of a Galois ring.

The connection set is a unit multiple gamma*G1 of the Teichmuller units,
closed up under negation.  For p = 2 that means adjoining -gamma*G1, which
is disjoint from gamma*G1 (no Teichmuller unit is -1 times another when
2 != 0); for odd p the set gamma*G1 is already symmetric because -1 is the
unique order-2 element of the cyclic group G1.  Vertices are the ring
elements under their flat index, so the graph on p^(er) vertices is
d-regular with d = 2(p^r - 1) or p^r - 1.
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
    coeff_string,
    is_unit,
)

VertexId = int

EXPORT_BLOCK = 1 << 20  # neighbours formed per block


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """A built graph: context, twist gamma, connection set, and cached
    digit rows of the connection set for the vectorised kernels."""

    ctx: RingContext
    gamma: RingElement
    connection_set: tuple[RingElement, ...]
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

    half = [gamma * u for u in ctx.teichmuller_units]
    if ctx.p == 2:
        mirror = [-s for s in half]
        overlap = {s.coeffs for s in half} & {s.coeffs for s in mirror}
        if overlap:
            raise IntegrityError("gamma*G1 meets its own negation in characteristic 2^e")
        connection = half + mirror
    else:
        connection = half

    seen = {s.coeffs for s in connection}
    if len(seen) != len(connection):
        raise IntegrityError("connection set has repeated elements")
    if any(s.is_zero for s in connection):
        raise IntegrityError("connection set contains zero")
    if any(tuple((-c) % ctx.q for c in s.coeffs) not in seen for s in connection):
        raise IntegrityError("connection set is not closed under negation")

    expected_d = 2 * (ctx.p**ctx.r - 1) if ctx.p == 2 else ctx.p**ctx.r - 1
    if len(connection) != expected_d:
        raise IntegrityError(
            f"connection set has {len(connection)} elements, expected {expected_d}"
        )

    s_indices = np.array([s.index for s in connection], dtype=np.int64)
    s_digits = ctx.digits_of(s_indices)
    return GraphSpec(
        ctx=ctx,
        gamma=gamma,
        connection_set=tuple(connection),
        n=ctx.size,
        d=expected_d,
        s_indices=s_indices,
        s_digits=s_digits,
    )


def neighbors(spec: GraphSpec, v: VertexId) -> list[VertexId]:
    """The d neighbours of vertex v, ascending."""
    if not (0 <= v < spec.n):
        raise RangeError(f"vertex {v} outside [0, {spec.n})")
    ctx = spec.ctx
    vd = ctx.digits_of(np.array([v], dtype=np.int64))
    targets = ctx.indices_from_digits((vd + spec.s_digits) % ctx.q)
    return sorted(int(t) for t in targets)


def export_edges(spec: GraphSpec, sink: IO[str]) -> int:
    """Write the undirected edge list as text and return the edge count.

    One header line `# p e r gamma n d`, then one `u v` line per edge with
    u < v, sorted by u then v.
    """
    ctx = spec.ctx
    sink.write(
        f"# {ctx.p} {ctx.e} {ctx.r} {coeff_string(spec.gamma)} {spec.n} {spec.d}\n"
    )
    count = 0
    rows = max(1, EXPORT_BLOCK // spec.d)
    for lo in range(0, spec.n, rows):
        block = np.arange(lo, min(lo + rows, spec.n), dtype=np.int64)
        nb = ctx.digits_of(block)[:, None, :] + spec.s_digits
        nb %= ctx.q
        targets = ctx.indices_from_digits(nb)
        targets.sort(axis=1)
        for row, u in enumerate(block):
            u = int(u)
            for w in targets[row]:
                w = int(w)
                if w > u:
                    sink.write(f"{u} {w}\n")
                    count += 1
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
