"""Scalar reference for the connection set of build_graph.

Forms gamma * xi^k one RingElement product at a time over the scalar
powers of xi, adjoins the negations for p = 2, and reads flat indices with
.index, so it shares no code with the digit-array construction it checks.
"""

import numpy as np

from grcayley import RangeError


def connection_set(ctx, gamma):
    """gamma*xi^k for k = 0..p^r-2, then -gamma*xi^k when p = 2."""
    half, u = [], ctx.one
    for _ in range(ctx.p**ctx.r - 1):
        half.append(gamma * u)
        u = u * ctx.xi
    return half + [-s for s in half] if ctx.p == 2 else half


def connection_rows(ctx, gamma):
    """(flat indices, coefficient rows) of connection_set, in its order."""
    elements = connection_set(ctx, gamma)
    return [s.index for s in elements], [list(s.coeffs) for s in elements]


def neighbors(spec, v):
    """The d neighbours of vertex v, ascending: v + s over spec's connection
    set, summed as int64 coefficient rows rather than through the uint32
    flat-index path that export_edges uses."""
    if not 0 <= v < spec.n:
        raise RangeError(f"vertex {v} outside [0, {spec.n})")
    ctx = spec.ctx
    rows = (ctx.digits_of(np.array([v])) + spec.s_digits) % ctx.q
    return sorted(ctx.indices_from_digits(rows).tolist())
