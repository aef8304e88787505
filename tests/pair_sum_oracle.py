"""Brute-force reference for girth and triangle_count.

Forms all d^2 pair sums s_i + s_j of the connection set and searches them
directly, without the G1 symmetry the library's orbit-head count relies on.
"""

import numpy as np


def pair_sums(spec):
    """(d, d) flat indices of s_i + s_j."""
    ctx = spec.ctx
    return ctx.indices_from_digits((spec.s_digits[:, None, :] + spec.s_digits) % ctx.q)


def triangle_count(spec):
    """n * #{(i, j) : s_i + s_j in S} / 6: each triangle through vertex 0 is
    the ordered pair (s_i, s_i + s_j) of its other vertices, twice over."""
    total = spec.n * int(np.isin(pair_sums(spec), spec.s_indices).sum())
    assert total % 6 == 0, total
    return total // 6


def girth(spec):
    """3 when a pair sum lies in S (the triangle 0, s_i, s_i + s_j), 4 when
    two ordered pairs share a nonzero sum (the square 0, a, a + b = c + d,
    c), None when neither."""
    sums = pair_sums(spec)
    if np.isin(sums, spec.s_indices).any():
        return 3
    nonzero = sums[sums != 0]
    return 4 if np.unique(nonzero).size < nonzero.size else None
