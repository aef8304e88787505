"""Scalar reference for the character-sum kernel.

Sums omega^(T(gamma*s)) one element at a time, with RingElement
multiplication and the scalar trace of ring_oracle, so it shares no code with the
vectorised trace-basis path it checks.
"""

import math

from ring_oracle import trace


def trace_counts(elements, gamma):
    """Histogram of T(gamma*s) over s in elements, indexed by residue mod q."""
    counts = [0] * gamma.ctx.q
    for s in elements:
        counts[trace(gamma * s)] += 1
    return counts


def character_sum(elements, gamma):
    """(re, im) of the sum: exact ints for q = 4, floats otherwise."""
    counts = trace_counts(elements, gamma)
    q = len(counts)
    if q == 4:
        return counts[0] - counts[2], counts[1] - counts[3]
    re = sum(c * math.cos(2 * math.pi * k / q) for k, c in enumerate(counts))
    im = sum(c * math.sin(2 * math.pi * k / q) for k, c in enumerate(counts))
    return re, im
