"""Covering-count reference for check_residue_partition.

Walks every coset element by element through repeated multiplication by
xi and counts, over all n ring elements, how often the unit cosets and
the non-unit set reach each one; it uses no orbit rows.
"""

import numpy as np

from grcayley import ClaimReport
from grcayley.ring import _multiplication_matrix


def residue_partition(ctx, gamma):
    """ClaimReport with the library's fields: bound_value counts the units,
    observed_value the elements the unit cosets reach, and a failure's
    witness is the smallest index covered a wrong number of times."""
    q, n, order = ctx.q, ctx.size, 2**ctx.r - 1
    g1 = ctx.teich_digits
    one = g1[:1]
    # rows gamma, -gamma, (1 - xi^t)*gamma for t = 1..2^r-2, then 2*gamma
    base = np.vstack([one, (-one) % q, (one - g1[1:]) % q, 2 * one])
    cur = (base @ _multiplication_matrix(gamma).T) % q
    m_xi = _multiplication_matrix(ctx.xi).T
    cosets = np.empty((cur.shape[0], order), dtype=np.int64)
    for j in range(order):
        cosets[:, j] = ctx.indices_from_digits(cur)
        cur = (cur @ m_xi) % q

    # the non-units are the elements with every coefficient even
    bits = (np.arange(2**ctx.r)[:, None] >> np.arange(ctx.r)) & 1
    unit = np.ones(n, dtype=bool)
    unit[ctx.indices_from_digits(2 * bits)] = False
    unit_count = np.bincount(cosets[:-1].ravel(), minlength=n)
    nonunit_count = np.bincount(np.append(cosets[-1], 0), minlength=n)
    wrong = np.flatnonzero((unit_count != unit) | (nonunit_count != ~unit))
    holds = wrong.size == 0
    return ClaimReport(
        "residue",
        holds,
        int(unit.sum()),
        int(np.count_nonzero(unit_count)),
        None if holds else int(wrong[0]),
    )
