"""The zeta sweep without Frobenius classes.

Runs the character-sum kernel on every row of orbit_representatives, one
block after another, the way zeta_sums did before it summed once per
Frobenius class; it reads no class table.
"""

import numpy as np

from grcayley import character_sums, orbit_representatives, trace_basis_matrix
from grcayley.cayley import BLOCK_PAIRS


def row_zeta_sums(ctx):
    """(digits, valuation, re, im) with zeta summed on every orbit row."""
    digits, val = orbit_representatives(ctx)
    w_t = trace_basis_matrix(ctx, ctx.teich_digits).T.astype(np.float64)
    block = max(1, BLOCK_PAIRS // len(ctx.teich_digits))
    parts = [
        character_sums(ctx, w_t, digits[lo : lo + block])
        for lo in range(0, len(val), block)
    ]
    re, im = (np.concatenate(part) for part in zip(*parts))
    return digits, val, re, im
