"""The row sweep: zeta summed directly on every G1-orbit representative.

Runs a vectorised character-sum kernel over G1 on every row of
orbit_oracle.orbit_representatives, one block after another.  It takes no
Fourier transform and reads no row numbering of zeta_sums, so it checks
the transform's values and, through zeta_beta, its rows.
"""

import numpy as np

from orbit_oracle import orbit_representatives
from grcayley.cayley import BLOCK_PAIRS


def trace_basis_matrix(ctx, digits):
    """(m, r) matrix with entry [j, i] = T(x^i * a_j) for coefficient rows
    a_j: the rows @ the trace form's Gram matrix, mod q."""
    return np.asarray(digits, dtype=np.int64) @ ctx.trace_gram % ctx.q


def character_sums(ctx, w_t, digits):
    """Real and imaginary parts of sum_s omega^(T(beta*s)), one per
    coefficient row beta of digits.

    w_t is the transposed trace-basis matrix of the summation set, as
    float64; the product is exact, its entries staying below 2^53.  Exact
    int64 parts when p^e = 4, float64 otherwise.
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
