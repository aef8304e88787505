"""Dense reference for full_spectrum.

Builds the n x n adjacency matrix from the connection set by coefficient
addition and diagonalises it with numpy's symmetric eigensolver, so it
shares no code with the character-sum path it checks.  Capped at
ORACLE_CUTOFF vertices.
"""

import numpy as np

from grcayley import IntegrityError, ParameterError, SizeError, Spectrum
from grcayley.spectrum import MERGE_TOL, _merge_numeric

ORACLE_CUTOFF = 4096


def oracle_spectrum(spec):
    """Spectrum by dense symmetric eigensolve on the adjacency matrix.

    Merged values within 1e-6 of an integer are snapped to it, for
    comparisons.
    """
    n, ctx = spec.n, spec.ctx
    if n > ORACLE_CUTOFF:
        raise SizeError(f"oracle eigensolve on {n} vertices exceeds the 4096 cutoff")
    idx = np.arange(n, dtype=np.int64)
    sums = (ctx.digits_of(idx)[:, None, :] + spec.s_digits) % ctx.q
    adj = np.zeros((n, n), dtype=np.float64)
    adj[idx[:, None], ctx.indices_from_digits(sums)] = 1.0
    if not np.array_equal(adj, adj.T):
        raise IntegrityError("adjacency matrix is not symmetric")
    merged = _merge_numeric(np.linalg.eigvalsh(adj), MERGE_TOL)
    snapped = tuple(
        (int(round(v)) if abs(v - round(v)) <= MERGE_TOL else v, m)
        for v, m in merged
    )
    return Spectrum(entries=snapped, exact=False, n=n, d=spec.d)


def spectral_deviation(a, b):
    """Largest pointwise gap between two sorted full eigenvalue lists."""
    if a.n != b.n:
        raise ParameterError(f"spectra have different sizes {a.n} and {b.n}")
    return float(np.abs(a.expanded() - b.expanded()).max())
