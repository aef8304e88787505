"""Dense reference for full_spectrum.

Builds the n x n adjacency matrix from the connection set by coefficient
addition and diagonalises it with numpy's symmetric eigensolver, then
groups the eigenvalues with its own plain rule (group_values), so it
shares no code with the character-sum path or the merge it checks.
Capped at ORACLE_CUTOFF vertices.
"""

import numpy as np

from grcayley import IntegrityError, ParameterError, SizeError, Spectrum

ORACLE_CUTOFF = 4096
ORACLE_TOL = 1e-6


def group_values(values, tol=ORACLE_TOL):
    """(mean, count) of each run of the values, descending, whose
    consecutive gaps stay within tol."""
    values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    runs = np.split(values, np.flatnonzero(values[:-1] - values[1:] > tol) + 1)
    return tuple((float(run.mean()), run.size) for run in runs)


def oracle_spectrum(spec):
    """Spectrum by dense symmetric eigensolve on the adjacency matrix.

    Grouped values within ORACLE_TOL of an integer are snapped to it, for
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
    snapped = tuple(
        (int(round(v)) if abs(v - round(v)) <= ORACLE_TOL else v, m)
        for v, m in group_values(np.linalg.eigvalsh(adj))
    )
    return Spectrum(entries=snapped, exact=False, n=n, d=spec.d)


def spectral_deviation(a, b):
    """Largest pointwise gap between two sorted full eigenvalue lists."""
    if a.n != b.n:
        raise ParameterError(f"spectra have different sizes {a.n} and {b.n}")
    return float(np.abs(a.expanded() - b.expanded()).max())
