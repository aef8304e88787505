"""Dense reference for full_spectrum, and loop references for the
reductions over a Spectrum.

oracle_spectrum builds the n x n adjacency matrix from the connection set
by coefficient addition and diagonalises it with numpy's symmetric
eigensolver, then groups the eigenvalues with its own plain rule
(group_values), so it shares no code with the character-sum path or the
merge it checks.  Capped at ORACLE_CUTOFF vertices.

The reference_* functions are the per-entry Python loops that the array
reductions of Spectrum, check_interval, energy_report and _merge_numeric
replaced, kept as they were, over the (value, multiplicity) pairs.
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
    return make_spectrum(snapped, False, n, spec.d)


def make_spectrum(entries, exact, n, d):
    """A Spectrum from descending (value, multiplicity) pairs: int64 values
    when exact, float64 otherwise."""
    values = np.array([v for v, _ in entries], dtype=np.int64 if exact else np.float64)
    mults = np.array([m for _, m in entries], dtype=np.int64)
    return Spectrum(values, mults, n, d)


def reference_merge(values, tol, weights):
    """Group sorted values whose consecutive gaps stay within tol, each value
    counting weights[i] times, descending.

    A group reports its total weight and its value: the one value it holds
    when tol is 0 (a Python int for integer values), else the weighted mean.
    """
    order = np.argsort(values, kind="stable")
    values, weights = values[order], weights[order]
    cuts = np.flatnonzero(np.diff(values) > tol)
    starts = np.concatenate(([0], cuts + 1))
    ends = np.concatenate((cuts + 1, [values.size]))
    entries = []
    for s, e in zip(starts, ends):
        m = int(weights[s:e].sum())
        value = float((values[s:e] * weights[s:e]).sum() / m) if tol else values[s].item()
        entries.append((value, m))
    entries.reverse()
    return tuple(entries)


def reference_expanded(sp):
    """All n eigenvalues, descending, as float64."""
    out = np.empty(sp.n, dtype=np.float64)
    pos = 0
    for v, m in sp.entries:
        out[pos : pos + m] = v
        pos += m
    return out


def reference_multiplicity_of(sp, value):
    total = 0
    for v, m in sp.entries:
        if abs(v - value) <= sp.tol:
            total += m
    return total


def reference_lambda_g(sp):
    """Largest |eigenvalue| after dropping values within tol of +-degree."""
    best = 0
    for v, m in sp.entries:
        if abs(abs(v) - sp.d) <= sp.tol:
            continue
        best = max(best, abs(v))
    return best


def reference_energy(sp):
    return sum(abs(v) * m for v, m in sp.entries)


def reference_abs_le_sqrt_bound(value, c, k, pr, tol=0):
    """Test of |value| <= c*sqrt(pr) + k + tol, exact for integers at tol 0."""
    lhs = abs(value) - k - tol
    return lhs <= 0 or lhs * lhs <= c * c * pr


def reference_interval(sp, d, c, k, pr):
    """(holds, worst, witness) of check_interval: every value not within tol
    of d against c*sqrt(pr) + k, the first failure in descending order."""
    worst = 0
    witness = None
    ok_all = True
    for v, _ in sp.entries:
        if abs(v - d) <= sp.tol:
            continue
        ok = reference_abs_le_sqrt_bound(v, c, k, pr, sp.tol)
        worst = max(worst, abs(v))
        if not ok:
            ok_all = False
            if witness is None:
                witness = v
    return ok_all, worst, witness


def reference_integral(sp):
    return all(abs(v - round(v)) <= sp.tol for v, _ in sp.entries)


def spectral_deviation(a, b):
    """Largest pointwise gap between two sorted full eigenvalue lists."""
    if a.n != b.n:
        raise ParameterError(f"spectra have different sizes {a.n} and {b.n}")
    return float(np.abs(a.expanded() - b.expanded()).max())
