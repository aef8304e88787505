"""Acceptance gate: thirteen criteria, one printed [PASS]/[FAIL] line each.

Covers exact even-characteristic spectra and the Ramanujan property, unit
character-sum norms, oracle agreement, odd-characteristic interval bounds,
the whole-ring character-sum bound, girth, energy, the residue partition,
connectivity with the spectral diameter bound, the ring structure maps,
the exact spectral and character-sum claims on 2^24 vertices, and every
default check of verify_graph on 2^24 and on 2^28 vertices.
"""

import math
import time

import numpy as np
import pytest

from grcayley import (
    RingParams,
    build_graph,
    check_bhk,
    check_interval,
    check_residue_partition,
    check_wcu_summary,
    connectivity,
    energy_report,
    full_spectrum,
    girth,
    is_ramanujan,
    make_ring,
    triangle_count,
    verify_graph,
)
from grcayley.analysis import DEFAULT_CHECKS
from ring_oracle import frobenius, frobenius_matrix
from spectrum_oracle import oracle_spectrum, spectral_deviation

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

EXHAUSTIVE_LIMIT = 1 << 16
WCU_LIMIT = 1 << 20


def _instances(limit):
    """Every supported (p, e, r) with p^(e*r) <= limit."""
    out = []
    for p in PRIMES:
        if p**4 > limit:
            break
        e = 2
        while p ** (2 * e) <= limit:
            r = 2
            while p ** (e * r) <= limit:
                out.append((p, e, r))
                r += 1
            e += 1
    return out


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def ring_of():
    cache = {}

    def get(p, e, r):
        key = (p, e, r)
        if key not in cache:
            cache[key] = make_ring(RingParams(p, e, r))
        return cache[key]

    return get


def test_criterion_01_ramanujan_even_char(ring_of):
    failures = []
    elapsed_top = 0.0
    for r in range(4, 9):
        start = time.perf_counter()
        spec = build_graph(ring_of(2, 2, r))
        sp = full_spectrum(spec)
        interval = check_interval(spec, sp)
        ramanujan = is_ramanujan(sp)
        elapsed = time.perf_counter() - start
        if r == 8:
            elapsed_top = elapsed
        if not sp.exact:
            failures.append(f"r={r} spectrum not exact")
        if not interval.holds:
            failures.append(f"r={r} interval violated at {interval.witness}")
        if not ramanujan.holds:
            failures.append(f"r={r} lambda(G)={ramanujan.observed_value}")
    if elapsed_top > 60.0:
        failures.append(f"r=8 took {elapsed_top:.1f}s > 60s")
    _report(
        "criterion-01 ramanujan-even-char",
        not failures,
        "; ".join(failures)
        or f"r=4..8 exact spectra within bounds, r=8 in {elapsed_top:.1f}s",
    )


def test_criterion_02_unit_character_norms(ring_of):
    failures = []
    for r in range(2, 9):
        rep = check_bhk(ring_of(2, 2, r))
        if not (rep.holds and rep.observed_value == 0):
            failures.append(f"r={r} deviation {rep.observed_value}")
    _report(
        "criterion-02 unit-character-norms",
        not failures,
        "; ".join(failures) or "r=2..8 exact norms, zero deviation",
    )


def test_criterion_03_smallest_graph_spectrum(ring_of):
    spec = build_graph(ring_of(2, 2, 2))
    sp = full_spectrum(spec)
    start = time.perf_counter()
    osp = oracle_spectrum(spec)
    oracle_elapsed = time.perf_counter() - start
    dev = spectral_deviation(sp, osp)
    ok = (
        sp.entries == ((6, 1), (2, 6), (-2, 9))
        and dev <= 1e-6
        and oracle_elapsed < 1.0
    )
    _report(
        "criterion-03 smallest-graph-spectrum",
        ok,
        f"entries {sp.entries}, oracle deviation {dev:.2e} in {oracle_elapsed:.3f}s",
    )


def test_criterion_04_odd_char_interval(ring_of):
    failures = []
    worst_dev = 0.0
    for r in (2, 3):
        spec = build_graph(ring_of(3, 2, r))
        sp = full_spectrum(spec)
        rep = check_interval(spec, sp)
        if not rep.holds:
            failures.append(f"r={r} interval violated at {rep.witness}")
        dev = spectral_deviation(sp, oracle_spectrum(spec))
        worst_dev = max(worst_dev, dev)
        if dev > 1e-6:
            failures.append(f"r={r} oracle deviation {dev:.2e}")
    _report(
        "criterion-04 odd-char-interval",
        not failures,
        "; ".join(failures)
        or f"n=81,729 within interval, worst oracle deviation {worst_dev:.2e}",
    )


def test_criterion_05_character_sum_bound(ring_of):
    catalog = _instances(WCU_LIMIT)
    assert len(catalog) == 54, f"catalog enumerates {len(catalog)} instances"
    failures = []
    worst = -math.inf
    for p, e, r in catalog:
        rep = check_wcu_summary(ring_of(p, e, r))
        worst = max(worst, rep.observed_value)
        if not rep.holds:
            failures.append(f"({p},{e},{r}) gamma={rep.witness}")
    _report(
        "criterion-05 character-sum-bound",
        not failures,
        "; ".join(failures)
        or f"{len(catalog)} instances, every gamma, worst excess {worst:.2e}",
    )


def test_criterion_06_girth(ring_of):
    failures = []
    observed = {}
    for r, expected in ((2, 3), (3, 4), (5, 4)):
        spec = build_graph(ring_of(2, 2, r))
        g = girth(spec)
        t = triangle_count(spec)
        observed[r] = (g, t)
        if g != expected:
            failures.append(f"r={r} girth {g} != {expected}")
        if (g == 3) != (t > 0):
            failures.append(f"r={r} girth {g} inconsistent with {t} triangles")
        if r in (3, 5) and t != 0:
            failures.append(f"r={r} has {t} triangles")
    _report(
        "criterion-06 girth",
        not failures,
        "; ".join(failures) or f"girth,triangles by r: {observed}",
    )


def test_criterion_07_energy_integrality(ring_of):
    failures = []
    energies = {}
    for r in range(2, 7):
        sp = full_spectrum(build_graph(ring_of(2, 2, r)))
        rec = energy_report(sp)
        energies[r] = rec["energy"]
        if not sp.exact or not all(isinstance(v, int) for v, _ in sp.entries):
            failures.append(f"r={r} spectrum not integral")
        if not rec["hyperenergetic"]:
            failures.append(f"r={r} energy {rec['energy']} <= {rec['threshold']}")
    if energies.get(2) != 36:
        failures.append(f"smallest graph energy {energies.get(2)} != 36")
    _report(
        "criterion-07 energy-integrality",
        not failures,
        "; ".join(failures) or f"r=2..6 integral and hyperenergetic, E: {energies}",
    )


def test_criterion_08_residue_partition(ring_of):
    failures = []
    for r in range(2, 6):
        ctx = ring_of(2, 2, r)
        for label, gamma in (("1", ctx.one), ("xi", ctx.xi)):
            rep = check_residue_partition(ctx, gamma)
            if not rep.holds:
                failures.append(f"r={r} gamma={label}: {rep.witness}")
    _report(
        "criterion-08 residue-partition",
        not failures,
        "; ".join(failures) or "r=2..5, gamma in {1, xi}: units and non-units covered",
    )


def test_criterion_09_connectivity_diameter(ring_of):
    keys = [
        (2, 2, 2),
        (2, 2, 3),
        (2, 2, 4),
        (2, 2, 5),
        (2, 2, 6),
        (2, 3, 2),
        (2, 3, 3),
        (2, 4, 2),
        (3, 2, 2),
        (3, 2, 3),
        (5, 2, 2),
    ]
    failures = []
    connected = 0
    guaranteed = 0
    for key in keys:
        spec = build_graph(ring_of(*key))
        rec = connectivity(spec, full_spectrum(spec))
        if rec["connected"]:
            connected += 1
        if rec["condition_e_below_half_r_plus_one"]:
            guaranteed += 1
        if not rec["consistent_with_condition"]:
            failures.append(f"{key} disconnected despite 2e < r+2")
        if not rec.get("diameter_within_chung", True):
            failures.append(
                f"{key} diameter {rec['diameter']} > {rec['chung_bound']:.3f}"
            )
        if not rec.get("degree_multiplicity_matches_components", True):
            failures.append(f"{key} degree multiplicity != components")
    _report(
        "criterion-09 connectivity-diameter",
        not failures,
        "; ".join(failures)
        or f"{len(keys)} instances, {connected} connected, "
        f"{guaranteed} with the sufficient condition, diameters within bound",
    )


def _primes_dividing(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _ring_core_defect(ctx, rng):
    """First failing property name, or None; exhaustive below 2^16 elements."""
    p, q, r, n = ctx.p, ctx.q, ctx.r, ctx.size
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        idx = np.arange(n, dtype=np.int64)
    else:
        idx = np.unique(rng.integers(0, n, 12000))
    co = ctx.digits_of(idx)
    # the oracle's matrix of sigma, built once per ring from sigma(x^i)
    m1 = frobenius_matrix(ctx, 1)

    cur = co
    for _ in range(r):
        cur = (cur @ m1.T) % q
    if not (cur == co).all():
        return "frobenius order != r"

    # T(a) = sum_k frobenius^k(a) must lie in Z_q: coefficients 1..r-1 vanish
    t_mat = sum(frobenius_matrix(ctx, k) for k in range(r)) % q
    if t_mat[1:].any():
        return "trace not scalar-valued"
    if tuple(t_mat[0].tolist()) != ctx.trace_form:
        return "trace_form differs from the conjugate sum"

    def tr(digits):
        return (digits @ t_mat[0]) % q

    block = 1 << 16
    counts = sum(
        np.bincount(tr(ctx.digits_of(np.arange(lo, min(lo + block, n)))), minlength=q)
        for lo in range(0, n, block)
    )
    if not (counts == n // q).all():
        return "trace not balanced onto Z_q"

    if not (tr((co @ m1.T) % q) == tr(co)).all():
        return "trace not frobenius-invariant"

    if n <= 256:
        ia = np.repeat(np.arange(n, dtype=np.int64), n)
        ib = np.tile(np.arange(n, dtype=np.int64), n)
    else:
        ia = rng.integers(0, n, 10000)
        ib = rng.integers(0, n, 10000)
    da, db = ctx.digits_of(ia), ctx.digits_of(ib)
    if not (tr((da + db) % q) == (tr(da) + tr(db)) % q).all():
        return "trace not additive"

    order = p**r - 1
    if ctx.xi**order != ctx.one:
        return "xi order does not divide p^r - 1"
    for ell in _primes_dividing(order):
        if ctx.xi ** (order // ell) == ctx.one:
            return "xi order below p^r - 1"

    reps = np.array([0] + [u.index for u in ctx.teichmuller_units], dtype=np.int64)
    dt = ctx.digits_of(reps)
    for i in range(reps.size):
        unit = (((dt - dt[i]) % q) % p != 0).any(axis=1)
        unit[i] = True
        if not unit.all():
            return "teichmuller difference is a non-unit"

    for _ in range(400 if exhaustive else 500):
        a = ctx.from_index(int(rng.integers(0, n)))
        b = ctx.from_index(int(rng.integers(0, n)))
        if frobenius(a * b) != frobenius(a) * frobenius(b):
            return "frobenius not multiplicative"
        if frobenius(a + b) != frobenius(a) + frobenius(b):
            return "frobenius not additive"
    return None


def test_criterion_10_ring_structure(ring_of):
    catalog = _instances(WCU_LIMIT)
    small = [k for k in catalog if k[0] ** (k[1] * k[2]) <= EXHAUSTIVE_LIMIT]
    assert len(small) == 33, f"exhaustive catalog enumerates {len(small)} rings"
    failures = []
    for p, e, r in catalog:
        rng = np.random.default_rng(p * 1_000_000 + e * 1_000 + r)
        defect = _ring_core_defect(ring_of(p, e, r), rng)
        if defect:
            failures.append(f"({p},{e},{r}): {defect}")
    _report(
        "criterion-10 ring-structure",
        not failures,
        "; ".join(failures)
        or f"{len(small)} rings exhaustive, {len(catalog) - len(small)} sampled "
        ">= 10^4 elements each",
    )


def test_criterion_11_exact_claims_at_2_24(ring_of):
    start = time.perf_counter()
    ctx = ring_of(2, 2, 12)
    spec = build_graph(ctx)
    sp = full_spectrum(spec)
    reports = [
        check_interval(spec, sp),
        is_ramanujan(sp),
        check_bhk(ctx),
        check_wcu_summary(ctx),
    ]
    elapsed = time.perf_counter() - start
    failures = [f"{rep.claim_id} fails at {rep.witness}" for rep in reports if not rep.holds]
    if not sp.exact:
        failures.append("spectrum not exact")
    _report(
        "criterion-11 exact-claims-at-2^24",
        not failures,
        "; ".join(failures)
        or f"n={spec.n}: interval, ramanujan, bhk and wcu exact in {elapsed:.1f}s, "
        f"spectrum {sp.entries}",
    )


def _default_verify(ctx, name):
    start = time.perf_counter()
    spec = build_graph(ctx)
    report = verify_graph(spec)
    elapsed = time.perf_counter() - start
    claims = report["claims"]
    failures = [
        f"{c['claim_id']} fails at {c['witness']}" for c in claims if not c["holds"]
    ]
    if [c["claim_id"] for c in claims] != sorted(DEFAULT_CHECKS):
        failures.append(f"claims {[c['claim_id'] for c in claims]}")
    _report(
        name,
        not failures,
        "; ".join(failures)
        or f"n={spec.n}: all {len(claims)} default claims hold in {elapsed:.1f}s",
    )


def test_criterion_12_default_verify_at_2_24(ring_of):
    _default_verify(ring_of(2, 2, 12), "criterion-12 default-verify-at-2^24")


def test_criterion_13_default_verify_at_2_28(ring_of):
    _default_verify(ring_of(2, 2, 14), "criterion-13 default-verify-at-2^28")
