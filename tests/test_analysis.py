"""Claim checks against frozen values and independent graph oracles."""

import dataclasses
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import bfs_oracle
import pair_sum_oracle
from char_sum_oracle import character_sum
from connection_oracle import neighbors
from orbit_oracle import twisted_rows
from residue_oracle import residue_partition
from ring_oracle import padic_coords
from spectrum_oracle import make_spectrum, oracle_spectrum
from grcayley import (
    ClaimReport,
    IntegrityError,
    ParameterError,
    RingParams,
    SizeError,
    bfs_distances,
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
    is_unit,
    make_ring,
    triangle_count,
    verify_graph,
)
from grcayley import analysis, spectrum
from grcayley.analysis import _wcu_norm_within_bound
from grcayley.ring import BLOCK_PAIRS

SMALL_KEYS = [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]
# every supported ring with n <= 2^17
PAIR_SUM_KEYS = [
    (p, e, r)
    for p in (2, 3, 5, 7, 11, 13, 17, 19)
    for e in range(2, 18)
    for r in range(2, 18)
    if p ** (e * r) <= 1 << 17
]
# every supported ring with n <= 2^20
BFS_ORACLE_KEYS = [
    (p, e, r)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    for e in range(2, 21)
    for r in range(2, 21)
    if p ** (e * r) <= 1 << 20
]


def graph_for(p, e, r):
    return build_graph(make_ring(RingParams(p, e, r)))


def random_unit(ctx, seed):
    rng = np.random.default_rng(seed)
    while True:
        gamma = ctx.from_index(int(rng.integers(1, ctx.size)))
        if is_unit(gamma):
            return gamma


def as_networkx(spec):
    g = nx.Graph()
    g.add_nodes_from(range(spec.n))
    for u in range(spec.n):
        for v in neighbors(spec, u):
            if u < v:
                g.add_edge(u, v)
    return g


def oracle_girth(g):
    """Shortest cycle by edge removal: every shortest cycle closes over one
    of its own edges, so min over edges of dist(u, v) in g - uv, plus one."""
    best = math.inf
    for u, v in list(g.edges()):
        g.remove_edge(u, v)
        try:
            best = min(best, nx.shortest_path_length(g, u, v) + 1)
        except nx.NetworkXNoPath:
            pass
        g.add_edge(u, v)
    return best


@pytest.fixture(scope="module")
def h16():
    return graph_for(2, 2, 2)


@pytest.fixture(scope="module")
def h81():
    return graph_for(3, 2, 2)


def test_claim_report_failing_needs_witness():
    with pytest.raises(IntegrityError):
        ClaimReport("demo", False, 0, 1)
    rep = ClaimReport("demo", False, 0, 1, witness="x")
    assert rep.to_dict()["witness"] == "x"
    assert "witness" not in ClaimReport("demo", True, 0, 0).to_dict()


@pytest.mark.parametrize("key", SMALL_KEYS + [(2, 2, 4)])
def test_interval_holds(key):
    spec = graph_for(*key)
    rep = check_interval(spec, full_spectrum(spec))
    assert rep.claim_id == "interval" and rep.holds


TOL = spectrum.MERGE_TOL
# (extreme eigenvalue, exact, holds) against a bound b: exact spectra hold
# at b and fail at b + 1, numeric ones hold at b + tol/2 and fail at b + 2 tol
BOUNDARY_CASES = {
    "exact-at-bound": (0, True, True),
    "exact-above": (1, True, False),
    "numeric-half-tol": (TOL / 2, False, True),
    "numeric-two-tol": (2 * TOL, False, False),
}


@pytest.mark.parametrize("case", [None, *BOUNDARY_CASES], ids=["gr4-4", *BOUNDARY_CASES])
def test_interval_exact_endpoint(case):
    # at r = 4 the extreme eigenvalue -10 meets the bound 2*sqrt(16) + 2;
    # the hand-built spectra move it by the case's excess
    spec = graph_for(2, 2, 4)
    sp, holds = full_spectrum(spec), True
    if case is not None:
        excess, exact, holds = BOUNDARY_CASES[case]
        entries = ((30, 1), (6, 90), (-2, 135), (-10 - excess, 30))
        sp = make_spectrum(entries, exact, 256, 30)
    rep = check_interval(spec, sp)
    assert rep.bound_value == 10.0
    assert rep.observed_value == abs(sp.min_value)
    assert rep.holds == holds
    assert rep.witness == (None if holds else sp.min_value)


def wcu_bound(ctx, gamma):
    """(N-1)*sqrt(p^r) + 1 with N = p^(e-1-valuation(gamma))."""
    cap = ctx.p ** (ctx.e - 1 - padic_coords(gamma).valuation)
    return (cap - 1) * math.sqrt(ctx.p**ctx.r) + 1


def test_wcu_frozen_values(h16):
    ctx = h16.ctx
    g1 = ctx.teichmuller_units
    for gamma, bound, normsq in ((1, 3.0, 5), (2, 1.0, 1)):  # 2 is a non-unit
        z = character_sum(g1, ctx.from_index(gamma))
        assert z[0] ** 2 + z[1] ** 2 == normsq
        assert wcu_bound(ctx, ctx.from_index(gamma)) == pytest.approx(bound)
        cap = 2 ** (2 - 1 - padic_coords(ctx.from_index(gamma)).valuation)
        assert _wcu_norm_within_bound(np.array([normsq]), cap, 4).all()


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_wcu_exhaustive_and_summary_agree(key):
    ctx = make_ring(RingParams(*key))
    g1 = ctx.teichmuller_units
    holds = [
        math.hypot(*character_sum(g1, gamma)) <= wcu_bound(ctx, gamma) + 1e-9
        for gamma in map(ctx.from_index, range(1, ctx.size))
    ]
    summary = check_wcu_summary(ctx)
    assert all(holds) == summary.holds
    assert summary.holds
    assert summary.observed_value <= 1e-9


def test_wcu_exact_comparison_at_r16():
    # p^r = 2^16, e = 2: the bound on |zeta| is 257 for units (valuation 0)
    # and 1 for non-units; norms reach (2^16 - 1)^2, where squaring the
    # excess over the bound would overflow int64
    p, e, r = 2, 2, 16
    pr = p**r
    top = (pr - 1) ** 2
    boundary = {257**2: True, 257**2 + 1: False, 258**2: False}
    unit_norms = [0, 1, 256**2, *boundary, 2**31, top - 1, top]
    cases = [(n, 0) for n in unit_norms] + [(n, 1) for n in (0, 1, 2, 4, top)]
    got = {}
    for v in range(e):
        normsq = np.array([n for n, w in cases if w == v], dtype=np.int64)
        ok = _wcu_norm_within_bound(normsq, p ** (e - 1 - v), pr)
        got.update(((n, v), holds) for n, holds in zip(normsq.tolist(), ok.tolist()))
    for (n, v), ok in got.items():
        cap = p ** (e - 1 - v)
        lhs = n - (cap - 1) ** 2 * pr - 1
        assert ok == (lhs <= 0 or lhs * lhs <= 4 * (cap - 1) ** 2 * pr), (n, v)
    assert {n: got[n, 0] for n in boundary} == boundary
    assert [got[n, 1] for n in (1, 2)] == [True, False]
    assert not got[top, 0]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_bhk_exhaustive(r):
    rep = check_bhk(make_ring(RingParams(2, 2, r)))
    assert rep.holds and rep.observed_value == 0


def test_bhk_requires_char4(h81):
    with pytest.raises(ParameterError):
        check_bhk(h81.ctx)


@pytest.mark.parametrize("key", [(11, 2, 4), (3, 2, 8)])
def test_wcu_above_numeric_spectrum_cutoff(key):
    # odd p, too large for a numeric spectrum; wcu reads zeta alone
    ctx = make_ring(RingParams(*key))
    assert ctx.size > spectrum.NUMERIC_SPECTRUM_CUTOFF
    rep = check_wcu_summary(ctx)
    assert rep.holds and rep.observed_value <= 1e-9


def test_verify_size_guard_runs_before_zeta(monkeypatch):
    # odd p above the numeric spectrum cap: wcu alone still runs, and the
    # default checks exit on the cap before the transform allocates
    spec = graph_for(3, 2, 8)
    (wcu,) = verify_graph(spec, ["wcu"])["claims"]
    assert wcu["claim_id"] == "wcu" and wcu["holds"]

    def no_transform(ctx):
        raise AssertionError("zeta_sums ran before the size guard")

    monkeypatch.setattr(analysis, "zeta_sums", no_transform)
    with pytest.raises(SizeError):
        verify_graph(spec)


def test_wcu_and_bhk_hold_at_r16():
    ctx = make_ring(RingParams(2, 2, 16))
    zeta = spectrum.zeta_sums(ctx)
    wcu = check_wcu_summary(ctx, zeta)
    assert wcu.holds and wcu.observed_value <= 1e-9
    bhk = check_bhk(ctx, zeta)
    assert bhk.holds and bhk.observed_value == 0


def test_wcu_memory_per_zeta_entry():
    # (2,10,2): 349 525 zeta entries in ten blocks, the largest 2^18.  The
    # blocks are held as the transform returns them, each transformed in
    # place as one complex array (16 bytes per entry), and reduced under one
    # scalar bound, one block's |zeta| at a time: 23 bytes per entry in all;
    # separate real and imaginary bincounts beside the transform's output
    # took 36, and a concatenated copy with a valuation column 49
    ctx = make_ring(RingParams(2, 10, 2))
    entries = (ctx.size - 1) // (ctx.p**ctx.r - 1)
    tracemalloc.start()
    try:
        rep = check_wcu_summary(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.holds
    assert entries == 349525
    assert peak <= 24 * entries


@pytest.mark.parametrize("r", range(2, 9))
def test_residue_partition(r):
    ctx = make_ring(RingParams(2, 2, r))
    units = ctx.size - ctx.size // (ctx.p**ctx.r)
    for gamma in (ctx.one, ctx.xi, random_unit(ctx, r)):
        rep = check_residue_partition(ctx, gamma)
        want = residue_partition(ctx, gamma)  # the covering-count oracle
        assert rep.holds and want.holds
        assert rep.bound_value == rep.observed_value == units
        assert want.bound_value == want.observed_value == units


def test_residue_partition_guards(h16, h81):
    with pytest.raises(ParameterError):
        check_residue_partition(h16.ctx, h16.ctx.element([2, 0]))
    with pytest.raises(ParameterError):
        check_residue_partition(h81.ctx)
    with pytest.raises(ParameterError):
        check_residue_partition(h16.ctx, h81.ctx.one)


def test_ramanujan_frozen(h16):
    rep = is_ramanujan(full_spectrum(h16))
    assert rep.holds
    assert rep.observed_value == 2
    assert rep.bound_value == pytest.approx(2 * math.sqrt(5))
    rep4 = is_ramanujan(full_spectrum(graph_for(2, 2, 4)))
    assert rep4.holds and rep4.observed_value == 10


@pytest.mark.parametrize("case", [None, *BOUNDARY_CASES], ids=["d6", *BOUNDARY_CASES])
def test_ramanujan_detects_failure(case):
    # d = 6 and lambda = 5 > 2*sqrt(5); the boundary cases take d = 10, where
    # the bound 2*sqrt(9) = 6 is an integer, and move lambda by their excess
    fake, holds = make_spectrum(((6, 1), (5, 9), (-5, 6)), True, 16, 6), False
    if case is not None:
        excess, exact, holds = BOUNDARY_CASES[case]
        entries = ((10, 1), (6 + excess, 3), (-2, 12))
        fake = make_spectrum(entries, exact, 16, 10)
    rep = is_ramanujan(fake)
    assert rep.holds == holds
    assert rep.witness == (None if holds else fake.lambda_g())
    if case is None:
        assert rep.witness == 5


def test_ramanujan_numeric_consistent(h81):
    rep = is_ramanujan(full_spectrum(h81))
    lam_oracle = oracle_spectrum(h81).lambda_g()
    assert rep.observed_value == pytest.approx(lam_oracle, abs=1e-6)
    assert rep.holds == (lam_oracle <= rep.bound_value + 1e-6)


def test_girth_frozen():
    assert girth(graph_for(2, 2, 2)) == 3
    assert girth(graph_for(2, 2, 3)) == 4
    assert girth(graph_for(2, 2, 5)) == 4


def test_bfs_size_guard(monkeypatch):
    # the BFS holds one int32 distance per orbit row, guarded by
    # ORBIT_CUTOFF; girth, triangles and the residue partition map a few
    # rows through orbit_row_map and allocate nothing of that size
    spec = graph_for(2, 2, 3)
    rows = (4**3 - 1) // (2**3 - 1) + 1  # 10 orbit rows on GR(4, 4^3)
    monkeypatch.setattr(spectrum, "ORBIT_CUTOFF", rows - 1)
    for search in (bfs_distances, connectivity):
        with pytest.raises(SizeError):
            search(spec)
    assert girth(spec) == 4
    assert triangle_count(spec) == 0
    assert check_residue_partition(spec.ctx, spec.gamma).holds
    monkeypatch.setattr(spectrum, "ORBIT_CUTOFF", rows)
    dist = bfs_distances(spec)
    assert dist.dtype == np.int32 and len(dist) == rows
    assert dist.max() == connectivity(spec)["diameter"]


# weighted sphere sizes |{v : dist(0, v) = k}|, frozen from a BFS over all
# n vertices (seed 0, gamma = 1); the last two were frozen once from
# tests/bfs_oracle.py, which takes 8-12 s on each
FROZEN_SPHERES = {
    (2, 2, 8): [1, 510, 65025],
    (7, 2, 3): [1, 342, 47880, 69426],
    (2, 4, 5): [1, 62, 1922, 36332, 387314, 621395, 1550],
    (3, 2, 8): [1, 6560, 21516800, 21523360],
    (2, 4, 6): [1, 126, 7812, 309078, 6742638, 9717561],
}


@pytest.mark.parametrize("key", sorted(FROZEN_SPHERES))
def test_bfs_sphere_sizes_frozen(key):
    spec = graph_for(*key)
    dist = bfs_distances(spec)
    weights = np.where(np.arange(len(dist)) == 0, 1, spec.ctx.p**spec.ctx.r - 1)
    assert (dist >= 0).all()
    assert np.bincount(dist, weights=weights).astype(int).tolist() == FROZEN_SPHERES[key]
    rec = connectivity(spec)
    assert rec["connected"] and rec["diameter"] == len(FROZEN_SPHERES[key]) - 1


@pytest.mark.parametrize("key", BFS_ORACLE_KEYS)
def test_bfs_distances_match_oracle(key):
    # covers bottom-up levels whose last chunk leaves rows without a parent:
    # on (2, 4, 5) the 50 rows at distance 6 find none at distance 4; entry
    # k is the distance to gamma * O_k, the oracle's at the row of gamma * rep(k)
    ctx = make_ring(RingParams(*key))
    for gamma in (ctx.one, random_unit(ctx, sum(key))):
        spec = build_graph(ctx, gamma)
        want = bfs_oracle.bfs_distances(spec)[twisted_rows(ctx, gamma)]
        assert np.array_equal(bfs_distances(spec), want)


@pytest.mark.parametrize("key", BFS_ORACLE_KEYS)
def test_bfs_diameter_within_teichmuller_bound(key):
    # x = sum t_i p^i over Teichmuller digits t_i, and p^i t_i is a sum of
    # p^i elements of S1, so no vertex is further than D_T = (p^e - 1)/(p - 1)
    p, e, _ = key
    dist = bfs_distances(graph_for(*key))
    assert (dist >= 0).all() and dist.max() <= (p**e - 1) // (p - 1)


def test_bfs_work_guard(monkeypatch):
    # rows mapped, not seconds: the search holds one row per Frobenius
    # cycle and the bottom-up levels stop each row at its first parent,
    # where mapping every neighbour of (2, 4, 5) takes ~0.85 M
    spec = graph_for(2, 4, 5)
    mapped = []
    row_map = analysis.orbit_row_map

    def counting(ctx):
        rows = row_map(ctx)

        def count(digits):
            mapped.append(len(digits))
            return rows(digits)

        return count

    monkeypatch.setattr(analysis, "orbit_row_map", counting)
    bfs_distances(spec)
    assert 0 < sum(mapped) <= 34_000  # 32 586, one least row per Frobenius cycle


def test_bfs_block_budget(monkeypatch):
    # each neighbour block holds at most BLOCK_PAIRS digits, r per neighbour
    spec = graph_for(2, 4, 5)
    sizes = []
    row_map = analysis.orbit_row_map

    def counting(ctx):
        rows = row_map(ctx)

        def count(digits):
            sizes.append(digits.size)
            return rows(digits)

        return count

    monkeypatch.setattr(analysis, "orbit_row_map", counting)
    bfs_distances(spec)
    assert sizes and max(sizes) <= BLOCK_PAIRS


@pytest.mark.parametrize("key, mib", [((2, 4, 5), 2), ((2, 2, 16), 8)])
def test_bfs_memory(key, mib):
    # blocks of at most BLOCK_PAIRS digits, also on GR(4, 4^16), where one
    # row's d * r = 2.1 M digits are split by columns: 1.8 and 6.8 MiB with
    # the ring's cached lookup tables (4.3 MiB on GR(4, 4^16), 2 of them the
    # uint16 orbit slots) built on this call, so the bound leaves 1.2 MiB;
    # int32 slots took 8.8, one row's block at a time 2.0 and 18.1, and
    # blocks of BLOCK_PAIRS neighbours, mapped at once, 6.4 and 42.8
    spec = graph_for(*key)
    tracemalloc.start()
    try:
        dist = bfs_distances(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dist >= 0).all()
    assert peak <= mib << 20


def test_girth_without_short_cycle_raises():
    # S = {1, -1} in GR(8, 8^2) spans 8-cycles, so no pair sum closes a
    # triangle or a square; build_graph never builds a set this small, and
    # the check of its rows, run by triangle_count, rejects it
    spec = graph_for(2, 3, 2)
    ctx = spec.ctx
    pair = (ctx.one, -ctx.one)
    idx = np.array([s.index for s in pair], dtype=np.int64)
    cycle = dataclasses.replace(spec, d=2, s_indices=idx, s_digits=ctx.digits_of(idx))
    assert pair_sum_oracle.girth(cycle) is None
    with pytest.raises(IntegrityError, match="xi"):
        girth(cycle)


@pytest.mark.parametrize("key", PAIR_SUM_KEYS)
def test_girth_and_triangles_match_pair_sum_oracle(key):
    ctx = make_ring(RingParams(*key))
    for gamma in (ctx.one, random_unit(ctx, sum(key))):
        spec = build_graph(ctx, gamma)
        assert girth(spec) == pair_sum_oracle.girth(spec)
        assert triangle_count(spec) == pair_sum_oracle.triangle_count(spec)


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_girth_matches_edge_removal_oracle(key):
    spec = graph_for(*key)
    assert girth(spec) == oracle_girth(as_networkx(spec))


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_triangles_match_networkx(key):
    spec = graph_for(*key)
    expected = sum(nx.triangles(as_networkx(spec)).values()) // 3
    assert triangle_count(spec) == expected


def test_triangles_frozen_and_third_moment(h16):
    assert triangle_count(h16) == 32
    big = graph_for(2, 2, 8)  # d = 510
    assert triangle_count(big) == 11_141_120
    for spec in [graph_for(2, 2, r) for r in (2, 3, 4)] + [big]:
        sp = full_spectrum(spec)
        third = sum(v**3 * m for v, m in sp.entries)
        assert third == 6 * triangle_count(spec)
    assert triangle_count(graph_for(7, 2, 3)) == 13_411_986  # odd p


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_connectivity_against_networkx(key):
    spec = graph_for(*key)
    g = as_networkx(spec)
    rec = connectivity(spec, full_spectrum(spec))
    assert rec["components"] == nx.number_connected_components(g)
    assert rec["connected"] == nx.is_connected(g)
    assert rec["diameter"] == nx.diameter(g)
    assert rec["consistent_with_condition"]
    assert rec["degree_multiplicity_matches_components"]
    assert rec["diameter_within_chung"]


def test_connectivity_without_spectrum(h16):
    rec = connectivity(h16)
    assert rec["components"] == 1 and rec["diameter"] == 2
    assert "lambda_G" not in rec and "chung_bound" not in rec
    # 2e < r + 2 fails at e = r = 2, so the implication holds vacuously
    assert not rec["condition_e_below_half_r_plus_one"]
    assert rec["consistent_with_condition"]


def test_connectivity_condition_flag():
    rec = connectivity(graph_for(2, 2, 3))
    assert rec["condition_e_below_half_r_plus_one"]
    assert rec["connected"]


def test_energy_report_frozen(h16):
    rec = energy_report(full_spectrum(h16))
    assert rec["energy"] == 36
    assert rec["threshold"] == 30
    assert rec["integral"] and rec["hyperenergetic"]
    assert rec["principal_eigenvalue"] == 6
    assert rec["principal_multiplicity"] == 1
    assert rec["reference_principal_term"] == 3
    rec64 = energy_report(full_spectrum(graph_for(2, 2, 3)))
    assert rec64["energy"] == 196 and rec64["threshold"] == 126
    assert rec64["reference_principal_term"] == 7


def test_energy_report_numeric(h81):
    rec = energy_report(full_spectrum(h81))
    assert rec["energy"] == pytest.approx(oracle_spectrum(h81).energy(), abs=1e-6)
    assert "principal_eigenvalue" not in rec


def test_verify_graph_char4_full():
    report = verify_graph(graph_for(2, 2, 4))
    ids = [c["claim_id"] for c in report["claims"]]
    assert ids == sorted(ids)
    assert ids == [
        "bhk",
        "connectivity",
        "energy",
        "girth",
        "interval",
        "ramanujan",
        "residue",
        "wcu",
    ]
    assert all(c["holds"] for c in report["claims"])
    assert report["skipped"] == []
    assert report["graph"]["n"] == 256 and report["graph"]["d"] == 30
    assert report["spectrum_summary"]["lambda_G"] == 10
    asserted = {c["claim_id"]: c["asserted"] for c in report["claims"]}
    assert asserted["ramanujan"]  # guaranteed once r >= 4
    assert asserted["girth"] is False  # even r carries no girth guarantee


def test_verify_graph_girth_asserted_on_odd_r():
    report = verify_graph(graph_for(2, 2, 3), checks=["girth"])
    (claim,) = report["claims"]
    assert claim["asserted"] and claim["holds"]
    assert claim["observed_value"] == 4 and claim["bound_value"] == 4


def test_verify_graph_odd_p_skips_char4_checks(h81):
    report = verify_graph(h81)
    assert report["skipped"] == ["bhk", "residue"]
    ids = [c["claim_id"] for c in report["claims"]]
    assert ids == ["connectivity", "energy", "girth", "interval", "ramanujan", "wcu"]
    assert all(c["holds"] for c in report["claims"])
    asserted = {c["claim_id"]: c["asserted"] for c in report["claims"]}
    assert not asserted["ramanujan"]
    assert not asserted["girth"]
    assert not asserted["energy"]
    assert asserted["interval"] and asserted["wcu"]


def test_verify_graph_checks_subset(h16):
    report = verify_graph(h16, checks=["interval", "wcu"])
    assert [c["claim_id"] for c in report["claims"]] == ["interval", "wcu"]
    assert report["skipped"] == []


def test_verify_graph_unknown_check(h16):
    with pytest.raises(ParameterError):
        verify_graph(h16, checks=["interval", "nope"])


def test_verify_graph_rejects_empty_selection(h16):
    # a report with no claims would read as a verify that passed
    with pytest.raises(ParameterError, match="no checks"):
        verify_graph(h16, checks=[])


def test_verify_graph_calls_checks_through_module_attributes(monkeypatch):
    # a tracer wraps these module attributes, so verify_graph must look each
    # one up when it runs, and call it once
    names = (
        "zeta_sums",
        "full_spectrum",
        "check_wcu_summary",
        "check_bhk",
        "check_residue_partition",
        "girth",
        "connectivity",
    )
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(analysis, name, counting(name))
    report = verify_graph(graph_for(2, 2, 3))
    assert all(c["holds"] for c in report["claims"])
    assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize(
    "key,checks,sweeps,spectra",
    [
        ((2, 2, 3), ["girth", "residue"], 0, 0),
        ((2, 2, 3), ["bhk"], 1, 0),
        ((3, 2, 2), ["girth", "bhk"], 0, 0),  # bhk is skipped for p^e = 9
        ((3, 2, 2), ["wcu"], 1, 0),
        ((3, 2, 2), ["connectivity"], 1, 1),
    ],
)
def test_verify_graph_runs_only_what_the_claims_read(
    monkeypatch, key, checks, sweeps, spectra
):
    calls = {"zeta_sums": 0, "full_spectrum": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(analysis, name, counting(name, getattr(analysis, name)))
    report = verify_graph(graph_for(*key), checks)
    assert calls == {"zeta_sums": sweeps, "full_spectrum": spectra}
    assert (report["spectrum_summary"] is None) == (spectra == 0)
