"""The row-sweep character-sum kernel of tests/zeta_oracle.py and the
spectra, against frozen values, the scalar oracle, and the dense
eigensolver oracle."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char_sum_oracle import character_sum, trace_counts
from connection_oracle import connection_set
from orbit_oracle import orbit_representatives
import spectrum_oracle
from spectrum_oracle import make_spectrum, oracle_spectrum, spectral_deviation
from zeta_oracle import character_sums, trace_basis_matrix
from grcayley import (
    IntegrityError,
    ParameterError,
    RingParams,
    SizeError,
    build_graph,
    check_interval,
    energy_report,
    full_spectrum,
    make_ring,
    spectral_interval_bound,
)
from grcayley import spectrum

FROZEN_SPECTRA = {
    (2, 2, 2): ((6, 1), (2, 6), (-2, 9)),
    (2, 2, 3): ((14, 1), (2, 42), (-2, 7), (-6, 14)),
    (2, 2, 4): ((30, 1), (6, 90), (-2, 135), (-10, 30)),
}


@pytest.fixture(scope="module")
def h16():
    return build_graph(make_ring(RingParams(2, 2, 2)))


@pytest.fixture(scope="module")
def h64():
    return build_graph(make_ring(RingParams(2, 2, 3)))


@pytest.fixture(scope="module")
def h81():
    return build_graph(make_ring(RingParams(3, 2, 2)))


def w_t_of(ctx, elements):
    digits = ctx.digits_of(np.array([s.index for s in elements], dtype=np.int64))
    return trace_basis_matrix(ctx, digits).T.astype(np.float64)


def sweep(ctx, elements, lo, hi):
    """The kernel on the digit rows of indices [lo, hi)."""
    rows = ctx.digits_of(np.arange(lo, hi))
    return character_sums(ctx, w_t_of(ctx, elements), rows)


def kernel_at(ctx, elements, gamma_index):
    re, im = sweep(ctx, elements, gamma_index, gamma_index + 1)
    return re[0], im[0]


def test_trace_counts_frozen(h16):
    ctx = h16.ctx
    s = connection_set(ctx, h16.gamma)
    frozen = {  # gamma index: (trace histogram, eigenvalue)
        1: ((0, 2, 2, 2), -2),  # gamma = 1
        6: ((2, 2, 0, 2), 2),  # gamma = 2 + x
        2: ((2, 0, 4, 0), -2),  # gamma = 2
        0: ((6, 0, 0, 0), 6),
    }
    re, im = sweep(ctx, s, 0, h16.n)
    for gamma, (counts, eig) in frozen.items():
        assert tuple(trace_counts(s, ctx.from_index(gamma))) == counts
        assert character_sum(s, ctx.from_index(gamma)) == (eig, 0)
        assert (re[gamma], im[gamma]) == (eig, 0)


def test_eigenvalue_guards(h16):
    # gamma*G1 without its negation: full_spectrum reads only d = 3 of S,
    # which is not the ring's 6, so the second moment check fails
    half = h16.d // 2
    lopsided = dataclasses.replace(h16, d=half, s_digits=h16.s_digits[:half])
    with pytest.raises(IntegrityError, match="moment"):
        full_spectrum(lopsided)


def test_kernel_matches_scalar_oracle_on_char4(h16, h64):
    for spec in (h16, h64):
        ctx = spec.ctx
        for elements in (connection_set(ctx, spec.gamma), ctx.teichmuller_units):
            re, im = sweep(ctx, elements, 0, spec.n)
            assert re.dtype == im.dtype == np.int64
            oracle = [character_sum(elements, ctx.from_index(g)) for g in range(spec.n)]
            assert list(zip(re.tolist(), im.tolist())) == oracle


def test_zeta_frozen(h16):
    ctx = h16.ctx
    g1 = ctx.teichmuller_units
    frozen = ((ctx.zero, (3, 0)), (ctx.one, (-1, -2)), (ctx.element([2, 0]), (-1, 0)))
    for gamma, z in frozen:
        assert kernel_at(ctx, g1, gamma.index) == z
        assert character_sum(g1, gamma) == z
    re, im = kernel_at(ctx, g1, ctx.one.index)
    assert (1 + re) ** 2 + im**2 == 4


def test_zeta_odd_p_is_real(h81):
    ctx = h81.ctx
    gamma = ctx.element([3, 0])  # nonzero non-unit
    re, im = kernel_at(ctx, ctx.teichmuller_units, gamma.index)
    assert (re, im) == pytest.approx((-1.0, 0.0), abs=1e-9)
    assert character_sum(ctx.teichmuller_units, gamma) == pytest.approx(
        (-1.0, 0.0), abs=1e-9
    )


RINGS_UP_TO_2_12 = [
    (p, e, r)
    for p in (2, 3, 5, 7)
    for e in range(2, 7)
    for r in range(2, 7)
    if p ** (e * r) <= 1 << 12
]


@functools.lru_cache(maxsize=None)
def graph_of(key):
    return build_graph(make_ring(RingParams(*key)))


@settings(deadline=None, max_examples=200)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    use_g1=st.booleans(),
    use_rep=st.booleans(),
    data=st.data(),
)
def test_kernel_matches_scalar_oracle_property(key, use_g1, use_rep, data):
    spec = graph_of(key)
    ctx = spec.ctx
    elements = ctx.teichmuller_units if use_g1 else connection_set(ctx, spec.gamma)
    if use_rep:
        reps, _ = orbit_representatives(ctx)
        i = data.draw(st.integers(min_value=0, max_value=len(reps) - 1), label="rep")
        row = reps[i]
    else:
        gamma = data.draw(st.integers(min_value=0, max_value=spec.n - 1), label="gamma")
        row = ctx.digits_of(np.array([gamma]))[0]
    re, im = character_sums(ctx, w_t_of(ctx, elements), row[None, :])
    want = character_sum(elements, ctx.element(row))
    if ctx.q == 4:
        assert (int(re[0]), int(im[0])) == want
    else:
        assert re[0] == pytest.approx(want[0], abs=1e-9)
        assert im[0] == pytest.approx(want[1], abs=1e-9)


@pytest.mark.parametrize("key", sorted(FROZEN_SPECTRA))
def test_full_spectrum_frozen(key):
    spec = build_graph(make_ring(RingParams(*key)))
    sp = full_spectrum(spec)
    assert sp.exact
    assert sp.entries == FROZEN_SPECTRA[key]


@pytest.mark.parametrize("key", sorted(FROZEN_SPECTRA))
def test_exact_moment_identities(key):
    spec = build_graph(make_ring(RingParams(*key)))
    sp = full_spectrum(spec)
    assert sum(v * m for v, m in sp.entries) == 0
    assert sum(v * v * m for v, m in sp.entries) == sp.n * sp.d


def test_full_spectrum_matches_scalar_path(h64, h81):
    for spec in (h64, h81):
        sp = full_spectrum(spec)
        expanded = sorted(sp.expanded().tolist())
        elements = connection_set(spec.ctx, spec.gamma)
        scalar = [
            character_sum(elements, spec.ctx.from_index(gamma))[0] for gamma in range(spec.n)
        ]
        assert np.allclose(sorted(scalar), expanded, atol=1e-9)


@pytest.mark.parametrize(
    "p,e,r",
    [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (3, 2, 3), (2, 3, 2), (5, 2, 2)],
)
def test_full_spectrum_matches_oracle(p, e, r):
    spec = build_graph(make_ring(RingParams(p, e, r)))
    sp = full_spectrum(spec)
    osp = oracle_spectrum(spec)
    assert spectral_deviation(sp, osp) <= 1e-6


def test_twisted_spectrum_equals_untwisted(h64):
    # x -> gamma^-1 x is a graph isomorphism, so the multiset must agree
    twisted = build_graph(h64.ctx, h64.ctx.element([1, 2, 0]))
    assert full_spectrum(twisted).entries == full_spectrum(h64).entries


def test_spectrum_helpers(h16):
    sp = full_spectrum(h16)
    assert sp.distinct == 3
    assert sp.max_value == 6 and sp.min_value == -2
    assert sp.lambda_g() == 2
    assert sp.energy() == 36
    assert sp.multiplicity_of(-2) == 9
    assert sp.multiplicity_of(7) == 0
    exp = sp.expanded()
    assert exp.shape == (16,)
    assert exp[0] == 6.0 and exp[-1] == -2.0
    assert (np.diff(exp) <= 0).all()


def test_degree_tolerance_only_when_numeric():
    # lambda_g and multiplicity_of count a value within tol of +-d as +-d;
    # tol is 0 for exact spectra and MERGE_TOL for numeric ones
    tol = spectrum.MERGE_TOL
    exact = make_spectrum(((6, 1), (5, 3), (-2, 9), (-5, 3)), True, 16, 6)
    assert exact.tol == 0
    assert exact.lambda_g() == 5
    assert exact.multiplicity_of(6) == 1 and exact.multiplicity_of(5) == 3
    for near, holds in ((tol / 2, True), (2 * tol, False)):
        entries = ((6.0, 1), (6 - near, 3), (-2.0, 9), (-6 + near, 3))
        numeric = make_spectrum(entries, False, 16, 6)
        assert numeric.tol == tol
        assert numeric.lambda_g() == (2.0 if holds else 6 - near)
        assert numeric.multiplicity_of(6) == (4 if holds else 1)
        assert numeric.multiplicity_of(-6) == (3 if holds else 0)


@functools.lru_cache(maxsize=None)
def merge_input(key):
    """The (values, tol, weight, d) that full_spectrum groups on one ring,
    values unsorted with d first."""
    spec = graph_of(key)
    ctx = spec.ctx
    blocks = spectrum.zeta_sums(ctx)
    eig = np.concatenate([[spec.d]] + [2 * re if ctx.p == 2 else re for re, _ in blocks])
    tol = 0 if ctx.q == 4 else spectrum.MERGE_TOL
    return eig, tol, ctx.p**ctx.r - 1, spec.d


# hand-built spectra sit on graphs of three sizes; check_interval reads the
# bound and d from the graph, every other reduction only the spectrum
HAND_BUILT_KEYS = [(2, 2, 4), (3, 2, 2), (2, 3, 2)]


@st.composite
def hand_built(draw):
    """(key, descending entries, exact): distinct values at d, -d, 0 and the
    interval bound, moved by 0, +-1 when exact and by 0, +-tol/2, +-2 tol
    when numeric, or anywhere in [-d, d]."""
    key = draw(st.sampled_from(HAND_BUILT_KEYS))
    d = graph_of(key).d
    exact = draw(st.booleans())
    tol = spectrum.MERGE_TOL
    bound = spectral_interval_bound(*key)[3]
    anchors = st.sampled_from([d, -d, 0, bound, -bound])
    if exact:
        near = st.tuples(anchors.map(round), st.sampled_from([0, 1, -1])).map(sum)
        anywhere = st.integers(-d, d)
    else:
        near = st.tuples(anchors, st.sampled_from([0, tol / 2, -tol / 2, 2 * tol, -2 * tol]))
        near = near.map(lambda pair: float(sum(pair)))
        anywhere = st.floats(-d, d)
    values = draw(st.lists(near | anywhere, min_size=1, max_size=12, unique=True))
    mults = draw(st.lists(st.integers(1, 50), min_size=len(values), max_size=len(values)))
    return key, tuple(zip(sorted(values, reverse=True), mults)), exact


def python_scalar(x):
    return type(x) in (int, float)


@settings(deadline=None, max_examples=150)
@given(ring=st.sampled_from(RINGS_UP_TO_2_12), case=st.none() | hand_built())
def test_reductions_match_loops_property(ring, case):
    # the array reductions against the per-entry loops they replaced, on
    # full_spectrum of a ring, or on a hand-built spectrum when case is drawn
    if case is None:
        spec, sp = graph_of(ring), full_spectrum(graph_of(ring))
    else:
        key, entries, exact = case
        spec = graph_of(key)
        sp = make_spectrum(entries, exact, sum(m for _, m in entries), spec.d)
    ctx = spec.ctx
    c, k, pr, _ = spectral_interval_bound(ctx.p, ctx.e, ctx.r)
    lam, mult, energy = sp.lambda_g(), sp.multiplicity_of(sp.d), sp.energy()
    assert lam == spectrum_oracle.reference_lambda_g(sp)
    assert mult == spectrum_oracle.reference_multiplicity_of(sp, sp.d)
    assert energy == spectrum_oracle.reference_energy(sp)
    rep = check_interval(spec, sp)
    want = spectrum_oracle.reference_interval(sp, spec.d, c, k, pr)
    assert (rep.holds, rep.observed_value, rep.witness) == want
    integral = energy_report(sp)["integral"]
    assert integral == spectrum_oracle.reference_integral(sp)
    assert np.array_equal(sp.expanded(), spectrum_oracle.reference_expanded(sp))
    assert all(map(python_scalar, (lam, energy, rep.observed_value, sp.max_value, sp.min_value)))
    assert type(mult) is int and type(integral) is bool and type(rep.holds) is bool
    assert rep.witness is None or python_scalar(rep.witness)
    if sp.exact:
        assert all(type(x) is int for x in (lam, energy, rep.observed_value))


@settings(deadline=None, max_examples=150)
@given(ring=st.sampled_from(RINGS_UP_TO_2_12), case=st.none() | hand_built(), data=st.data())
def test_merge_matches_loop_property(ring, case, data):
    # _merge_numeric against the per-group loop it replaced: the same cuts
    # and multiplicities, and numeric means within 1e-12, on the values
    # full_spectrum groups on a ring, or on hand-built values, shuffled,
    # under a drawn weight with a drawn value as d; the loop reads one
    # weight per value, 1 for the first value equal to d
    if case is None:
        values, tol, weight, d = merge_input(ring)
    else:
        _, entries, exact = case
        values = np.array([v for v, _ in entries], dtype=np.int64 if exact else np.float64)
        values = values[data.draw(st.permutations(range(values.size)), label="order")]
        weight = data.draw(st.integers(1, 50), label="weight")
        d = values[data.draw(st.integers(0, values.size - 1), label="d")].item()
        tol = 0 if exact else spectrum.MERGE_TOL
    weights = np.full(values.size, weight)
    weights[np.flatnonzero(values == d)[0]] = 1
    got_values, got_mults = spectrum._merge_numeric(np.sort(values), tol, weight, d)
    want = spectrum_oracle.reference_merge(values, tol, weights)
    assert got_mults.tolist() == [m for _, m in want]
    if tol:
        assert np.abs(got_values - [v for v, _ in want]).max() <= 1e-12
    else:
        assert got_values.tolist() == [v for v, _ in want]


@pytest.mark.parametrize("key, per_value", [((2, 6, 4), 40), ((2, 2, 16), 24)])
def test_full_spectrum_peak_per_orbit_value(key, per_value):
    # the tracemalloc peak of grouping the orbit eigenvalues, the zeta sums
    # given, in bytes per value: 35.0 (numeric, 1.1 M values) and 17.0
    # (exact, 65 538 values), against 60.0 and 49.0 with a sort order and a
    # weight per value
    spec = build_graph(make_ring(RingParams(*key)))
    zeta = spectrum.zeta_sums(spec.ctx)
    values = 1 + sum(re.size for re, _ in zeta)
    tracemalloc.start()
    try:
        sp = full_spectrum(spec, zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(sp.mults.sum()) == spec.n
    assert peak <= per_value * values


def test_spectrum_integrity_guard():
    with pytest.raises(IntegrityError):
        make_spectrum(((6, 1), (2, 6)), True, 16, 6)


def test_oracle_size_guard():
    spec = build_graph(make_ring(RingParams(2, 2, 7)))
    with pytest.raises(SizeError):
        oracle_spectrum(spec)


def test_numeric_spectrum_size_guard():
    spec = build_graph(make_ring(RingParams(3, 2, 8)))
    with pytest.raises(SizeError):
        full_spectrum(spec)


def test_spectral_deviation_size_mismatch(h16, h64):
    with pytest.raises(ParameterError):
        spectral_deviation(full_spectrum(h16), full_spectrum(h64))
