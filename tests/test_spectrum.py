"""The character-sum kernel and the spectra built on it, against frozen
values, the scalar oracle, and the dense eigensolver oracle."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char_sum_oracle import character_sum, trace_counts
from connection_oracle import connection_set
from grcayley import (
    IntegrityError,
    ParameterError,
    RingParams,
    SizeError,
    Spectrum,
    build_graph,
    character_sums,
    full_spectrum,
    make_ring,
    oracle_spectrum,
    orbit_representatives,
    spectral_deviation,
    trace_basis_matrix,
)

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
    # gamma*G1 without its negation: the sums have nonzero imaginary parts
    half = h16.d // 2
    lopsided = dataclasses.replace(h16, d=half, s_digits=h16.s_digits[:half])
    with pytest.raises(IntegrityError):
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


def test_spectrum_integrity_guard():
    with pytest.raises(IntegrityError):
        Spectrum(entries=((6, 1), (2, 6)), exact=True, n=16, d=6)


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
