"""The G1-orbit reduction behind full_spectrum, wcu and bhk, against a
brute-force sweep of the same kernel over every ring element."""

import dataclasses
import math

import numpy as np
import pytest

from orbit_oracle import orbit_row_oracle
from residue_oracle import residue_partition
from grcayley import (
    IntegrityError,
    RingParams,
    SizeError,
    bfs_distances,
    build_graph,
    character_sums,
    check_bhk,
    check_residue_partition,
    check_wcu_summary,
    connectivity,
    full_spectrum,
    make_ring,
    orbit_representatives,
    padic_coords,
    trace_basis_matrix,
    triangle_count,
)
from grcayley import analysis, spectrum
from grcayley.analysis import _wcu_norm_within_bound
from grcayley.ring import coeff_string
from grcayley.spectrum import MERGE_TOL, _merge_numeric, orbit_row_map

SWEEP_KEYS = [(2, 2, 8), (2, 4, 4), (2, 3, 5), (3, 2, 4), (5, 2, 3), (7, 2, 2)]
SMALL_KEYS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 4, 2), (5, 2, 2), (3, 3, 2)]


def sweep(ctx, elements):
    """The kernel over all n digit rows, gamma = 0..n-1 in index order."""
    digits = ctx.digits_of(np.array([s.index for s in elements], dtype=np.int64))
    w_t = trace_basis_matrix(ctx, digits).T.astype(np.float64)
    block = max(1, (1 << 22) // len(elements))
    parts = [
        character_sums(ctx, w_t, ctx.digits_of(np.arange(lo, min(lo + block, ctx.size))))
        for lo in range(0, ctx.size, block)
    ]
    return np.concatenate([a for a, _ in parts]), np.concatenate([b for _, b in parts])


def sweep_valuations(ctx):
    """Valuation of every element, by testing divisibility of all digits."""
    digits = ctx.digits_of(np.arange(ctx.size))
    val = np.zeros(ctx.size, dtype=np.int64)
    for k in range(1, ctx.e + 1):
        val += np.all(digits % ctx.p**k == 0, axis=1)
    return val


def sweep_spectrum(spec):
    re, _ = sweep(spec.ctx, [spec.ctx.from_index(int(i)) for i in spec.s_indices])
    if spec.ctx.q == 4:
        values, counts = np.unique(re, return_counts=True)
        return tuple(zip(values[::-1].tolist(), counts[::-1].tolist()))
    return _merge_numeric(re, MERGE_TOL)


def sweep_wcu(ctx):
    """(holds, worst excess) of the wcu claim over every nonzero gamma."""
    p, e, r = ctx.p, ctx.e, ctx.r
    re, im = sweep(ctx, ctx.teichmuller_units)
    val = sweep_valuations(ctx)
    re, im, val = re[1:], im[1:], val[1:]
    bounds = (np.power(p, e - 1 - val) - 1) * math.sqrt(p**r) + 1.0
    mags = np.hypot(re, im)
    if ctx.q == 4:
        ok = _wcu_norm_within_bound(re * re + im * im, val, p, e, r)
    else:
        ok = mags <= bounds + MERGE_TOL
    return bool(ok.all()), float((mags - bounds).max())


def sweep_bhk(ctx):
    """(holds, worst deviation) of the p^e = 4 identities over every gamma."""
    pr = 2**ctx.r
    re, im = sweep(ctx, ctx.teichmuller_units)
    unit = sweep_valuations(ctx) == 0
    dev = np.where(unit, np.abs((re + 1) ** 2 + im**2 - pr), np.abs(re + 1) + np.abs(im))
    dev[0] = abs(re[0] - (pr - 1)) + abs(im[0])
    return not dev.any(), int(dev.max())


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_representatives_partition_the_ring(key):
    ctx = make_ring(RingParams(*key))
    digits, val = orbit_representatives(ctx)
    pr = ctx.p**ctx.r
    assert len(val) == (ctx.size - 1) // (pr - 1) + 1
    assert not digits[0].any() and val[0] == ctx.e
    covered = np.zeros(ctx.size, dtype=np.int64)
    covered[0] += 1
    for row, v in zip(digits[1:], val[1:]):
        rep = ctx.element(row)
        assert padic_coords(rep).valuation == v
        covered[[(rep * u).index for u in ctx.teichmuller_units]] += 1
    assert (covered == 1).all()


@pytest.mark.parametrize("key", SWEEP_KEYS)
def test_orbit_spectrum_matches_sweep(key):
    spec = build_graph(make_ring(RingParams(*key)))
    got = full_spectrum(spec).entries
    want = sweep_spectrum(spec)
    if spec.ctx.q == 4:
        assert got == want
    else:
        assert [m for _, m in got] == [m for _, m in want]
        assert np.allclose([v for v, _ in got], [v for v, _ in want], rtol=0, atol=1e-9)


@pytest.mark.parametrize("key", SWEEP_KEYS)
def test_orbit_wcu_and_bhk_match_sweep(key):
    ctx = make_ring(RingParams(*key))
    rep = check_wcu_summary(ctx)
    holds, worst = sweep_wcu(ctx)
    assert rep.holds == holds
    assert rep.observed_value == pytest.approx(worst, rel=0, abs=1e-12)
    if ctx.q == 4:
        rep = check_bhk(ctx)
        assert (rep.holds, rep.observed_value) == sweep_bhk(ctx)


def test_full_spectrum_rejects_xi_unstable_connection_set():
    # {1, -1} is negation-closed but not closed under multiplication by xi
    spec = build_graph(make_ring(RingParams(2, 2, 3)))
    ctx = spec.ctx
    pair = (ctx.one, -ctx.one)
    idx = np.array([s.index for s in pair], dtype=np.int64)
    unstable = dataclasses.replace(spec, d=2, s_indices=idx, s_digits=ctx.digits_of(idx))
    for check in (full_spectrum, bfs_distances, connectivity, triangle_count):
        with pytest.raises(IntegrityError, match="xi"):
            check(unstable)


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_orbit_row_map_matches_scalar_oracle(key):
    ctx = make_ring(RingParams(*key))
    oracle = orbit_row_oracle(ctx)
    want = [oracle(ctx.from_index(i)) for i in range(ctx.size)]
    assert orbit_row_map(ctx)(ctx.digits_of(np.arange(ctx.size))).tolist() == want


def test_orbit_size_guard(monkeypatch):
    ctx = make_ring(RingParams(2, 2, 3))
    monkeypatch.setattr(spectrum, "ORBIT_CUTOFF", 10 * ctx.r - 1)
    for check in (orbit_representatives, check_wcu_summary, check_bhk):
        with pytest.raises(SizeError):
            check(ctx)
    monkeypatch.setattr(spectrum, "ORBIT_CUTOFF", 10 * ctx.r)
    assert len(orbit_representatives(ctx)[1]) == 10


def test_failure_witness_is_an_orbit_representative(monkeypatch):
    ctx = make_ring(RingParams(2, 2, 3))
    reps = {coeff_string(ctx.element(row)) for row in orbit_representatives(ctx)[0]}

    def shifted(ctx, w_t, digits):
        re, im = character_sums(ctx, w_t, digits)
        return re + 5, im

    monkeypatch.setattr(spectrum, "character_sums", shifted)
    for check in (check_wcu_summary, check_bhk):
        rep = check(ctx)
        assert not rep.holds
        assert rep.witness in reps


def test_residue_partition_witness(monkeypatch):
    # the orbit map is built first, so only the coset representatives change
    ctx = make_ring(RingParams(2, 2, 2))
    row_of = orbit_row_map(ctx)
    monkeypatch.setattr(analysis, "orbit_row_map", lambda _: row_of)
    one, xi = ctx.teich_digits[:2]
    # Teichmuller rows 1, xi, xi: (1 - xi^2)*1 repeats the coset of 1 - xi
    monkeypatch.setattr(ctx, "teich_digits", np.array([one, xi, xi]))
    rep = check_residue_partition(ctx)
    assert not rep.holds
    assert rep.bound_value == 12
    assert rep.observed_value == 9  # the cosets of 1, -1 and 1 - xi
    assert rep.witness == (ctx.one - ctx.xi).index
    assert not residue_partition(ctx, ctx.one).holds
    # every row read as 1: each (1 - xi^t)*1 is 0
    monkeypatch.setattr(ctx, "teich_digits", np.array([one, one, one]))
    rep = check_residue_partition(ctx)
    assert not rep.holds
    assert rep.observed_value == 6  # only the cosets of 1 and -1 remain
    assert rep.witness == 0  # (1 - xi)*1, the first representative that fails
    assert not residue_partition(ctx, ctx.one).holds
