"""The G1-orbit reduction behind full_spectrum, wcu, bhk and the BFS: the
zeta transform against the row sweep of tests/zeta_oracle.py, the checks
against a brute-force sweep of that kernel over every ring element, and
the orbit numbering and its inverse against tests/orbit_oracle.py, and the
Frobenius cycles of that numbering against tests/ring_oracle.py."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bfs_oracle
from orbit_oracle import orbit_representatives, orbit_row_oracle
from residue_oracle import residue_partition
from ring_oracle import frobenius, padic_coords
import ring_oracle as scalar
from spectrum_oracle import ORACLE_TOL, group_values
from test_acceptance import WCU_LIMIT, _instances
from test_analysis import BFS_ORACLE_KEYS
from test_cayley import RINGS_UP_TO_2_12
from zeta_oracle import character_sums, row_zeta_sums, trace_basis_matrix
from grcayley import (
    RingParams,
    SizeError,
    bfs_distances,
    build_graph,
    check_bhk,
    check_residue_partition,
    check_wcu_summary,
    full_spectrum,
    is_unit,
    make_ring,
)
from grcayley import analysis, ring, spectrum
from grcayley.analysis import _wcu_norm_within_bound
from grcayley.ring import parse_coeff_string
from grcayley.spectrum import (
    _valuation_starts,
    orbit_digits,
    orbit_row_map,
    zeta_beta,
    zeta_sums,
)

SWEEP_KEYS = [(2, 2, 8), (2, 4, 4), (2, 3, 5), (3, 2, 4), (5, 2, 3), (7, 2, 2)]
SMALL_KEYS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 4, 2), (5, 2, 2), (3, 3, 2)]
RINGS_UP_TO_2_12 = [
    (p, e, r)
    for p in (2, 3, 5, 7)
    for e in range(2, 7)
    for r in range(2, 7)
    if p ** (e * r) <= 1 << 12
]


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
    re, _ = sweep(spec.ctx, [scalar.from_index(spec.ctx, int(i)) for i in spec.s_indices])
    if spec.ctx.q == 4:
        values, counts = np.unique(re, return_counts=True)
        return tuple(zip(values[::-1].tolist(), counts[::-1].tolist()))
    return group_values(re)


def sweep_wcu(ctx):
    """(holds, worst excess) of the wcu claim over every nonzero gamma."""
    p, e, r = ctx.p, ctx.e, ctx.r
    re, im = sweep(ctx, scalar.units(ctx))
    val = sweep_valuations(ctx)
    re, im, val = re[1:], im[1:], val[1:]
    bounds = (np.power(p, e - 1 - val) - 1) * math.sqrt(p**r) + 1.0
    mags = np.hypot(re, im)
    if ctx.q == 4:
        normsq = re * re + im * im
        ok = np.choose(
            val, [_wcu_norm_within_bound(normsq, p ** (e - 1 - v), p**r) for v in range(e)]
        )
    else:
        ok = mags <= bounds + ORACLE_TOL
    return bool(ok.all()), float((mags - bounds).max())


def sweep_bhk(ctx):
    """(holds, worst deviation) of the p^e = 4 identities over every gamma."""
    pr = 2**ctx.r
    re, im = sweep(ctx, scalar.units(ctx))
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
        rep = scalar.element(ctx, row)
        assert padic_coords(rep).valuation == v
        covered[[(rep * u).index for u in scalar.units(ctx)]] += 1
    assert (covered == 1).all()


def assert_spectrum_matches_sweep(spec):
    """full_spectrum, from zeta over G1, against the kernel swept over S at
    every element: entry for entry for p^e = 4, else equal multiplicities
    and values within 1e-9."""
    got = full_spectrum(spec).entries
    want = sweep_spectrum(spec)
    if spec.ctx.q == 4:
        assert got == want
    else:
        assert [m for _, m in got] == [m for _, m in want]
        assert np.allclose([v for v, _ in got], [v for v, _ in want], rtol=0, atol=1e-9)


@pytest.mark.parametrize("key", SWEEP_KEYS)
def test_orbit_spectrum_matches_sweep(key):
    assert_spectrum_matches_sweep(build_graph(make_ring(RingParams(*key))))


@settings(deadline=None, max_examples=30)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_zeta_spectrum_matches_sweep_property(key, seed, data):
    # the spectrum never reads S, so a twisted S checks the gamma-invariance
    ctx = make_ring(RingParams(*key, seed=seed))
    units = [i for i in range(ctx.size) if is_unit(scalar.from_index(ctx, i))]
    gamma = scalar.from_index(ctx, data.draw(st.sampled_from(units), label="gamma"))
    assert_spectrum_matches_sweep(build_graph(ctx, gamma))


def transform_betas(ctx):
    """Digits of p^v (1 + p*c) for every entry of zeta_sums, one array per
    valuation block v, c running over (Z/N)^r in C order."""
    p, e, r = ctx.p, ctx.e, ctx.r
    blocks = []
    for v in range(e):
        n = p ** (e - 1 - v)
        c = np.stack(np.unravel_index(np.arange(n**r), (n,) * r), axis=1)
        beta = p ** (v + 1) * c
        beta[:, 0] += p**v
        blocks.append(beta % ctx.q)
    return blocks


def assert_zeta_matches_row_sweep(ctx):
    """zeta_sums against the row sweep at the orbit of each entry's beta:
    equal int64 for p^e = 4, within 1e-9 otherwise.  Zero and the blocks
    name every orbit once, block v those of valuation v."""
    blocks = zeta_sums(ctx)
    digits, want_val, want_re, want_im = row_zeta_sums(ctx)
    rows = [orbit_row_map(ctx)(betas) for betas in transform_betas(ctx)]
    assert len(blocks) == ctx.e
    assert sorted(np.concatenate([[0], *rows]).tolist()) == list(range(len(digits)))
    for v, ((re, im), row) in enumerate(zip(blocks, rows)):
        assert (want_val[row] == v).all()
        for got, want in ((re, want_re[row]), (im, want_im[row])):
            if ctx.q == 4:
                assert got.dtype == np.int64 and (got == want).all()
            else:
                assert np.allclose(got, want, rtol=0, atol=1e-9)


@settings(deadline=None, max_examples=40)
@given(key=st.sampled_from(RINGS_UP_TO_2_12), seed=st.integers(min_value=0, max_value=5))
def test_zeta_transform_matches_row_sweep_property(key, seed):
    ctx = make_ring(RingParams(*key, seed=seed))
    assert_zeta_matches_row_sweep(ctx)
    for v, betas in enumerate(transform_betas(ctx)):
        for k in {0, len(betas) // 2, len(betas) - 1}:
            assert zeta_beta(ctx, v, k).tolist() == betas[k].tolist()


@pytest.mark.parametrize("key", _instances(WCU_LIMIT))
def test_zeta_transform_matches_row_sweep_on_catalog(key):
    assert_zeta_matches_row_sweep(make_ring(RingParams(*key)))


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_transform_blocks_are_distinct_orbits(key):
    # the p^(r(e-1-v)) entries of block v name p^(r(e-1-v)) different
    # orbits of valuation v, found element by element
    ctx = make_ring(RingParams(*key))
    oracle = orbit_row_oracle(ctx)
    _, want_val = orbit_representatives(ctx)
    rows = [
        [oracle(ctx.element(zeta_beta(ctx, v, k))) for k in range(len(re))]
        for v, (re, _) in enumerate(zeta_sums(ctx))
    ]
    assert sorted([0] + [row for block in rows for row in block]) == list(range(len(want_val)))
    for v, block in enumerate(rows):
        assert len(block) == ctx.p ** (ctx.r * (ctx.e - 1 - v))
        assert (want_val[block] == v).all()


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


@pytest.mark.parametrize("key", RINGS_UP_TO_2_12)
def test_frobenius_cycles_match_scalar_images(key):
    # the least row and the cycle length over sigma^i(rep(k)), i < r, from
    # the definitional Frobenius and the scalar orbit lookup
    ctx = make_ring(RingParams(*key))
    digits, _ = orbit_representatives(ctx)
    row = orbit_row_oracle(ctx)
    cycles = [
        {row(frobenius(ctx.element(rep), i)) for i in range(ctx.r)} for rep in digits.tolist()
    ]
    canon, lengths = spectrum.frobenius_cycles(ctx)
    assert canon.dtype == np.int32 and lengths.dtype == np.uint8
    assert canon.tolist() == [min(cycle) for cycle in cycles]
    assert lengths.tolist() == [len(cycle) for cycle in cycles]


@pytest.mark.parametrize("key", RINGS_UP_TO_2_12)
def test_oracle_distances_constant_on_frobenius_cycles(key):
    # sigma fixes 0 and maps +-G1 onto itself, an automorphism of the
    # untwisted graph, which the oracle's distances must reflect
    spec = build_graph(make_ring(RingParams(*key)))
    ctx = spec.ctx
    digits, _ = orbit_representatives(ctx)
    row = orbit_row_oracle(ctx)
    dist = bfs_oracle.bfs_distances(spec)
    images = [row(frobenius(ctx.element(rep))) for rep in digits.tolist()]
    assert np.array_equal(dist[images], dist)


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_orbit_row_map_matches_scalar_oracle(key):
    ctx = make_ring(RingParams(*key))
    oracle = orbit_row_oracle(ctx)
    want = [oracle(scalar.from_index(ctx, i)) for i in range(ctx.size)]
    assert orbit_row_map(ctx)(ctx.digits_of(np.arange(ctx.size))).tolist() == want


@functools.lru_cache(maxsize=8)
def ring_and_row_oracle(key):
    ctx = make_ring(RingParams(*key))
    return ctx, orbit_row_oracle(ctx)


# the deepest digit loops, drawn in about half the examples: e = 10 at
# p^r = 4, and e = 7 at p^r = 9, which is above 2^20 elements and so
# outside BFS_ORACLE_KEYS
DEEP_KEYS = [(2, 10, 2), (3, 7, 2)]


@settings(deadline=None, max_examples=60)
@given(
    key=st.sampled_from(DEEP_KEYS) | st.sampled_from(BFS_ORACLE_KEYS),
    data=st.data(),
)
def test_orbit_row_map_reads_unreduced_digits_property(key, data):
    # any nonnegative int32 digits congruent mod q name the same element
    ctx, oracle = ring_and_row_oracle(key)
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    m = data.draw(st.integers(1, 30), label="rows")
    raw = data.draw(hnp.arrays(np.int64, (m, r), elements=st.integers(0, q - 1)), label="raw")
    val = data.draw(hnp.arrays(np.int64, m, elements=st.integers(0, e)), label="valuation")
    digits = raw * p ** val[:, None] % q  # rows of valuation >= val, zero at e
    shift = hnp.arrays(np.int64, (m, r), elements=st.integers(0, (2**31 - 1) // q - 1))
    given_digits = digits + q * data.draw(shift, label="multiples of q")
    if data.draw(st.booleans(), label="int32 columns"):
        # the layout the map works in, so a map that kept a view would write here
        given_digits = np.asfortranarray(given_digits, dtype=np.int32)
    before = given_digits.copy()
    rows = orbit_row_map(ctx)(given_digits)
    assert np.array_equal(given_digits, before)
    assert rows.tolist() == [oracle(ctx.element(row)) for row in digits.tolist()]


@pytest.mark.parametrize("key", [(2, 4, 5), (7, 2, 3), (2, 2, 16)])
def test_orbit_row_map_block_boundaries(monkeypatch, key):
    # the map walks its input BLOCK_PAIRS digits at a time; blocks of 5 rows
    # put 201 boundaries, the last block partial, through unreduced digits
    # of every valuation, in both layouts the callers pass
    ctx = make_ring(RingParams(*key))
    p, e, r, q = ctx.p, ctx.e, ctx.r, ctx.q
    rng = np.random.default_rng(sum(key))
    m = 1003
    digits = rng.integers(0, q, (m, r)) * p ** rng.integers(0, e + 1, (m, 1)) % q
    digits += q * rng.integers(0, (2**31 - 1) // q - 1, (m, r))
    for laid_out in (digits.astype(np.int32), np.asfortranarray(digits, dtype=np.int32)):
        want = orbit_row_map(ctx)(laid_out)
        with monkeypatch.context() as patch:
            patch.setattr(ring, "BLOCK_PAIRS", 5 * r)
            before = laid_out.copy()
            assert np.array_equal(orbit_row_map(ctx)(laid_out), want)
            assert np.array_equal(laid_out, before)


@pytest.mark.parametrize("key", BFS_ORACLE_KEYS)
def test_orbit_digits_match_representatives(key):
    ctx = make_ring(RingParams(*key))
    digits, _ = orbit_representatives(ctx)
    got = orbit_digits(ctx, np.arange(len(digits)))
    assert got.dtype == np.int32
    assert np.array_equal(got, digits)


@settings(deadline=None, max_examples=60)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_orbit_digits_invert_row_map_property(key, seed, data):
    ctx = make_ring(RingParams(*key, seed=seed))
    start = _valuation_starts(ctx)[:-1]
    count = (ctx.size - 1) // (ctx.p**ctx.r - 1) + 1
    # row 0 and the first and last row of every valuation block
    edges = [0, *start, *(np.append(start[1:], count) - 1)]
    drawn = data.draw(st.lists(st.integers(0, count - 1), max_size=50), label="rows")
    rows = np.array(edges + drawn, dtype=np.int64)
    assert orbit_row_map(ctx)(orbit_digits(ctx, rows)).tolist() == rows.tolist()


def test_orbit_size_guard(monkeypatch):
    # zeta_sums allocates one entry per orbit of its largest block, valuation
    # 0 (2^3 on GR(4, 4^3)); the BFS's cap on orbit rows is in test_analysis
    ctx = make_ring(RingParams(2, 2, 3))
    largest = ctx.p ** (ctx.r * (ctx.e - 1))
    monkeypatch.setattr(spectrum, "ORBIT_CUTOFF", largest - 1)
    for check in (zeta_sums, check_wcu_summary, check_bhk):
        with pytest.raises(SizeError):
            check(ctx)
    monkeypatch.setattr(spectrum, "ORBIT_CUTOFF", largest)
    assert [len(re) for re, _ in zeta_sums(ctx)] == [8, 1]
    assert check_wcu_summary(ctx).holds and check_bhk(ctx).holds


def test_failure_witness_is_an_orbit_representative():
    # shift outputs of the transform; the witness must name an element of
    # the orbit of the first shifted entry: one entry alone, or the end of
    # block 0 together with the start of the last block, where the first
    # failing block decides
    for key in ((2, 2, 3), (3, 2, 2), (2, 3, 2)):
        ctx = make_ring(RingParams(*key))
        oracle = orbit_row_oracle(ctx)
        betas = transform_betas(ctx)
        checks = (check_wcu_summary, check_bhk) if ctx.q == 4 else (check_wcu_summary,)
        last = ctx.e - 1
        for shifts in (
            [(0, 3)],
            [(last, len(betas[last]) - 1)],
            [(0, len(betas[0]) - 1), (last, 0)],
        ):
            zeta = [(re.copy(), im) for re, im in zeta_sums(ctx)]
            for v, k in shifts:
                zeta[v][0][k] += 100
            v, k = shifts[0]
            failing = oracle(ctx.element(betas[v][k]))
            for check in checks:
                rep = check(ctx, zeta)
                assert not rep.holds
                assert oracle(parse_coeff_string(ctx, rep.witness)) == failing


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
    assert rep.witness == (scalar.lift(ctx.one) - ctx.xi).index
    assert not residue_partition(ctx, ctx.one).holds
    # every row read as 1: each (1 - xi^t)*1 is 0
    monkeypatch.setattr(ctx, "teich_digits", np.array([one, one, one]))
    rep = check_residue_partition(ctx)
    assert not rep.holds
    assert rep.observed_value == 6  # only the cosets of 1 and -1 remain
    assert rep.witness == 0  # (1 - xi)*1, the first representative that fails
    assert not residue_partition(ctx, ctx.one).holds
