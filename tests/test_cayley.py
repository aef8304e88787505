"""Graph construction, neighbours, export format, and families."""

import io
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from connection_oracle import connection_rows, connection_set
import export_oracle
from orbit_oracle import vertex_distances

from grcayley import (
    ContextMismatchError,
    IntegrityError,
    ParameterError,
    RangeError,
    RingParams,
    bfs_distances,
    build_graph,
    export_edges,
    family_params,
    is_unit,
    make_ring,
    neighbors,
    orbit_representatives,
    verify_graph,
)
from grcayley import cayley
from grcayley.cayley import spectral_interval_bound


@pytest.fixture(scope="module")
def h16():
    return build_graph(make_ring(RingParams(2, 2, 2)))


@pytest.fixture(scope="module")
def h81():
    return build_graph(make_ring(RingParams(3, 2, 2)))


def as_networkx(spec):
    buf = io.StringIO()
    export_edges(spec, buf)
    g = nx.Graph()
    g.add_nodes_from(range(spec.n))
    for line in buf.getvalue().splitlines()[1:]:
        u, v = map(int, line.split())
        g.add_edge(u, v)
    return g


def test_h16_frozen_structure(h16):
    assert h16.n == 16
    assert h16.d == 6
    assert sorted(int(i) for i in h16.s_indices) == [1, 3, 4, 5, 12, 15]
    assert neighbors(h16, 0) == [1, 3, 4, 5, 12, 15]
    with pytest.raises(RangeError):
        neighbors(h16, 16)


def test_h81_structure(h81):
    assert h81.n == 81 and h81.d == 8
    # connection set closed under negation with no doubles
    s = {int(i) for i in h81.s_indices}
    assert len(s) == 8
    for i in h81.s_indices:
        assert (-h81.ctx.from_index(int(i))).index in s


@pytest.mark.parametrize("r,expected_d", [(2, 6), (3, 14), (4, 30)])
def test_degree_formula_p2(r, expected_d):
    spec = build_graph(make_ring(RingParams(2, 2, r)))
    assert spec.d == expected_d
    assert spec.s_digits.shape == (expected_d, r)


def assert_matches_connection_oracle(spec):
    indices, rows = connection_rows(spec.ctx, spec.gamma)
    assert spec.s_indices.tolist() == indices
    assert spec.s_digits.tolist() == rows


def random_unit(ctx, seed):
    rng = np.random.default_rng(seed)
    while True:
        gamma = ctx.element(rng.integers(0, ctx.q, ctx.r).tolist())
        if is_unit(gamma):
            return gamma


@pytest.mark.parametrize("key", [(2, 2, 12), (3, 2, 7)])
def test_connection_set_matches_oracle_on_large_rings(key):
    ctx = make_ring(RingParams(*key))
    for gamma in (ctx.one, random_unit(ctx, sum(key))):
        assert_matches_connection_oracle(build_graph(ctx, gamma))


@pytest.mark.parametrize(
    "key,edit,message",
    [
        ((2, 2, 3), lambda t: np.vstack([t[:1], t[:-1]]), "repeated elements"),
        ((3, 2, 2), lambda t: np.vstack([t[:-1], 0 * t[:1]]), "contains zero"),
        ((2, 2, 3), lambda t: np.vstack([t[:-1], (-t[:1]) % 4]), "meets its own negation"),
        # xi^7 is missing, so -xi^3 = xi^7 has no negation partner
        ((3, 2, 2), lambda t: t[:-1], "not closed under negation"),
    ],
    ids=["repeated", "zero", "mirror", "unclosed"],
)
def test_build_graph_integrity_failures(monkeypatch, key, edit, message):
    ctx = make_ring(RingParams(*key))
    monkeypatch.setattr(ctx, "teich_digits", edit(ctx.teich_digits))
    with pytest.raises(IntegrityError, match=message):
        build_graph(ctx)


def test_setup_and_default_verify_build_no_unit_elements():
    ctx = make_ring(RingParams(2, 2, 4))
    verify_graph(build_graph(ctx))
    assert "teichmuller_units" not in vars(ctx)
    assert not hasattr(ctx, "_teich_by_residue")
    # gamma = 1 makes the oracle's first p^r - 1 elements the scalar xi powers
    assert list(ctx.teichmuller_units) == connection_set(ctx, ctx.one)[: ctx.p**ctx.r - 1]


def test_nonunit_gamma_rejected(h16):
    with pytest.raises(ParameterError):
        build_graph(h16.ctx, h16.ctx.element([2, 0]))


def test_gamma_from_other_ring_rejected(h16):
    other = make_ring(RingParams(2, 3, 2))
    with pytest.raises(ContextMismatchError):
        build_graph(h16.ctx, other.one)


def test_twisted_graph_same_degree(h16):
    spec = build_graph(h16.ctx, h16.ctx.element([1, 2]))
    assert spec.d == 6
    assert not np.array_equal(np.sort(spec.s_indices), np.sort(h16.s_indices))


def test_neighbors_match_adjacency(h81):
    ctx = make_ring(RingParams(2, 2, 3))
    for spec in (h81, build_graph(ctx, ctx.element([3, 1, 2]))):
        g = as_networkx(spec)
        s = connection_set(spec.ctx, spec.gamma)
        for v in range(0, spec.n, 7):
            assert sorted(g.neighbors(v)) == neighbors(spec, v)
            u = spec.ctx.from_index(v)
            assert sorted((u + t).index for t in s) == neighbors(spec, v)


def test_neighbors_on_large_q_ring_stay_small():
    # q = 63001 and d = 63000 on 251^4 vertices: u + S is formed on (1, d)
    # arrays, so nothing sized by q*d (16 GB as uint32) is allocated.
    spec = build_graph(make_ring(RingParams(251, 2, 2)))
    ctx = spec.ctx
    v = spec.n - 2
    tracemalloc.start()
    try:
        got = neighbors(spec, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    weights = np.array(ctx._weights, dtype=np.int64)
    expected = (ctx.digits_of(np.array([v])) + spec.s_digits) % ctx.q @ weights
    assert got == sorted(expected.tolist())


@pytest.mark.parametrize("p,e,r,edges", [(2, 2, 2, 48), (2, 2, 4, 3840), (3, 2, 2, 324)])
def test_export_edge_counts_and_format(p, e, r, edges):
    spec = build_graph(make_ring(RingParams(p, e, r)))
    buf = io.StringIO()
    count = export_edges(spec, buf)
    assert count == edges
    lines = buf.getvalue().splitlines()
    gamma = "1," + ",".join("0" * (r - 1))
    assert lines[0] == f"# {p} {e} {r} {gamma} {spec.n} {spec.d}"
    pairs = [tuple(map(int, line.split())) for line in lines[1:]]
    assert len(pairs) == edges
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)
    # regularity: every vertex appears exactly d times across both columns
    counts = np.bincount(np.array(pairs).ravel(), minlength=spec.n)
    assert counts.min() == counts.max() == spec.d


def test_export_deterministic(h16, monkeypatch):
    a, b = io.StringIO(), io.StringIO()
    export_edges(h16, a)
    export_edges(h16, b)
    assert a.getvalue() == b.getvalue()
    # blocks of one row and of five rows, the last one short, give the same text
    for rows in (1, 5):
        monkeypatch.setattr(cayley, "EXPORT_BLOCK", rows * h16.d)
        c = io.StringIO()
        export_edges(h16, c)
        assert c.getvalue() == a.getvalue()


def assert_same_text(got, want):
    """Equal texts; on a mismatch, report the first differing line, not a
    diff of megabytes."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next(
            (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
        )
        pytest.fail(f"line {i}: {a[i:i + 1]} != {b[i:i + 1]} of {len(a)}, {len(b)} lines")


def assert_export_matches_oracle(spec, block_rows=(1, 5, None)):
    ref = io.StringIO()
    count = export_oracle.export_edges(spec, ref)
    for rows in block_rows:
        block = cayley.EXPORT_BLOCK if rows is None else rows * spec.d
        buf = io.StringIO()
        with mock.patch.object(cayley, "EXPORT_BLOCK", block):
            assert export_edges(spec, buf) == count
        assert_same_text(buf.getvalue(), ref.getvalue())


@pytest.mark.parametrize("key", [(2, 7, 2), (2, 5, 3)])
def test_export_matches_oracle_past_four_digits(key):
    # n = 16384 and 32768: five-digit vertex ids span two decimal chunks
    ctx = make_ring(RingParams(*key))
    assert_export_matches_oracle(build_graph(ctx, random_unit(ctx, 1)), (5, None))


def test_decimal_words_match_str():
    chunks = cayley._decimal_chunks()
    x = np.array([0, 1, 9, 10, 999, 1000, 9999, 10_000, 10_001, 99_999_999,
                  100_000_000, 100_000_001, 2**32 - 1], dtype=np.int64)
    for words in (1, 2, 3):
        fits = x[x < 10 ** (4 * words)]
        text = cayley._decimal(fits, words, chunks).view(np.uint8)
        assert [bytes(t).replace(b"\0", b"").decode() for t in text] == [
            str(v) for v in fits.tolist()
        ]


def test_bfs_distances_match_networkx(h16, h81):
    ctx = make_ring(RingParams(2, 2, 3))
    twisted = build_graph(ctx, ctx.element([3, 1, 2]))
    for spec in (h16, h81, twisted):
        ref = nx.single_source_shortest_path_length(as_networkx(spec), 0)
        dist = bfs_distances(spec)
        assert vertex_distances(spec, dist) == [ref.get(v, -1) for v in range(spec.n)]


RINGS_UP_TO_2_12 = [
    (p, e, r)
    for p in (2, 3, 5, 7)
    for e in range(2, 7)
    for r in range(2, 7)
    if p ** (e * r) <= 1 << 12
]


@settings(deadline=None, max_examples=30)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_bfs_distances_property(key, seed, data):
    ctx = make_ring(RingParams(*key, seed=seed))
    units = [i for i in range(ctx.size) if is_unit(ctx.from_index(i))]
    gamma = ctx.from_index(data.draw(st.sampled_from(units), label="gamma"))
    spec = build_graph(ctx, gamma)
    ref = nx.single_source_shortest_path_length(as_networkx(spec), 0)
    dist = bfs_distances(spec)
    reps, _ = orbit_representatives(ctx)
    assert dist.tolist() == [ref.get(int(v), -1) for v in ctx.indices_from_digits(reps)]
    # each orbit but zero's holds p^r - 1 vertices at the same distance
    weights = np.where(np.arange(len(dist)) == 0, 1, ctx.p**ctx.r - 1)
    reached = dist >= 0
    spheres = np.bincount(dist[reached], weights=weights[reached]).astype(int)
    assert spheres.tolist() == np.bincount(list(ref.values())).tolist()


@settings(deadline=None, max_examples=40)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_connection_set_matches_oracle_property(key, seed, data):
    ctx = make_ring(RingParams(*key, seed=seed))
    units = [i for i in range(ctx.size) if is_unit(ctx.from_index(i))]
    gamma = ctx.from_index(data.draw(st.sampled_from(units), label="gamma"))
    assert_matches_connection_oracle(build_graph(ctx, gamma))


@settings(deadline=None, max_examples=30)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_export_matches_oracle_property(key, seed, data):
    ctx = make_ring(RingParams(*key, seed=seed))
    units = [i for i in range(ctx.size) if is_unit(ctx.from_index(i))]
    gamma = ctx.from_index(data.draw(st.sampled_from(units), label="gamma"))
    assert_export_matches_oracle(build_graph(ctx, gamma))


def test_interval_bound_pieces():
    c, k, pr, val = spectral_interval_bound(2, 2, 2)
    assert (c, k, pr) == (2, 2, 4) and val == pytest.approx(6.0)
    c, k, pr, val = spectral_interval_bound(2, 2, 4)
    assert val == pytest.approx(10.0)
    c, k, pr, val = spectral_interval_bound(3, 2, 2)
    assert (c, k, pr) == (2, 1, 9) and val == pytest.approx(7.0)
    c, k, pr, val = spectral_interval_bound(3, 2, 3)
    assert val == pytest.approx(2 * 27**0.5 + 1)


def test_family_frozen_rows():
    fam = family_params(2, Fraction(1, 2), 4)
    assert (fam["e"], fam["n"], fam["d"]) == (2, 256, 30)
    assert fam["lambda_bound"] == pytest.approx(10.0)
    assert fam["params"] == RingParams(2, 2, 4)
    fam = family_params(3, "1/2", 4)
    assert (fam["e"], fam["n"], fam["d"]) == (2, 6561, 80)
    assert fam["lambda_bound"] == pytest.approx(19.0)
    fam = family_params(2, Fraction(1, 2), 8)
    assert fam["n"] == 2**32 and fam["params"] is not None
    fam = family_params(2, Fraction(1, 2), 10)
    assert fam["n"] == 2**50 and fam["params"] is None


def test_family_rejections():
    with pytest.raises(ParameterError):
        family_params(2, Fraction(1, 2), 3)  # delta*r not an integer
    with pytest.raises(ParameterError):
        family_params(2, Fraction(1, 2), 2)  # e = 1
    with pytest.raises(ParameterError):
        family_params(2, Fraction(2, 3), 3)  # delta > 1/2
    with pytest.raises(ParameterError):
        family_params(2, 0, 4)
    with pytest.raises(ParameterError):
        family_params(4, Fraction(1, 2), 4)  # p not prime
    with pytest.raises(ParameterError):
        family_params(2, "nope", 4)
    fam = family_params(2, Fraction(1, 3), 6)
    assert fam["e"] == 2 and fam["n"] == 2**12
