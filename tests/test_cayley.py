"""Graph construction, neighbours, export format, and families."""

import dataclasses
import io
import logging
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from connection_oracle import connection_rows, connection_set, neighbors
import export_oracle
from orbit_oracle import orbit_representatives, vertex_distances
from test_acceptance import WCU_LIMIT, _instances

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
    triangle_count,
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
        # an even count: xi^6 and xi^7 are missing, so -xi^2 has no partner
        ((3, 2, 2), lambda t: t[:-2], "not closed under negation"),
    ],
    ids=["repeated", "zero", "mirror", "unclosed", "unclosed-even"],
)
def test_build_graph_integrity_failures(monkeypatch, key, edit, message):
    ctx = make_ring(RingParams(*key))
    monkeypatch.setattr(ctx, "teich_digits", edit(ctx.teich_digits))
    with pytest.raises(IntegrityError, match=message):
        build_graph(ctx)


def test_connection_set_check_passes_every_built_graph():
    # the rows build_graph writes are the rows _require_connection_set
    # expects, for a random unit gamma on every catalog ring
    for key in _instances(WCU_LIMIT):
        ctx = make_ring(RingParams(*key))
        cayley._require_connection_set(build_graph(ctx, random_unit(ctx, sum(key))))


@pytest.mark.parametrize("key", [(2, 2, 3), (3, 2, 2)])
def test_connection_set_check_rejects_rows_permuted_in_orbit(key):
    # rows 1 and 2 of gamma*G1, and of -gamma*G1 for p = 2, swapped: the
    # same set, xi-stable and headed by gamma and -gamma, but not the row
    # order that the BFS and triangle_count read
    ctx = make_ring(RingParams(*key))
    spec = build_graph(ctx, random_unit(ctx, sum(key)))
    order = np.arange(spec.d)
    for head in range(0, spec.d, ctx.p**ctx.r - 1):
        order[head + 1 : head + 3] = head + 2, head + 1
    permuted = dataclasses.replace(
        spec, s_digits=spec.s_digits[order], s_indices=spec.s_indices[order]
    )
    for check in (cayley._require_connection_set, bfs_distances, triangle_count):
        with pytest.raises(IntegrityError, match="xi"):
            check(permuted)


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
    # q = 63001 and d = 63000 on 251^4 vertices: the neighbour path of
    # export_edges forms u + S on (1, d) arrays, so nothing sized by q*d
    # (16 GB as uint32) is allocated.
    spec = build_graph(make_ring(RingParams(251, 2, 2)))
    ctx = spec.ctx
    v = spec.n - 2
    vd = ctx.digits_of(np.array([v]))
    tracemalloc.start()
    try:
        got = np.sort(cayley._neighbour_indices(spec, vd)[0]).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    weights = np.array(ctx._weights, dtype=np.int64)
    expected = (ctx.digits_of(np.array([v])) + spec.s_digits) % ctx.q @ weights
    assert got == sorted(expected.tolist())


@pytest.mark.parametrize("q", [4, 9, 49, 2**16])
def test_negate_every_digit(q):
    # every digit 0..q-1, repeated over three blocks of rows (the last
    # partial): -x mod q is q - x, and 0 stays 0, into a slice of a larger
    # array or into a new int32 array
    r = 16
    digits = np.resize(np.arange(q, dtype=np.int32), (2 * cayley.BLOCK_PAIRS // r + 3, r))
    assert np.unique(digits).size == q
    want = -digits.astype(np.int64) % q
    out = np.full((len(digits) + 2, r), -1, dtype=np.int32)
    got = cayley._negate(digits, q, out=out[1:-1])
    assert got.base is out and np.array_equal(got, want)
    assert (out[0] == -1).all() and (out[-1] == -1).all()
    got = cayley._negate(digits, q)
    assert got.dtype == np.int32 and np.array_equal(got, want)


def test_phase_boundaries_logged_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="grcayley"):
        ctx = make_ring(RingParams(2, 2, 3))
        spec = build_graph(ctx)
        verify_graph(spec, checks=["wcu", "girth"])
    records = [rec for rec in caplog.records if rec.name == "grcayley"]
    assert {rec.levelno for rec in records} == {logging.DEBUG}
    phases = [rec.getMessage().rsplit(": ", 1) for rec in records]
    assert [phase for phase, _ in phases] == [
        f"make_ring {ctx!r}",
        "build_graph d = 14",
        "claim girth",
        "claim wcu",
    ]
    assert all(seconds.endswith(" s") and float(seconds[:-2]) >= 0 for _, seconds in phases)


def test_setup_on_largest_char4_ring_stays_small():
    # GR(4,4^16), d = 131 070: G1 and S are held as int32 digit rows (4 and
    # 8 MiB), and every product, index and pair sum beside them is formed a
    # block at a time; as int64 rows with whole-array temporaries the peaks
    # were 16.1, 58.0 and 45.3 MiB
    def traced(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ctx, ring_peak = traced(make_ring, RingParams(2, 2, 16))
    spec, graph_peak = traced(build_graph, ctx)
    count, pairs_peak = traced(triangle_count, spec)
    assert ctx.teich_digits.dtype == spec.s_digits.dtype == np.int32
    assert ctx._residue_lift[1].dtype == np.uint16  # adj, 2 MiB here
    assert ring_peak < 8 * 2**20
    assert graph_peak < 24 * 2**20
    assert pairs_peak < 8 * 2**20
    assert count > 0


def test_export_on_large_q_ring_keeps_first_block_small():
    # rows = 1 here, since q * d > BLOCK_PAIRS: the first block forms u + S
    # for one vertex at a time, and no table sized by q or n is built
    spec = build_graph(make_ring(RingParams(251, 2, 2)))

    class FirstBlockWritten(Exception):
        pass

    class FirstBlockOnly(io.StringIO):
        def write(self, text):
            if self.tell():  # the header is in: text is the first block
                raise FirstBlockWritten(text)
            return super().write(text)

    sink = FirstBlockOnly()
    tracemalloc.start()
    try:
        with pytest.raises(FirstBlockWritten) as stop:
            export_edges(spec, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # vertex 0 has all d neighbours above it
    assert stop.value.args[0].splitlines() == [f"0 {v}" for v in np.sort(spec.s_indices)]


def test_export_forms_high_parts_and_one_low_table():
    # GR(4,4^7): rows = 64 low parts (64 * 4 * 254 <= 2^16 < 256 * 4 * 254),
    # so u + S is formed for the 16384 / 64 = 256 high parts and the 64 low
    # ones, not for all 16384 vertices
    spec = build_graph(make_ring(RingParams(2, 2, 7)))
    seen = []
    original = cayley._neighbour_indices

    def counting(spec, digits):
        seen.append(len(digits))
        return original(spec, digits)

    with mock.patch.object(cayley, "_neighbour_indices", counting):
        assert export_edges(spec, io.StringIO()) == spec.n * spec.d // 2
    assert seen[0] == 64
    assert sum(seen) == 64 + 256


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
        monkeypatch.setattr(cayley, "BLOCK_PAIRS", rows * h16.d)
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
    """The export equals the oracle's text at a budget of rows * d pairs for
    each entry of block_rows (None: the default), and at budgets that split
    the vertices into other low and high parts: 3qd (1 low row, 3q high
    parts a block), q^2 d (q low rows, q high parts), 3q^2 d (q low rows,
    3q high parts) and qd - 1 (1 low row, q - 1 high parts).  The 3q ones
    leave a short last block unless p = 3."""
    q, d = spec.ctx.q, spec.d
    budgets = [cayley.BLOCK_PAIRS if rows is None else rows * d for rows in block_rows]
    budgets += [3 * q * d, q * q * d, 3 * q * q * d, q * d - 1]
    ref = io.StringIO()
    count = export_oracle.export_edges(spec, ref)
    for block in budgets:
        buf = io.StringIO()
        with mock.patch.object(cayley, "BLOCK_PAIRS", block):
            assert export_edges(spec, buf) == count
        assert_same_text(buf.getvalue(), ref.getvalue())


@pytest.mark.parametrize("key", [(2, 7, 2), (2, 5, 3)])
def test_export_matches_oracle_past_four_digits(key):
    # n = 16384 and 32768: five-digit vertex ids span two decimal chunks
    ctx = make_ring(RingParams(*key))
    assert_export_matches_oracle(build_graph(ctx, random_unit(ctx, 1)), (5, None))


def test_decimal_words_match_str():
    # word-major: row k holds chunk k of every number; the chunk boundaries
    # 0, 9, 9 999, 10^4, 99 999 999, 10^8 and 2^32 - 1 wherever they fit
    chunks = cayley._decimal_chunks()
    x = np.array([0, 1, 9, 10, 999, 1000, 9999, 10_000, 10_001, 99_999_999,
                  100_000_000, 100_000_001, 2**32 - 1], dtype=np.int64)
    for words in (1, 2, 3):
        for dtype in (np.int64, np.uint32):
            fits = x[x < 10 ** (4 * words)].astype(dtype)
            kept = fits.copy()
            out = cayley._decimal(fits, words, chunks)
            assert out.shape == (words, len(fits)) and out.dtype == np.uint32
            np.testing.assert_array_equal(fits, kept)
            text = np.ascontiguousarray(out.T).view(np.uint8)
            assert [bytes(t).replace(b"\0", b"").decode() for t in text] == [
                str(v) for v in fits.tolist()
            ]


def test_decimal_chunks_table():
    words = cayley._decimal_chunks()
    assert words.shape == (30_000,) and words.dtype == np.uint32
    text = [bytes(w) for w in words.view(np.uint8).reshape(-1, 4)]
    for c in range(10_000):
        assert text[c] == b"%04d" % c
        assert text[10_000 + c] == (b"%d" % c if c else b"").rjust(4, b"\0")
        assert text[20_000 + c] == (b"%d" % c).rjust(4, b"\0")


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
    # entry k is the distance to gamma * O_k, read at gamma * rep(k)
    reps, _ = orbit_representatives(ctx)
    twisted = [(gamma * ctx.element(rep)).index for rep in reps.tolist()]
    assert dist.tolist() == [ref.get(v, -1) for v in twisted]
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
