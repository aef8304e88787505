"""Graph construction, neighbours, export format, and families."""

import dataclasses
import gc
import io
import logging
import tracemalloc
import weakref
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
import ring_oracle as scalar

from grcayley import (
    IntegrityError,
    ParameterError,
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
    with pytest.raises(IndexError):
        neighbors(h16, 16)


def test_h81_structure(h81):
    assert h81.n == 81 and h81.d == 8
    # connection set closed under negation with no doubles
    s = {int(i) for i in h81.s_indices}
    assert len(s) == 8
    for i in h81.s_indices:
        assert (-scalar.from_index(h81.ctx, int(i))).index in s


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


# (2, 11, 2) and (2, 12, 2) lie on either side of the float32 bound of
# ring._matmul_mod: 2 * 2047^2 < 2^24 < 2 * 4095^2
@pytest.mark.parametrize("key", [(2, 2, 12), (3, 2, 7), (2, 11, 2), (2, 12, 2)])
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
    # S is formed, and checked, on first read, not by build_graph
    spec = build_graph(ctx)
    with pytest.raises(IntegrityError, match=message):
        spec.s_digits


def test_setup_and_default_verify_build_no_unit_elements(monkeypatch):
    ctx = make_ring(RingParams(2, 2, 4))
    spec = build_graph(ctx)
    verify_graph(spec)
    assert ctx.teichmuller_units is ctx.teich_digits
    assert not hasattr(ctx, "_teich_by_residue")

    # nor the connection set, twisted or not: every default claim is decided
    # on +-G1 and gamma
    def no_connection_set(spec):
        raise AssertionError("a default verify formed S")

    odd = make_ring(RingParams(3, 2, 2))
    specs = (spec, build_graph(ctx, random_unit(ctx, 7)), build_graph(odd, random_unit(odd, 7)))
    with monkeypatch.context() as patch:
        patch.setattr(cayley, "_connection_set", no_connection_set)
        for spec in specs:
            verify_graph(spec)
        with pytest.raises(AssertionError, match="formed S"):
            spec.s_digits
    # gamma = 1 makes the oracle's first p^r - 1 elements the scalar xi powers
    teich = [list(u.coeffs) for u in connection_set(ctx, ctx.one)[: ctx.p**ctx.r - 1]]
    assert ctx.teich_digits.tolist() == teich


def test_nonunit_gamma_rejected(h16):
    with pytest.raises(ParameterError):
        build_graph(h16.ctx, h16.ctx.element([2, 0]))


def test_gamma_from_other_ring_rejected(h16):
    # a usage error, as check_residue_partition reports the same mistake
    other = make_ring(RingParams(2, 3, 2))
    with pytest.raises(ParameterError, match="different ring"):
        build_graph(h16.ctx, other.one)
    # equal-keyed contexts interoperate
    assert build_graph(h16.ctx, make_ring(RingParams(2, 2, 2)).one).d == h16.d


def test_graph_spec_is_ring_and_gamma(h16):
    # n, d and S follow from the ring and gamma, so a spec holding another
    # S cannot be built
    assert [f.name for f in dataclasses.fields(h16)] == ["ctx", "gamma"]
    ctx = make_ring(RingParams(3, 2, 2))
    spec = cayley.GraphSpec(ctx, ctx.element([1, 1]))
    assert (spec.n, spec.d) == (81, 8)
    assert_matches_connection_oracle(spec)


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
            u = scalar.from_index(spec.ctx, v)
            assert sorted((u + t).index for t in s) == neighbors(spec, v)


def test_neighbors_on_large_q_ring_stay_small():
    # q = 63001 and d = 63000 on 251^4 vertices: the neighbour path of
    # export_edges forms u + S on (1, d) arrays, so nothing sized by q*d
    # (16 GB as uint32) is allocated.
    spec = build_graph(make_ring(RingParams(251, 2, 2)))
    ctx = spec.ctx
    v = spec.n - 2
    vd = ctx.digits_of(np.array([v]))
    s = spec.s_digits
    tracemalloc.start()
    try:
        got = np.sort(cayley._neighbour_indices(ctx, s, vd)[0]).tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    weights = np.array(ctx._weights, dtype=np.int64)
    expected = (ctx.digits_of(np.array([v])) + s) % ctx.q @ weights
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
    # GR(4,4^16), d = 131 070: G1 is held as int32 digit rows (4 MiB), S is
    # not formed until read, and every product, index and pair sum is formed
    # a block at a time; as int64 rows with whole-array temporaries the peaks
    # were 16.1, 58.0 and 45.3 MiB, and 24 MiB was build_graph's bound while
    # it formed S
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
    assert graph_peak < 2**20
    assert pairs_peak < 8 * 2**20
    assert count > 0


def test_twisted_connection_set_on_largest_char4_ring():
    # GR(4, 4^16) with gamma = 3 + x: the 65 535 rows of gamma*G1, a float32
    # product in blocks, against an int64 product with the rows gamma * x^j,
    # each formed by one scalar product of the oracle
    ctx = make_ring(RingParams(2, 2, 16))
    gamma = scalar.element(ctx, [3, 1])
    spec = build_graph(ctx, gamma)
    x_j = (scalar.element(ctx, [0] * j + [1]) for j in range(ctx.r))
    by_gamma = np.array([(gamma * x).coeffs for x in x_j])
    half = ctx.teich_digits.astype(np.int64) @ by_gamma % ctx.q
    h, s = len(half), spec.s_digits
    assert s.dtype == np.int32
    assert np.array_equal(s[:h], half)
    assert np.array_equal(s[h:], -half % ctx.q)


def test_connection_set_lives_one_read():
    # GR(4, 4^16): S (d = 131 070 rows of 16 int32 digits, 8 MiB) is formed
    # on each read with one indices array (1 MiB) and cached nowhere, and the
    # unit count perfbench reads is the length of the G1 digits, no records
    def traced(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ctx = make_ring(RingParams(2, 2, 16))
    spec = build_graph(ctx)
    units, units_peak = traced(lambda: len(ctx.teichmuller_units))
    assert units == 65_535
    assert units_peak < 64 * 2**10
    s, s_peak = traced(lambda: spec.s_digits)
    assert s.shape == (131_070, 16)
    assert s_peak < 10 * 2**20
    assert len(spec.s_indices) == len(s)
    assert set(vars(spec)) == {"ctx", "gamma"}


@pytest.mark.parametrize("key", [(2, 2, 8), (7, 2, 3), (2, 4, 5)])
def test_ring_freed_by_reference_counting(key):
    # the context holds xi as a coefficient tuple and builds ctx.one and
    # ctx.xi on read, so no reference cycle keeps a ring alive: with the
    # cyclic collector off, the last del frees it
    gc.disable()
    try:
        ctx = make_ring(RingParams(*key))
        ring_ref = weakref.ref(ctx)
        spec = build_graph(ctx)
        verify_graph(spec)
        if spec.n < 10**5:
            export_edges(spec, io.StringIO())
        len(ctx.teichmuller_units), spec.s_digits, spec.s_indices
        del ctx, spec
        assert ring_ref() is None
    finally:
        gc.enable()


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

    def counting(ctx, s_digits, digits):
        seen.append(len(digits))
        return original(ctx, s_digits, digits)

    with mock.patch.object(cayley, "_neighbour_indices", counting):
        assert export_edges(spec, io.StringIO()) == spec.n * spec.d // 2
    # the 256 * 254 high-part pairs fit BLOCK_PAIRS, so they are one batch
    assert seen == [64, 256]


def test_export_on_large_ring_keeps_memory_bounded():
    # (2,12,2): n = 16.7 M, d = 6, q^2 d > BLOCK_PAIRS, so rows = 1 and each
    # block is BLOCK_PAIRS // d vertices; one n-sized uint32 table would take
    # 64 MiB, and the export's buffers are sized by the block budget only
    spec = build_graph(make_ring(RingParams(2, 12, 2)))

    class Stop(Exception):
        pass

    class FirstBlocksOnly:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")
            if self.lines > 100_000:  # about three blocks of 32 766 lines
                raise Stop

    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            export_edges(spec, FirstBlocksOnly())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


def test_fill_matches_str():
    # every field width from 1 to 10 at byte offsets 0 to 3 of a line, so the
    # uint32 views of whole chunk words are unaligned; ids at the chunk
    # boundaries wherever they fit, with NUL bytes for leading zeros, and
    # with a lower bound least that skips the NUL test on the lower chunks
    chunks = cayley._decimal_chunks()
    ids = np.array([0, 9, 10, 99_999_999, 10**8, 2**32 - 1], dtype=np.uint32)
    for width in range(1, 11):
        fits = ids[ids < 10**width]
        words = np.empty((-(-width // 4) + 1, len(fits)), dtype=np.uint32)
        at = np.empty(len(fits), dtype=np.intp)
        for least in (0, int(fits.min())):
            for offset in range(4):
                line = np.full((len(fits), offset + width + 1), ord("#"), dtype=np.uint8)
                field = line[:, offset : offset + width]
                cayley._fill(field, cayley._chunk_words(fits, width, least, chunks, words, at))
                assert (line[:, :offset] == ord("#")).all() and (line[:, -1] == ord("#")).all()
                assert [bytes(f) for f in field] == [
                    str(v).rjust(width, "\0").encode() for v in fits.tolist()
                ]


def assert_export_parts(spec, budget=None, first_u=()):
    """The export equals the oracle's text at the budget (None: the
    default), and each write after the header holds one part: lines whose u
    all have the same number of digits.  Every u in first_u starts a write."""
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    ref, buf = io.StringIO(), Recorder()
    count = export_oracle.export_edges(spec, ref)
    with mock.patch.object(cayley, "BLOCK_PAIRS", budget or cayley.BLOCK_PAIRS):
        assert export_edges(spec, buf) == count
    assert_same_text(buf.getvalue(), ref.getvalue())
    firsts = [int(text.split(" ", 1)[0]) for text in writes[1:] if text]
    for text in writes[1:]:
        assert len({len(line.split()[0]) for line in text.splitlines()}) <= 1
    assert set(first_u) <= set(firsts)


def test_export_part_starts_a_block_at_a_power_of_ten():
    # budget 80 d on GR(4,4^7): 16 low rows, 5 high parts, 80-row blocks, of
    # which one starts exactly at u = 10 000 and three hold 10, 100 and 1000
    spec = build_graph(make_ring(RingParams(2, 2, 7)))
    assert_export_parts(spec, 80 * spec.d, first_u=(10, 100, 1000, 10_000))


def test_export_parts_in_one_block():
    # GR(4,4^5) at the default budget: its n = 1024 vertices are one block,
    # split at 10, 100 and 1000
    spec = build_graph(make_ring(RingParams(2, 2, 5)))
    assert_export_parts(spec, first_u=(10, 100, 1000))


def test_export_top_width_part_with_few_lines():
    # (2,5,2), n = 1024, d = 6: the full-width part is u = 1000..1023, whose
    # lines skip the NUL deletion: 23 of them for gamma = 1, none for this
    # twisted gamma, whose S has no element in 1..121
    ctx = make_ring(RingParams(2, 5, 2))
    assert_export_parts(build_graph(ctx), first_u=(1000,))
    assert_export_parts(build_graph(ctx, random_unit(ctx, 2)))


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
    units = [i for i in range(ctx.size) if is_unit(scalar.from_index(ctx, i))]
    gamma = scalar.from_index(ctx, data.draw(st.sampled_from(units), label="gamma"))
    spec = build_graph(ctx, gamma)
    ref = nx.single_source_shortest_path_length(as_networkx(spec), 0)
    dist = bfs_distances(spec)
    # entry k is the distance to gamma * O_k, read at gamma * rep(k)
    reps, _ = orbit_representatives(ctx)
    twisted = [(gamma * scalar.element(ctx, rep)).index for rep in reps.tolist()]
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
    units = [i for i in range(ctx.size) if is_unit(scalar.from_index(ctx, i))]
    gamma = scalar.from_index(ctx, data.draw(st.sampled_from(units), label="gamma"))
    assert_matches_connection_oracle(build_graph(ctx, gamma))


@settings(deadline=None, max_examples=30)
@given(
    key=st.sampled_from(RINGS_UP_TO_2_12),
    seed=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_export_matches_oracle_property(key, seed, data):
    ctx = make_ring(RingParams(*key, seed=seed))
    units = [i for i in range(ctx.size) if is_unit(scalar.from_index(ctx, i))]
    gamma = scalar.from_index(ctx, data.draw(st.sampled_from(units), label="gamma"))
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
    # n = 2^14112 has 4249 digits and prints; n = 2^14450 has 4350, past
    # FAMILY_MAX_DIGITS, and is refused before it is formed, as is
    # 2^(5*10^9), which would take 600 MB
    assert len(str(family_params(2, "1/2", 168)["n"])) == 4249
    for r in (170, 100_000):
        with pytest.raises(ParameterError, match="digits"):
            family_params(2, "1/2", r)
    # e = 2, r = 2000: n has 1205 digits, but sqrt(2^2000) is no float
    with pytest.raises(ParameterError, match="float range"):
        family_params(2, "1/1000", 2000)
