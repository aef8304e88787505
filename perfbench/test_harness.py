"""Self-test of the benchmark harness on tiny rings, GR(4,4^3) and (3,2,2).

Run from the root of a checkout:  python3 -m pytest perfbench/test_harness.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import pytest

import grcayley.analysis
import grcayley.ring
import check
import run
import spans
import workloads

OUT = ROOT / ".perfbench_out" / "selftest"


@pytest.fixture(autouse=True)
def out_dir():
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT


def _patch_report(monkeypatch, mutate):
    original = grcayley.analysis.verify_graph

    def mutated(*args, **kwargs):
        report = original(*args, **kwargs)
        mutate(report)
        return report

    monkeypatch.setattr(grcayley.analysis, "verify_graph", mutated)


@pytest.mark.parametrize("job", workloads.SELFTEST_RINGS, ids=lambda j: j.label)
@pytest.mark.parametrize("seed", [0, 7])
def test_reference_accepts_every_seed(job, seed):
    out = workloads.run_ring(job, seed, OUT)
    assert out.problems == []
    assert out.claims == 8 - len(check.load_reference()[check.reference_key(job)]["skipped"])


@pytest.mark.parametrize("job", workloads.SELFTEST_RINGS, ids=lambda j: j.label)
def test_flipped_verdict_is_a_failure(job, monkeypatch):
    def flip(report):
        claim = report["claims"][0]
        claim["holds"] = not claim["holds"]

    _patch_report(monkeypatch, flip)
    out = workloads.run_ring(job, 3, OUT)
    assert out.failed
    assert any(".holds" in p for p in out.problems)


@pytest.mark.parametrize("job", workloads.SELFTEST_RINGS, ids=lambda j: j.label)
@pytest.mark.parametrize("field", ["min", "lambda_G"])
def test_changed_eigenvalue_is_a_failure(job, field, monkeypatch):
    def shift(report):
        value = report["spectrum_summary"][field]
        report["spectrum_summary"][field] = value + (1 if isinstance(value, int) else 1e-6)

    _patch_report(monkeypatch, shift)
    out = workloads.run_ring(job, 3, OUT)
    assert out.failed
    assert any(field in p for p in out.problems)


def test_exact_spectrum_must_stay_integer(monkeypatch):
    def to_float(report):
        report["spectrum_summary"]["min"] = float(report["spectrum_summary"]["min"])

    _patch_report(monkeypatch, to_float)
    assert workloads.run_ring(workloads.SELFTEST_RINGS[0], 0, OUT).failed


def test_raising_call_is_counted_not_raised(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(grcayley.analysis, "verify_graph", boom)
    out = workloads.run_ring(workloads.SELFTEST_RINGS[1], 0, OUT)
    assert out.failed and "injected" in out.problems[0]


def _exported(seed=2):
    job = workloads.RingJob(2, 2, 3, "export")
    ctx = grcayley.ring.make_ring(grcayley.ring.RingParams(2, 2, 3, seed))
    spec = grcayley.cayley.build_graph(ctx, workloads.random_unit(ctx, seed))
    path = OUT / "edges_selftest.txt"
    with open(path, "w", encoding="utf-8") as f:
        grcayley.cayley.export_edges(spec, f)
    return job, spec, path


def test_export_check_accepts_real_export():
    job, spec, path = _exported()
    assert check.check_export(path, spec) == []
    out = workloads.run_ring(job, 2, OUT)
    assert out.problems == [] and out.edges_written == 64 * 14 // 2


@pytest.mark.parametrize(
    "damage",
    ["drop_line", "swap_lines", "retarget", "header", "three_tokens"],
)
def test_export_check_rejects_damage(damage):
    _, spec, path = _exported()
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if damage == "drop_line":
        del lines[5]
    elif damage == "swap_lines":
        lines[5], lines[6] = lines[6], lines[5]
    elif damage == "retarget":
        u, v = lines[-1].split()
        lines[-1] = f"{u} {int(v) - 1}\n"
    elif damage == "header":
        lines[0] = lines[0].replace(" 14\n", " 15\n")
    else:
        lines[3] = lines[3].rstrip("\n") + " 9\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert check.check_export(path, spec) != []


def test_setup_check_accepts_real_graph():
    ctx = grcayley.ring.make_ring(grcayley.ring.RingParams(3, 2, 2, 1))
    spec = grcayley.cayley.build_graph(ctx, workloads.random_unit(ctx, 1))
    assert check.check_setup(spec) == []


def test_self_times_on_hand_built_tree():
    tree = [
        spans.Span("pass", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("a.child", 2.0, 3.0, parent=1),
        spans.Span("b", 5.0, 9.5, parent=0),
        spans.Span("b.child", 5.5, 6.0, parent=3),
        spans.Span("b.child2", 7.0, 9.0, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 2.0, 0.5, 2.0])
    assert sum(spans.self_times(tree)) == pytest.approx(tree[0].duration)


def test_layer_metrics_from_hand_built_tree():
    tree = [
        spans.Span("ring.make_ring", 0.0, 1.0),
        spans.Span("ring.find_basic_irreducible", 0.2, 0.5, parent=0),
        spans.Span("analysis.verify_graph", 1.5, 6.0),
        spans.Span("analysis.connectivity", 2.0, 4.0, parent=2),
        spans.Span("cayley.bfs_distances", 2.5, 3.5, parent=3, counters={"bfs_levels": 4}),
    ]
    outcome = workloads.RingOutcome("(2,2,3)", "verify", n=64, d=14, teichmuller_units=7)
    m = spans.pass_layer_metrics(tree, [outcome], wall_s=7.0)
    assert m["ring.make_ring_s"] == pytest.approx(1.0)
    assert m["ring.find_basic_irreducible_s"] == pytest.approx(0.3)
    assert m["analysis.connectivity_self_s"] == pytest.approx(1.0)
    assert m["analysis.verify_graph_self_s"] == pytest.approx(2.5)
    assert m["cayley.bfs_levels"] == 4
    assert m["spectrum.trace_values"] == 64 * 14
    assert m["trace.unattributed_s"] == pytest.approx(7.0 - 1.0 - 4.5)
    assert set(m) == set(spans.LAYER_METRICS)


def test_traced_pass_nests_and_restores_wrappers():
    originals = {(mod, attr): getattr(mod, attr) for mod, attr, _ in spans.WRAPPED}
    tracer = spans.Tracer()
    try:
        with tracer.patched():
            out = workloads.run_ring(workloads.SELFTEST_RINGS[0], 4, OUT, tracer)
    finally:
        tracer.close()
    assert out.problems == []
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in originals.items())
    names = {s.name for s in tracer.spans}
    assert {name for _, _, name in spans.WRAPPED} <= names
    verify = next(i for i, s in enumerate(tracer.spans) if s.name == "analysis.verify_graph")
    for s in tracer.spans:
        if s.name.startswith(("spectrum.", "analysis.check", "analysis.girth")):
            assert s.parent == verify
    m = spans.pass_layer_metrics(tracer.spans, [out], out.wall_s)
    assert 0 <= m["trace.unattributed_s"] < 0.05 * out.wall_s + 0.01
    assert m["cayley.bfs_vertices"] == 64 and m["spectrum.distinct_eigenvalues"] == 4


@pytest.mark.parametrize("n,pct", [(10, None), (19, None), (20, 50), (40, 75), (100, 90), (1000, 99)])
def test_allowed_percentile(n, pct):
    assert run.allowed_percentile(n) == pct
