"""Layered benchmark of grcayley's `verify` and `graph-export` paths.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify_char4 --seed 1 --seconds 33 --trace 0

The run repeats passes of the workload (see workloads.py) until the next
pass would end after --seconds, counted from process start; the first pass
always runs.  Each pass runs in a fresh process, as each `grcayley` command
does, so every pass pays the same cold start and its own memory high-water
mark.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, each a median over the passes: wall_s, setup_s and
peak_rss_mb.  With --trace 1 every pass is traced and the metrics are the
per-layer ones of spans.py, medians over the passes.  failed_share is not a
metric, as it is 0 when nothing fails: the `failed` and `attempted` keys
carry it, and the lines before the last give it with the sample counts and
the inputs.  GRCAYLEY_THREADS is removed from the environment and no
`threads` argument is passed, so the library's defaults are what is
measured.  Everything the run records, with the spans of a traced run, is
written to .perfbench_out/ when it ends.

Print every metric of every workload, failed_share and the tracing overhead
with one command (one untraced and one traced run per workload):

    python3 perfbench/run.py --summary --seed 1 --seconds 33

Self-test of the harness: python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PERCENTILES = (99, 95, 90, 75, 50)
# A run must end within 180 seconds even when a pass hangs.
RUN_LIMIT_S = 170


def allowed_percentile(samples: int):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    for pct in PERCENTILES:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return None


def environment() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln and ln.rstrip().endswith(".so")}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def one_pass(name: str, seed: int, traced: bool) -> dict:
    """Run every ring of the workload once in this process; JSON-ready record."""
    import spans
    import workloads

    rings = workloads.WORKLOADS[name]
    if traced:
        tracer = spans.Tracer()
        try:
            with tracer.patched():
                outcomes = [workloads.run_ring(j, seed, OUT_DIR, tracer) for j in rings]
        finally:
            tracer.close()
    else:
        outcomes = [workloads.run_ring(j, seed, OUT_DIR) for j in rings]
    record = {
        "wall_s": sum(o.wall_s for o in outcomes),
        "setup_s": sum(o.setup_s for o in outcomes),
        "peak_rss_mb": max(o.peak_rss_mb for o in outcomes),
        "outcomes": [dataclasses.asdict(o) for o in outcomes],
    }
    if traced:
        record["layers"] = spans.pass_layer_metrics(tracer.spans, outcomes, record["wall_s"])
        record["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return record


def spawn_pass(name: str, seed: int, traced: bool) -> dict:
    """One pass in a child process; a crash counts every ring of it as failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass-only", "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced))]
    budget = max(1.0, RUN_LIMIT_S - (time.perf_counter() - STARTED))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=budget)
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        problem = f"pass process exited with {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        problem = f"pass process killed after {budget:.0f} s"
    import workloads

    return {
        "outcomes": [
            {"label": j.label, "job": j.job, "modulus": "", "gamma": "", "problems": [problem]}
            for j in workloads.WORKLOADS[name]
        ]
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    passes = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(spawn_pass(name, seed, traced))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - STARTED
        if elapsed + longest > seconds or elapsed > RUN_LIMIT_S:
            break

    ops = [o for p in passes for o in p["outcomes"]]
    failed = sum(bool(o["problems"]) for o in ops)
    for o in ops:
        for problem in o["problems"]:
            print(f"FAILED {o['label']} {o['job']}: {problem}", file=sys.stderr)
    timed = [p for p in passes if "wall_s" in p]
    if not timed:
        print("error: no pass finished", file=sys.stderr)
        return 1

    if traced:
        import spans

        metrics = spans.median_metrics([p["layers"] for p in timed])
        units = spans.LAYER_METRICS
    else:
        metrics = {k: statistics.median(p[k] for p in timed) for k in END_TO_END}
        units = END_TO_END

    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "passes": len(timed),
        "percentile": allowed_percentile(len(timed)),
        "attempted": len(ops),
        "failed": failed,
        "failed_share": failed / len(ops),
        "inputs": [
            {k: o[k] for k in ("label", "job", "modulus", "gamma")} for o in passes[0]["outcomes"]
        ],
        "environment": environment(),
    }
    out_file = OUT_DIR / f"{name}-seed{seed}-trace{int(traced)}.json"
    out_file.write_text(json.dumps({**detail, "passes": passes}, indent=1) + "\n", encoding="utf-8")

    print(f"# {name} seed {seed} trace {int(traced)}: {len(timed)} passes, "
          f"failed_share {failed}/{len(ops)}; details in {out_file.relative_to(ROOT)}")
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def _run_outputs(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    detail = next(json.loads(ln[7:]) for ln in lines if ln.startswith("DETAIL "))
    return detail, json.loads(lines[-1])


def summary(seed: int, seconds: float) -> int:
    """One untraced and one traced run per workload, each in its own process."""
    import spans
    import workloads

    status = 0
    print(f"{'workload':16} {'metric':32} {'value':>14} {'unit':6} samples")
    for name in workloads.WORKLOADS:
        results = {}
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[traced] = _run_outputs(proc.stdout)
        detail, plain = results[0]
        tdetail, traced_out = results[1]
        pct = detail["percentile"]
        samples = f"median of {detail['passes']} passes" + (
            f", p{pct} allowed" if pct else ", no percentile has 10 samples beyond it"
        )
        for key, value in plain["metrics"].items():
            print(f"{name:16} {key:32} {value['value']:14.6g} {value['unit']:6} {samples}")
        print(f"{name:16} {'failed_share':32} {detail['failed_share']:14.6g} {'1':6} "
              f"{plain['failed']}/{plain['attempted']} operations")
        for key, value in traced_out["metrics"].items():
            label = ", computed from n, d and p^r" if key in spans.COMPUTED else ""
            print(f"{name:16} {key:32} {value['value']:14.6g} {value['unit']:6} "
                  f"traced, median of {tdetail['passes']} passes{label}")
        overhead = traced_out["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        saved = json.loads((OUT_DIR / f"{name}-seed{seed}-trace1.json").read_text(encoding="utf-8"))
        gap = max(abs(p["layers"]["trace.unattributed_s"]) for p in saved["passes"] if "layers" in p)
        verdict = "within" if gap <= abs(overhead) else "NOT within"
        print(f"{name:16} {'trace_overhead_s':32} {overhead:14.6g} {'s':6} traced minus "
              f"untraced wall_s; in every pass, wall_s less the span self times is at "
              f"most {gap:.6f} s, {verdict} the overhead")
        if plain["failed"] or traced_out["failed"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and traced and print a table")
    parser.add_argument("--pass-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "grcayley" / "__init__.py").is_file():
        print(f"error: no grcayley sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("GRCAYLEY_THREADS", None)
    if args.summary:
        return summary(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.pass_only:
        print(json.dumps(one_pass(args.workload, args.seed, bool(args.trace))))
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
