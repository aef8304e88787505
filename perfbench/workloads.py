"""The four benchmark workloads and the pass that runs one of them.

A pass takes every ring of a workload from RingParams to a checked result
through the public calls behind `grcayley verify` and `grcayley
graph-export`: make_ring -> build_graph -> verify_graph -> json.dumps, or
make_ring -> build_graph -> export_edges into a file.  Set-up-only rings stop
after build_graph.  No `threads` argument is passed, so the library defaults
are what is measured.

Each ring handled in a pass is one operation.  It fails when a call raises or
when the output check in check.py rejects its result; a failure is counted,
never raised, so one bad ring does not end the run.
"""

from __future__ import annotations

import json
import random
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from grcayley import analysis, cayley, ring

import check

SPECTRAL_CHECKS = ("interval", "ramanujan", "energy", "wcu", "bhk")


@dataclass(frozen=True)
class RingJob:
    """One ring of a workload and what the pass does with it."""

    p: int
    e: int
    r: int
    job: str  # "verify", "setup" or "export"
    checks: Optional[tuple[str, ...]] = None  # None runs every check

    @property
    def label(self) -> str:
        return f"({self.p},{self.e},{self.r})"


# Why each workload exists, and which layer it is meant to expose, is stated
# in BENCHMARK.json.  One pass takes 4 to 12 seconds on a 2-core machine, so
# a 33-second run holds two to six passes.
WORKLOADS: dict[str, tuple[RingJob, ...]] = {
    # The default verify job: time spread over BFS, residue, spectrum, wcu/bhk.
    "verify_char4": (RingJob(2, 2, 8, "verify"),),
    # Almost all time in the trace-value kernel; no BFS and no residue sets.
    "spectral_char4": (RingJob(2, 2, 9, "verify", SPECTRAL_CHECKS),),
    # The float path (odd p, and q = 16 with n-sized arrays).
    "verify_numeric": (RingJob(7, 2, 3, "verify"), RingJob(2, 4, 5, "verify")),
    # Ring and graph set-up up to 2^32 elements, then a 2.08 M-edge export.
    "setup_export": (
        RingJob(2, 2, 12, "setup"),
        RingJob(2, 2, 16, "setup"),
        RingJob(2, 2, 7, "export"),
    ),
}

# Tiny rings for the harness self-test; reference.json covers them too.
SELFTEST_RINGS = (RingJob(2, 2, 3, "verify"), RingJob(3, 2, 2, "verify"))


def random_unit(ctx: ring.RingContext, seed: int) -> ring.RingElement:
    """A unit of the ring drawn from the workload seed and the ring's size."""
    rng = random.Random(f"{seed}:{ctx.p},{ctx.e},{ctx.r}")
    while True:
        gamma = ctx.element([rng.randrange(ctx.q) for _ in range(ctx.r)])
        if ring.is_unit(gamma):
            return gamma


@dataclass
class RingOutcome:
    """What one operation produced: its timings, inputs and verdict."""

    label: str
    job: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    modulus: str = ""
    gamma: str = ""
    n: int = 0
    d: int = 0
    teichmuller_units: int = 0
    trace_table_bytes: int = 0
    peak_rss_mb: float = 0.0
    export_bytes: int = 0
    edges_written: int = 0
    claims: int = 0
    claims_failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Untraced:
    """Calls straight through; the tracer in spans.py has the same interface."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def run_ring(job: RingJob, seed: int, out_dir: Path, tracer=Untraced()) -> RingOutcome:
    """Run one ring of a pass, time it, then check what it produced."""
    out = RingOutcome(job.label, job.job)
    try:
        t0 = time.perf_counter()
        params = ring.RingParams(job.p, job.e, job.r, seed)
        ctx = tracer.call("ring.make_ring", ring.make_ring, params)
        gamma = random_unit(ctx, seed)
        spec = tracer.call("cayley.build_graph", cayley.build_graph, ctx, gamma)
        t1 = time.perf_counter()
        out.modulus, out.gamma = ctx.modulus.serialize(), ring.coeff_string(gamma)
        if job.job == "verify":
            report = tracer.call(
                "analysis.verify_graph", analysis.verify_graph, spec, checks=job.checks
            )
            text = tracer.call("report.json_dumps", json.dumps, report, indent=2)
        elif job.job == "export":
            path = out_dir / f"edges_{job.p}_{job.e}_{job.r}.txt"
            with open(path, "w", encoding="utf-8") as sink:
                out.edges_written = tracer.call(
                    "cayley.export_edges", cayley.export_edges, spec, sink
                )
        t2 = time.perf_counter()
        out.setup_s, out.wall_s = t1 - t0, t2 - t0
        # High-water mark before the output check, whose arrays are not the program's.
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        out.n, out.d = spec.n, spec.d
        out.teichmuller_units = len(ctx.teichmuller_units)
        if ctx.trace_table is not None:
            out.trace_table_bytes = int(ctx.trace_table.nbytes)
        if job.job == "verify":
            claims = json.loads(text)["claims"]
            out.claims = len(claims)
            out.claims_failed = sum(c["asserted"] and not c["holds"] for c in claims)
            out.problems += check.check_report(text, job)
        elif job.job == "export":
            out.export_bytes = path.stat().st_size
            out.problems += check.check_export(path, spec)
            path.unlink()
        else:
            out.problems += check.check_setup(spec)
    except Exception:
        out.problems.append("raised: " + traceback.format_exc(limit=3).strip())
    return out
