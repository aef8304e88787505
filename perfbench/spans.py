"""Spans recorded from outside the library, and the per-layer metrics built on them.

The tracer records a span around each call the benchmark makes into the
library, and around the calls the library makes between its own modules, by
replacing module attributes that callers look up at call time (WRAPPED).
The replacements are put back when the traced pass ends.  Spans stay in
memory and are written out when the run ends.

A span's self time is its duration minus the durations of its child spans.
Spans nest strictly, because the library runs its Python code on one thread.

Resident memory is sampled from /proc/self/statm every RSS_SAMPLE_S by a
thread that runs only in traced runs, so a span's `rss_rise_mb` is the peak
sampled during the span less the resident size when it started.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import grcayley.analysis
import grcayley.ring

RSS_SAMPLE_S = 0.002

# (module, attribute, span name): functions that library code calls through a
# module global, so replacing the attribute puts a span around each call.
WRAPPED = [
    (grcayley.ring, "find_basic_irreducible", "ring.find_basic_irreducible"),
    (grcayley.analysis, "full_spectrum", "spectrum.full_spectrum"),
    (grcayley.analysis, "check_wcu_summary", "analysis.check_wcu_summary"),
    (grcayley.analysis, "check_bhk", "analysis.check_bhk"),
    (grcayley.analysis, "check_residue_partition", "analysis.check_residue_partition"),
    (grcayley.analysis, "girth", "analysis.girth"),
    (grcayley.analysis, "triangle_count", "analysis.triangle_count"),
    (grcayley.analysis, "connectivity", "analysis.connectivity"),
    (grcayley.analysis, "bfs_distances", "cayley.bfs_distances"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rss_rise_mb: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class RssSampler:
    """Samples resident memory on a background thread and keeps a peak that
    nested spans can save, reset and restore."""

    def __init__(self) -> None:
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.peak = self.now()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def now(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self.observe()

    def observe(self) -> int:
        rss = self.now()
        with self._lock:
            self.peak = max(self.peak, rss)
        return rss

    def reset(self, value: int) -> int:
        with self._lock:
            saved, self.peak = self.peak, value
        return saved

    def restore(self, saved: int) -> int:
        """End a span: return its peak and fold it into the enclosing peak."""
        with self._lock:
            inner = self.peak
            self.peak = max(saved, inner)
        return inner

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        os.close(self._fd)


class Tracer:
    """Records spans for one run; `patched()` installs the module wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._rss = RssSampler()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        start_rss = self._rss.observe()
        saved = self._rss.reset(start_rss)
        sp = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._rss.observe()
            sp.rss_rise_mb = (self._rss.restore(saved) - start_rss) / 2**20

    def call(self, name, fn, *args, **kwargs):
        with self.span(name) as sp:
            result = fn(*args, **kwargs)
        _count(sp, result)
        return result

    @contextmanager
    def patched(self):
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(mod, attr, self._wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def close(self) -> None:
        self._rss.close()


def _count(sp: Span, result) -> None:
    """Work counters read off a call's result after its span has closed."""
    if sp.name == "cayley.bfs_distances":
        reached = result >= 0
        sp.counters["bfs_vertices"] = int(reached.sum())
        sp.counters["bfs_levels"] = int(result.max()) + 1
    elif sp.name == "spectrum.full_spectrum":
        sp.counters["distinct_eigenvalues"] = result.distinct


# Per-layer metrics: name -> unit.  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "ring.make_ring_s": "s",
    "ring.find_basic_irreducible_s": "s",
    "ring.teichmuller_units": "count",
    "ring.trace_table_bytes": "bytes",
    "ring.rss_rise_mb": "MB",
    "cayley.build_graph_s": "s",
    "cayley.bfs_distances_s": "s",
    "cayley.bfs_levels": "count",
    "cayley.bfs_vertices": "count",
    "cayley.export_edges_s": "s",
    "cayley.edges_written": "count",
    "cayley.export_bytes": "bytes",
    "cayley.export_mb_per_s": "MB/s",
    "spectrum.full_spectrum_s": "s",
    "spectrum.trace_values": "count",
    "spectrum.trace_values_per_s": "1/s",
    "spectrum.distinct_eigenvalues": "count",
    "spectrum.rss_rise_mb": "MB",
    "analysis.check_wcu_summary_s": "s",
    "analysis.wcu_trace_values_per_s": "1/s",
    "analysis.check_bhk_s": "s",
    "analysis.check_residue_partition_s": "s",
    "analysis.residue_rss_rise_mb": "MB",
    "analysis.connectivity_self_s": "s",
    "analysis.girth_s": "s",
    "analysis.triangle_count_s": "s",
    "analysis.verify_graph_self_s": "s",
    "analysis.claims": "count",
    "analysis.claims_failed": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}

# Work counts derived from the ring size rather than counted in the library.
COMPUTED = {
    "spectrum.trace_values",
    "spectrum.trace_values_per_s",
    "analysis.wcu_trace_values_per_s",
}


def pass_layer_metrics(spans: list[Span], outcomes, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over the rings of the pass.

    Times are inclusive span durations, except the two `_self_s` metrics.
    Trace-value counts are computed, not counted: n*d for the spectrum and
    (n-1)(p^r-1) for the wcu sweep.  `rss_rise_mb` takes the largest rise
    among the layer's spans.  `trace.unattributed_s` is the traced wall time
    not covered by any span: benchmark code between library calls.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    rise: dict[str, float] = {}
    counts: dict[str, int] = {}
    for sp, st in zip(spans, own):
        total[sp.name] = total.get(sp.name, 0.0) + sp.duration
        selfs[sp.name] = selfs.get(sp.name, 0.0) + st
        rise[sp.name] = max(rise.get(sp.name, 0.0), sp.rss_rise_mb)
        for k, v in sp.counters.items():
            counts[k] = counts.get(k, 0) + v

    spectrum_values = sum(o.n * o.d for o in outcomes if o.job == "verify")
    wcu_values = 0
    if "analysis.check_wcu_summary" in total:
        wcu_values = sum(
            (o.n - 1) * o.teichmuller_units for o in outcomes if o.job == "verify"
        )

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    m = {
        "ring.make_ring_s": total.get("ring.make_ring", 0.0),
        "ring.find_basic_irreducible_s": total.get("ring.find_basic_irreducible", 0.0),
        "ring.teichmuller_units": sum(o.teichmuller_units for o in outcomes),
        "ring.trace_table_bytes": sum(o.trace_table_bytes for o in outcomes),
        "ring.rss_rise_mb": rise.get("ring.make_ring", 0.0),
        "cayley.build_graph_s": total.get("cayley.build_graph", 0.0),
        "cayley.bfs_distances_s": total.get("cayley.bfs_distances", 0.0),
        "cayley.bfs_levels": counts.get("bfs_levels", 0),
        "cayley.bfs_vertices": counts.get("bfs_vertices", 0),
        "cayley.export_edges_s": total.get("cayley.export_edges", 0.0),
        "cayley.edges_written": sum(o.edges_written for o in outcomes),
        "cayley.export_bytes": sum(o.export_bytes for o in outcomes),
        "spectrum.full_spectrum_s": total.get("spectrum.full_spectrum", 0.0),
        "spectrum.trace_values": spectrum_values,
        "spectrum.distinct_eigenvalues": counts.get("distinct_eigenvalues", 0),
        "spectrum.rss_rise_mb": rise.get("spectrum.full_spectrum", 0.0),
        "analysis.check_wcu_summary_s": total.get("analysis.check_wcu_summary", 0.0),
        "analysis.check_bhk_s": total.get("analysis.check_bhk", 0.0),
        "analysis.check_residue_partition_s": total.get(
            "analysis.check_residue_partition", 0.0
        ),
        "analysis.residue_rss_rise_mb": rise.get("analysis.check_residue_partition", 0.0),
        "analysis.connectivity_self_s": selfs.get("analysis.connectivity", 0.0),
        "analysis.girth_s": total.get("analysis.girth", 0.0),
        "analysis.triangle_count_s": total.get("analysis.triangle_count", 0.0),
        "analysis.verify_graph_self_s": selfs.get("analysis.verify_graph", 0.0),
        "analysis.claims": sum(o.claims for o in outcomes),
        "analysis.claims_failed": sum(o.claims_failed for o in outcomes),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(own),
    }
    m["cayley.export_mb_per_s"] = rate(m["cayley.export_bytes"] / 1e6, m["cayley.export_edges_s"])
    m["spectrum.trace_values_per_s"] = rate(spectrum_values, m["spectrum.full_spectrum_s"])
    m["analysis.wcu_trace_values_per_s"] = rate(wcu_values, m["analysis.check_wcu_summary_s"])
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in LAYER_METRICS}
