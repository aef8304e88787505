"""Output checks for the benchmark, and the reference they compare against.

A verify report is compared with reference.json, which holds the parts of a
report that do not depend on the modulus or on the unit twist gamma: claim
ids, `holds`, `asserted`, bounds and observed values, the skipped checks,
the graph size and `spectrum_summary`.  Graphs for different moduli and
units are isomorphic, so these values are invariants of (p, e, r).  Integers
and booleans must match exactly; for p^e = 4 the spectrum values must also be
integers.  Floats, which come from sums whose order depends on the modulus,
match within FLOAT_TOL relative to their size (absolute below 1).

An export is checked by its header, by a line count equal to n*d/2, by its
strict (u, v) sort order with u < v, and by every vertex's degree recounted
from the text.  A set-up-only ring is checked by its sizes and by its
connection set being zero-free, duplicate-free and closed under negation.

Regenerate the reference after a deliberate change of report contents with
    python3 perfbench/check.py --write-reference
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-9
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def reference_key(job) -> str:
    checks = "all" if job.checks is None else ",".join(job.checks)
    return f"{job.p},{job.e},{job.r}:{checks}"


def seed_free_view(report: dict) -> dict:
    """The parts of a verify report that the reference pins."""
    graph = {k: report["graph"][k] for k in ("p", "e", "r", "n", "d")}
    claims = [
        {k: c[k] for k in ("claim_id", "holds", "asserted", "bound_value", "observed_value")}
        for c in report["claims"]
    ]
    return {
        "graph": graph,
        "claims": claims,
        "skipped": report["skipped"],
        "spectrum_summary": report["spectrum_summary"],
    }


@functools.cache
def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def _compare(path: str, got, want, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: {got!r} does not have the keys {sorted(want)}")
            return
        for k in want:
            _compare(f"{path}.{k}", got[k], want[k], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{path}[{i}]", g, w, problems)
    elif isinstance(want, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool)
        if not ok or abs(got - want) > FLOAT_TOL * max(1.0, abs(want)):
            problems.append(f"{path}: {got!r} != {want!r} within {FLOAT_TOL}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} != {want!r}")


def check_report(text: str, job) -> list[str]:
    """Problems found comparing a verify report's JSON text with the reference."""
    want = load_reference().get(reference_key(job))
    if want is None:
        return [f"no reference for {reference_key(job)}"]
    problems: list[str] = []
    _compare("report", seed_free_view(json.loads(text)), want, problems)
    return problems


def check_export(path: Path, spec) -> list[str]:
    """Problems found in an edge-list file written by export_edges."""
    ctx = spec.ctx
    n, d = spec.n, spec.d
    gamma = ",".join(str(c) for c in spec.gamma.coeffs)
    with open(path, "rb") as f:
        header = f.readline().decode()
        body = f.read()
    problems = []
    want_header = f"# {ctx.p} {ctx.e} {ctx.r} {gamma} {n} {d}\n"
    if header != want_header:
        problems.append(f"header {header!r} != {want_header!r}")
    lines = body.count(b"\n")
    if lines != n * d // 2:
        problems.append(f"{lines} edge lines, expected n*d/2 = {n * d // 2}")
    if body.count(b" ") != lines or (body and not body.endswith(b"\n")):
        return problems + ["edge lines are not all of the form 'u v'"]
    pairs = np.fromstring(body, dtype=np.int64, sep=" ")
    if pairs.size != 2 * lines:
        return problems + ["edge lines do not all hold two integers"]
    u, v = pairs[0::2], pairs[1::2]
    if u.size and (u.min() < 0 or v.max() >= n):
        return problems + ["vertex id outside [0, n)"]
    if not (u < v).all():
        problems.append("an edge line has u >= v")
    ordered = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
    if not ordered.all():
        problems.append(f"edge lines out of order at line {int(np.argmin(ordered)) + 3}")
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    if (degree != d).any():
        bad = int(np.flatnonzero(degree != d)[0])
        problems.append(f"vertex {bad} has degree {int(degree[bad])}, expected {d}")
    return problems


def check_setup(spec) -> list[str]:
    """Problems found in a built ring and graph that the pass does not export."""
    ctx = spec.ctx
    problems = []
    if ctx.size != ctx.p ** (ctx.e * ctx.r):
        problems.append(f"ring size {ctx.size}")
    units = ctx.p**ctx.r - 1
    if len(ctx.teichmuller_units) != units:
        problems.append(f"{len(ctx.teichmuller_units)} Teichmuller units, expected {units}")
    want_d = 2 * units if ctx.p == 2 else units
    s = np.sort(spec.s_indices)
    if spec.d != want_d or s.size != want_d:
        problems.append(f"degree {spec.d} with {s.size} generators, expected {want_d}")
    if s.size and (s[0] == 0 or (s[1:] == s[:-1]).any()):
        problems.append("connection set holds zero or a repeat")
    negated = np.sort(ctx.indices_from_digits((-spec.s_digits) % ctx.q))
    if not np.array_equal(negated, s):
        problems.append("connection set is not closed under negation")
    return problems


def write_reference(seed: int = 0) -> None:
    """Recompute reference.json from the current library at one seed."""
    from grcayley import analysis, cayley, ring

    import workloads

    jobs = {reference_key(j): j for rings in workloads.WORKLOADS.values() for j in rings}
    jobs.update({reference_key(j): j for j in workloads.SELFTEST_RINGS})
    out = {}
    for key, job in sorted(jobs.items()):
        if job.job != "verify":
            continue
        ctx = ring.make_ring(ring.RingParams(job.p, job.e, job.r, seed))
        spec = cayley.build_graph(ctx, workloads.random_unit(ctx, seed))
        report = json.loads(json.dumps(analysis.verify_graph(spec, checks=job.checks)))
        out[key] = seed_free_view(report)
        print(f"{key}: done", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    if sys.argv[1:] != ["--write-reference"]:
        sys.exit("usage: python3 perfbench/check.py --write-reference")
    write_reference()
