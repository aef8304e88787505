"""Command line front end.

Subcommands: ring-info, graph-export, spectrum, verify, family.
Exit codes: 0 on success, 1 when a guaranteed claim fails verification,
2 on invalid parameters, modulus, or usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .analysis import verify_graph
from .cayley import build_graph, export_edges, family_params, parse_delta
from .errors import (
    ContextMismatchError,
    ModulusError,
    ParameterError,
    RangeError,
    SizeError,
)
from .ring import (
    ModulusPoly,
    RingParams,
    coeff_string,
    make_ring,
    parse_coeff_string,
)
from .spectrum import full_spectrum

FAMILY_OBSERVED_CUTOFF = 1 << 20

USAGE_ERRORS = (
    ParameterError,
    ModulusError,
    RangeError,
    SizeError,
    ContextMismatchError,
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; produced by main's arg parsing."""

    command: str
    p: int = 2
    e: int = 2
    r: int = 2
    seed: int = 0
    modulus: Optional[str] = None
    gamma: Optional[str] = None
    output: Optional[str] = None
    fmt: str = "csv"
    checks: Optional[tuple[str, ...]] = None
    delta: str = "1/2"
    r_min: int = 2
    r_max: int = 8


def _context(cfg: RunConfig):
    params = RingParams(cfg.p, cfg.e, cfg.r, cfg.seed)
    modulus = ModulusPoly.parse(cfg.modulus) if cfg.modulus else None
    return make_ring(params, modulus)


def _graph(cfg: RunConfig):
    ctx = _context(cfg)
    gamma = parse_coeff_string(ctx, cfg.gamma) if cfg.gamma else None
    return build_graph(ctx, gamma)


def _emit(text: str, output: Optional[str]) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(v: Union[int, float]) -> str:
    return str(v) if isinstance(v, int) else format(v, ".12g")


def _cmd_ring_info(cfg: RunConfig) -> int:
    ctx = _context(cfg)
    payload = {
        "p": ctx.p,
        "e": ctx.e,
        "r": ctx.r,
        "modulus": ctx.modulus.serialize(),
        "xi": coeff_string(ctx.xi),
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
    return 0


def _cmd_graph_export(cfg: RunConfig) -> int:
    spec = _graph(cfg)
    if cfg.output and cfg.output != "-":
        with open(cfg.output, "w", encoding="utf-8") as f:
            export_edges(spec, f)
    else:
        export_edges(spec, sys.stdout)
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    spec = _graph(cfg)
    sp = full_spectrum(spec)
    if cfg.fmt == "json":
        payload = {
            "n": sp.n,
            "d": sp.d,
            "exact": sp.exact,
            "entries": [[v, m] for v, m in sp.entries],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.output)
    else:
        lines = ["eigenvalue,multiplicity"]
        lines.extend(f"{_fmt_value(v)},{m}" for v, m in sp.entries)
        _emit("\n".join(lines) + "\n", cfg.output)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    spec = _graph(cfg)
    report = verify_graph(spec, checks=cfg.checks)
    _emit(json.dumps(report, indent=2) + "\n", cfg.output)
    failed = [
        c for c in report["claims"] if c["asserted"] and not c["holds"]
    ]
    return 1 if failed else 0


def _cmd_family(cfg: RunConfig) -> int:
    delta = parse_delta(cfg.delta)
    if cfg.r_min > cfg.r_max:
        raise ParameterError(f"empty r range {cfg.r_min}..{cfg.r_max}")

    rows = []
    for r in range(cfg.r_min, cfg.r_max + 1):
        try:
            fam = family_params(cfg.p, delta, r)
        except ParameterError:
            continue
        observed = "-"
        if fam["n"] <= FAMILY_OBSERVED_CUTOFF:
            ctx = make_ring(RingParams(fam["p"], fam["e"], fam["r"], cfg.seed))
            sp = full_spectrum(build_graph(ctx))
            observed = _fmt_value(sp.lambda_g())
        rows.append(
            f"{fam['r']} {fam['e']} {fam['n']} {fam['d']} "
            f"{_fmt_value(fam['lambda_bound'])} {observed}"
        )
    if not rows:
        raise ParameterError(
            f"no family members with integral e = {delta}*r in {cfg.r_min}..{cfg.r_max}"
        )
    header = "r e n d lambda_bound observed_lambda"
    _emit("\n".join([header] + rows) + "\n", cfg.output)
    return 0


_COMMANDS = {
    "ring-info": _cmd_ring_info,
    "graph-export": _cmd_graph_export,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "family": _cmd_family,
}


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    try:
        return _COMMANDS[config.command](config)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_ring_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-p", type=int, required=True, help="prime p")
    sp.add_argument("-e", type=int, required=True, help="exponent e >= 2")
    sp.add_argument("-r", type=int, required=True, help="degree r >= 2")
    sp.add_argument("--modulus", help="modulus as comma coefficients, ascending")
    sp.add_argument("--seed", type=int, default=0, help="modulus search seed")
    sp.add_argument("--output", help="output path, - for stdout")


def _add_gamma_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--gamma", help="twist as comma coefficients, ascending")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grcayley",
        description="Cayley graphs on Galois ring additive groups: "
        "spectra and claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ring-info", help="print the ring descriptor as JSON")
    _add_ring_args(sp)

    sp = sub.add_parser("graph-export", help="write the edge list")
    _add_ring_args(sp)
    _add_gamma_arg(sp)

    sp = sub.add_parser("spectrum", help="compute the full spectrum")
    _add_ring_args(sp)
    _add_gamma_arg(sp)
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("verify", help="run claim checks, report JSON")
    _add_ring_args(sp)
    _add_gamma_arg(sp)
    sp.add_argument("--checks", help="comma-separated subset of checks")

    sp = sub.add_parser("family", help="table of family members over a range of r")
    sp.add_argument("-p", type=int, required=True, help="prime p")
    sp.add_argument("--delta", default="1/2", help="rational delta in (0, 1/2]")
    sp.add_argument("--r-min", type=int, default=2)
    sp.add_argument("--r-max", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", help="output path, - for stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {
        "command": args.command,
        "p": getattr(args, "p", 2),
        "seed": getattr(args, "seed", 0),
        "output": getattr(args, "output", None),
    }
    if args.command == "family":
        kwargs.update(
            delta=args.delta, r_min=args.r_min, r_max=args.r_max
        )
    else:
        kwargs.update(e=args.e, r=args.r, modulus=args.modulus)
    if hasattr(args, "gamma"):
        kwargs["gamma"] = args.gamma
    if hasattr(args, "fmt"):
        kwargs["fmt"] = args.fmt
    if getattr(args, "checks", None):
        kwargs["checks"] = tuple(
            part.strip() for part in args.checks.split(",") if part.strip()
        )
    try:
        config = RunConfig(**kwargs)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
