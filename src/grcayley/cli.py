"""Command line front end.

Subcommands: ring-info, graph-export, spectrum, verify, family.
Exit codes: 0 on success, 1 when a guaranteed claim fails verification,
2 on invalid parameters, modulus, or usage, 141 (128 + SIGPIPE) when the
reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Union

from .analysis import verify_graph
from .cayley import build_graph, export_edges, family_params, parse_delta
from .errors import ModulusError, ParameterError, SizeError
from .ring import (
    ModulusPoly,
    RingParams,
    _require_prime,
    coeff_string,
    make_ring,
    parse_coeff_string,
)
from .spectrum import full_spectrum

USAGE_ERRORS = (ParameterError, ModulusError, SizeError)


def _context(args: argparse.Namespace):
    params = RingParams(args.p, args.e, args.r, args.seed)
    modulus = ModulusPoly.parse(args.modulus) if args.modulus else None
    return make_ring(params, modulus)


def _graph(args: argparse.Namespace):
    ctx = _context(args)
    gamma = parse_coeff_string(ctx, args.gamma) if args.gamma else None
    return build_graph(ctx, gamma)


def _emit(text: str, output: Optional[str]) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(v: Union[int, float]) -> str:
    return str(v) if isinstance(v, int) else format(v, ".12g")


def _cmd_ring_info(args: argparse.Namespace) -> int:
    ctx = _context(args)
    payload = {
        "p": ctx.p,
        "e": ctx.e,
        "r": ctx.r,
        "modulus": ctx.modulus.serialize(),
        "xi": coeff_string(ctx.xi),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _cmd_graph_export(args: argparse.Namespace) -> int:
    spec = _graph(args)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as f:
            export_edges(spec, f)
    else:
        export_edges(spec, sys.stdout)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _graph(args)
    sp = full_spectrum(spec)
    if args.fmt == "json":
        payload = {
            "n": sp.n,
            "d": sp.d,
            "exact": sp.exact,
            "entries": sp.entries,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        row = "{},{}" if sp.exact else "{:.12g},{}"  # as _fmt_value writes each value
        rows = "\n".join(map(row.format, sp.values.tolist(), sp.mults.tolist()))
        _emit(f"eigenvalue,multiplicity\n{rows}\n", args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _graph(args)
    checks = None
    if args.checks:
        checks = [part.strip() for part in args.checks.split(",") if part.strip()]
    report = verify_graph(spec, checks=checks)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    failed = [
        c for c in report["claims"] if c["asserted"] and not c["holds"]
    ]
    return 1 if failed else 0


def _cmd_family(args: argparse.Namespace) -> int:
    delta = parse_delta(args.delta)
    _require_prime(args.p)
    if args.r_min > args.r_max:
        raise ParameterError(f"empty r range {args.r_min}..{args.r_max}")

    rows = []
    for r in range(args.r_min, args.r_max + 1):
        e = delta * r
        if e.denominator != 1 or e < 2:
            continue  # no member at this r
        fam = family_params(args.p, delta, r)
        observed = "-"  # no buildable ring, or a numeric spectrum above its cap
        if fam["params"] is not None:
            ctx = make_ring(RingParams(fam["p"], fam["e"], fam["r"], args.seed))
            try:
                observed = _fmt_value(full_spectrum(build_graph(ctx)).lambda_g())
            except SizeError:
                pass
        rows.append(
            f"{fam['r']} {fam['e']} {fam['n']} {fam['d']} "
            f"{_fmt_value(fam['lambda_bound'])} {observed}"
        )
    if not rows:
        raise ParameterError(
            f"no family members with integral e = {delta}*r in {args.r_min}..{args.r_max}"
        )
    header = "r e n d lambda_bound observed_lambda"
    _emit("\n".join([header] + rows) + "\n", args.output)
    return 0


_COMMANDS = {
    "ring-info": _cmd_ring_info,
    "graph-export": _cmd_graph_export,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "family": _cmd_family,
}


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
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes to devnull: the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
