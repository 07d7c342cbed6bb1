"""Batch command-line front end.

Subcommands: decompose | verify | oracle | gen | scan. Exit codes are a
stable contract: 0 success, 1 verification failure or internal error,
2 infeasible (flow cut, LP verdict, or an edge in no triangle), 3 input error,
4 guardrail abort. Diagnostics go to stderr, never into data files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import warnings

from .decompose import decompose, solve, with_peeled
from .errors import (
    EdgeInNoTriangleError,
    GuardrailError,
    InputFormatError,
    TridecompError,
)
from .graph import DEFAULT_MAX_LINKS
from .instances import GenSpec, generate, read_edge_list, write_edge_list
from .lp import DEFAULT_MAX_LP_TRIANGLES, lp_feasible
from .peeling import peel_heavy_triangles
from .verify import (
    CutCertificate,
    format_cut_certificate,
    format_decomposition,
    parse_decomposition,
    parse_fraction,
    verify,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_GUARDRAIL = 4


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with exit 3 and an `input error:` line, since
    argparse's own exit 2 means infeasible here."""

    def error(self, message):
        print(f"input error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT)


def _fraction(text):
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def _parts(text):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}") from exc
    return parts


def _add_input_flags(p):
    p.add_argument("--input", help="edge-list file to read")
    p.add_argument("--gen", help="generate the input instead (family name)")
    p.add_argument("--n", type=int, default=0, help="vertex count for --gen")
    p.add_argument("--fraction", type=_fraction, help="min-degree fraction for --gen")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--parts", type=_parts, help="part sizes for complete-multipartite")


def _read_text(path):
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _check_caps(args):
    """A guardrail cap of 0 is valid; a negative one is an input error."""
    for flag in ("max_links", "max_lp_triangles"):
        cap = getattr(args, flag, 0)
        if cap < 0:
            raise InputFormatError(f"--{flag.replace('_', '-')} must be at least 0, got {cap}")


def _load_graph(args):
    if bool(args.input) == bool(args.gen):
        raise InputFormatError("exactly one of --input or --gen is required")
    if args.input:
        return read_edge_list(_read_text(args.input))
    spec = GenSpec(
        family=args.gen,
        n=args.n,
        fraction=args.fraction,
        seed=args.seed,
        parts=args.parts,
    )
    return _generate(spec)


def _generate(spec):
    try:
        return generate(spec)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def _open_output(path):
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _write_output(args, text):
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_decompose(args):
    g = _load_graph(args)
    try:
        outcome = decompose(g, max_links=args.max_links)
    except EdgeInNoTriangleError as exc:
        if not args.fallback_lp:
            raise  # main reports it and exits 2
        print(f"infeasible: {exc}", file=sys.stderr)
        return _oracle_output(args, g, args.mode)
    if isinstance(outcome, CutCertificate):
        if args.fallback_lp:
            return _oracle_output(args, g, args.mode)
        _write_output(args, format_cut_certificate(outcome))
        return EXIT_INFEASIBLE
    report = verify(g, outcome)
    if not report.ok:
        print(f"internal error, decomposition failed to verify: {report}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    _write_output(args, format_decomposition(outcome, args.mode))
    print(f"verified: {report}", file=sys.stderr)
    return EXIT_OK


def _oracle_output(args, g, mode):
    verdict = lp_feasible(g, max_triangles=args.max_lp_triangles)
    if not verdict.feasible:
        _write_output(args, "INFEASIBLE\n")
        return EXIT_INFEASIBLE
    report = verify(g, verdict.decomposition)
    if not report.ok:
        print(f"internal error, oracle witness failed to verify: {report}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    _write_output(args, format_decomposition(verdict.decomposition, mode))
    return EXIT_OK


def cmd_oracle(args):
    return _oracle_output(args, _load_graph(args), "exact")


def cmd_verify(args):
    g = read_edge_list(_read_text(args.graph))
    d = parse_decomposition(_read_text(args.decomposition))
    report = verify(g, d, mode=args.mode)
    print(report)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_gen(args):
    spec = GenSpec(
        family=args.family,
        n=args.n,
        fraction=args.fraction,
        seed=args.seed,
        parts=args.parts,
    )
    g = _generate(spec)
    _write_output(args, write_edge_list(g))
    return EXIT_OK


def _scan_one(n, fraction, seed, max_links, max_lp_triangles):
    """One trial row: generate, peel, flow, optional oracle cross-check."""
    g = _generate(GenSpec("random-min-degree", n=n, fraction=fraction, seed=seed))
    peel = peel_heavy_triangles(g)
    row = {
        "fraction": str(fraction),
        "n": n,
        "seed": seed,
        "peeled": len(peel.removed),
        "flow_ok": 0,
        "lp_ok": "",
        "M": "",
        "value": "",
    }
    residual = None
    if peel.residual.m == 0:
        row["flow_ok"] = 1
        row["M"] = "0"
        row["value"] = "0"
    else:
        try:
            residual = solve(peel.residual, peel.deficiency, max_links=max_links)
        except EdgeInNoTriangleError:
            pass
        if isinstance(residual, CutCertificate):
            row["M"] = str(residual.required_flow)
            row["value"] = str(residual.cut_capacity)
        elif residual is not None:
            row["flow_ok"] = 1
            row["M"] = str(residual.required_flow)
            row["value"] = str(residual.required_flow)
    if row["flow_ok"]:
        report = verify(g, with_peeled(g, peel.removed, residual))
        if not report.ok:
            raise AssertionError(f"scan trial produced an invalid decomposition: {report}")
    try:
        row["lp_ok"] = 1 if lp_feasible(g, max_triangles=max_lp_triangles).feasible else 0
    except GuardrailError:
        row["lp_ok"] = ""
    return row


def cmd_scan(args):
    if args.samples < 1:
        raise InputFormatError(f"--samples must be at least 1, got {args.samples}")
    fractions = args.fractions or []
    fieldnames = ["fraction", "n", "seed", "flow_ok", "lp_ok", "peeled", "M", "value"]
    # Opened before the first trial, so a bad path fails before any work.
    out = sys.stdout if not args.out else _open_output(args.out)
    try:
        rows = []
        success = {}
        for fraction in fractions:
            ok = 0
            for sample in range(args.samples):
                row = _scan_one(
                    args.n, fraction, args.seed + sample, args.max_links, args.max_lp_triangles
                )
                rows.append(row)
                ok += row["flow_ok"]
            success[fraction] = ok
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    for fraction in fractions:
        print(
            f"fraction {fraction}: {success[fraction]}/{args.samples} flow successes",
            file=sys.stderr,
        )
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="tridecomp",
        description="Fractional triangle decompositions of dense graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="run the flow pipeline on a graph")
    _add_input_flags(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--fallback-lp", action="store_true", help="retry with the LP oracle")
    p.add_argument("--max-links", type=int, default=DEFAULT_MAX_LINKS)
    p.add_argument("--max-lp-triangles", type=int, default=DEFAULT_MAX_LP_TRIANGLES)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check a decomposition against its graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("decomposition", help="decomposition file")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact LP feasibility verdict")
    _add_input_flags(p)
    p.add_argument("--max-lp-triangles", type=int, default=DEFAULT_MAX_LP_TRIANGLES)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="write a generated instance as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--fraction", type=_fraction)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parts", type=_parts)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("scan", help="flow success rates over a fraction grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--fractions",
        type=lambda s: [_fraction(tok) for tok in s.split(",") if tok],
        default=(),
        help="comma-separated min-degree fractions",
    )
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-links", type=int, default=DEFAULT_MAX_LINKS)
    p.add_argument("--max-lp-triangles", type=int, default=DEFAULT_MAX_LP_TRIANGLES)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_caps(args)
        # A warning (the RegimeWarning) is one line, without the source
        # location and code line of Python's default form.
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardrailError as exc:
        print(f"guardrail: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except EdgeInNoTriangleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TridecompError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
