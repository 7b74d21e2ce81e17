"""Command-line front end.

Subcommands: alpha2 (packing number), depth (exact depth of edge-ideal
powers with the applicable lower bound), verify (batch suites over corpora),
hunt (seeded random counterexample search).  Exit codes are scriptable:
0 pass, 1 counterexample or failed check, 2 usage or parse problem.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks as _checks
from .catalog import all_graphs
from .checks import NOT_APPLICABLE, DepthComputer
from .depth import GF2, QQ
from .graphs import Graph, Graph6Error, parse_edge_list, parse_graph6, star_packing_number
from .suite import CHECKS, hunt_counterexamples, resolve_checks, run_suite

DEFAULT_POLARIZED_CAP = 24


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


def _read_text(arg: str) -> tuple[str, str]:
    if arg == "-":
        return sys.stdin.read(), "stdin"
    if os.path.exists(arg):
        with open(arg) as handle:
            return handle.read(), arg
    # treat as one inline graph6 token
    return arg, "inline"


def _read_graphs(arg: str, force_edges: bool = False) -> list[Graph]:
    """Graphs from a file, stdin ('-'), or an inline graph6 string.

    Edge-list input is recognized by lines with two tokens; --edges forces it.
    """
    text, origin = _read_text(arg)
    lines = [(k + 1, line.strip()) for k, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line and not line.startswith("#")]
    if not lines:
        raise CliError(f"{origin}: no graphs in input")
    looks_like_edges = force_edges or any(len(line.split()) >= 2 for _, line in lines)
    if looks_like_edges:
        try:
            return [parse_edge_list(text)]
        except ValueError as err:
            raise CliError(f"{origin}: {err}") from None
    graphs = []
    for no, line in lines:
        try:
            graphs.append(parse_graph6(line))
        except Graph6Error as err:
            raise CliError(f"{origin}: line {no}: {err}") from None
    return graphs


def _field_mode(name: str):
    """Map --field to (primary field, cross_check)."""
    if name == "2":
        return GF2, False
    if name in ("q", "0"):
        return QQ, False
    if name == "both":
        return GF2, True
    raise CliError(f"unknown field {name!r} (expected 2, q, or both)")


def _jobs(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("EIL_JOBS")
    if env:
        try:
            return _at_least(1)(env)
        except (ValueError, argparse.ArgumentTypeError):
            raise CliError(f"EIL_JOBS must be an integer at least 1, got {env!r}") from None
    return 1


def _at_least(lowest: int):
    """argparse type: an integer no smaller than lowest (exit 2 otherwise)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value
    return integer


def _gate_polarized(checks, n: int, touched: int, cap: int, prefix: str = ""):
    """Refuse before any ideal arithmetic when the checks' depths may need
    more than cap polarized variables.  A depth needing k variables per vertex
    (the check's registered CHECKS depth) gives each of the touched vertices,
    those on an edge, k of them and every other vertex one.  Global checks
    run fixed instances, whatever n is, so they are not gated."""
    needs = [CHECKS[c].depth for c in checks if CHECKS[c].kind != "global"]
    if not needs:
        return
    worst = n + touched * (max(max(needs), 1) - 1)
    if worst > cap:
        raise CliError(
            f"{prefix}needs up to {worst} polarized variables, beyond the cap "
            f"{cap} (raise --max-polarized to override)"
        )


def _warn_cap(cap: int):
    if cap > DEFAULT_POLARIZED_CAP:
        print(
            f"warning: polarized-ambient cap raised to {cap}; "
            "the homology sweep can grow exponentially",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_alpha2(args) -> int:
    for G in _read_graphs(args.input, args.edges):
        pack = star_packing_number(G)
        centers = ",".join(pack.centers)
        print(f"alpha2={pack.size} centers={{{centers}}}")
    return 0


def _cmd_depth(args) -> int:
    if args.symbolic and args.power == 1:
        raise CliError("--symbolic implies power 2; drop --power 1")
    name = ("symbolic_square" if args.symbolic
            else "square_general" if args.power == 2 else "first_power")
    check = getattr(_checks, CHECKS[name].fn)
    field, cross = _field_mode(args.field)
    _warn_cap(args.max_polarized)
    for G in _read_graphs(args.input, args.edges):
        if not any(G.adj):
            raise CliError("edgeless graph: the edge ideal is zero, depth is undefined")
        _gate_polarized([name], G.n, sum(1 for m in G.adj if m), args.max_polarized)
        computer = DepthComputer(field, cross_check=cross)
        result = check(G, computer)
        # the sharpest applicable bound; its id names the rule
        oc = max((oc for oc in (result if isinstance(result, list) else [result])
                  if oc.status != NOT_APPLICABLE), key=lambda oc: oc.rhs)
        line = (
            f"graph={oc.graph_id} alpha2={star_packing_number(G).size} depth={oc.lhs} "
            f"bound={oc.rhs} slack={oc.lhs - oc.rhs} "
            f"rule={oc.check_id.removeprefix('square_')} field={field}"
        )
        if computer.findings:
            line += f" finding=field_disagreement char0={computer.findings[0]['char0']}"
        elif cross:
            line += " field_agreement=ok"
        print(line)
    return 0


def _require_output(args):
    """A json or csv report goes to a file; stdout carries the text summary."""
    if args.format != "text" and not args.output:
        raise CliError(f"--format {args.format} needs --output FILE")


def _cmd_verify(args) -> int:
    _require_output(args)
    checks = resolve_checks(name for arg in args.suite for name in arg.split(","))
    field, cross = _field_mode(args.field)
    corpus_free = all(CHECKS[c].kind == "global" for c in checks)
    if args.corpus is not None and args.max_n is not None:
        raise CliError("give at most one of --corpus FILE or --max-n N")
    if args.corpus is None and args.max_n is None and not corpus_free:
        raise CliError("give one of --corpus FILE or --max-n N")
    if args.corpus is not None:
        corpus = _read_graphs(args.corpus)
        corpus_name = f"file:{args.corpus}"
    elif args.max_n is not None:
        corpus = list(all_graphs(args.max_n))
        corpus_name = f"generated:max_n={args.max_n}"
    else:
        corpus = []
        corpus_name = "fixed-instances"
    report = run_suite(
        corpus, checks, field, cross_check=cross, seed=args.seed,
        jobs=_jobs(args.jobs), budget=args.budget, corpus_name=corpus_name,
    )
    _emit_report(report, args.output, args.format)
    return 0 if not report.failures else 1


def _cmd_hunt(args) -> int:
    if args.seed is None:
        raise CliError("--seed is required for hunting")
    _require_output(args)
    checks = resolve_checks([args.check])
    field, cross = _field_mode(args.field)
    _warn_cap(args.max_polarized)
    # a random graph may touch all n vertices
    _gate_polarized(checks, args.n, args.n, args.max_polarized, f"n={args.n} ")
    report = hunt_counterexamples(
        checks, args.n, args.random, args.seed, field,
        cross_check=cross, jobs=_jobs(args.jobs),
    )
    _emit_report(report, args.output, args.format)
    if report.failures:
        for oc in report.failures:
            print(f"counterexample check={oc.check_id} graph={oc.graph_id} "
                  f"lhs={oc.lhs} rhs={oc.rhs}")
        return 1
    return 0


def _emit_report(report, output, fmt):
    if output:
        report.write(output, "csv" if fmt == "csv" else "json")
    summary = report.summary
    pairs = " ".join(f"{k}={v}" for k, v in summary.items())
    print(f"summary {pairs}")
    if fmt == "text":
        for oc in report.failures:
            print(f"fail check={oc.check_id} graph={oc.graph_id} lhs={oc.lhs} rhs={oc.rhs}")
    for finding in report.findings:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(finding.items()))
        print(f"finding {pairs}")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eil",
        description="Exact depth bounds for powers of edge ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="file path, '-' for stdin, or inline graph6")
        p.add_argument("--edges", action="store_true",
                       help="force edge-list parsing of the input")

    p = sub.add_parser("alpha2", help="star packing number with witness centers")
    add_input(p)
    p.set_defaults(fn=_cmd_alpha2)

    p = sub.add_parser("depth", help="exact depth of an edge-ideal power")
    add_input(p)
    p.add_argument("--power", type=int, choices=(1, 2), default=None,
                   help="1 (default) or 2")
    p.add_argument("--symbolic", action="store_true",
                   help="second symbolic power instead of the ordinary square")
    p.add_argument("--field", default="2", help="2 (default), q, or both")
    p.add_argument("--max-polarized", type=int, default=DEFAULT_POLARIZED_CAP)
    p.set_defaults(fn=_cmd_depth)

    p = sub.add_parser("verify", help="run check suites over a corpus")
    p.add_argument("--suite", action="append", required=True,
                   help="check name, alias (main, examples, all), or comma list")
    p.add_argument("--corpus", help="file of graph6 lines")
    p.add_argument("--max-n", type=_at_least(1),
                   help="generate all isomorphism classes up to this size")
    p.add_argument("--field", default="2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_at_least(1), default=None,
                   help="worker processes (EIL_JOBS fallback, default 1)")
    p.add_argument("--budget", type=_at_least(1), default=None,
                   help="max graphs consumed from the corpus")
    p.add_argument("--output", help="report file")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hunt", help="seeded random counterexample search")
    p.add_argument("--check", default="main1")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--random", type=_at_least(0), required=True, help="number of graphs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--field", default="2")
    p.add_argument("--jobs", type=_at_least(1), default=None)
    p.add_argument("--max-polarized", type=int, default=DEFAULT_POLARIZED_CAP)
    p.add_argument("--output", help="report file")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(fn=_cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, Graph6Error, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
