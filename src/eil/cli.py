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
import tempfile

from .catalog import all_graphs
from .checks import NOT_APPLICABLE
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
        try:
            with open(arg) as handle:
                return handle.read(), arg
        except OSError as err:
            raise CliError(f"{arg}: {err.strerror}") from None
    if any(not "?" <= ch <= "~" for ch in arg.removeprefix(">>graph6<<")):
        raise CliError(f"{arg}: no such file")  # no graph6 token has that character
    return arg, "inline"  # one inline graph6 token


def _read_graphs(arg: str, force_edges: bool = False) -> list[Graph]:
    """Graphs from a file, stdin ('-'), or an inline graph6 string.

    Edge-list input is recognized by lines with two tokens; --edges forces it.
    A ``#`` starts a comment in either format, as in parse_edge_list.
    """
    text, origin = _read_text(arg)
    lines = [(k + 1, line.split("#", 1)[0].rstrip()) for k, line in enumerate(text.split("\n"))]
    lines = [(no, line) for no, line in lines if line]
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
            graphs.append(parse_graph6(line.lstrip()))
        except Graph6Error as err:  # the offset counts the line's leading blanks, in bytes
            lead = line[:len(line) - len(line.lstrip())].encode()
            err = Graph6Error(err.reason, err.offset + len(lead))
            raise CliError(f"{origin}: line {no}: {err}") from None
    return graphs


def _field_mode(name: str):
    """Map --field to (primary field, cross_check).  Names are read in any
    case, and F2 and Q, as the depth line prints them, are accepted too."""
    key = name.lower()
    if key in ("2", "f2"):
        return GF2, False
    if key in ("q", "0"):
        return QQ, False
    if key == "both":
        return GF2, True
    raise CliError(f"unknown field {name!r} (expected 2, F2, q, Q, 0 or both)")


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


def _gate_polarized(checks, touched: int, cap: int, prefix: str = ""):
    """Refuse before any ideal arithmetic when the touched vertices, those
    on an edge, times the checks' largest weight (the registered CHECKS
    depth, at least 1) exceed cap.  That count is the size of the squares'
    polarization, though the engine builds none: the cap is an input-size
    guard until the depth engine has a work budget.  The depth engine drops
    every untouched vertex, as no generator uses it.  Global checks run
    fixed instances, whatever the input is, so they are not gated."""
    needs = [CHECKS[c].depth for c in checks if CHECKS[c].kind != "global"]
    if not needs:
        return
    worst = touched * max(max(needs), 1)
    if worst > cap:
        raise CliError(
            f"{prefix}needs up to {worst} polarized variables, beyond the cap "
            f"{cap} (raise --max-polarized to override)"
        )


def _warn_cap(cap: int):
    if cap > DEFAULT_POLARIZED_CAP:
        print(
            f"warning: polarized-ambient cap raised to {cap}; "
            "depth work can grow exponentially in the variables and generators",
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
    checks = resolve_checks(["symbolic_square" if args.symbolic
                             else "main" if args.power == 2 else "first_power"])
    field, cross = _field_mode(args.field)
    _warn_cap(args.max_polarized)
    for G in _read_graphs(args.input, args.edges):
        if not any(G.adj):
            raise CliError("edgeless graph: the edge ideal is zero, depth is undefined")
        _gate_polarized(checks, sum(1 for m in G.adj if m), args.max_polarized)
        report = run_suite([G], checks, field, cross_check=cross)
        # the sharpest applicable bound; its id names the rule
        oc = max((oc for oc in report.outcomes if oc.status != NOT_APPLICABLE),
                 key=lambda oc: oc.rhs)
        # the check's own packing: its centers, or (symbolic) its rhs
        alpha2 = oc.rhs if args.symbolic else len(oc.witness["centers"])
        line = (
            f"graph={oc.graph_id} alpha2={alpha2} depth={oc.lhs} "
            f"bound={oc.rhs} slack={oc.lhs - oc.rhs} "
            f"rule={oc.check_id.removeprefix('square_')} field={field}"
        )
        if report.findings:
            line += f" finding=field_disagreement char0={report.findings[0]['char0']}"
        elif cross:
            line += " field_agreement=ok"
        print(line)
    return 0


def _require_output(args):
    """A json or csv report goes to a file, not a directory, at a path the
    file system accepts; stdout carries the text summary.  The path is probed
    before the run: the file, or a scratch file beside it if it exists, is
    made and removed, so an existing report stays as it was."""
    path = args.output
    if args.format != "text" and not path:
        raise CliError(f"--format {args.format} needs --output FILE")
    if not path:
        return
    if os.path.isdir(path):
        raise CliError(f"{path}: is a directory")
    try:
        try:
            fd, probe = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL), path
        except FileExistsError:
            fd, probe = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
        os.close(fd)
        os.unlink(probe)
    except OSError as err:  # e.g. a missing directory, a name too long
        raise CliError(f"{path}: {err.strerror}") from None


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
        corpus = all_graphs(args.max_n)  # run_suite stops at --budget
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
    _require_output(args)
    checks = resolve_checks(args.check.split(","))
    field, cross = _field_mode(args.field)
    _warn_cap(args.max_polarized)
    # a random graph may touch all n vertices
    _gate_polarized(checks, args.n, args.max_polarized, f"n={args.n} ")
    report = hunt_counterexamples(
        checks, args.n, args.random, args.seed, field,
        cross_check=cross, jobs=_jobs(args.jobs),
    )
    _emit_report(report, args.output, args.format)
    for oc in report.failures:
        print(f"counterexample check={oc.check_id} graph={oc.graph_id} "
              f"lhs={oc.lhs} rhs={oc.rhs}")
    return 0 if not report.failures else 1


def _emit_report(report, output, fmt):
    if output:
        try:
            report.write(output, "csv" if fmt == "csv" else "json")
        except OSError as err:  # e.g. a full disk
            raise CliError(f"{output}: {err.strerror}") from None
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
    field_help = "2 or F2 (default), q, Q or 0, or both"
    cap_help = "cap on polarized variables, at least 1 (default %(default)s); raising it warns"
    jobs_help = "worker processes (EIL_JOBS fallback, default 1)"
    format_help = "json or text (default) write the --output report as JSON, csv as CSV"

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
    p.add_argument("--field", default="2", help=field_help)
    p.add_argument("--max-polarized", type=_at_least(1), default=DEFAULT_POLARIZED_CAP,
                   help=cap_help)
    p.set_defaults(fn=_cmd_depth)

    p = sub.add_parser("verify", help="run check suites over a corpus")
    p.add_argument("--suite", action="append", required=True,
                   help="check name, alias (main, examples, all), or comma list")
    p.add_argument("--corpus", help="file of graph6 lines")
    p.add_argument("--max-n", type=_at_least(1),
                   help="generate all isomorphism classes up to this size")
    p.add_argument("--field", default="2", help=field_help)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled deletion sets (default 0)")
    p.add_argument("--jobs", type=_at_least(1), default=None, help=jobs_help)
    p.add_argument("--budget", type=_at_least(1), default=None,
                   help="max graphs consumed from the corpus")
    p.add_argument("--output", help="report file")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text", help=format_help)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hunt", help="seeded random counterexample search")
    p.add_argument("--check", default="main1",
                   help="check name, alias or comma list (default main1)")
    p.add_argument("--n", type=_at_least(1), required=True, help="vertices per graph")
    p.add_argument("--random", type=_at_least(0), required=True, help="number of graphs")
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the random graphs and sampled deletion sets")
    p.add_argument("--field", default="2", help=field_help)
    p.add_argument("--jobs", type=_at_least(1), default=None, help=jobs_help)
    p.add_argument("--max-polarized", type=_at_least(1), default=DEFAULT_POLARIZED_CAP,
                   help=cap_help)
    p.add_argument("--output", help="report file")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text", help=format_help)
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
