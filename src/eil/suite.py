"""Batch verification over graph corpora, reports, and counterexample hunting.

run_suite fans the requested checks over a corpus of graphs.  Checks that are
parameterized by an edge and a deletion set are quantified exhaustively over
all edges and all admissible deletion sets whenever the subset space has at
most EXHAUSTIVE_LIMIT elements; beyond that a seeded random sample is drawn
and the affected outcomes are flagged as sampled.  Identical corpus, checks,
seed and field always produce an identical report body (timings excluded),
whatever the worker count.  Timing happens here, once per check call: each
outcome a call keeps gets an equal share of the call's wall time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field as dc_field
from itertools import islice
from multiprocessing import Pool
from time import perf_counter
from typing import NamedTuple

from . import checks as _checks
from .checks import FAILS, HOLDS, NOT_APPLICABLE, CheckOutcome, DepthComputer
from .depth import GF2, FieldChoice
from .graphs import Graph, _admissible_pool, _bits, emit_graph6, parse_graph6, random_graph

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "SAMPLE_SIZE",
    "CHECKS",
    "CHECK_IDS",
    "SUITE_ALIASES",
    "VerificationReport",
    "resolve_checks",
    "run_suite",
    "hunt_counterexamples",
]

EXHAUSTIVE_LIMIT = 1024  # deletion-set spaces up to 2^10 are swept fully
SAMPLE_SIZE = 64  # deletion sets drawn from a larger space

class _Check(NamedTuple):
    kind: str     # graph: once per graph; edge: per edge; edge_set: per edge and
                  # admissible deletion set; global: once per run, corpus-free
    fn: str       # name of the check function in eil.checks
    depth: int    # polarized variables per vertex its depths need; 0: no depth


CHECKS: dict[str, _Check] = {
    "first_power": _Check("graph", "check_first_power", 1),
    "triangle_deletion_packing": _Check("graph", "check_triangle_neighborhood_packing", 0),
    "colon_intersection": _Check("edge", "check_colon_intersection", 0),
    "even_connection_depth": _Check("edge_set", "check_even_connection_depth", 1),
    "square_colon_depth": _Check("edge_set", "check_square_colon_depth", 2),
    "square_colon_formula": _Check("edge_set", "check_square_colon_formula", 0),
    # one function, three ids: each id keeps only the outcomes carrying it
    "square_general": _Check("graph", "check_square_depth_bounds", 2),
    "square_wk3_free": _Check("graph", "check_square_depth_bounds", 2),
    "square_triangle_free": _Check("graph", "check_square_depth_bounds", 2),
    "symbolic_square": _Check("graph", "check_symbolic_square", 2),
    "order_decomposition": _Check("graph", "check_generator_order_decomposition", 0),
    "deletion_bound": _Check("edge_set", "check_packing_deletion_bound", 0),
    "sharp_examples": _Check("global", "check_sharp_examples", 2),
}

CHECK_IDS = tuple(CHECKS)

SUITE_ALIASES: dict[str, tuple[str, ...]] = {
    "main": ("square_general", "square_wk3_free", "square_triangle_free"),
    "main1": ("square_general",),
    "main2": ("square_wk3_free",),
    "main3": ("square_triangle_free",),
    "examples": ("sharp_examples",),
    # even_connection_depth asserts K = J on the way, so its bound on depth(K)
    # is the colon-intersection bound on depth(J) for the same edge and set
    "colon_intersection_depth": ("even_connection_depth",),
    "all": CHECK_IDS,
}


def resolve_checks(names) -> tuple[str, ...]:
    """Expand aliases and validate before any work; unknown names raise."""
    out: list[str] = []
    for name in names:
        if name in SUITE_ALIASES:
            expanded = SUITE_ALIASES[name]
        elif name in CHECKS:
            expanded = (name,)
        else:
            known = ", ".join(sorted(set(CHECKS) | set(SUITE_ALIASES)))
            raise ValueError(f"unknown check {name!r}; known: {known}")
        for c in expanded:
            if c not in out:
                out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# deletion-set quantification


def _derived_rng(seed: int, *parts: str) -> random.Random:
    material = ":".join(str(p) for p in parts) + f":{seed}"
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _deletion_sets(pool: tuple[str, ...], seed: int, context: str):
    """All subsets of the pool, or a seeded sample of them.

    Returns (list of label tuples, sampled flag).  Samples always contain the
    empty and the full set, so the boundary cases stay covered.
    """
    p = len(pool)
    sampled = (1 << p) > EXHAUSTIVE_LIMIT
    if sampled:
        rng = _derived_rng(seed, "deletion-sets", context)
        masks = {0, (1 << p) - 1}
        while len(masks) < SAMPLE_SIZE:
            masks.add(rng.getrandbits(p))
    else:
        masks = range(1 << p)
    subsets = [tuple(pool[t] for t in _bits(mask)) for mask in sorted(masks)]
    return subsets, sampled


def _bound_check(name: str, computer: DepthComputer):
    """The check's function bound to its depth computer, returning the list of
    its outcomes whose check_id is name, timed: the call's milliseconds are
    split evenly over them.  It is looked up in eil.checks now, not at
    import, so a rebinding there (a tracer, a test double) is seen."""
    spec = CHECKS[name]
    fn = getattr(_checks, spec.fn)
    extra = (computer,) if spec.depth else ()

    def call(*args) -> list[CheckOutcome]:
        t0 = perf_counter()
        result = fn(*args, *extra)
        ms = (perf_counter() - t0) * 1000
        kept = [oc for oc in (result if isinstance(result, list) else [result])
                if oc.check_id == name]
        for oc in kept:
            oc.elapsed_ms = round(ms / len(kept), 3)
        return kept

    return call


def _run_checks_on_graph(G: Graph, checks, computer: DepthComputer,
                         seed: int) -> list[CheckOutcome]:
    gid = emit_graph6(G)
    out: list[CheckOutcome] = []
    for name in checks:
        kind = CHECKS[name].kind
        check = _bound_check(name, computer)
        if kind == "graph":
            out.extend(check(G))
            continue
        for u, v in G.edge_labels():
            if kind == "edge":
                out.extend(check(G, (u, v)))
                continue
            pool = _admissible_pool(G, u, v)
            subsets, sampled = _deletion_sets(pool, seed, f"{name}:{gid}:{u}:{v}")
            for A in subsets:
                (oc,) = check(G, (u, v), A)
                if sampled:
                    oc.witness = dict(oc.witness or {})
                    oc.witness["sampled"] = True
                out.append(oc)
    return out


def _graph_task(args) -> tuple[list[CheckOutcome], list[dict], int]:
    g6, checks, characteristic, cross, seed = args
    G = parse_graph6(g6)
    computer = DepthComputer(FieldChoice(characteristic), cross_check=cross)
    outcomes = _run_checks_on_graph(G, checks, computer, seed)
    for finding in computer.findings:
        finding["graph_id"] = g6
    return outcomes, computer.findings, computer.comparisons


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    """All outcomes of one suite run plus summary tallies and findings.

    Findings (field-characteristic disagreements) are a separate channel from
    failures: a finding never flips a check verdict.
    """

    corpus: str
    checks: tuple[str, ...]
    field_char: int
    cross_check: bool
    seed: int
    outcomes: list[CheckOutcome] = dc_field(default_factory=list)
    findings: list[dict] = dc_field(default_factory=list)
    depth_comparisons: int = 0

    @property
    def summary(self) -> dict:
        tally = {HOLDS: 0, FAILS: 0, NOT_APPLICABLE: 0}
        for oc in self.outcomes:
            tally[oc.status] += 1
        return {
            "outcomes": len(self.outcomes),
            "holds": tally[HOLDS],
            "fails": tally[FAILS],
            "not_applicable": tally[NOT_APPLICABLE],
            "findings": len(self.findings),
            "depth_comparisons": self.depth_comparisons,
        }

    @property
    def failures(self) -> list[CheckOutcome]:
        return [oc for oc in self.outcomes if oc.status == FAILS]

    def to_json_dict(self, with_timing: bool = True) -> dict:
        rows = []
        for oc in self.outcomes:
            row = oc.to_dict()
            if not with_timing:
                row.pop("elapsed_ms")
            rows.append(row)
        return {
            "schema": "eil-verification-report/1",
            "corpus": self.corpus,
            "checks": list(self.checks),
            "field_char": self.field_char,
            "cross_check": self.cross_check,
            "seed": self.seed,
            "summary": self.summary,
            "findings": self.findings,
            "outcomes": rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    def canonical_body(self) -> str:
        """Deterministic report body: identical runs give identical bytes."""
        return json.dumps(self.to_json_dict(with_timing=False), sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["check_id", "graph_id", "status", "lhs", "rhs", "field_char",
             "elapsed_ms", "witness"]
        )
        for oc in self.outcomes:
            writer.writerow(
                [oc.check_id, oc.graph_id, oc.status, oc.lhs, oc.rhs,
                 oc.field_char if oc.field_char is not None else "",
                 oc.elapsed_ms,
                 json.dumps(oc.witness, sort_keys=True) if oc.witness else ""]
            )
        return buf.getvalue()

    def write(self, path: str, fmt: str = "json"):
        """Atomic write of fmt "json" or "csv": the file appears complete or
        not at all."""
        if fmt not in ("json", "csv"):
            raise ValueError(f"report format must be json or csv, got {fmt!r}")
        chunks = (json.JSONEncoder(indent=2).iterencode(self.to_json_dict())
                  if fmt == "json" else [self.to_csv()])  # JSON: to_json()'s bytes, streamed
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", text=True)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# drivers


def _as_graph6(item) -> str:
    if isinstance(item, Graph):
        return emit_graph6(item)
    parse_graph6(item)  # validate up front; errors name the offending byte
    return item.strip()


def _require_at_least(lowest: int, **values):
    """Raise ValueError naming the first parameter below lowest (None: unset)."""
    for param, value in values.items():
        if value is not None and value < lowest:
            raise ValueError(f"{param} must be at least {lowest}, got {value}")


def run_suite(corpus, checks, field: FieldChoice = GF2, *, cross_check: bool = False,
              seed: int = 0, jobs: int = 1, budget: int | None = None,
              corpus_name: str = "corpus") -> VerificationReport:
    """Run the named checks on every graph of the corpus.

    corpus: iterable of Graph values or graph6 lines.  budget caps the number
    of graphs consumed.  jobs > 1 distributes whole graphs over worker
    processes; outcome order stays the corpus order either way.  A budget or
    jobs below 1 raises ValueError.
    """
    _require_at_least(1, budget=budget, jobs=jobs)
    names = resolve_checks(checks)
    report = VerificationReport(
        corpus=corpus_name,
        checks=names,
        field_char=field.characteristic,
        cross_check=cross_check,
        seed=seed,
    )
    items = islice(corpus, budget) if budget is not None else corpus
    lines = [_as_graph6(g) for g in items]
    for name in names:
        if CHECKS[name].kind == "global":
            computer = DepthComputer(field, cross_check=cross_check)
            report.outcomes.extend(_bound_check(name, computer)())
            report.findings.extend(computer.findings)
            report.depth_comparisons += computer.comparisons
    per_graph = tuple(n for n in names if CHECKS[n].kind != "global")
    if not per_graph:
        return report
    tasks = [(g6, per_graph, field.characteristic, cross_check, seed) for g6 in lines]
    parallel = jobs > 1 and len(tasks) > 1
    with Pool(processes=min(jobs, len(tasks))) if parallel else nullcontext() as pool:
        results = pool.imap(_graph_task, tasks, chunksize=8) if parallel else map(_graph_task, tasks)
        for outcomes, findings, comparisons in results:
            report.outcomes.extend(outcomes)
            report.findings.extend(findings)
            report.depth_comparisons += comparisons
    return report


def hunt_counterexamples(checks, n: int, count: int, seed: int,
                         field: FieldChoice = GF2, *, cross_check: bool = False,
                         jobs: int = 1) -> VerificationReport:
    """Run checks over seeded random graphs on n vertices.

    Any failure outcome is the interesting artifact: its graph_id replays it.
    n below 1 or count below 0 raises ValueError.
    """
    _require_at_least(1, n=n)
    _require_at_least(0, count=count)
    if isinstance(checks, str):
        checks = [checks]
    names = resolve_checks(checks)
    rng = _derived_rng(seed, "hunt", ",".join(names), str(n))
    graphs = [random_graph(n, rng) for _ in range(count)]
    return run_suite(
        graphs, names, field, cross_check=cross_check, seed=seed, jobs=jobs,
        corpus_name=f"random:n={n},count={count},seed={seed}",
    )
