"""Batch verification over graph corpora, reports, and counterexample hunting.

run_suite fans the requested checks over a corpus of graphs.  Checks that are
parameterized by an edge and a deletion set are quantified exhaustively over
all edges and all admissible deletion sets whenever the subset space has at
most EXHAUSTIVE_LIMIT elements; beyond that a seeded random sample is drawn
and the affected outcomes are flagged as sampled.  Identical corpus, checks,
seed and field always produce an identical report body (timings excluded),
whatever the worker count; workers take one graph at a time, as a Graph.

An edge or edge-set check computes one edge of each Aut(G) orbit of edges
and maps its rows to the other edges of the orbit (see _graph_task and
eil.orbits).

Timing happens here, once per check call: each outcome a call keeps gets an
equal share of the call's wall time, and each mapped row an equal share of
the time its edge's mapping took.

Finished rows live until the run ends, so run_suite takes them out of the
cyclic collector's scans: gc.freeze() after each graph's rows, gc.unfreeze() on
return or raise, and neither when more objects are frozen than at import (the
caller's).  The checks make no cyclic garbage, so a freeze holds none.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
import random
import shutil
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import islice
from multiprocessing import Pool
from time import perf_counter
from typing import NamedTuple

from . import checks as _checks
from .checks import FAILS, HOLDS, NOT_APPLICABLE, CheckOutcome, DepthComputer
from .depth import GF2, FieldChoice
from .graphs import (Graph, Graph6Error, _bits, _labels, _pool, default_labels, emit_graph6,
                     parse_graph6, random_graph)

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
# the interpreter's own frozen objects: Python 3.12.1 starts with 375 immortal tuples frozen
_FROZEN_AT_IMPORT = gc.get_freeze_count()

class _Check(NamedTuple):
    kind: str     # graph: once per graph; edge: per edge; edge_set: per edge and
                  # admissible deletion set; global: once per run, corpus-free
    fn: str       # name of the check function in eil.checks
    depth: int    # weight per touched vertex in the input-size cap: 1 for squarefree
                  # depths, 2 for depths of squares; 0: no depth


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
    """Expand aliases and validate before any work; unknown names raise.  A
    bare string is one name."""
    if isinstance(names, str):
        names = (names,)
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


def _deletion_sets(G: Graph, i: int, j: int, seed: int, context: str):
    """None (every subset, which the edge-set checks sweep themselves) when
    the pool of the edge of vertices i and j has at most EXHAUSTIVE_LIMIT
    subsets, else a seeded sample of them as label tuples, in increasing mask
    order.  Samples always contain the empty and the full set, so the
    boundary cases stay covered."""
    pool = _labels(G, _pool(G, i, j))
    p = len(pool)
    if (1 << p) <= EXHAUSTIVE_LIMIT:
        return None
    rng = _derived_rng(seed, "deletion-sets", context)
    masks = {0, (1 << p) - 1}
    while len(masks) < SAMPLE_SIZE:
        masks.add(rng.getrandbits(p))
    return [tuple(pool[t] for t in _bits(mask)) for mask in sorted(masks)]


def _bound_check(name: str, computer: DepthComputer):
    """The check's function bound to its depth computer, returning the list of
    its outcomes whose check_id is name, timed: the call's milliseconds are
    split evenly over them.  The computer goes by keyword, so an edge-set
    check called without its sets cannot take it for them.  The function is
    looked up in eil.checks now, not at import, so a rebinding there (a
    tracer, a test double) is seen."""
    spec = CHECKS[name]
    fn = getattr(_checks, spec.fn)
    extra = {"computer": computer} if spec.depth else {}

    def call(*args) -> list[CheckOutcome]:
        t0 = perf_counter()
        result = fn(*args, **extra)
        ms = (perf_counter() - t0) * 1000
        kept = [oc for oc in (result if isinstance(result, list) else [result])
                if oc.check_id == name]
        for oc in kept:
            oc.elapsed_ms = round(ms / len(kept), 3)
        return kept

    return call


def _graph_task(G: Graph, checks, field, cross, seed) -> tuple[list[CheckOutcome], list[dict], int]:
    """The outcomes, distinct graph-tagged findings and depth comparisons of
    one graph: a field disagreement is one finding however often the checks
    ask for its ideal, and each ask is one comparison.  An edge-set check
    sweeps one edge's deletion sets per call.  An edge or edge-set check
    computes the first edge of each Aut(G) orbit and maps its rows to the
    other edges of the orbit, unless that edge's pool is sampled or its rows
    hold a fail or raised a finding: then every edge of the orbit is
    computed."""
    computer = DepthComputer(field, cross_check=cross)
    gid = emit_graph6(G)
    out: list[CheckOutcome] = []
    orbits = None
    for name in checks:
        kind = CHECKS[name].kind
        check = _bound_check(name, computer)
        if kind == "graph":
            out.extend(check(G))
            continue
        if orbits is None:
            from . import orbits as _orbits  # only edge checks load it
            orbits = _orbits._edge_orbits(G)
        computed: dict[int, _orbits._Computed] = {}
        for k, (i, j) in enumerate(G.edges()):
            r, sigma = orbits.get(k, (k, None))
            if computed.get(r):
                t0 = perf_counter()
                rows = _orbits._mapped_rows(G, name, computed[r], sigma, i, j)
                ms = (perf_counter() - t0) * 1000
                for oc in rows:
                    oc.elapsed_ms = round(ms / len(rows), 3)
                out.extend(rows)
                computer.comparisons += computed[r].comparisons
                continue
            u, v = G.labels[i], G.labels[j]
            findings, comparisons = len(computer.findings), computer.comparisons
            sets = None
            if kind == "edge":
                rows = check(G, (u, v))
            else:
                sets = _deletion_sets(G, i, j, seed, f"{name}:{gid}:{u}:{v}")
                rows = check(G, (u, v), sets)
                if sets is not None:
                    for oc in rows:
                        oc.witness["sampled"] = True
            out.extend(rows)
            if r == k and sets is None and len(computer.findings) == findings and all(
                    oc.status != FAILS for oc in rows):
                computed[k] = _orbits._Computed(i, j, rows, computer.comparisons - comparisons)
    distinct = list({tuple(f.items()): f for f in computer.findings}.values())
    for finding in distinct:
        finding["graph_id"] = gid
    return out, distinct, computer.comparisons


# ---------------------------------------------------------------------------
# reports


def _canonical_row(obj) -> dict:
    """json's default for canonical_body(): an outcome's row without its
    timing.  Any other object is not JSON, and raises as json.dumps does."""
    if not isinstance(obj, CheckOutcome):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    row = obj.to_dict()
    del row["elapsed_ms"]
    return row


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

    def _head(self) -> dict:
        return {
            "schema": "eil-verification-report/1",
            "corpus": self.corpus,
            "checks": list(self.checks),
            "field_char": self.field_char,
            "cross_check": self.cross_check,
            "seed": self.seed,
            "summary": self.summary,
            "findings": self.findings,
        }

    def _json_chunks(self):
        """The JSON file in pieces: the head, then one outcome row per line,
        each encoded straight from its CheckOutcome by one encoder, which
        writes the bytes json.dumps writes (rows hold no cycle to check for)."""
        encode = json.JSONEncoder(check_circular=False).encode
        yield encode(self._head())[:-1] + ', "outcomes": ['
        sep = "\n"
        for oc in self.outcomes:
            yield sep + encode(oc.to_dict())
            sep = ",\n"
        yield "\n]}\n"

    def canonical_body(self) -> str:
        """Deterministic report body: identical runs give identical bytes.
        Rows are encoded from the outcomes as the encoder reaches them, so no
        copy of the rows is held beside the text."""
        return json.dumps({**self._head(), "outcomes": self.outcomes}, sort_keys=True,
                          default=_canonical_row)

    def _csv_rows(self):
        yield ["check_id", "graph_id", "status", "lhs", "rhs", "field_char",
               "elapsed_ms", "witness"]
        for oc in self.outcomes:
            yield [oc.check_id, oc.graph_id, oc.status, oc.lhs, oc.rhs,
                   oc.field_char if oc.field_char is not None else "",
                   oc.elapsed_ms,
                   json.dumps(oc.witness, sort_keys=True) if oc.witness else ""]

    def write(self, path: str, fmt: str = "json"):
        """Atomic write of fmt "json" or "csv": the file appears complete or
        not at all.  Rows are streamed, one outcome at a time, so the file's
        text is never held whole.  A new file gets the mode open(path, "w")
        gives; an overwritten one keeps its mode."""
        if fmt not in ("json", "csv"):
            raise ValueError(f"report format must be json or csv, got {fmt!r}")
        directory = os.path.dirname(os.path.abspath(path))
        tmp = os.path.join(directory, f".report-{os.urandom(6).hex()}")
        handle = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with handle:
                if fmt == "json":
                    handle.writelines(self._json_chunks())
                else:
                    csv.writer(handle).writerows(self._csv_rows())
            with suppress(FileNotFoundError):
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# drivers


def _as_graph(k: int, item) -> Graph:
    """Corpus item k (counted from 1) on the labels x1..xn, as its graph6 line reads."""
    if isinstance(item, Graph):
        return Graph(default_labels(item.n), item.adj)
    try:
        return parse_graph6(item)
    except Graph6Error as err:
        raise Graph6Error(f"corpus item {k}: {err.reason}", err.offset) from None


def _require_at_least(lowest: int, **values):
    """Raise ValueError naming the first parameter below lowest (None: unset)."""
    for param, value in values.items():
        if value is not None and value < lowest:
            raise ValueError(f"{param} must be at least {lowest}, got {value}")


def run_suite(corpus, checks, field: FieldChoice = GF2, *, cross_check: bool = False,
              seed: int = 0, jobs: int = 1, budget: int | None = None,
              corpus_name: str = "corpus") -> VerificationReport:
    """Run the named checks on every graph of the corpus.

    corpus: iterable of Graph values or graph6 lines, read on the labels x1..xn
    as graph6 gives them.  budget caps the number of graphs consumed.  jobs > 1
    hands the graphs to worker processes one at a time, as Graph values; outcome
    order stays the corpus order either way.  A budget or jobs below 1 raises
    ValueError.
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
    graphs = [_as_graph(k, item) for k, item in enumerate(items, 1)]
    for name in names:
        if CHECKS[name].kind == "global":
            computer = DepthComputer(field, cross_check=cross_check)
            report.outcomes.extend(_bound_check(name, computer)())
            report.findings.extend(computer.findings)
            report.depth_comparisons += computer.comparisons
    per_graph = tuple(n for n in names if CHECKS[n].kind != "global")
    if not per_graph:
        return report
    task = partial(_graph_task, checks=per_graph, field=field, cross=cross_check, seed=seed)
    parallel = jobs > 1 and len(graphs) > 1
    freeze = gc.get_freeze_count() <= _FROZEN_AT_IMPORT  # a caller's freeze is left alone
    try:
        with Pool(processes=min(jobs, len(graphs))) if parallel else nullcontext() as pool:
            for outcomes, findings, comparisons in (pool.imap if parallel else map)(task, graphs):
                report.outcomes.extend(outcomes)
                report.findings.extend(findings)
                report.depth_comparisons += comparisons
                if freeze:  # finished rows leave every later collection's scan
                    gc.freeze()
    finally:
        if freeze:
            gc.unfreeze()
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
    names = resolve_checks(checks)
    rng = _derived_rng(seed, "hunt", ",".join(names), str(n))
    graphs = [random_graph(n, rng) for _ in range(count)]
    return run_suite(
        graphs, names, field, cross_check=cross_check, seed=seed, jobs=jobs,
        corpus_name=f"random:n={n},count={count},seed={seed}",
    )
