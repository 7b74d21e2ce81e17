"""Workload definitions, the stratified n = 7 draw, and verdict scoring.

Shared by the benchmark entry point (run.py), the single repetition (rep.py),
the reference generator (make_reference.py) and the self-test.  Nothing here
imports eil, so run.py can plan a run without paying for the package import.
"""

from __future__ import annotations

import gzip
import json
import random
from collections import Counter
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EDGE_SET_CHECKS = [
    "colon_intersection",
    "even_connection_depth",
    "square_colon_depth",
    "square_colon_formula",
    "deletion_bound",
]

# Why each workload exists is recorded in BENCHMARK.json.  A spec is plain
# JSON so run.py can hand it to a fresh interpreter on the command line:
#   max_n       corpus = every isomorphism class with 1 <= n <= max_n
#   draw_n      corpus = a draw of draw_size edged classes on draw_n vertices,
#               stratified by the per-class costs in its reference; draw_key
#               fixes it, so the corpus is the same for every run seed
#   reference   reference file holding the expected outcome rows
WORKLOADS: dict[str, dict] = {
    "squares-n6-both": {
        "max_n": 6,
        "checks": ["main", "examples"],
        "cross_check": True,
        "jobs": 1,
        "reference": "squares-n6-both",
    },
    "edgesets-n6": {
        "max_n": 6,
        "checks": EDGE_SET_CHECKS,
        "cross_check": False,
        "jobs": 1,
        "reference": "edgesets-n6",
    },
    "squares-n7-jobs2": {
        "draw_n": 7,
        "draw_size": 12,
        "draw_key": 0,
        "checks": ["main"],
        "cross_check": True,
        "jobs": 2,
        "reference": "squares-n7",
    },
}

# Exact square depths of the three sharpness instances, in report order.
SHARP_DEPTHS = [1, 1, 2]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json.gz"


def load_reference(name: str) -> dict | None:
    """graph6 -> entry, or None when no reference is recorded under name."""
    path = reference_path(name)
    if not path.is_file():
        return None
    with gzip.open(path, "rt") as handle:
        return json.load(handle)["graphs"]


def save_reference(name: str, graphs: dict, meta: dict):
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"meta": meta, "graphs": graphs}
    # mtime=0 keeps the gzip bytes a pure function of the content
    with gzip.GzipFile(reference_path(name), "wb", mtime=0) as raw:
        raw.write(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


def draw_graphs(table: dict, key: int, size: int) -> list[str]:
    """Stratified draw of `size` classes from a per-class reference.

    Classes are ordered by their recorded cost (cold-memo seconds at the
    commit that recorded the reference) and cut into `size` strata of equal
    count; `key` picks one class in each stratum.  Every draw therefore
    spans the whole cost range, from trivial squares to the largest lcm
    lattices.  Draws under different keys do not cost the same, though: the
    recorded costs are single timings on a noisy host, and the costliest
    stratum spans 1-3.4 s, so the slower of the two fan-out chunks moved by
    up to 40% between keys.  That is why the workload fixes its key instead
    of taking the run's seed.

    The draw is returned in stratum order, cheapest first, and the corpus
    keeps that order.  run_suite hands whole chunks of 8 graphs to its
    workers, so with 12 graphs one worker gets the 8 cheapest and the other
    the 4 costliest on every seed: the fan-out's balance is the same on
    every draw instead of varying with where the costly classes fall.
    """
    ordered = sorted(table, key=lambda g6: (table[g6]["cost_s"], g6))
    rng = random.Random(f"perfbench-draw:{key}")
    picks = []
    for k in range(size):
        lo, hi = k * len(ordered) // size, (k + 1) * len(ordered) // size
        picks.append(ordered[rng.randrange(lo, hi)])
    return picks


def concrete_spec(name: str, spec: dict | None = None) -> dict:
    """The spec of one run: the named workload (or `spec`), with its draw
    resolved."""
    spec = dict(WORKLOADS[name] if spec is None else spec, name=name)
    if "draw_n" in spec:
        table = load_reference(spec["reference"])
        if table is None:
            raise FileNotFoundError(f"the draw of {name} needs {reference_path(spec['reference'])}")
        spec["draw"] = draw_graphs(table, spec["draw_key"], spec["draw_size"])
    return spec


def expected_rows(spec: dict) -> dict:
    """Expected rows per graph6 of a concrete spec.

    A graph6 mapped to None has no recorded reference; its rows are only
    required to hold, with no field disagreement.  That is the fallback for
    inputs a reference does not cover, such as the self-test corpora.
    """
    reference = load_reference(spec["reference"]) if spec.get("reference") else None
    if reference is None:
        return {}
    if "draw" in spec:
        return {g6: reference[g6]["rows"] if g6 in reference else None for g6 in spec["draw"]}
    return {g6: entry["rows"] for g6, entry in reference.items()}


def outcome_rows(outcomes) -> dict[str, list[list]]:
    """Outcome rows grouped by graph6, without the graph6 in each row."""
    rows: dict[str, list[list]] = {}
    for oc in outcomes:
        rows.setdefault(oc.graph_id, []).append([oc.check_id, oc.status, oc.lhs, oc.rhs])
    return rows


def score(rows: dict[str, list[list]], findings: int, expected: dict) -> tuple[int, int]:
    """(expected outcomes, bad or missing outcomes) of one report.

    Each graph's rows are compared as a multiset of (check_id, status, lhs,
    rhs) with its reference rows: every reference row not reproduced counts
    once, and so does every surplus row.  Graphs without a reference count
    their `fails` rows.  Every field disagreement counts as one more.
    """
    attempted = bad = 0
    for g6 in sorted(set(rows) | set(expected)):
        got = Counter(tuple(r) for r in rows.get(g6, []))
        want = expected.get(g6)
        if want is None:
            attempted += sum(got.values())
            bad += sum(c for row, c in got.items() if row[1] == "fails")
            continue
        want = Counter(tuple(r) for r in want)
        n_want, n_got = sum(want.values()), sum(got.values())
        attempted += n_want
        bad += n_want - sum((got & want).values()) + max(0, n_got - n_want)
    return attempted, bad + findings
