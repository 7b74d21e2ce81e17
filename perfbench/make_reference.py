"""Record the verdict references the benchmark scores its runs against.

    python3 perfbench/make_reference.py [--only NAME ...]

Writes perfbench/reference/<NAME>.json.gz:

  squares-n6-both   rows of `main,examples` on all classes with n <= 6
  edgesets-n6       rows of the edge-set checks on all classes with n <= 6
  squares-n7        rows of `main` on every edged class with n = 7, plus each
                    class's lcm-lattice size and its cold-memo cost in
                    seconds, which order the strata of the n = 7 draw

Rows are (check_id, status, lhs, rhs) per graph6, computed over F2 with the
characteristic-0 cross-check on: a reference is written only when no outcome
fails and both fields agree on every depth.  The n = 7 reference computes
one class at a time with a cleared depth memo, so its costs are comparable;
it takes about half an hour on one core.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eil  # noqa: E402
from eil.depth import clear_depth_cache  # noqa: E402

from rep import lattice_size  # noqa: E402
from workloads import WORKLOADS, outcome_rows, save_reference  # noqa: E402


def _verified(report) -> dict:
    summary = report.summary
    if summary["fails"] or summary["findings"]:
        raise SystemExit(f"refusing to record a reference with {summary}")
    return outcome_rows(report.outcomes)


def _meta(**extra) -> dict:
    return {"eil_version": eil.__version__, "python": platform.python_version(),
            "field_char": 2, "cross_check": True, **extra}


def record_whole_catalog(name: str):
    spec = WORKLOADS[name]
    report = eil.run_suite(eil.all_graphs(spec["max_n"]), spec["checks"], eil.GF2,
                           cross_check=True)
    rows = _verified(report)
    graphs = {g6: {"rows": r} for g6, r in rows.items()}
    save_reference(spec["reference"], graphs,
                   _meta(checks=spec["checks"], max_n=spec["max_n"]))
    print(f"{spec['reference']}: {len(report.outcomes)} outcomes", flush=True)


def record_n7_classes():
    spec = WORKLOADS["squares-n7-jobs2"]
    n = spec["draw_n"]
    graphs = {}
    for G in eil.all_graphs(n, min_n=n):
        if not any(G.adj):
            continue
        clear_depth_cache()
        t0 = time.perf_counter()
        report = eil.run_suite([G], spec["checks"], eil.GF2, cross_check=True)
        cost = time.perf_counter() - t0
        (g6, rows), = _verified(report).items()
        masks, _ = lattice_size(eil, eil.edge_ideal(G) ** 2)
        graphs[g6] = {"rows": rows, "cost_s": round(cost, 4), "lattice_masks": masks}
        if len(graphs) % 100 == 0:
            print(f"squares-n7: {len(graphs)} classes", flush=True)
    save_reference(spec["reference"], graphs, _meta(checks=spec["checks"], n=n))
    print(f"squares-n7: {len(graphs)} classes", flush=True)


RECORDERS = {
    "squares-n6-both": lambda: record_whole_catalog("squares-n6-both"),
    "edgesets-n6": lambda: record_whole_catalog("edgesets-n6"),
    "squares-n7": record_n7_classes,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(RECORDERS))
    args = parser.parse_args(argv)
    for name in args.only or RECORDERS:
        RECORDERS[name]()


if __name__ == "__main__":
    main()
