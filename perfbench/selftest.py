"""Fast self-test of the benchmark, on n <= 4 corpora.

    python3 perfbench/selftest.py

Exits 0 when all of these hold, 1 otherwise:
  1. every metric named in BENCHMARK.json is emitted, with its unit, by the
     untraced (end_to_end) and the traced (per_layer) run of each workload;
  2. tracing leaves the verdicts unchanged: the traced repetition's report
     has the same canonical_body() bytes as the untraced ones;
  3. the n = 7 draw is deterministic and has one distinct catalog class
     per cost stratum.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, ROOT, measure
from workloads import WORKLOADS, concrete_spec, load_reference

SMALL_N = 4


def small_spec(name: str) -> dict:
    """The workload's checks, field and jobs on every class with n <= 4; no
    reference, so the verdicts fall back to no fails and no findings."""
    spec = {k: v for k, v in WORKLOADS[name].items()
            if k not in ("draw_n", "draw_size", "reference")}
    return dict(spec, max_n=SMALL_N)


def check_metrics(benchmark: dict) -> list[str]:
    problems = []
    for name in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, 0, 1, trace, small_spec(name))
            tag = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{tag}: verdicts not correct or not identical "
                                f"({result['failed']} failed, {result['meta']})")
            emitted = result["metrics"]
            for metric in benchmark[group]:
                got = emitted.get(metric["name"])
                if got is None:
                    problems.append(f"{tag}: {metric['name']} not emitted")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} in {got['unit']}, "
                                    f"BENCHMARK.json says {metric['unit']}")
    return problems


def check_draw() -> list[str]:
    name = "squares-n7-jobs2"
    size = WORKLOADS[name]["draw_size"]
    table = load_reference(WORKLOADS[name]["reference"])
    draw = concrete_spec(name)["draw"]
    problems = []
    if draw != concrete_spec(name)["draw"]:
        problems.append("the n = 7 draw differs between two calls")
    ordered = sorted(table, key=lambda g6: (table[g6]["cost_s"], g6))
    strata = {ordered.index(g6) * size // len(ordered) for g6 in draw}
    if len(set(draw)) != size or strata != set(range(size)):
        problems.append(f"draw {draw} is not {size} distinct classes, one per stratum")
    return problems


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_draw() + check_metrics(benchmark)
    for problem in problems:
        print(problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
