"""The eil benchmark: time to a correct verdict over fixed graph catalogs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py; BENCHMARK.json records why each one
exists.  Every repetition runs in a fresh interpreter (rep.py), so no memo or
catalog cache survives from one repetition to the next.  The seed is recorded
but changes no input: two corpora are whole catalogs and the third is one
fixed draw (see workloads.draw_graphs for why).

--trace 0  Set-up-only repetitions (at least three, and for at least two
           seconds), then full repetitions for as long as the next one is
           expected to end within S seconds (at least one).  Prints the
           end-to-end metrics as medians over the repetitions:
             setup_s       import eil + building the corpus from the catalog
             wall_s        run_suite + writing the JSON report
             graphs_per_s  corpus graphs / wall_s
             peak_rss_mb   max RSS of the process running the suite and of
                           its pool workers
           The two times are adjusted for the host's speed (calibrate.py):
           they are what the repetition would have taken had a fixed
           calibration kernel run at its nominal speed throughout.  The raw
           times are kept in the run metadata.
--trace 1  One untraced repetition as configured, one untraced at jobs=1 when
           the workload fans out (spans cannot cross the pool), and one
           traced at jobs=1.  Prints the per-layer metrics of the traced run,
           the fan-out metrics of the untraced one, and the tracing overhead.

Every repetition scores its outcome rows against the recorded reference
(see make_reference.py); `failed` counts bad or missing outcomes and field
disagreements, `attempted` the expected outcomes, and failed_share, their
ratio, is printed with the other metrics.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Run metadata
(commit, Python, nproc, load, every repetition's raw values) goes to the
line before it and to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, concrete_spec  # noqa: E402

SETUP_REPS = 3  # set-up-only repetitions: at least this many,
SETUP_SECONDS = 2  # and more until this long has passed
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB"}
COUNT_SUFFIXES = ("calls", "classes", "gens_in", "gens_kept", "distinct_ideals",
                  "lattice_masks", "lattice_masks_max", "polarized_vars_max", "spans")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last in COUNT_SUFFIXES:
        return "count"
    if last.endswith("_share"):
        return "ratio"
    if last == "us_per_mask":
        return "us"
    if last == "report_bytes":
        return "bytes"
    if last == "s" or last.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for metric {name!r}")


class RepFailed(RuntimeError):
    pass


def rep(spec: dict, phase: str, deadline: float, trace_stem: Path | None = None,
        calibrated: bool = False) -> dict:
    """One repetition in a fresh interpreter, in its own process group so a
    timeout also stops its pool workers."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--spec", json.dumps(spec),
           "--phase", phase, "--out-dir", str(OUT_DIR)]
    if trace_stem is not None:
        cmd += ["--trace", str(trace_stem)]
    if calibrated:
        cmd.append("--calibrate")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{spec['name']} {phase} repetition ran past the time limit")
    if proc.returncode != 0:
        raise RepFailed(f"{spec['name']} {phase} repetition exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _verdicts(reps: list[dict]) -> dict:
    """Correctness over repetitions; they must also agree byte for byte."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    same = len({r["canonical_sha256"] for r in reps}) == 1
    return {"correct": failed == 0 and same, "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else 1.0,
            "identical_reports": same}


def measure_untraced(spec: dict, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    setups = []
    start = time.monotonic()
    while len(setups) < SETUP_REPS or time.monotonic() - start < SETUP_SECONDS:
        setups.append(rep(spec, "setup", deadline))
    runs = []
    start = time.monotonic()
    while True:
        runs.append(rep(spec, "run", deadline, calibrated=True))
        elapsed = time.monotonic() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    wall = statistics.median(r["wall_adj_s"] for r in runs)
    metrics = {
        "setup_s": statistics.median(r["setup_adj_s"] for r in setups + runs),
        "wall_s": wall,
        "graphs_per_s": runs[0]["graphs"] / wall,
        "peak_rss_mb": statistics.median(max(r["rss_self_mb"], r["rss_children_mb"]) for r in runs),
    }
    raw = {k: [r[k] for r in setups + runs] for k in ("setup_s", "setup_adj_s", "setup_speed")}
    raw.update({k: [r[k] for r in runs]
                for k in ("wall_s", "wall_adj_s", "speed", "samples", "sampling_s",
                          "fan_out_adj_s", "workers", "rss_self_mb", "rss_children_mb",
                          "parent_cpu_s", "children_cpu_s")})
    return metrics, raw, runs


def measure_traced(spec: dict, deadline: float, trace_stem: Path) -> tuple[dict, dict, list]:
    jobs = spec["jobs"]
    serial = dict(spec, jobs=1)
    fan = rep(spec, "run", deadline)
    base = rep(serial, "run", deadline) if jobs > 1 else fan
    traced = rep(serial, "run", deadline, trace_stem)
    worker_cpu = fan["children_cpu_s"] if jobs > 1 else fan["parent_cpu_s"]
    metrics = dict(traced["layers"])
    metrics.update({
        "suite.report_bytes": traced["report_bytes"],
        "suite.worker_cpu_s": worker_cpu,
        "suite.parent_cpu_s": fan["parent_cpu_s"],
        "suite.worker_idle_share": 1 - worker_cpu / (jobs * fan["wall_s"]),
        "trace_overhead_share": traced["wall_s"] / base["wall_s"] - 1,
    })
    raw = {"wall_s": {"untraced": fan["wall_s"], "untraced_jobs1": base["wall_s"],
                      "traced": traced["wall_s"]},
           "annotations": traced["annotations"]}
    return metrics, raw, [fan, base, traced] if jobs > 1 else [fan, traced]


def _load() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(name: str, seed: int, seconds: int, trace: bool, spec: dict | None = None) -> dict:
    """Result of one workload: the final-line object plus run metadata."""
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = concrete_spec(name, spec)
    load_before = _load()
    if trace:
        metrics, raw, reps = measure_traced(spec, deadline, OUT_DIR / f"trace-{name}")
    else:
        metrics, raw, reps = measure_untraced(spec, seconds, deadline)
    verdicts = _verdicts(reps)
    if "sharp_depths" in reps[0]:
        raw["sharp_depths"] = reps[0]["sharp_depths"]
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "jobs": spec["jobs"], "graphs": reps[0]["graphs"], "draw": spec.get("draw"),
        "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": _load(),
        "repetitions": len(reps), "raw": raw,
        "failed_share": verdicts["failed_share"],
        "identical_reports": verdicts["identical_reports"],
    }
    return {
        "correct": verdicts["correct"],
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "meta": meta,
    }


def _print_table(result: dict):
    name = result["meta"]["workload"]
    rows = dict(result["metrics"])
    rows["failed_share"] = {"value": result["meta"]["failed_share"], "unit": "ratio"}
    for metric, m in rows.items():
        print(f"{name:18s} {metric:44s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eil benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eil" / "__init__.py").is_file():
        print(f"no eil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except RepFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        _print_table(result)
        results.append(result)
    for result in results:
        print(json.dumps({"meta": result.pop("meta")}))
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r_name}.{k}": v for r_name, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
