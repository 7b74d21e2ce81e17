"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/rep.py --spec JSON --phase setup|run [--trace STEM]

Every repetition starts a new interpreter, so neither the depth memo nor the
lru_cache on graph_classes carries over: a user's fresh `eil verify` never
finds them warm either.  Prints one JSON object on stdout.

setup  times `import eil` plus building the corpus from the catalog.
run    also runs the suite and writes the JSON report, as
       `eil verify --output` does, then scores the verdicts against the
       reference (after the clock stops).  With --trace, the suite runs
       under the span tracer, whose spans are written to STEM.bin/.json.
       With --calibrate, the calibration kernel samples the host's speed
       during the suite (calibrate.py) and the result also holds the
       adjusted times setup_adj_s and wall_adj_s.

The set-up phase is bracketed by kernel runs either way, so setup_adj_s is
always reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import SHARP_DEPTHS, expected_rows, outcome_rows, score  # noqa: E402

CHECK_FUNCTIONS = (
    "check_square_depth_bounds",
    "check_sharp_examples",
    "check_colon_intersection",
    "check_even_connection_depth",
    "check_square_colon_depth",
    "check_square_colon_formula",
    "check_packing_deletion_bound",
)
DEPTH_ENTRIES = ("depth.depth_ideal", "depth.depth_ideal_both")


def build_corpus(eil, spec: dict) -> list:
    if "max_n" in spec:
        return list(eil.all_graphs(spec["max_n"]))
    n = spec["draw_n"]
    catalog = {G.adj: G for G in eil.all_graphs(n, min_n=n)}
    wanted = [eil.parse_graph6(g6).adj for g6 in spec["draw"]]
    missing = [adj for adj in wanted if adj not in catalog]
    if missing:
        raise RuntimeError(f"{len(missing)} drawn classes are not in the n = {n} catalog")
    return [catalog[adj] for adj in wanted]


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Observers:
    """Work counts gathered at span boundaries of the traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.classes = 0
        self.gens_in = 0
        self.gens_kept = 0
        self.depth_inputs: list = []
        self.slowest: dict[str, tuple[int, object]] = {}

    def table(self) -> dict:
        table = {
            "catalog.graph_classes": self.on_graph_classes,
            "ideals.minimalize": self.on_minimalize,
        }
        for name in DEPTH_ENTRIES:
            table[name] = self.on_depth
        for fn in CHECK_FUNCTIONS:
            table[f"checks.{fn}"] = self.on_check
        return table

    def on_graph_classes(self, idx, args, result):
        if self.tracer.parents[idx] < 0:
            self.classes += len(result)

    def on_minimalize(self, idx, args, result):
        self.gens_in += len(args[0])
        self.gens_kept += len(result)

    def on_depth(self, idx, args, result):
        self.depth_inputs.append(args[0])

    def on_check(self, idx, args, result):
        t = self.tracer
        name = t.names[t.name_ids[idx]]
        dur = t.ends[idx] - t.starts[idx]
        if dur > self.slowest.get(name, (-1, None))[0]:
            self.slowest[name] = (dur, args[0] if args else None)


def _ideal_key(I) -> tuple:
    """The ideal with unused variables dropped, rows sorted."""
    used = [j for j in range(len(I.ambient)) if any(g[j] for g in I.gens)]
    return tuple(sorted(tuple(g[j] for j in used) for g in I.gens))


def lattice_size(eil, I) -> tuple[int, int]:
    """(nonempty lcm-lattice masks, variables) of the polarized ideal."""
    pol = eil.polarize(I).ideal
    closed = {0}
    for s in eil.ComplexView.from_ideal(pol).nonfaces:
        closed |= {r | s for r in closed}
    return len(closed) - 1, len(pol.ambient)


def layer_metrics(eil, tracer, obs: Observers, root: int) -> tuple[dict, dict]:
    """Per-layer metrics of a traced repetition, plus annotations."""
    S = tracer.stats(root)
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0}

    def st(name):
        return S.get(name, zero)

    def sec(ns):
        return ns / 1e9

    m: dict[str, float] = {}
    setup_spans = tracer.top_level("catalog.graph_classes")
    durations = tracer.durations()
    m["catalog.graph_classes.s"] = sec(sum(durations[i] for i in setup_spans))
    m["catalog.classes"] = obs.classes
    for fn in ("star_packing_number", "delete_vertices", "emit_graph6"):
        m[f"graphs.{fn}.calls"] = st(f"graphs.{fn}")["calls"]
        m[f"graphs.{fn}.self_s"] = sec(st(f"graphs.{fn}")["self_ns"])
    for fn in ("even_connection_graph", "is_wk3_free"):
        m[f"graphs.{fn}.self_s"] = sec(st(f"graphs.{fn}")["self_ns"])
    mini = st("ideals.minimalize")
    m["ideals.minimalize.calls"] = mini["calls"]
    m["ideals.minimalize.self_s"] = sec(mini["self_ns"])
    m["ideals.minimalize.gens_in"] = obs.gens_in
    m["ideals.minimalize.gens_kept"] = obs.gens_kept
    m["ideals.minimalize.kept_share"] = obs.gens_kept / obs.gens_in if obs.gens_in else 0.0
    for op in ("pow", "mul", "colon", "intersect", "add", "edge_ideal"):
        m[f"ideals.{op}.self_s"] = sec(st(f"ideals.{op}")["self_ns"])
    m["ideals.polarize.calls"] = st("ideals.polarize")["calls"]
    m["ideals.polarize.self_s"] = sec(st("ideals.polarize")["self_ns"])

    entries = [st(name) for name in DEPTH_ENTRIES]
    calls = sum(e["calls"] for e in entries)
    depth_ns = sum(e["total_ns"] for e in entries)
    m["depth.calls"] = calls
    m["depth.max_call_s"] = sec(max(e["max_ns"] for e in entries))
    distinct = {}
    for I in obs.depth_inputs:
        distinct.setdefault(_ideal_key(I), I)
    sizes = [lattice_size(eil, I) for I in distinct.values()]
    masks = sum(s[0] for s in sizes)
    m["depth.distinct_ideals"] = len(distinct)
    m["depth.repeat_share"] = 1 - len(distinct) / calls if calls else 0.0
    m["depth.lattice_masks"] = masks
    m["depth.lattice_masks_max"] = max((s[0] for s in sizes), default=0)
    m["depth.polarized_vars_max"] = max((s[1] for s in sizes), default=0)
    m["depth.us_per_mask"] = depth_ns / 1e3 / masks if masks else 0.0

    annotations = {}
    for fn in CHECK_FUNCTIONS:
        s = st(f"checks.{fn}")
        m[f"checks.{fn}.calls"] = s["calls"]
        m[f"checks.{fn}.self_s"] = sec(s["self_ns"])
        m[f"checks.{fn}.max_s"] = sec(s["max_ns"])
        G = obs.slowest.get(f"checks.{fn}", (0, None))[1]
        if isinstance(G, eil.Graph):
            annotations[f"checks.{fn}.slowest_graph6"] = eil.emit_graph6(G)

    m["suite.run_suite.self_s"] = sec(st("suite.run_suite")["self_ns"])
    m["suite.report_write_s"] = sec(st("suite.report_write")["total_ns"])

    layer_ns = dict.fromkeys(LAYERS, 0)
    for name, s in S.items():
        if name != "root":
            layer_ns[name.split(".")[0]] += s["self_ns"]
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_s"] = sec(ns)
    top = S["root"]
    if top["self_ns"] + sum(layer_ns.values()) != top["total_ns"]:
        raise RuntimeError("span self times do not add up to the traced wall time")
    m["trace.wall_s"] = sec(top["total_ns"])
    m["trace.root_self_s"] = sec(top["self_ns"])
    m["trace.layer_self_s"] = sec(sum(layer_ns.values()))
    m["trace.spans"] = len(tracer.starts)
    return m, annotations


def adjusted_wall(wall_s: float, sampler, setup_kernel_s: list[float],
                  workers: list[tuple[list[float], float, float]]) -> dict:
    """The suite's wall time without the sampling handlers, at nominal speed.

    In one process the wall, less the handlers' time, is divided by the
    speed of every kernel sample of the repetition (the set-up ones too, so
    a suite too short to be sampled still gets one).  With pool workers,
    each worker ran at its own speed: a worker's adjusted time is its CPU
    time, less its handlers' time, over its own speed, and the fan-out at
    nominal speed lasts as long as the largest of them.  The wall outside
    the fan-out (the wall less the CPU time of the worker that finished
    last) is adjusted as in one process.
    """
    pooled = sampler.samples + setup_kernel_s + [dt for w in workers for dt in w[0]]
    speed = calibrate.speed_of(pooled)
    rest, fan_out, sampling = wall_s - sampler.overhead_s, 0.0, sampler.overhead_s
    adjusted = [(cpu - sum(samples)) / calibrate.speed_of(samples)
                for samples, cpu, _ in workers]
    if workers:
        rest -= max(workers, key=lambda w: w[2])[1]
        fan_out = max(adjusted)
        sampling += sum(dt for w in workers for dt in w[0])
    return {"wall_adj_s": max(rest, 0.0) / speed + fan_out, "speed": speed,
            "samples": len(pooled), "sampling_s": sampling, "fan_out_adj_s": fan_out,
            "workers": [[w[1], a] for w, a in zip(workers, adjusted)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--spec", required=True, help="concrete workload spec (JSON)")
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", help="path stem for the span files; enables tracing")
    parser.add_argument("--out-dir", required=True, help="directory for the report file")
    parser.add_argument("--calibrate", action="store_true",
                        help="sample the host's speed during the suite")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)

    kernel_s = [calibrate.timed_kernel() for _ in range(calibrate.SETUP_SAMPLES)]
    t0 = time.perf_counter()
    import eil

    tracer = obs = None
    if args.trace:
        tracer = Tracer()
        obs = Observers(tracer)
        tracer.install(obs.table())
    corpus = build_corpus(eil, spec)
    setup_s = time.perf_counter() - t0
    kernel_s += [calibrate.timed_kernel() for _ in range(calibrate.SETUP_SAMPLES)]
    out = {"setup_s": setup_s, "graphs": len(corpus),
           "setup_speed": calibrate.speed_of(kernel_s)}
    out["setup_adj_s"] = setup_s / out["setup_speed"]
    if args.phase == "setup":
        print(json.dumps(out))
        return 0

    path = Path(args.out_dir) / f"report-{os.getpid()}.json"
    sampler = None
    if args.calibrate:
        sink = Path(args.out_dir) / f"calibration-{os.getpid()}"
        sink.mkdir()
        if spec["jobs"] > 1:
            calibrate.sample_forked_children(str(sink))
        sampler = calibrate.Sampler()
        sampler.start()
    cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)

    def verdict():
        report = eil.run_suite(corpus, spec["checks"], eil.GF2,
                               cross_check=spec["cross_check"], jobs=spec["jobs"],
                               corpus_name=spec["name"])
        report.write(str(path), "json")
        return report

    t1 = time.perf_counter()
    if tracer is None:
        report = verdict()
    else:
        root, report = tracer.call("root", verdict)
    out["wall_s"] = time.perf_counter() - t1
    cpu1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    if sampler is not None:
        sampler.stop()
        out.update(adjusted_wall(out["wall_s"], sampler, kernel_s,
                                 calibrate.read_worker_samples(str(sink))))
        sink.rmdir()
    if tracer is not None:
        tracer.uninstall()
    out["parent_cpu_s"] = cpu1[0] - cpu0[0]
    out["children_cpu_s"] = cpu1[1] - cpu0[1]
    out["rss_self_mb"] = _max_rss_mb(resource.RUSAGE_SELF)
    out["rss_children_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
    out["report_bytes"] = path.stat().st_size
    path.unlink()

    attempted, failed = score(outcome_rows(report.outcomes), len(report.findings),
                              expected_rows(spec))
    out["attempted"], out["failed"] = attempted, failed
    if "examples" in spec["checks"]:
        out["sharp_depths"] = [oc.lhs for oc in report.outcomes if oc.check_id == "sharp_examples"]
        if out["sharp_depths"] != SHARP_DEPTHS:
            out["failed"] += 1
    out["canonical_sha256"] = hashlib.sha256(report.canonical_body().encode()).hexdigest()
    if tracer is not None:
        out["layers"], out["annotations"] = layer_metrics(eil, tracer, obs, root)
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
