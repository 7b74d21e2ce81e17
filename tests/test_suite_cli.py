"""Suite driver (determinism, sampling, parallel workers, reports) and CLI."""

import csv
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import stat

import pytest

from eil.catalog import all_graphs
from eil.cli import main
from eil.depth import GF2
import eil.catalog
import eil.checks
import eil.cli
from eil.checks import FAILS, CheckOutcome, check_packing_deletion_bound
from eil.graphs import (
    Graph6Error,
    complete_graph,
    emit_graph6,
    empty_graph,
    graph_from_edges,
    parse_edge_list,
    parse_graph6,
    path_graph,
    whiskered_triangle,
)
from eil.suite import (
    CHECKS,
    EXHAUSTIVE_LIMIT,
    SAMPLE_SIZE,
    SUITE_ALIASES,
    VerificationReport,
    hunt_counterexamples,
    resolve_checks,
    run_suite,
)


def wk3_edge_text():
    return "\n".join(f"{u} {v}" for u, v in whiskered_triangle().edge_labels())


# ---------------------------------------------------------------------------
# check resolution


def test_resolve_checks_aliases():
    assert resolve_checks(["main"]) == (
        "square_general", "square_wk3_free", "square_triangle_free"
    )
    assert resolve_checks(["main1", "main1"]) == ("square_general",)
    assert resolve_checks(["examples"]) == ("sharp_examples",)
    assert resolve_checks("main") == resolve_checks(["main"])
    assert run_suite([complete_graph(3)], "main").checks == resolve_checks(["main"])
    assert set(resolve_checks(["all"])) == set(SUITE_ALIASES["all"])


def test_registry_ids_match_emitted_ids():
    # the suite keeps, per requested id, only the outcomes carrying that id:
    # a function emitting an id other than its registered ones would vanish
    for spec in CHECKS.values():
        assert spec.fn in eil.checks.__all__
    ids_of: dict[str, set[str]] = {}
    for name, spec in CHECKS.items():
        ids_of.setdefault(spec.fn, set()).add(name)
    for G in (complete_graph(3), path_graph(4), whiskered_triangle(), empty_graph(2)):
        edge = G.edge_labels()[0] if G.edges() else None
        for fn, ids in ids_of.items():
            kind = {CHECKS[name].kind for name in ids}.pop()
            if kind in ("edge", "edge_set") and edge is None:
                continue
            args = {"graph": (G,), "edge": (G, edge), "edge_set": (G, edge),
                    "global": ()}[kind]
            result = getattr(eil.checks, fn)(*args)
            emitted = {oc.check_id for oc in (result if isinstance(result, list) else [result])}
            assert emitted == ids, (fn, emit_graph6(G))


def test_resolve_checks_unknown_fails_before_work():
    with pytest.raises(ValueError, match="unknown check"):
        resolve_checks(["main", "nope"])


# ---------------------------------------------------------------------------
# run_suite


def test_empty_corpus_gives_empty_report():
    report = run_suite([], ["main"], corpus_name="nothing")
    assert report.summary["outcomes"] == 0
    assert report.failures == []


def test_budget_caps_corpus():
    corpus = list(all_graphs(4))
    report = run_suite(corpus, ["first_power"], budget=3)
    assert len({oc.graph_id for oc in report.outcomes}) == 3


@pytest.mark.parametrize("kwargs", [{"budget": 0}, {"budget": -1}, {"jobs": 0}, {"jobs": -3}])
def test_run_suite_rejects_counts_below_one(kwargs):
    (param, value), = kwargs.items()
    message = f"{param} must be at least 1, got {value}"
    with pytest.raises(ValueError, match=message):
        run_suite(all_graphs(3), ["main"], **kwargs)
    if param == "jobs":
        with pytest.raises(ValueError, match=message):
            hunt_counterexamples("main1", 4, 2, seed=1, **kwargs)


@pytest.mark.parametrize("n, count, param", [(0, 2, "n"), (-3, 2, "n"), (4, -1, "count"),
                                             (4, -5, "count")])
def test_hunt_rejects_bad_n_and_count(n, count, param):
    lowest = 1 if param == "n" else 0
    value = n if param == "n" else count
    with pytest.raises(ValueError, match=f"^{param} must be at least {lowest}, got {value}$"):
        hunt_counterexamples("main1", n, count, seed=1)


def test_hunt_count_zero_is_an_empty_run():
    report = hunt_counterexamples("main1", 4, 0, seed=1)
    assert report.outcomes == [] and report.corpus == "random:n=4,count=0,seed=1"


def test_report_deterministic_across_runs_and_workers():
    corpus = list(all_graphs(4))
    a = run_suite(corpus, ["main1", "colon_intersection"], seed=5, corpus_name="c")
    b = run_suite(corpus, ["main1", "colon_intersection"], seed=5, corpus_name="c")
    c = run_suite(corpus, ["main1", "colon_intersection"], seed=5, jobs=2, corpus_name="c")
    assert a.canonical_body() == b.canonical_body() == c.canonical_body()


def test_pool_has_at_most_one_worker_per_graph(monkeypatch):
    started, handed = [], []

    class RecordingPool:  # records its size and tasks, runs them in this process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            handed.append((list(tasks), chunksize))
            return map(fn, handed[-1][0])

    monkeypatch.setattr("eil.suite.Pool", RecordingPool)
    corpus = ["A_", "Bw", "BW"]
    report = run_suite(corpus, ["main1"], jobs=64)
    assert started == [3]
    # one task per graph, handed over as the Graph itself
    assert handed == [([parse_graph6(g6) for g6 in corpus], 1)]
    assert report.canonical_body() == run_suite(corpus, ["main1"]).canonical_body()


@pytest.mark.parametrize("jobs", [1, 2])
def test_graph_with_own_labels_reports_as_its_graph6_line(jobs):
    # a Graph is read on x1..xn, as its graph6 line is, so the bodies agree
    G = parse_edge_list("a b\nb c\nc d\nd a\na e")
    g6 = emit_graph6(G)
    body = run_suite([G, "Bw"], ["all"], cross_check=True, jobs=jobs).canonical_body()
    for line in (g6, ">>graph6<<" + g6, g6 + "\r\n", ">>graph6<<" + g6 + "\r\n"):
        assert run_suite([line, "Bw"], ["all"], cross_check=True,
                         jobs=jobs).canonical_body() == body


def test_bad_corpus_item_is_named():
    with pytest.raises(Graph6Error) as err:
        run_suite(["A_", "B?x"], ["main1"])
    assert str(err.value) == "corpus item 2: trailing garbage after edge data (byte offset 2)"
    assert err.value.offset == 2


def two_hubs():
    """Two adjacent hubs with six leaves each: the pool at the hub edge has 12
    vertices, beyond the exhaustive limit of 2^10 subsets."""
    labels = ["u", "v"] + [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]
    edges = [("u", "v")] + [("u", f"a{i}") for i in range(6)] + [("v", f"b{i}") for i in range(6)]
    return graph_from_edges(labels, edges)


def test_sampled_deletion_sets_flagged():
    G = two_hubs()
    assert 1 << 12 > EXHAUSTIVE_LIMIT
    report = run_suite([G], ["deletion_bound"], seed=3)
    # the corpus is read on x1..xn, as graph6 gives them, so the hubs are x1 and x2
    hub_edge = [oc for oc in report.outcomes if set(oc.witness["edge"]) == {"x1", "x2"}]
    assert hub_edge and all(oc.witness.get("sampled") for oc in hub_edge)
    assert len(hub_edge) == SAMPLE_SIZE
    # empty and full deletion sets always included
    sizes = {len(oc.witness["A"]) for oc in hub_edge}
    assert 0 in sizes and 12 in sizes
    # leaf edges have small pools and stay exhaustive
    leaf_edge = [oc for oc in report.outcomes if set(oc.witness["edge"]) == {"x1", "x3"}]
    assert leaf_edge and not any(oc.witness.get("sampled") for oc in leaf_edge)
    assert report.failures == []


def test_sampled_sets_deterministic():
    G = two_hubs()
    a = run_suite([G], ["deletion_bound"], seed=9)
    b = run_suite([G], ["deletion_bound"], seed=9)
    assert a.canonical_body() == b.canonical_body()
    c = run_suite([G], ["deletion_bound"], seed=10)
    assert a.canonical_body() != c.canonical_body()


def test_suite_times_each_check_call(monkeypatch):
    # a clock that advances one second per read: every check call lasts
    # exactly 1000 ms, split evenly over the outcomes the call keeps
    ticks = itertools.count()
    monkeypatch.setattr("eil.suite.perf_counter", lambda: float(next(ticks)))
    report = run_suite([complete_graph(4)], ["triangle_deletion_packing", "main"])
    tri = [oc for oc in report.outcomes if oc.check_id == "triangle_deletion_packing"]
    assert [oc.elapsed_ms for oc in tri] == [250.0] * 4
    squares = [oc for oc in report.outcomes if oc.check_id.startswith("square_")]
    assert [oc.elapsed_ms for oc in squares] == [1000.0] * 3
    # called directly, a check does not time itself
    assert eil.checks.check_first_power(complete_graph(3)).elapsed_ms == 0.0


def test_sampled_draws_of_the_edge_set_checks_pinned():
    # pinned: at the hub edge every edge-set check draws its own seeded sample
    # of deletion sets (by check, graph6 and edge), while each check sweeps
    # the exhaustive leaf edges' pools itself; the body is the one each check
    # validating its own sets gave, so neither sharing the validation nor
    # sweeping an edge per call moved a draw
    report = run_suite([two_hubs()], ["even_connection_depth", "square_colon_depth",
                                      "square_colon_formula", "deletion_bound"], seed=3)
    assert sum(bool(oc.witness.get("sampled")) for oc in report.outcomes) == 4 * SAMPLE_SIZE
    digest = hashlib.sha256(report.canonical_body().encode()).hexdigest()
    assert digest == "398ee6f021d16650261437cb6f8a621f73fecaf6922a2ee33c3103e52f1ddbf7"


def test_sampled_edge_set_body_same_for_one_and_two_jobs():
    # a graph's samples are drawn by check, graph6 and edge, in whichever
    # worker gets the graph, so two workers give the body one gives
    corpus = [two_hubs(), two_hubs()]
    checks = ["colon_intersection", "even_connection_depth", "square_colon_depth",
              "square_colon_formula", "deletion_bound"]
    one = run_suite(corpus, checks, seed=3, jobs=1)
    assert sum(bool(oc.witness.get("sampled")) for oc in one.outcomes) == 2 * 4 * SAMPLE_SIZE
    assert one.canonical_body() == run_suite(corpus, checks, seed=3, jobs=2).canonical_body()


def test_global_check_runs_once_without_corpus():
    report = run_suite([], ["examples"], corpus_name="none")
    assert len(report.outcomes) == 3
    assert report.summary["fails"] == 0


def _head(report: VerificationReport) -> dict:
    """The report's head, key for key in the order the JSON file writes it."""
    return {"schema": "eil-verification-report/1", "corpus": report.corpus,
            "checks": list(report.checks), "field_char": report.field_char,
            "cross_check": report.cross_check, "seed": report.seed,
            "summary": report.summary, "findings": report.findings}


def _dict_rows(report: VerificationReport, timing: bool = True) -> list[dict]:
    """Every outcome as a dict row, elapsed_ms left out unless timing."""
    rows = [oc.to_dict() for oc in report.outcomes]
    if not timing:
        for row in rows:
            del row["elapsed_ms"]
    return rows


def _assert_same(got, want):
    """got == want for two texts or byte strings, failing fast with the first
    difference: pytest's own diff of long texts can take minutes."""
    if got != want:
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"differ from offset {k}: {got[k:k + 80]!r} != {want[k:k + 80]!r}")


def _reference_json(report: VerificationReport) -> str:
    """The JSON file by json.dumps alone: the head, then one row per line."""
    rows = ",".join("\n" + json.dumps(row) for row in _dict_rows(report))
    return json.dumps(_head(report))[:-1] + ', "outcomes": [' + rows + "\n]}\n"


def _reference_csv(report: VerificationReport) -> str:
    """The CSV file by csv.writer alone: a header, then one row per outcome."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check_id", "graph_id", "status", "lhs", "rhs", "field_char",
                     "elapsed_ms", "witness"])
    for oc in report.outcomes:
        writer.writerow([oc.check_id, oc.graph_id, oc.status, oc.lhs, oc.rhs,
                         "" if oc.field_char is None else oc.field_char, oc.elapsed_ms,
                         json.dumps(oc.witness, sort_keys=True) if oc.witness else ""])
    return buf.getvalue()


def test_report_json_schema_and_csv(tmp_path):
    report = run_suite(list(all_graphs(3)), ["main1"], cross_check=True, corpus_name="n<=3")
    jpath = tmp_path / "report.json"
    report.write(str(jpath), "json")
    payload = json.loads(jpath.read_text())
    assert payload["schema"] == "eil-verification-report/1"
    for key in ("corpus", "checks", "field_char", "seed", "summary", "findings", "outcomes"):
        assert key in payload
    row = payload["outcomes"][0]
    for key in ("check_id", "graph_id", "status", "lhs", "rhs", "witness",
                "field_char", "elapsed_ms"):
        assert key in row
    assert payload["summary"] == report.summary
    cpath = tmp_path / "report.csv"
    report.write(str(cpath), "csv")
    header = cpath.read_text().splitlines()[0]
    assert header == "check_id,graph_id,status,lhs,rhs,field_char,elapsed_ms,witness"
    for fmt in ("xml", "text", "JSON", ""):  # no silent CSV
        with pytest.raises(ValueError, match="json or csv"):
            report.write(str(tmp_path / "report.out"), fmt)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]


def test_report_write_streams_json_and_csv_rows(tmp_path):
    report = run_suite(list(all_graphs(4)), ["main", "colon_intersection", "deletion_bound"],
                       cross_check=True, corpus_name="n<=4")
    report.outcomes[0].elapsed_ms = 0.1 + 0.2  # a float whose repr is long
    report.findings.append({"kind": "note", "text": "caf\u00e9 \u2265 2", "nested": [1, None]})
    jpath, cpath = tmp_path / "report.json", tmp_path / "report.csv"
    report.write(str(jpath), "json")
    report.write(str(cpath), "csv")
    _assert_same(jpath.read_bytes(), _reference_json(report).encode())
    _assert_same(cpath.read_bytes(), _reference_csv(report).encode())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]


def _hubs_report() -> VerificationReport:
    """Sampled witnesses, deletion_bound's nested values, non-ASCII labels
    and a finding, in one report."""
    report = run_suite([two_hubs()], ["deletion_bound"], seed=3, corpus_name="h\u00fcbs")
    G = graph_from_edges(["\u00fc", "v", "\u00e9"], [("\u00fc", "v"), ("v", "\u00e9")])
    report.outcomes.extend(check_packing_deletion_bound(G, ("\u00fc", "v"), [("\u00e9",)]))
    report.findings.append({"kind": "note", "graph_id": "\u00fc", "char0": [2, None]})
    assert any(oc.witness.get("sampled") for oc in report.outcomes)
    return report


def test_report_json_is_head_and_rows_by_json_dumps(tmp_path):
    # the report encodes with one reused encoder; its bytes are json.dumps's
    report = _hubs_report()
    path = tmp_path / "report.json"
    report.write(str(path), "json")
    want = _reference_json(report)
    _assert_same(path.read_text(encoding="utf-8"), want)
    assert '"A": ["\\u00e9"], "values": {"A_plus_closed_u": ' in want


def test_canonical_body_is_json_dumps_of_rows_without_timing():
    # the reference builds every outcome as a dict without elapsed_ms and
    # dumps the whole with sorted keys; the body encodes the outcomes as found
    report = _hubs_report()
    report.outcomes[0].elapsed_ms = 0.1 + 0.2
    body = report.canonical_body()
    want = json.dumps({**_head(report), "outcomes": _dict_rows(report, timing=False)},
                      sort_keys=True)
    _assert_same(body, want)
    assert "elapsed_ms" not in body
    # a value json cannot encode still raises, wherever it sits in a witness
    report.outcomes[-1].witness["stray"] = object()
    with pytest.raises(TypeError, match="not JSON serializable"):
        report.canonical_body()
    report.outcomes[-1].witness["stray"] = [{"x": {1, 2}}]
    with pytest.raises(TypeError, match="not JSON serializable"):
        report.canonical_body()


def _synthetic_report(with_outcomes: bool) -> VerificationReport:
    """Every JSON leaf and layout case the report file must carry: non-ASCII
    text, non-finite floats, non-string keys, nested and empty containers."""
    report = VerificationReport("caf\u00e9 \u2265 n", ("x", "\u00fc"), 0, True, -1,
                                depth_comparisons=2)
    report.findings = [{"kind": "note", "nested": {"a": [1, {"b": [None, True, []]}]},
                        "empty": {}}, {}]
    if with_outcomes:
        witness = {"inf": float("inf"), "neg": float("-inf"), "t": (1, "\u2264"), 7: [],
                   "e": {}, "n": [[{}], {"k": None}], 2.5: False, None: "\n\"q\""}
        report.outcomes = [
            CheckOutcome("c\u00e9", "G?", "holds", 0.1 + 0.2, float("nan"), witness, None, 1e-7),
            CheckOutcome("x", "y", "fails", None, -3, None, 2, 0.0),
            CheckOutcome("x", "y", "holds", (), {}, {"edge": ["a", "b"]}, 0, 10 ** 20),
        ]
    return report


def _assert_one_outcome_per_line(text: str, rows: list[dict]):
    """The report file's layout: the head, then one json.dumps row per line."""
    lines = text.splitlines()
    assert len(lines) == len(rows) + 2
    assert [line.removesuffix(",") for line in lines[1:-1]] == [json.dumps(r) for r in rows]


def test_report_file_holds_one_outcome_per_line(tmp_path, catalog5):
    edge_sets = ["colon_intersection", "even_connection_depth", "square_colon_depth",
                 "square_colon_formula", "deletion_bound"]
    reports = [run_suite(catalog5, ["all"], cross_check=True), run_suite(catalog5, edge_sets),
               _synthetic_report(True), _synthetic_report(False)]
    for k, report in enumerate(reports):
        path = tmp_path / f"report{k}.json"
        report.write(str(path), "json")
        text = path.read_text(encoding="utf-8")
        rows = _dict_rows(report)
        _assert_same(json.dumps(json.loads(text)), json.dumps({**_head(report), "outcomes": rows}))
        _assert_one_outcome_per_line(text, rows)


def test_findings_carry_the_outcomes_graph_id(monkeypatch):
    monkeypatch.setattr(eil.checks, "depth_ideal_both", lambda I: (1, 2))
    report = run_suite([">>graph6<<Bw"], ["main1"], cross_check=True)
    assert [oc.graph_id for oc in report.outcomes] == ["Bw"]
    assert [f["graph_id"] for f in report.findings] == ["Bw"]


def test_one_finding_per_field_disagreement(monkeypatch):
    # main runs the three square checks, which each ask for the depth of the
    # same I(P4)^2: three comparisons, one disagreement, one finding
    monkeypatch.setattr(eil.checks, "depth_ideal_both", lambda I: (1, 2))
    for checks, comparisons in ((["main"], 3), (["square_general"], 1)):
        report = run_suite([path_graph(4)], checks, cross_check=True)
        assert (len(report.findings), report.depth_comparisons) == (1, comparisons), checks
        assert report.findings[0]["graph_id"] == emit_graph6(path_graph(4))


def test_run_suite_accepts_graph6_lines():
    report = run_suite(["Bw", "A_"], ["first_power"])
    assert [oc.graph_id for oc in report.outcomes] == ["Bw", "A_"]


# ---------------------------------------------------------------------------
# garbage collection: run_suite freezes finished rows and restores the state


def test_run_suite_makes_no_cyclic_garbage():
    # a freeze would hold cyclic garbage until the run ends
    gc.collect()
    gc.disable()
    try:
        run_suite(all_graphs(5), ["all"])
        assert gc.collect() == 0
    finally:
        gc.enable()


def _watching_first_power(seen, raise_on=None):
    """A check_first_power double recording the freeze count it sees, which
    raises on graph number raise_on (counted from 1)."""
    def watching(G, computer=None):
        seen.append(gc.get_freeze_count())
        if len(seen) == raise_on:
            raise RuntimeError("check double")
        return CheckOutcome("first_power", emit_graph6(G), FAILS, 0, 1)
    return watching


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raise_on", [None, 2])
def test_run_suite_restores_the_gc_state(monkeypatch, enabled, raise_on):
    # a first run thaws the immortal tuples that Python 3.12.1 freezes at start-up
    run_suite(["A_"], ["first_power"])
    seen = []
    monkeypatch.setattr(eil.checks, "check_first_power", _watching_first_power(seen, raise_on))
    if not enabled:
        gc.disable()
    try:
        before = (gc.isenabled(), gc.get_freeze_count())
        if raise_on is None:
            run_suite(["A_", "Bw", "BW"], ["first_power"])
        else:
            with pytest.raises(RuntimeError, match="check double"):
                run_suite(["A_", "Bw", "BW"], ["first_power"])
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        gc.enable()
    # the second graph's check runs with the first graph's rows frozen
    assert before[1] == seen[0] == 0 < seen[1]


def test_a_callers_frozen_objects_are_left_alone(monkeypatch):
    seen = []
    monkeypatch.setattr(eil.checks, "check_first_power", _watching_first_power(seen))
    gc.freeze()
    try:
        count = gc.get_freeze_count()
        run_suite(["A_", "Bw", "BW"], ["first_power"])
        assert gc.get_freeze_count() == count
    finally:
        gc.unfreeze()
    assert seen == [count] * 3


def test_frozen_rows_give_the_same_body_at_one_and_two_jobs():
    assert _body_sha(["all"], jobs=2) == GOLDEN_ALL


# sha256 of canonical_body() for fixed n <= 5 runs; any change to a verdict,
# a depth value, a witness or the outcome order moves these hashes
GOLDEN_MAIN_EXAMPLES = "80bfff3127d05fac811020d45c0cfa0d11258974b465dc0045d958201b9d1e4d"
GOLDEN_ALL = "bb74a5bd5bb1bdaadd429007a772edd9ed7e09ed1c842359ba4befcbc4dfe6d7"
GOLDEN_EDGE_SETS = "7ba167f9f9d7a6520178b09117c55d547642b0d4ed3f1d16bdb4a4edcebe437d"
EDGE_SET_IDS = ["colon_intersection", "even_connection_depth", "square_colon_depth",
                "square_colon_formula", "deletion_bound"]


def _body_sha(checks, max_n=5, jobs=1) -> str:
    report = run_suite(all_graphs(max_n), checks, GF2, cross_check=True, jobs=jobs)
    body, digest, step = report.canonical_body(), hashlib.sha256(), 1 << 20
    for k in range(0, len(body), step):  # 1 MB at a time: no bytes copy of the body
        digest.update(body[k:k + step].encode())
    return digest.hexdigest()


def test_golden_report_main_examples_n5():
    assert _body_sha(["main", "examples"]) == GOLDEN_MAIN_EXAMPLES


def test_golden_report_all_n5():
    assert _body_sha(["all"]) == GOLDEN_ALL


def test_golden_report_edge_sets_n5():
    # the edge-set pieces are shared by every graph with the same G - A, so
    # this pins their verdicts and depth_comparisons apart from the other checks
    assert _body_sha(EDGE_SET_IDS) == GOLDEN_EDGE_SETS


# the same hashes for longer runs, outside the default test selection: run
# them with `python -m pytest -m slow --durations=15`, which lists each one's
# time.  Every golden cross-checks both fields, so its summary counts depth
# comparisons: the n <= 7 `all` body of `eil verify`, which does not and
# names its corpus generated:max_n=7, has another hash (b7a81958...9a1a).
GOLDEN_ALL_N6 = "bf64cc68fab25bd1983339089f839186bc84a54eb07b278f8cd65e4972a7eb32"
GOLDEN_MAIN_N7 = "251dc732798478be70820167d9a713f01c538a23a06f837f3147bcf6e15c49bf"
GOLDEN_ALL_N7 = "4f5c4e9bd624b253d5f1ee7029e6467f71227b241d89aa8245c424b0e021b03d"
GOLDEN_MAIN_N8 = "0159c23e3d2350bf66584bd739de116f1d55c184f753f4cc06dfcf8fb1efbdfa"


@pytest.mark.slow
def test_golden_report_all_n6():
    assert _body_sha(["all"], max_n=6) == GOLDEN_ALL_N6


@pytest.mark.slow
def test_golden_report_main_n7_jobs2():
    assert _body_sha(["main"], max_n=7, jobs=2) == GOLDEN_MAIN_N7


@pytest.mark.slow
def test_golden_report_all_n7_jobs2():
    assert _body_sha(["all"], max_n=7, jobs=2) == GOLDEN_ALL_N7


@pytest.mark.slow
def test_golden_report_main_n8_jobs2():
    assert _body_sha(["main"], max_n=8, jobs=2) == GOLDEN_MAIN_N8


def test_every_check_clean_on_small_catalog():
    report = run_suite(list(all_graphs(4)), ["all"], cross_check=True,
                       corpus_name="n<=4")
    assert report.summary["fails"] == 0
    assert report.summary["findings"] == 0
    seen = {oc.check_id for oc in report.outcomes}
    assert set(SUITE_ALIASES["all"]) == seen


def test_hunter_finds_nothing_on_true_statement():
    report = hunt_counterexamples("main1", 6, 8, seed=7)
    assert report.failures == []
    assert report.summary["outcomes"] == 8


def test_hunter_reports_failures_with_replayable_witness(monkeypatch):
    # a check forced to fail on every graph: each hunted graph is reported,
    # and its id replays to a graph on the hunted vertex count
    def failing(G, computer=None):
        return CheckOutcome("first_power", emit_graph6(G), FAILS, 0, 1)

    monkeypatch.setattr(eil.checks, "check_first_power", failing)
    report = hunt_counterexamples("first_power", 4, 2, seed=1)
    fails = [oc for oc in report.outcomes if oc.status == FAILS]
    assert len(fails) == 2
    for oc in fails:
        assert parse_graph6(oc.graph_id).n == 4


# ---------------------------------------------------------------------------
# CLI


def test_cli_alpha2_edge_list(tmp_path, capsys):
    path = tmp_path / "wk3.txt"
    path.write_text(wk3_edge_text())
    assert main(["alpha2", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "alpha2=3 centers={z1,z2,z3}"


def test_cli_alpha2_edgeless_inline(capsys):
    assert main(["alpha2", "C?"]) == 0
    assert "alpha2=4" in capsys.readouterr().out


def test_cli_alpha2_bad_graph6(capsys):
    assert main(["alpha2", "A_X"]) == 2
    assert "byte offset" in capsys.readouterr().err


def test_cli_alpha2_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\nBw\n"))
    assert main(["alpha2", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("alpha2=1")


def test_cli_depth_path_square(tmp_path, capsys):
    path = tmp_path / "p4.txt"
    path.write_text("a b\nb c\nc d")
    assert main(["depth", str(path), "--power", "2"]) == 0
    out = capsys.readouterr().out
    assert "depth=2" in out and "bound=2" in out and "slack=0" in out


def test_cli_depth_single_edge(capsys):
    assert main(["depth", "A_", "--power", "1"]) == 0
    out = capsys.readouterr().out
    assert "depth=2" in out and "bound=2" in out


def test_cli_depth_symbolic_triangle(capsys):
    assert main(["depth", "Bw", "--symbolic"]) == 0
    out = capsys.readouterr().out
    assert "bound=1" in out and "rule=symbolic_square" in out


def test_cli_field_names_match_the_printed_ones_in_any_case(capsys):
    # --field takes back what the depth line prints (field=F2, field=Q)
    outputs = {}
    for names in (("2", "F2", "f2"), ("q", "Q", "0"), ("both", "BOTH", "Both")):
        for name in names:
            assert main(["depth", "Bw", "--power", "2", "--field", name]) == 0, name
            outputs.setdefault(names[0], set()).add(capsys.readouterr().out)
    assert {k: len(v) for k, v in outputs.items()} == {"2": 1, "q": 1, "both": 1}
    assert "field=F2\n" in outputs["2"].pop() and "field=Q\n" in outputs["q"].pop()
    assert main(["verify", "--suite", "main1", "--max-n", "3", "--field", "Q"]) == 0
    for bad in ("F3", "QQ", "3", ""):
        assert main(["depth", "Bw", "--field", bad]) == 2, bad
        assert "unknown field" in capsys.readouterr().err


def test_cli_depth_symbolic_conflicts_with_power_one(capsys):
    assert main(["depth", "Bw", "--symbolic", "--power", "1"]) == 2


def test_cli_depth_both_fields(capsys, monkeypatch):
    assert main(["depth", "Bw", "--power", "2", "--field", "both"]) == 0
    assert capsys.readouterr().out == (
        "graph=Bw alpha2=1 depth=1 bound=0 slack=1 rule=wk3_free field=F2 "
        "field_agreement=ok\n"
    )
    # a disagreement between the fields is reported, never resolved
    monkeypatch.setattr("eil.checks.depth_ideal_both", lambda I: (1, 2))
    assert main(["depth", "Bw", "--power", "2", "--field", "both"]) == 0
    assert capsys.readouterr().out == (
        "graph=Bw alpha2=1 depth=1 bound=0 slack=1 rule=wk3_free field=F2 "
        "finding=field_disagreement char0=2\n"
    )


# sha256 of the whole `eil depth FILE FLAGS --field both` output over the 47
# edged classes with n <= 5, recorded while the command still spelled out the
# bounds itself; the whiskered triangle (n = 6) is the only general-rule line
GOLDEN_DEPTH_CLI_N5 = {
    "--power 1": "caa5293287111e42fee99bb15a9e84ceed8660f0d260cb956d258e0df2d63aab",
    "--power 2": "019c36f5803e027c8c79e272cf7cac9ddc001c40bcaaea3a5fdcf94425b2d867",
    "--symbolic": "de9c15ada7156835a5e5eb9dfe16384c9d6dfa77b34309a6970b5434fddb0dcb",
}


@pytest.mark.parametrize("flags", sorted(GOLDEN_DEPTH_CLI_N5))
def test_cli_depth_golden_n5(flags, tmp_path, capsys):
    path = tmp_path / "n5.g6"
    path.write_text("".join(emit_graph6(G) + "\n" for G in all_graphs(5) if any(G.adj)))
    assert main(["depth", str(path), *flags.split(), "--field", "both"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DEPTH_CLI_N5[flags]


def test_cli_depth_general_rule(capsys):
    g6 = emit_graph6(whiskered_triangle())
    assert main(["depth", g6, "--power", "2", "--field", "both"]) == 0
    assert main(["depth", g6, "--symbolic", "--field", "q"]) == 0
    assert capsys.readouterr().out == (
        "graph=E{O_ alpha2=3 depth=1 bound=1 slack=0 rule=general field=F2 "
        "field_agreement=ok\n"
        "graph=E{O_ alpha2=3 depth=3 bound=3 slack=0 rule=symbolic_square field=Q\n"
    )


def test_cli_depth_edgeless_rejected(capsys):
    assert main(["depth", "A?"]) == 2


def test_cli_depth_cap(capsys):
    # 30 vertices square past the default 24-variable polarization cap
    from eil.graphs import emit_graph6, random_graph
    G = random_graph(30, random.Random(1))
    assert len(G.edges()) > 0
    assert main(["depth", emit_graph6(G), "--power", "2"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_depth_cap_counts_only_vertices_on_an_edge(tmp_path, capsys):
    # one edge and 30 isolated vertices: I(G)^2 polarizes on a and b alone,
    # as the depth engine drops every variable no generator uses
    path = tmp_path / "graph.txt"
    path.write_text("a b\n" + "".join(f"z{k}\n" for k in range(30)))
    assert main(["depth", str(path), "--power", "2"]) == 0
    assert "depth=32 " in capsys.readouterr().out


def test_cli_help_explains_every_option(capsys):
    # argparse prints an option without a help string as its name and
    # metavar alone, with no text beside it or on an indented line below
    listed = {"alpha2": {"--edges"}, "depth": {"--field", "--max-polarized"},
              "verify": {"--field", "--seed"}, "hunt": {"--field", "--seed", "--max-polarized"}}
    for command, options in listed.items():
        assert main([command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines() + [""]
        named = set()
        for k, line in enumerate(lines):
            m = re.fullmatch(r"  (-\S+)((?: \S+)*)(  +\S.*)?", line)
            if m:
                named.add(m.group(1))
                assert m.group(3) or lines[k + 1].startswith(" " * 24), (command, line)
        assert options <= named, command


def test_cli_verify_examples(capsys):
    # the sharp-instance suite carries its own graphs, no corpus needed
    assert main(["verify", "--suite", "examples"]) == 0
    out = capsys.readouterr().out
    assert "fails=0" in out and "holds=3" in out


def test_cli_verify_main_small(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "verify", "--suite", "main", "--max-n", "4",
        "--output", str(out_path), "--format", "json", "--jobs", "1",
    ])
    assert code == 0
    text = out_path.read_text()
    payload = json.loads(text)
    assert payload["summary"]["fails"] == 0
    assert payload["corpus"] == "generated:max_n=4"
    assert len(payload["outcomes"]) == payload["summary"]["outcomes"]
    _assert_one_outcome_per_line(text, payload["outcomes"])


def test_cli_verify_budget_stops_the_catalog(monkeypatch, capsys):
    # the first three classes are the one on 1 vertex and the two on 2, so
    # no level above 3 may be built however large --max-n is
    real = eil.catalog.graph_classes

    def small_levels(n):
        if n > 3:
            raise AssertionError(f"catalog level {n} built")
        return real(n)

    monkeypatch.setattr(eil.catalog, "graph_classes", small_levels)
    assert main(["verify", "--suite", "first_power", "--max-n", "9", "--budget", "3"]) == 0
    assert "outcomes=3 " in capsys.readouterr().out


def test_cli_verify_corpus_of_five_disjoint_5_cycles(tmp_path, capsys, monkeypatch):
    # 10^5 5! automorphisms and one edge orbit; a search that visited every
    # leaf never finished the edge orbits, so search nodes are capped at n^2 / 2
    calls = []
    visit = eil.catalog._visit

    def counted(*args):
        calls.append(1)
        assert len(calls) <= 25 * 25 // 2, "search nodes past n^2 / 2"
        return visit(*args)

    monkeypatch.setattr(eil.catalog, "_visit", counted)
    corpus = tmp_path / "c5x5.g6"
    corpus.write_text("Xhc?GC@@G??@?@??_@G????C??G??G??c??????G???_??@???H\n")
    assert main(["verify", "--corpus", str(corpus), "--suite", "colon_intersection"]) == 0
    assert "summary outcomes=25 holds=25 fails=0 " in capsys.readouterr().out


def test_cli_verify_corpus_file(tmp_path, capsys):
    lines = ["A_", "Bw", emit_graph6(path_graph(4))]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("# three graphs\n" + "\n".join(lines) + "\n")
    out_path = tmp_path / "report.json"
    assert main(["verify", "--suite", "main1", "--corpus", str(corpus),
                 "--output", str(out_path), "--format", "json"]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["corpus"] == f"file:{corpus}"
    assert [row["graph_id"] for row in payload["outcomes"]] == lines
    assert "holds=3" in capsys.readouterr().out


def test_cli_report_formats_need_an_output_file(tmp_path, capsys):
    for fmt in ("json", "csv"):
        for argv in (["verify", "--suite", "examples"],
                     ["hunt", "--check", "main1", "--n", "4", "--random", "2", "--seed", "1"]):
            assert main([*argv, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert "--output" in captured.err and captured.out == ""
    out_path = tmp_path / "hunt.csv"
    assert main(["hunt", "--check", "main1", "--n", "4", "--random", "2", "--seed", "1",
                 "--format", "csv", "--output", str(out_path)]) == 0
    assert out_path.read_text().startswith("check_id,graph_id,status")


def test_cli_verify_reports_forced_field_disagreements(monkeypatch, capsys):
    # the rational depth is forced one above the mod-2 one: every depth is a
    # finding, and findings never change a verdict or the exit code
    depth = eil.checks.depth_ideal

    def disagreeing(I):
        d = depth(I, GF2)
        return d, d + 1

    monkeypatch.setattr(eil.checks, "depth_ideal_both", disagreeing)
    report = run_suite(list(all_graphs(4)), ["main1", "examples"], cross_check=True)
    assert report.summary["fails"] == 0
    assert len(report.findings) == report.depth_comparisons > 3
    assert all(f["kind"] == "field_disagreement" and f["char0"] == f["char2"] + 1
               for f in report.findings)
    ids = {oc.graph_id for oc in report.outcomes}
    assert {f["graph_id"] for f in report.findings} <= ids
    assert main(["verify", "--suite", "main1", "--max-n", "4", "--field", "both",
                 "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    findings = [line for line in lines if line.startswith("finding ")]
    assert findings and all("kind=field_disagreement" in line and "graph_id=" in line
                            for line in findings)
    assert "fails=0" in lines[0]


def test_cli_prints_forced_failures_and_exits_one(monkeypatch, capsys):
    def failing(G, computer=None):
        return CheckOutcome("first_power", emit_graph6(G), FAILS, 0, 1)

    monkeypatch.setattr(eil.checks, "check_first_power", failing)
    assert main(["verify", "--suite", "first_power", "--corpus", "Bw", "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert "fails=1" in out and "fail check=first_power graph=Bw lhs=0 rhs=1" in out
    assert main(["hunt", "--check", "first_power", "--n", "4", "--random", "2",
                 "--seed", "1", "--jobs", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    hits = [line for line in lines if line.startswith("counterexample ")]
    assert len(hits) == 2
    for line in hits:
        assert line.startswith("counterexample check=first_power graph=")
        parse_graph6(line.split("graph=")[1].split()[0])  # ids replay


def test_cli_verify_unknown_check(capsys):
    assert main(["verify", "--suite", "bogus", "--max-n", "3"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_cli_verify_corrupt_corpus_names_line(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("A_\nA_X\n")
    assert main(["verify", "--suite", "main1", "--corpus", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_graph6_error_offset_counts_leading_blanks(tmp_path, capsys):
    # the X is byte 4 of the line as written, and byte 2 once it is stripped
    path = tmp_path / "indented.g6"
    path.write_text("A_\n  A_X\n")
    assert main(["alpha2", str(path)]) == 2
    assert capsys.readouterr().err.endswith(
        "line 2: trailing garbage after edge data (byte offset 4)\n")
    # a stripped no-break space is two bytes in UTF-8, so the X is byte 4 again
    path.write_bytes(b"\xc2\xa0A_X\n")
    assert main(["alpha2", str(path)]) == 2
    assert capsys.readouterr().err.endswith(
        "line 1: trailing garbage after edge data (byte offset 4)\n")


def test_cli_lines_end_at_newline_only(tmp_path, capsys):
    # a form feed or NEL inside a line is blank space, not a line break
    path = tmp_path / "one-line.txt"
    for text, message in (("A_\x0cA_\n", "line 1: loop 'A_' 'A_'"),
                          ("a b\x85c d\n", "line 1: expected 'u v' or 'u', got 4 tokens")):
        path.write_bytes(text.encode())
        assert main(["alpha2", str(path)]) == 2
        assert capsys.readouterr().err.endswith(message + "\n")
    for text in (b"a b\nc d\n", b"a b\r\nc d\r\n"):  # CRLF reads as LF does
        path.write_bytes(text)
        assert main(["alpha2", str(path)]) == 0
        assert "alpha2=2" in capsys.readouterr().out


def test_cli_missing_file_is_not_read_as_graph6(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, name in ((["verify", "--suite", "main1", "--corpus", "corpus_typo.g6"],
                        "corpus_typo.g6"),
                       (["alpha2", "missing/graphs.txt"], "missing/graphs.txt")):
        assert main(argv) == 2
        assert f"{name}: no such file" in capsys.readouterr().err
    assert main(["alpha2", ">>graph6<<C?"]) == 0  # the optional header stays inline
    assert "alpha2=4" in capsys.readouterr().out


def test_cli_unreadable_input_or_report_directory_is_a_usage_error(tmp_path, capsys,
                                                                   monkeypatch):
    # exit 2 naming the path, before any check runs: no traceback, no report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graphs").mkdir()

    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("eil.cli.run_suite", no_run)
    monkeypatch.setattr("eil.cli.hunt_counterexamples", no_run)
    report = "missing/r.json"
    for argv, name in ((["alpha2", "graphs"], "graphs"),
                       (["verify", "--suite", "main", "--corpus", "graphs"], "graphs"),
                       (["verify", "--suite", "examples", "--output", report], report),
                       (["hunt", "--n", "3", "--random", "1", "--seed", "1",
                         "--output", report], report)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["graphs"]


def test_cli_report_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys,
                                                                  monkeypatch):
    # an --output naming a directory, or a file the file system will not
    # create (here a name longer than any file system allows), is refused
    # before any check runs: both exit 2 naming the path, with no traceback
    # and no report or temporary file left
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reports").mkdir()
    runs = []
    for name in ("run_suite", "hunt_counterexamples"):
        def counting(*args, _real=getattr(eil.cli, name), **kwargs):
            runs.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(eil.cli, name, counting)
    for argv in (["verify", "--suite", "main", "--max-n", "2"],
                 ["hunt", "--n", "3", "--random", "1", "--seed", "1"]):
        for report, reason in (("reports", "is a directory"),
                               ("x" * 300 + ".json", "File name too long")):
            runs.clear()
            assert main([*argv, "--format", "json", "--output", report]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {report}: {reason}\n"
            assert runs == []
    assert [p.name for p in tmp_path.iterdir()] == ["reports"]
    assert not any((tmp_path / "reports").iterdir())


def test_cli_report_path_probe_leaves_an_existing_report_alone(tmp_path, monkeypatch):
    # the probe before the run neither truncates nor touches a report that is
    # already there; a run that then dies leaves it byte for byte, mode and all
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "r.json"
    report.write_text("an earlier report\n")
    report.chmod(0o640)

    class Died(Exception):
        pass

    def dies(*args, **kwargs):
        raise Died

    monkeypatch.setattr(eil.cli, "run_suite", dies)
    monkeypatch.setattr(eil.cli, "hunt_counterexamples", dies)
    for argv in (["verify", "--suite", "main", "--max-n", "2"],
                 ["hunt", "--n", "3", "--random", "1", "--seed", "1"]):
        with pytest.raises(Died):
            main([*argv, "--format", "json", "--output", "r.json"])
        assert report.read_text() == "an earlier report\n"
        assert stat.S_IMODE(report.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_report_file_mode_follows_the_umask_and_survives_overwrite(tmp_path):
    # a new report gets what open(path, "w") gives; an overwritten one keeps its mode
    report = run_suite([], ["examples"])
    old = os.umask(0o022)
    try:
        for fmt in ("json", "csv"):
            path = tmp_path / f"r.{fmt}"
            report.write(str(path), fmt)
            assert stat.S_IMODE(path.stat().st_mode) == 0o644
            path.chmod(0o664)
            report.write(str(path), fmt)
            assert stat.S_IMODE(path.stat().st_mode) == 0o664
        os.umask(0o077)
        report.write(str(tmp_path / "private.json"), "json")
        assert stat.S_IMODE((tmp_path / "private.json").stat().st_mode) == 0o600
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["private.json", "r.csv", "r.json"]


def test_cli_input_without_graphs_rejected(tmp_path, capsys):
    path = tmp_path / "comments.g6"
    path.write_text("# no graph here\n\n# nor here\n")
    for argv in (["alpha2", str(path)], ["depth", str(path)],
                 ["verify", "--suite", "main", "--corpus", str(path)]):
        assert main(argv) == 2
        assert "no graphs in input" in capsys.readouterr().err


def test_cli_graph6_trailing_comment(tmp_path, capsys):
    # the comment goes before the format is read: two graph6 lines, not an edge list
    path = tmp_path / "commented.g6"
    path.write_text("Bw # P3\nCF\n")
    assert main(["alpha2", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha2=1 centers={x1}", "alpha2=1 centers={x4}"]
    assert main(["verify", "--suite", "main1", "--corpus", str(path)]) == 0
    assert "summary outcomes=2 holds=2 " in capsys.readouterr().out


def test_cli_empty_sweeps_rejected(capsys):
    for argv in (["verify", "--suite", "main", "--max-n", "0"],
                 ["verify", "--suite", "main", "--max-n", "-1"],
                 ["hunt", "--n", "0", "--random", "1", "--seed", "1"],
                 ["hunt", "--n", "-2", "--random", "1", "--seed", "1"],
                 ["hunt", "--n", "3", "--random", "-3", "--seed", "1"],
                 ["verify", "--suite", "main", "--max-n", "3", "--budget", "0"],
                 ["verify", "--suite", "main", "--max-n", "3", "--budget", "-1"],
                 ["verify", "--suite", "main", "--max-n", "3", "--jobs", "0"],
                 ["hunt", "--n", "3", "--random", "1", "--seed", "1", "--jobs", "0"],
                 *(["depth", "Bw", "--max-polarized", cap] for cap in ("0", "-3")),
                 *(["hunt", "--n", "3", "--random", "1", "--seed", "1",
                    "--max-polarized", cap] for cap in ("0", "-3"))):
        assert main(argv) == 2
        assert "must be at least" in capsys.readouterr().err
    # no random graphs at all is a valid request: only global checks run
    assert main(["hunt", "--check", "examples", "--n", "3", "--random", "0",
                 "--seed", "1"]) == 0


def test_cli_verify_requires_one_corpus_source(capsys):
    assert main(["verify", "--suite", "main1"]) == 2
    assert main(["verify", "--suite", "main1", "--max-n", "3", "--corpus", "x"]) == 2


def test_cli_hunt_ok(tmp_path, capsys):
    out_path = tmp_path / "hunt.json"
    code = main([
        "hunt", "--check", "main1", "--n", "6", "--random", "5", "--seed", "7",
        "--output", str(out_path),
    ])
    assert code == 0
    assert json.loads(out_path.read_text())["summary"]["fails"] == 0


def test_cli_hunt_takes_a_comma_list(tmp_path, capsys):
    out_path = tmp_path / "hunt.json"
    assert main(["hunt", "--check", "colon_intersection,deletion_bound", "--n", "4",
                 "--random", "1", "--seed", "1", "--output", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["checks"] == ["colon_intersection", "deletion_bound"]
    assert {row["check_id"] for row in payload["outcomes"]} <= set(payload["checks"])


def test_cli_hunt_missing_seed(capsys):
    assert main(["hunt", "--check", "main1", "--n", "6", "--random", "5"]) == 2


def test_cli_hunt_cap(capsys):
    assert main(["hunt", "--check", "main1", "--n", "40", "--random", "1",
                 "--seed", "1"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_hunt_cap_follows_needed_depth(capsys):
    # depths of squarefree ideals need at most n variables, squares up to 2n
    assert main(["hunt", "--check", "even_connection_depth", "--n", "13",
                 "--random", "0", "--seed", "1"]) == 0
    assert main(["hunt", "--check", "main1", "--n", "13", "--random", "0",
                 "--seed", "1"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_hunt_cap_skips_global_checks(capsys):
    # the sharp examples are fixed graphs: n sizes none of their depths
    for n in ("13", "30"):
        assert main(["hunt", "--check", "examples", "--n", n, "--random", "0",
                     "--seed", "1"]) == 0
        assert "fails=0" in capsys.readouterr().out
    assert main(["hunt", "--check", "main1", "--n", "13", "--random", "0",
                 "--seed", "1"]) == 2
    assert "26 polarized variables" in capsys.readouterr().err


def test_cli_jobs_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EIL_JOBS", "2")
    assert main(["verify", "--suite", "main1", "--max-n", "3"]) == 0
    for bad in ("zebra", "0", "-2"):
        monkeypatch.setenv("EIL_JOBS", bad)
        assert main(["verify", "--suite", "main1", "--max-n", "3"]) == 2
        assert "EIL_JOBS" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    assert main(["frobnicate"]) == 2
