"""Suite driver (determinism, sampling, parallel workers, reports) and CLI."""

import hashlib
import itertools
import json
import random

import pytest

from eil.catalog import all_graphs
from eil.cli import main
from eil.depth import GF2
import eil.checks
from eil.checks import FAILS, CheckOutcome
from eil.graphs import (
    complete_graph,
    emit_graph6,
    empty_graph,
    graph_from_edges,
    parse_graph6,
    path_graph,
    whiskered_triangle,
)
from eil.suite import (
    CHECKS,
    EXHAUSTIVE_LIMIT,
    SAMPLE_SIZE,
    SUITE_ALIASES,
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
        edge = G.edge_labels()[0] if G.num_edges() else None
        for fn, ids in ids_of.items():
            kind = {CHECKS[name].kind for name in ids}.pop()
            if kind in ("edge", "edge_set") and edge is None:
                continue
            args = {"graph": (G,), "edge": (G, edge), "edge_set": (G, edge, ()),
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
    started = []

    class RecordingPool:  # records its size, runs the tasks in this process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr("eil.suite.Pool", RecordingPool)
    corpus = ["A_", "Bw", "BW"]
    report = run_suite(corpus, ["main1"], jobs=64)
    assert started == [3]
    assert report.canonical_body() == run_suite(corpus, ["main1"]).canonical_body()


def test_sampled_deletion_sets_flagged():
    # two adjacent hubs with six leaves each: the pool at the hub edge has 12
    # vertices, beyond the exhaustive limit of 2^10 subsets
    labels = ["u", "v"] + [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]
    edges = [("u", "v")] + [("u", f"a{i}") for i in range(6)] + [("v", f"b{i}") for i in range(6)]
    G = graph_from_edges(labels, edges)
    assert 1 << 12 > EXHAUSTIVE_LIMIT
    report = run_suite([G], ["deletion_bound"], seed=3)
    # the corpus travels as graph6, so labels become x1..x14 with the hubs first
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
    labels = ["u", "v"] + [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(6)]
    edges = [("u", "v")] + [("u", f"a{i}") for i in range(6)] + [("v", f"b{i}") for i in range(6)]
    G = graph_from_edges(labels, edges)
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


def test_global_check_runs_once_without_corpus():
    report = run_suite([], ["examples"], corpus_name="none")
    assert len(report.outcomes) == 3
    assert report.summary["fails"] == 0


def test_report_json_schema_and_csv(tmp_path):
    report = run_suite(list(all_graphs(3)), ["main1"], cross_check=True, corpus_name="n<=3")
    payload = report.to_json_dict()
    assert payload["schema"] == "eil-verification-report/1"
    for key in ("corpus", "checks", "field_char", "seed", "summary", "findings", "outcomes"):
        assert key in payload
    row = payload["outcomes"][0]
    for key in ("check_id", "graph_id", "status", "lhs", "rhs", "witness",
                "field_char", "elapsed_ms"):
        assert key in row
    jpath = tmp_path / "report.json"
    report.write(str(jpath), "json")
    assert json.loads(jpath.read_text())["summary"] == report.summary
    cpath = tmp_path / "report.csv"
    report.write(str(cpath), "csv")
    header = cpath.read_text().splitlines()[0]
    assert header == "check_id,graph_id,status,lhs,rhs,field_char,elapsed_ms,witness"
    for fmt in ("xml", "text", "JSON", ""):  # no silent CSV
        with pytest.raises(ValueError, match="json or csv"):
            report.write(str(tmp_path / "report.out"), fmt)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]


def test_report_write_streams_the_bytes_of_to_json(tmp_path):
    report = run_suite(list(all_graphs(4)), ["main", "colon_intersection", "deletion_bound"],
                       cross_check=True, corpus_name="n<=4")
    report.outcomes[0].elapsed_ms = 0.1 + 0.2  # a float whose repr is long
    report.findings.append({"kind": "note", "text": "caf\u00e9 \u2265 2", "nested": [1, None]})
    jpath, cpath = tmp_path / "report.json", tmp_path / "report.csv"
    report.write(str(jpath), "json")
    report.write(str(cpath), "csv")
    assert jpath.read_bytes() == report.to_json().encode()
    assert cpath.read_bytes() == report.to_csv().encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]


def test_run_suite_accepts_graph6_lines():
    report = run_suite(["Bw", "A_"], ["first_power"])
    assert [oc.graph_id for oc in report.outcomes] == ["Bw", "A_"]


# sha256 of canonical_body() for fixed n <= 5 runs; any change to a verdict,
# a depth value, a witness or the outcome order moves these hashes
GOLDEN_MAIN_EXAMPLES = "80bfff3127d05fac811020d45c0cfa0d11258974b465dc0045d958201b9d1e4d"
GOLDEN_ALL = "bb74a5bd5bb1bdaadd429007a772edd9ed7e09ed1c842359ba4befcbc4dfe6d7"


def _body_sha(checks, max_n=5, jobs=1) -> str:
    report = run_suite(all_graphs(max_n), checks, GF2, cross_check=True, jobs=jobs)
    return hashlib.sha256(report.canonical_body().encode()).hexdigest()


def test_golden_report_main_examples_n5():
    assert _body_sha(["main", "examples"]) == GOLDEN_MAIN_EXAMPLES


def test_golden_report_all_n5():
    assert _body_sha(["all"]) == GOLDEN_ALL


# the same hashes for longer runs, outside the default test selection: run
# them with `python -m pytest -m slow` (about 40 s and 2 min on 2 CPUs)
GOLDEN_ALL_N6 = "bf64cc68fab25bd1983339089f839186bc84a54eb07b278f8cd65e4972a7eb32"
GOLDEN_MAIN_N7 = "251dc732798478be70820167d9a713f01c538a23a06f837f3147bcf6e15c49bf"


@pytest.mark.slow
def test_golden_report_all_n6():
    assert _body_sha(["all"], max_n=6) == GOLDEN_ALL_N6


@pytest.mark.slow
def test_golden_report_main_n7_jobs2():
    assert _body_sha(["main"], max_n=7, jobs=2) == GOLDEN_MAIN_N7


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


def test_hunter_reports_failures_with_replayable_witness():
    # a deliberately false check is simulated by hunting with a tightened
    # bound: reuse square_triangle_free on graphs with triangles would be
    # not_applicable, so instead check that failures, if any, carry ids
    report = hunt_counterexamples("sharp_examples", 4, 1, seed=1)
    for oc in report.outcomes:
        parse_graph6(oc.graph_id)  # ids always replay


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
    assert G.num_edges() > 0
    assert main(["depth", emit_graph6(G), "--power", "2"]) == 2
    assert "cap" in capsys.readouterr().err


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
    payload = json.loads(out_path.read_text())
    assert payload["summary"]["fails"] == 0
    assert payload["corpus"] == "generated:max_n=4"


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
    def failing(G, field=GF2):
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


def test_cli_input_without_graphs_rejected(tmp_path, capsys):
    path = tmp_path / "comments.g6"
    path.write_text("# no graph here\n\n# nor here\n")
    for argv in (["alpha2", str(path)], ["depth", str(path)],
                 ["verify", "--suite", "main", "--corpus", str(path)]):
        assert main(argv) == 2
        assert "no graphs in input" in capsys.readouterr().err


def test_cli_empty_sweeps_rejected(capsys):
    for argv in (["verify", "--suite", "main", "--max-n", "0"],
                 ["verify", "--suite", "main", "--max-n", "-1"],
                 ["hunt", "--n", "0", "--random", "1", "--seed", "1"],
                 ["hunt", "--n", "-2", "--random", "1", "--seed", "1"],
                 ["hunt", "--n", "3", "--random", "-3", "--seed", "1"],
                 ["verify", "--suite", "main", "--max-n", "3", "--budget", "0"],
                 ["verify", "--suite", "main", "--max-n", "3", "--budget", "-1"],
                 ["verify", "--suite", "main", "--max-n", "3", "--jobs", "0"],
                 ["hunt", "--n", "3", "--random", "1", "--seed", "1", "--jobs", "0"]):
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
