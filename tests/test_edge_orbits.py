"""Edge orbits under Aut(G) in the edge-set sweep.

run_suite computes the rows of the first edge of each orbit and maps them to
the other edges of the orbit by an automorphism.  With orbits._edge_orbits
giving no orbits, every edge is computed directly; these tests hold the
mapped rows to the computed ones, row by row, with the findings and the
depth comparisons.
"""

import hashlib
from collections import Counter

import pytest

import eil.checks
import eil.orbits
from eil.catalog import all_graphs
from eil.checks import FAILS
from eil.depth import GF2, QQ
from eil.graphs import cycle_graph, default_labels, graph_from_edges
from eil.orbits import _edge_orbits
from eil.suite import CHECKS, _canonical_row, run_suite

EDGE_SET_IDS = ["colon_intersection", "even_connection_depth", "square_colon_depth",
                "square_colon_formula", "deletion_bound"]


def _run(corpus, checks=EDGE_SET_IDS, field=GF2, direct=False, jobs=1, seed=0):
    with pytest.MonkeyPatch.context() as mp:
        if direct:
            mp.setattr(eil.orbits, "_edge_orbits", lambda G: {})
        return run_suite(corpus, checks, field, cross_check=True, jobs=jobs, seed=seed)


def _assert_same(mapped, direct):
    assert len(mapped.outcomes) == len(direct.outcomes)
    for got, want in zip(mapped.outcomes, direct.outcomes):
        assert _canonical_row(got) == _canonical_row(want)
    assert mapped.findings == direct.findings
    assert mapped.depth_comparisons == direct.depth_comparisons


def _count_mapped(monkeypatch) -> Counter:
    """Rows that orbits._mapped_rows makes, by check id."""
    made = Counter()
    real = eil.orbits._mapped_rows

    def counting(*args):
        rows = real(*args)
        made.update(oc.check_id for oc in rows)
        return rows

    monkeypatch.setattr(eil.orbits, "_mapped_rows", counting)
    return made


def petersen():
    """Outer 5-cycle x1..x5, inner pentagram x6..x10, spokes xi x(i+5): one
    edge orbit, and the pool of x3x8 holds x2 and x10."""
    labels = default_labels(10)
    return graph_from_edges(labels, [(labels[i], labels[(i + 1) % 5]) for i in range(5)]
                            + [(labels[i], labels[i + 5]) for i in range(5)]
                            + [(labels[5 + i], labels[5 + (i + 2) % 5]) for i in range(5)])


def circulant():
    """x1..x10 with xi adjacent to the vertices one and two steps away: two
    edge orbits, and x1x2 has the common neighbors x3 and x10."""
    labels = default_labels(10)
    return graph_from_edges(labels, [(labels[i], labels[(i + d) % 10])
                                     for i in range(10) for d in (1, 2)])


@pytest.mark.parametrize("field", [GF2, QQ], ids=["F2", "Q"])
def test_mapped_rows_equal_computed_rows_n6(catalog6, field, monkeypatch):
    # pinned: of the 12834 (edge, deletion set) instances on n <= 6, 5775
    # belong to the first edge of an orbit, so 7059 rows of each edge-set
    # check are mapped, and the rows of 716 of the 1380 edges under
    # colon_intersection
    made = _count_mapped(monkeypatch)
    mapped = _run(catalog6, field=field)
    assert made == {"colon_intersection": 716, "even_connection_depth": 7059,
                    "square_colon_depth": 7059, "square_colon_formula": 7059,
                    "deletion_bound": 7059}
    _assert_same(mapped, _run(catalog6, field=field, direct=True))


def test_mapped_rows_on_ten_vertices():
    # labels x1..x10 sort x10 before x2 as strings, which A follows, while L
    # follows vertex order; some automorphisms turn their edge around, and
    # then the deletion bound's two endpoint values trade places (on the
    # 10-cycle, where they can differ)
    graphs = [petersen(), circulant(), cycle_graph(10)]
    mapped = _run(graphs, jobs=2)
    _assert_same(mapped, _run(graphs, direct=True))
    rows = [oc.witness for oc in mapped.outcomes]
    assert ["x10", "x2"] in [w.get("A") for w in rows]
    assert ["x3", "x10"] in [w.get("L") for w in rows]
    flipped = set()
    for G in graphs:
        edges = G.edges()
        for k, (r, sigma) in _edge_orbits(G).items():
            i, j = edges[r]
            if sigma[i] > sigma[j]:
                flipped.add(tuple(G.labels[x] for x in edges[k]))
    swapped = [w for w in rows if "values" in w and tuple(w["edge"]) in flipped
               and w["values"]["A_plus_closed_u"] != w["values"]["A_plus_closed_v"]]
    assert flipped and swapped


def test_failing_representative_sends_its_orbit_to_the_direct_path(monkeypatch):
    # the 6-cycle is one edge orbit: while x1x2 holds, only its rows are
    # computed; when it fails, every edge is, and each fail row is the one
    # the check returned
    real = eil.checks.check_square_colon_depth
    computed = {}
    fail_at = set()

    def forced(G, edge, sets=None, computer=None):
        rows = real(G, edge, sets, computer)
        for oc in rows:
            if tuple(edge) in fail_at:
                oc.status = FAILS
            computed[tuple(edge), tuple(oc.witness["A"])] = oc
        return rows

    monkeypatch.setattr(eil.checks, "check_square_colon_depth", forced)
    G = cycle_graph(6)
    holding = run_suite([G], ["square_colon_depth"])
    assert {edge for edge, _ in computed} == {("x1", "x2")}
    computed.clear()
    fail_at.add(("x1", "x2"))
    report = run_suite([G], ["square_colon_depth"])
    assert {edge for edge, _ in computed} == set(G.edge_labels())
    assert len(report.failures) == 4
    for oc in report.outcomes:
        assert oc is computed[tuple(oc.witness["edge"]), tuple(oc.witness["A"])]
    assert [_canonical_row(oc) for oc in report.outcomes[4:]] == [
        _canonical_row(oc) for oc in holding.outcomes[4:]]


def test_finding_sends_its_orbit_to_the_direct_path(catalog5, monkeypatch):
    # every depth disagrees between the fields, so every representative
    # raises a finding and no row is mapped: each finding is a computed one.
    # A graph's checks ask for some ideals more than once, and each ideal is
    # one finding of its graph, so 2 * 1094 comparisons give 1281 findings
    monkeypatch.setattr(eil.checks, "depth_ideal_both", lambda I: (1, 2))
    checks = ["even_connection_depth", "square_colon_depth"]
    made = _count_mapped(monkeypatch)
    mapped = _run(catalog5, checks)
    assert not made and (len(mapped.findings), mapped.depth_comparisons) == (1281, 2 * 1094)
    _assert_same(mapped, _run(catalog5, checks, direct=True))


def test_sampled_pools_are_computed_directly(monkeypatch):
    # a path of three hubs with five leaves each: the two hub edges are one
    # orbit, and each pool has 11 vertices, so each edge draws its own sample;
    # the leaf edges are two orbits, of 10 edges with 32 deletion sets each
    # and 5 edges with 64, so 9 * 32 + 4 * 64 rows of each check are mapped
    hubs = ["a", "b", "c"]
    leaves = [(h, f"{h}{t}") for h in hubs for t in range(5)]
    G = graph_from_edges(hubs + [w for _, w in leaves], [("a", "b"), ("b", "c")] + leaves)
    checks = ["square_colon_formula", "deletion_bound"]
    made = _count_mapped(monkeypatch)
    mapped = _run([G], checks, seed=5)
    assert sum(bool(oc.witness.get("sampled")) for oc in mapped.outcomes) == 2 * 2 * 64
    assert made == {"square_colon_formula": 544, "deletion_bound": 544}
    _assert_same(mapped, _run([G], checks, direct=True, seed=5))


def test_graph_level_checks_compute_no_orbits(catalog5, monkeypatch):
    def unexpected(G):
        raise AssertionError(f"orbits of {G}")

    monkeypatch.setattr(eil.orbits, "_edge_orbits", unexpected)
    graph_level = [name for name, spec in CHECKS.items() if spec.kind == "graph"]
    report = run_suite(catalog5, graph_level)
    assert report.outcomes and not report.failures


@pytest.mark.slow
def test_mapped_rows_equal_computed_rows_n7():
    def sha(direct):
        report = _run(all_graphs(7), direct=direct)
        return hashlib.sha256(report.canonical_body().encode()).hexdigest()

    assert sha(False) == sha(True)

