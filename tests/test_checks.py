"""Named checks: worked instances, hypothesis filtering, witnesses."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest

import eil.checks
import eil.graphs
import eil.suite
from eil.checks import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    DepthComputer,
    check_colon_intersection,
    check_even_connection_depth,
    check_first_power,
    check_generator_order_decomposition,
    check_packing_deletion_bound,
    check_sharp_examples,
    check_square_colon_depth,
    check_square_colon_formula,
    check_square_depth_bounds,
    check_symbolic_square,
    check_triangle_neighborhood_packing,
    sharp_example_graphs,
)
from eil.depth import GF2, QQ, depth_ideal
from eil.graphs import (
    _admissible_pool,
    _labels,
    _mask,
    complete_graph,
    delete_vertices,
    emit_graph6,
    empty_graph,
    even_connection_graph,
    graph_from_edges,
    path_graph,
    random_graph,
    whiskered_triangle,
)
from eil.ideals import MonomialIdeal, edge_ideal, parse_monomial
import eil.cli
from eil.cli import main
from eil.suite import resolve_checks, run_suite

K2 = complete_graph(2)
K3 = complete_graph(3)
P4 = path_graph(4)
WK3 = whiskered_triangle()


def test_first_power_examples():
    oc = check_first_power(K2)
    assert (oc.status, oc.lhs, oc.rhs) == (HOLDS, 2, 2)
    oc = check_first_power(K3)
    assert (oc.status, oc.lhs, oc.rhs) == (HOLDS, 2, 2)
    assert check_first_power(empty_graph(3)).status == NOT_APPLICABLE


def test_first_power_witness_has_centers():
    oc = check_first_power(WK3)
    assert set(oc.witness["centers"]) == {"z1", "z2", "z3"}
    assert oc.field_char == 2


def test_triangle_packing_examples():
    (oc,) = check_triangle_neighborhood_packing(K3)
    assert oc.status == HOLDS and oc.lhs == 0 and oc.rhs == -1
    (oc,) = check_triangle_neighborhood_packing(P4)
    assert oc.status == NOT_APPLICABLE and oc.witness["reason"] == "no triangle"
    (oc,) = check_triangle_neighborhood_packing(WK3)
    assert oc.status == NOT_APPLICABLE
    assert "whiskered" in oc.witness["reason"]


def test_colon_intersection_examples():
    oc = check_colon_intersection(K3, ("x1", "x2"))
    assert oc.status == HOLDS
    assert oc.lhs == "(x3, x1*x2)" == oc.rhs
    oc = check_colon_intersection(K2, ("x1", "x2"))
    assert oc.status == HOLDS and oc.lhs == "(x1*x2)"
    oc = check_colon_intersection(P4, ("x2", "x3"))
    assert oc.status == HOLDS and oc.witness["L"] == []


def test_colon_intersection_rejects_non_edge():
    with pytest.raises(ValueError):
        check_colon_intersection(P4, ("x1", "x3"))


def test_colon_intersection_depth_examples():
    # the statement depth((I(G-A):u) meet (I(G-A):v)) >= alpha2(G) is checked
    # by even_connection_depth, which bounds depth(K) and asserts K = J
    assert resolve_checks(["colon_intersection_depth"]) == ("even_connection_depth",)
    for G, A, rhs in [(K3, (), 1), (K2, (), 1), (K3, ("x3",), 1)]:
        [oc] = check_even_connection_depth(G, ("x1", "x2"), [A])
        IA = edge_ideal(delete_vertices(G, A))
        x1, x2 = (parse_monomial(IA.ambient, x) for x in ("x1", "x2"))
        J = IA.colon(x1).intersect(IA.colon(x2))
        assert oc.status == HOLDS and oc.witness["identity"] is True
        assert oc.lhs == depth_ideal(J) >= oc.rhs == rhs
    with pytest.raises(ValueError):
        check_even_connection_depth(K3, ("x1", "x2"), [("x1",)])


def test_even_connection_depth_asserts_identity():
    for G, edge, A in [
        (K3, ("x1", "x2"), ()),
        (K2, ("x1", "x2"), ()),
        (K3, ("x1", "x2"), ("x3",)),
        (WK3, ("x1", "x2"), ("z1",)),
    ]:
        [oc] = check_even_connection_depth(G, edge, [A])
        assert oc.status == HOLDS and oc.witness["identity"] is True


def test_square_colon_depth_examples():
    # K3 is whisker-free, so the sharper bound alpha2 - 1 = 0 applies
    [oc] = check_square_colon_depth(K3, ("x1", "x2"), [()])
    assert oc.status == HOLDS and oc.rhs == 0 and oc.witness["wk3_free"] is True
    # the whiskered triangle only gets alpha2 - 2 = 1
    [oc] = check_square_colon_depth(WK3, ("x1", "x2"), [()])
    assert oc.status == HOLDS and oc.rhs == 1 and oc.witness["wk3_free"] is False
    # single edge: the colon collapses to the ideal itself, depth 2 >= 0
    [oc] = check_square_colon_depth(K2, ("x1", "x2"), [()])
    assert oc.status == HOLDS and (oc.lhs, oc.rhs) == (2, 0)


def test_square_colon_formula_examples():
    [oc] = check_square_colon_formula(K3, ("x1", "x2"), [()])
    assert oc.status == HOLDS
    assert oc.lhs == "(x1*x2, x1*x3, x2*x3, x3^2)" == oc.rhs
    two_edges = graph_from_edges(("x", "y", "u", "v"), [("x", "y"), ("u", "v")])
    [oc] = check_square_colon_formula(two_edges, ("x", "y"), [()])
    assert oc.status == HOLDS and oc.witness["isolated_edge_case"] is True
    [oc] = check_square_colon_formula(P4, ("x2", "x3"), [()])
    assert oc.status == HOLDS and "x1*x4" in oc.lhs


def test_square_depth_bounds_parts():
    outcomes = check_square_depth_bounds(WK3)
    assert [oc.check_id for oc in outcomes] == [
        "square_general", "square_wk3_free", "square_triangle_free"
    ]
    by_id = {oc.check_id: oc for oc in outcomes}
    assert by_id["square_general"].status == HOLDS
    assert (by_id["square_general"].lhs, by_id["square_general"].rhs) == (1, 1)
    assert by_id["square_wk3_free"].status == NOT_APPLICABLE
    assert by_id["square_triangle_free"].status == NOT_APPLICABLE

    sharp2 = delete_vertices(WK3, {"z3"})
    by_id = {oc.check_id: oc for oc in check_square_depth_bounds(sharp2)}
    assert (by_id["square_wk3_free"].lhs, by_id["square_wk3_free"].rhs) == (1, 1)

    by_id = {oc.check_id: oc for oc in check_square_depth_bounds(P4)}
    assert (by_id["square_triangle_free"].lhs, by_id["square_triangle_free"].rhs) == (2, 2)

    for oc in check_square_depth_bounds(empty_graph(2)):
        assert oc.status == NOT_APPLICABLE


def test_sharp_examples_hold_exactly():
    outcomes = check_sharp_examples()
    assert [oc.status for oc in outcomes] == [HOLDS] * 3
    assert [(oc.lhs, oc.witness["alpha2"]) for oc in outcomes] == [(1, 3), (1, 2), (2, 2)]


def test_sharp_example_graphs_shapes():
    rows = sharp_example_graphs()
    assert [g.n for _, g, *_ in rows] == [6, 5, 4]
    assert [slack for *_, slack in rows] == [2, 1, 0]


def test_symbolic_square_examples():
    oc = check_symbolic_square(P4)
    assert oc.status == HOLDS and oc.witness["square_equals_symbolic"] is True
    oc = check_symbolic_square(K3)
    assert oc.status == HOLDS and oc.witness["square_equals_symbolic"] is False
    assert oc.lhs >= oc.rhs == 1
    oc = check_symbolic_square(K2)
    assert oc.status == HOLDS and oc.witness["square_equals_symbolic"] is True
    assert check_symbolic_square(empty_graph(2)).status == NOT_APPLICABLE


def test_order_decomposition_examples():
    oc = check_generator_order_decomposition(K3)
    assert oc.status == HOLDS and len(oc.witness["order"]) == 3
    oc = check_generator_order_decomposition(K2)
    assert oc.status == HOLDS
    oc = check_generator_order_decomposition(P4)
    assert oc.status == HOLDS
    assert check_generator_order_decomposition(empty_graph(2)).status == NOT_APPLICABLE
    big = complete_graph(5)  # 10 edges, above the search bound
    assert check_generator_order_decomposition(big).status == NOT_APPLICABLE


def test_deletion_bound_examples():
    [oc] = check_packing_deletion_bound(K3, ("x1", "x2"), [()])
    assert oc.status == HOLDS
    [oc] = check_packing_deletion_bound(WK3, ("x1", "x2"), [()])
    assert oc.status == HOLDS and set(oc.witness["values"]) == {
        "A_plus_closed_u", "A_plus_closed_v", "closed_u_plus_closed_v"
    }
    [oc] = check_packing_deletion_bound(K2, ("x1", "x2"), [()])
    assert oc.status == HOLDS and (oc.lhs, oc.rhs) == (0, -1)
    with pytest.raises(ValueError):
        check_packing_deletion_bound(K3, ("x1", "x2"), [("x1",)])


def test_deletion_bound_general_form_exhaustive_small(catalog6):
    # every A inside the union of closed neighborhoods, not just the three
    # instantiations the depth checks use; exhaustive here for n <= 6, the
    # acceptance module extends this to n = 7
    from eil.graphs import star_packing_number

    for G in catalog6:
        base = star_packing_number(G).size
        alpha = {}
        for i, j in G.edges():
            pool = G.closed_mask(i) | G.closed_mask(j)
            members = [k for k in range(G.n) if pool & (1 << k)]
            for mask in range(1 << len(members)):
                drop = frozenset(
                    G.labels[members[t]] for t in range(len(members)) if mask & (1 << t)
                )
                if drop not in alpha:
                    alpha[drop] = star_packing_number(delete_vertices(G, drop)).size
                assert alpha[drop] >= base - 2, (G, sorted(drop))


def test_square_colon_formula_exhaustive_n6(catalog6):
    from eil.suite import run_suite

    report = run_suite(catalog6, ["square_colon_formula"], jobs=2,
                       corpus_name="classes:n<=6")
    assert report.summary["fails"] == 0


def test_triangle_packing_exhaustive_n7(catalog7):
    from eil.suite import run_suite

    report = run_suite(catalog7, ["triangle_deletion_packing"], jobs=2,
                       corpus_name="classes:n<=7")
    assert report.summary["fails"] == 0
    assert report.summary["holds"] > 5000


def test_deletion_bound_general_form_n7(catalog7):
    # the closed-neighborhood deletion bound on seven vertices; packing
    # numbers are memoized per remaining-vertex set so the sweep stays short
    from eil.graphs import star_packing_number

    for G in catalog7:
        if G.n != 7:
            continue
        base = star_packing_number(G).size
        alpha = {}
        for i, j in G.edges():
            pool = G.closed_mask(i) | G.closed_mask(j)
            members = [k for k in range(G.n) if pool & (1 << k)]
            for mask in range(1 << len(members)):
                drop = frozenset(
                    G.labels[members[t]] for t in range(len(members)) if mask & (1 << t)
                )
                if drop not in alpha:
                    alpha[drop] = star_packing_number(delete_vertices(G, drop)).size
                assert alpha[drop] >= base - 2, (G, sorted(drop))


def test_depth_computer_cross_check_counts():
    computer = DepthComputer(GF2, cross_check=True)
    from eil.ideals import edge_ideal
    assert computer.ideal_depth(edge_ideal(K3)) == 2
    assert computer.comparisons == 1 and computer.findings == []
    primary_q = DepthComputer(QQ, cross_check=True)
    assert primary_q.ideal_depth(edge_ideal(K3)) == 2


def test_checks_all_hold_on_random_graphs():
    rng = random.Random(87)
    for _ in range(12):
        G = random_graph(rng.randint(2, 6), rng)
        for oc in check_square_depth_bounds(G):
            assert oc.status != FAILS
        oc = check_symbolic_square(G)
        assert oc.status != FAILS


# ---------------------------------------------------------------------------
# the per-graph memo every check reads

# each returns the list of its outcomes at the edge, one per deletion set
EDGE_SET_CHECKS = {
    "colon_intersection": lambda G, edge, sets=None: [check_colon_intersection(G, edge)],
    "even_connection_depth": check_even_connection_depth,
    "square_colon_depth": check_square_colon_depth,
    "square_colon_formula": check_square_colon_formula,
    "deletion_bound": check_packing_deletion_bound,
}

# one instance per graph each, keeping the outcomes that carry the id, as the
# suite does with the three square ids of one function
GRAPH_CHECKS = {
    "first_power": check_first_power,
    "triangle_deletion_packing": check_triangle_neighborhood_packing,
    "square_general": check_square_depth_bounds,
    "square_wk3_free": check_square_depth_bounds,
    "square_triangle_free": check_square_depth_bounds,
    "symbolic_square": check_symbolic_square,
    "order_decomposition": check_generator_order_decomposition,
}


def _edge_set_instances(G):
    """(check id, edge, A) for every edge-set check, edge and admissible A."""
    for name in EDGE_SET_CHECKS:
        for u, v in G.edge_labels():
            pool = _labels(G, _admissible_pool(G, u, v)[2])
            sets = [()] if name == "colon_intersection" else [
                A for k in range(len(pool) + 1) for A in combinations(pool, k)]
            for A in sets:
                yield name, (u, v), A


def _row(oc):
    row = oc.to_dict()
    row.pop("elapsed_ms")
    return row


def _cold(G, name, edge, A):
    """The rows of one call on an empty memo."""
    eil.checks._memo.cache_clear()
    return _rows(G, name, edge, A)


def _rows(G, name, edge, A):
    """The rows of one call; edge None: a graph-level check."""
    if edge is None:
        result = GRAPH_CHECKS[name](G)
        return [_row(oc) for oc in (result if isinstance(result, list) else [result])
                if oc.check_id == name]
    return [_row(oc) for oc in EDGE_SET_CHECKS[name](G, edge, [A])]


def test_memo_matches_cold_calls_on_every_edge_set_instance(catalog5):
    # the graph-level checks are instances too, with no edge and no deletion set
    warm = {}
    for oc in run_suite(catalog5, [*GRAPH_CHECKS, *EDGE_SET_CHECKS]).outcomes:
        w = oc.witness if oc.check_id in EDGE_SET_CHECKS else {"edge": None}
        key = (oc.check_id, oc.graph_id, w["edge"] and tuple(w["edge"]), tuple(w.get("A", ())))
        warm.setdefault(key, []).append(_row(oc))
    cold = 0
    for G in catalog5:
        graph_level = [(name, None, ()) for name in GRAPH_CHECKS]
        for name, edge, A in [*graph_level, *_edge_set_instances(G)]:
            rows = _cold(G, name, edge, A)
            assert rows == warm[name, rows[0]["graph_id"], edge, A], (rows, A)
            cold += len(rows)
    assert cold == sum(map(len, warm.values()))


def test_memo_interleaved_graphs_match_cold_calls():
    G1, G2 = whiskered_triangle(), graph_from_edges("abcde", [("a", "b"), ("b", "c"),
                                                              ("c", "a"), ("c", "d"), ("d", "e")])
    cold = {G: [_cold(G, *inst) for inst in _edge_set_instances(G)] for G in (G1, G2)}
    eil.checks._memo.cache_clear()
    for G in (G1, G2, G1):
        assert [_rows(G, name, edge, A) for name, edge, A in _edge_set_instances(G)] == cold[G]
    info = eil.checks._memo.cache_info()
    assert info.hits > 0 and info.maxsize == eil.checks._MEMO_PIECES
    assert info.currsize <= info.maxsize


def test_memo_shares_pieces_of_a_common_graph_minus_a(monkeypatch):
    # G1 - e = G2 - e, the path a-b-c-d on the same labels: its edge ideal is
    # made once, whichever of the two graphs asks first
    G1 = graph_from_edges("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("a", "e")])
    G2 = graph_from_edges("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("d", "e")])
    built = Counter()

    def counting(G):
        built[G] += 1
        return edge_ideal(G)

    monkeypatch.setattr(eil.checks, "edge_ideal", counting)
    eil.checks._memo.cache_clear()
    for G in (G1, G2):
        for name, fn in EDGE_SET_CHECKS.items():
            fn(G, ("b", "c"), [("e",)])
    path = graph_from_edges("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert G1.induced(0b1111) == G2.induced(0b1111) == path
    assert built[path] == 1 and built[G1] == built[G2] == 1


def test_memo_state_never_changes_a_row(catalog5, monkeypatch):
    # memos far smaller than the default, read in catalog order and in
    # reverse, evict different pieces at every step; no row may notice
    def instances(G):
        return [*((name, None, ()) for name in GRAPH_CHECKS), *_edge_set_instances(G)]

    cold = {emit_graph6(G): [_cold(G, *inst) for inst in instances(G)] for G in catalog5}
    for size in (1, 4, 64):
        memo = lru_cache(maxsize=size)(eil.checks._memo.__wrapped__)
        monkeypatch.setattr(eil.checks, "_memo", memo)
        for graphs in (catalog5, catalog5[::-1]):
            memo.cache_clear()
            warm = {emit_graph6(G): [_rows(G, *inst) for inst in instances(G)] for G in graphs}
            assert warm == cold, size
            assert memo.cache_info().currsize == size  # full, and bounded


def test_memo_hit_still_rejects_inadmissible_sets():
    G = whiskered_triangle()
    for name, edge, A in _edge_set_instances(G):
        _rows(G, name, edge, A)
    u, v = G.edge_labels()[0]
    far = next(x for x in G.labels if not _mask(G, [x]) & G.closed_mask(G.index(u))
               and not _mask(G, [x]) & G.closed_mask(G.index(v)))
    hits = eil.checks._memo.cache_info().hits
    for name, fn in EDGE_SET_CHECKS.items():
        if name == "colon_intersection":
            with pytest.raises(ValueError, match="is not an edge"):
                fn(G, (u, far))
            continue
        for A in ((u,), (far,), ("nowhere",)):
            with pytest.raises(ValueError, match="inadmissible deletion set"):
                fn(G, (u, v), [A])
    assert eil.checks._memo.cache_info().hits == hits  # raised before reading the memo


def test_one_shot_deletion_sets_read_like_tuples():
    # the deletion set is read once, so an iterator gives what its tuple gives
    G = whiskered_triangle()
    for name, edge, A in _edge_set_instances(G):
        assert _cold(G, name, edge, iter(A)) == _cold(G, name, edge, A), (name, edge, A)
        assert even_connection_graph(G, *edge, iter(A)) == even_connection_graph(G, *edge, A)
    [oc] = check_square_colon_depth(G, ("x1", "x2"), [iter(("x3", "z1"))])
    assert (oc.lhs, oc.witness["A"]) == (3, ["x3", "z1"])
    # and a bare string is one label, not a run of characters
    edge = ("x1", "x2")
    for name in EDGE_SET_CHECKS:
        assert _cold(G, name, edge, "x3") == _cold(G, name, edge, ("x3",)), name
    assert even_connection_graph(G, *edge, "x3") == even_connection_graph(G, *edge, ("x3",))


def test_sweep_equals_every_subset_given_in_mask_order(catalog5):
    # called without sets, an edge-set check sweeps every subset of the
    # edge's pool in increasing mask order, row for row what the subsets give
    rows = 0
    for G in catalog5:
        for u, v in G.edge_labels():
            pool = _admissible_pool(G, u, v)[2]
            sets = [_labels(G, a) for a in range(pool + 1) if not a & ~pool]
            for name, fn in EDGE_SET_CHECKS.items():
                if name == "colon_intersection":
                    continue
                swept = [_row(oc) for oc in fn(G, (u, v))]
                assert swept == [_row(oc) for oc in fn(G, (u, v), sets)], (G, u, v, name)
                assert [w["A"] for w in (row["witness"] for row in swept)] == [
                    sorted(A) for A in sets]
                rows += len(swept)
    assert rows == 4 * 1094


def test_inadmissible_set_raises_before_any_memo_read():
    # every set is read before the first piece, so a bad set late in the
    # list raises without a memo read for the good ones before it
    G = whiskered_triangle()
    good = [(), ("x3",), ("z1",)]
    for name, fn in EDGE_SET_CHECKS.items():
        if name == "colon_intersection":
            continue
        for bad in (("x1",), ("z3",), ("nowhere",)):
            eil.checks._memo.cache_clear()
            with pytest.raises(ValueError, match="inadmissible deletion set"):
                fn(G, ("x1", "x2"), [*good, bad])
            info = eil.checks._memo.cache_info()
            assert info.hits + info.misses == 0, (name, bad)
        with pytest.raises(ValueError, match="is not an edge"):
            fn(G, ("x1", "z2"), [])


def test_edge_set_suite_same_body_for_one_and_two_jobs(catalog5):
    one = run_suite(catalog5, list(EDGE_SET_CHECKS), jobs=1)
    two = run_suite(catalog5, list(EDGE_SET_CHECKS), jobs=2)
    assert one.canonical_body() == two.canonical_body()


def test_shared_memo_work_counts(catalog5, tmp_path, capsys, monkeypatch):
    # pinned: one packing per edged graph under main (141 while each square id
    # made its own), one per labeled graph G - drop that a computed edge-set
    # row reads (83 while every edge of an Aut(G) orbit was computed, 296
    # while keyed by graph and deletion mask, 3329 while each instance made
    # its own), and no wk3 scan where no check reads wk3-freeness
    calls = Counter()
    for fn in ("star_packing_number", "is_wk3_free"):
        def counting(G, _real=getattr(eil.checks, fn), _fn=fn):
            calls[_fn] += 1
            return _real(G)
        monkeypatch.setattr(eil.checks, fn, counting)
    # eil depth reads alpha2 off its check's outcome; a packing of its own counts too
    monkeypatch.setattr(eil.cli, "star_packing_number", eil.checks.star_packing_number)

    def count(run):
        eil.checks._memo.cache_clear()
        calls.clear()
        return run(), dict(calls)

    report, seen = count(lambda: run_suite(catalog5, ["main"], cross_check=True))
    assert seen == {"star_packing_number": 47, "is_wk3_free": 47}
    assert report.summary["depth_comparisons"] == 141  # three DepthComputer calls per graph
    assert count(lambda: run_suite(catalog5, list(EDGE_SET_CHECKS)))[1] == {
        "star_packing_number": 76, "is_wk3_free": 47}
    assert count(lambda: run_suite(catalog5, ["colon_intersection"]))[1] == {}
    path = tmp_path / "n5.g6"
    path.write_text("".join(emit_graph6(G) + "\n" for G in catalog5 if G.edges()))
    assert count(lambda: main(["depth", str(path), "--power", "1"])) == (
        0, {"star_packing_number": 47})
    assert len(capsys.readouterr().out.splitlines()) == 47
    for flags in (["--power", "1"], ["--power", "2"], ["--symbolic"]):
        code, seen = count(lambda: main(["depth", "Bw", *flags]))
        assert (code, seen["star_packing_number"]) == (0, 1), flags
    assert capsys.readouterr().out.count("alpha2=1 ") == 3


def test_validator_work_count(catalog5, monkeypatch):
    # pinned: each check call validates its edge once, and the suite calls
    # each check once per edge it computes, the first of each Aut(G) orbit,
    # sweeping the edge's unsampled pool itself; the contraction takes the
    # checked mask, so a cold edge-set run on n <= 5 calls _admissible_pool
    # 460 times: 92 of the 210 edges once under each of the five checks (620
    # while the suite validated each edge's pool and each of its 436 of the
    # 1094 deletion sets into a per-graph record that the edge-set checks
    # trusted, 1514 while every edge was computed, 5426 while each check
    # validated its deletion set again, 6520 while the pair builder went
    # through even_connection_graph, which validated again)
    calls = Counter()
    real = eil.graphs._admissible_pool

    def counting(*args):
        calls["pool"] += 1
        return real(*args)

    for module in (eil.graphs, eil.checks):
        monkeypatch.setattr(module, "_admissible_pool", counting)
    eil.checks._memo.cache_clear()
    run_suite(catalog5, list(EDGE_SET_CHECKS), GF2)
    assert calls["pool"] == 460


def test_colon_work_count(catalog5, monkeypatch):
    # pinned: I(G-A):u is made once per graph G-A and vertex, shared by the
    # edges at u and by every catalog graph and deletion set giving that G-A
    # while it is in the memo, and only the first edge of each Aut(G) orbit
    # is computed, so a cold edge-set run on n <= 5 computes 591 colons (983
    # while every edge was computed, 1072 while the memo held the last 128
    # graphs, 2539 while keyed by graph and deletion set, 3282 while each
    # edge made its own two)
    calls = Counter()
    real = MonomialIdeal.colon

    def counting(self, m):
        calls["colon"] += 1
        return real(self, m)

    monkeypatch.setattr(MonomialIdeal, "colon", counting)
    eil.checks._memo.cache_clear()
    run_suite(catalog5, list(EDGE_SET_CHECKS), GF2)
    assert calls["colon"] == 591
