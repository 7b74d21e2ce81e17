"""Catalog enumeration: completeness, non-redundancy, canonical-form sanity.

The independent oracle canonicalizes by minimizing the edge bit string over
all n! vertex permutations, with no refinement shortcuts.
"""

import hashlib
import random
from itertools import permutations

import pytest

import eil.catalog as catalog
from eil.catalog import CLASS_COUNTS, all_graphs, canonical_key, graph_classes
from eil.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    emit_graph6,
    empty_graph,
    random_graph,
)

# sha256 of the newline-joined graph6 ids, in catalog order
SHA_N_LE_7 = "7677b49dffad9dcdc8194249b700b06abc99b8ac8f2d11101d91d28f0f304bf0"
SHA_N_8 = "31f142ef10b1605dbb91fbee3cefe7977b2bc529c8a2484863d9df362d28f1c5"


def brute_canonical(n, adj):
    best = None
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i] & (1 << j)]
    for perm in permutations(range(n)):
        mask = 0
        for i, j in edges:
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            mask |= 1 << (b * (b - 1) // 2 + a)
        if best is None or mask < best:
            best = mask
    return best if best is not None else 0


def test_class_counts_match_known_sequence():
    for n in range(8):
        assert len(graph_classes(n)) == CLASS_COUNTS[n]


def test_no_two_entries_isomorphic_n5():
    keys = [brute_canonical(5, adj) for adj in graph_classes(5)]
    assert len(set(keys)) == len(keys)


def test_every_labeled_graph_represented_n5():
    catalog_keys = {brute_canonical(5, adj) for adj in graph_classes(5)}
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for mask in range(1 << len(pairs)):
        adj = [0] * 5
        for bit, (i, j) in enumerate(pairs):
            if mask & (1 << bit):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        assert brute_canonical(5, tuple(adj)) in catalog_keys


def _separates_exactly_like_bruteforce(n):
    # same partition of all labeled graphs into classes, even though the two
    # canonical forms pick different representatives
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    by_fast = {}
    by_brute = {}
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if mask & (1 << bit):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        adj = tuple(adj)
        by_fast.setdefault(canonical_key(n, adj), set()).add(adj)
        by_brute.setdefault(brute_canonical(n, adj), set()).add(adj)
    assert sorted(by_fast.values(), key=sorted) == sorted(by_brute.values(), key=sorted)


def test_canonical_key_separates_exactly_like_bruteforce_n4():
    _separates_exactly_like_bruteforce(4)


def test_canonical_key_separates_exactly_like_bruteforce_n5():
    _separates_exactly_like_bruteforce(5)


def relabel(adj, perm):
    """adj with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        for u in range(len(adj)):
            if mask >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


def _from_edges(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def symmetric_families():
    """Graphs with large automorphism groups, up to 8 vertices."""
    for n in range(1, 9):
        yield f"K{n}", complete_graph(n).adj
        yield f"E{n}", empty_graph(n).adj
        if n >= 3:
            yield f"C{n}", cycle_graph(n).adj
    for a in range(1, 5):
        for b in range(a, 9 - a):
            yield f"K{a},{b}", _from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    yield "2K4", _from_edges(8, [(i, j) for k in (0, 4) for i in range(k, k + 4) for j in range(i + 1, k + 4)])
    yield "Q3", _from_edges(8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i ^ j).bit_count() == 1])
    yield "co-C8", tuple(~m & 0xFF & ~(1 << v) for v, m in enumerate(cycle_graph(8).adj))


def test_canonical_key_invariant_under_relabeling_of_symmetric_families():
    rng = random.Random(7)
    for name, adj in symmetric_families():
        n = len(adj)
        key = canonical_key(n, adj)
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(n, relabel(adj, perm)) == key, name


def test_cubic_graphs_on_8_vertices_get_distinct_keys():
    wagner = _from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    cubic = dict(symmetric_families())
    keys = {canonical_key(8, adj) for adj in (cubic["Q3"], cubic["2K4"], wagner)}
    assert len(keys) == 3


def _is_automorphism(adj, perm):
    return sorted(perm) == list(range(len(adj))) and relabel(adj, perm) == adj


def test_reported_generators_are_automorphisms():
    for n in range(8):
        for adj, gens in catalog._level(n):
            assert all(_is_automorphism(adj, g) for g in gens), adj
    for name, adj in symmetric_families():
        _, auts = catalog._search(len(adj), adj)
        assert (auts or len(adj) == 1) and all(_is_automorphism(adj, g) for g in auts), name


def test_orbit_pruning_work_count_n7(monkeypatch):
    # level 7 extends 156 classes by 64 masks each; one mask per orbit of the
    # found automorphisms is searched
    catalog._level(6)
    calls = []
    search = catalog._search
    monkeypatch.setattr(catalog, "_search", lambda n, adj: calls.append(n) or search(n, adj))
    catalog._level.__wrapped__(7)
    assert len(calls) == 5096


def test_canonical_key_rejects_malformed_adjacency():
    with pytest.raises(ValueError, match="differ in length"):
        canonical_key(3, (0, 0))
    with pytest.raises(ValueError, match="loop at vertex x1"):
        canonical_key(2, (1, 1))
    with pytest.raises(ValueError, match="asymmetric adjacency"):
        canonical_key(2, (2, 0))


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 8)
        G = random_graph(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        adj2 = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if G.adj[i] & (1 << j):
                    a, b = perm[i], perm[j]
                    adj2[a] |= 1 << b
                    adj2[b] |= 1 << a
        assert canonical_key(n, G.adj) == canonical_key(n, tuple(adj2))


def test_all_graphs_shapes(catalog6):
    assert len(catalog6) == sum(CLASS_COUNTS[1:7]) == 208
    assert all(isinstance(G, Graph) for G in catalog6)
    assert {G.n for G in catalog6} == {1, 2, 3, 4, 5, 6}


def test_all_graphs_min_n():
    only6 = list(all_graphs(6, min_n=6))
    assert len(only6) == 156


def test_negative_order_is_rejected():
    with pytest.raises(ValueError, match="n = -1"):
        graph_classes(-1)
    with pytest.raises(ValueError, match="n = -1"):
        list(all_graphs(2, min_n=-1))
    for n in (-1, -5):
        with pytest.raises(ValueError, match=f"n = {n}"):
            canonical_key(n, ())
    assert list(all_graphs(0, min_n=0)) == [Graph((), ())]


def _catalog_sha(graphs):
    return hashlib.sha256("\n".join(emit_graph6(G) for G in graphs).encode()).hexdigest()


def test_catalog_n7_representatives_and_order_are_pinned(catalog7):
    assert _catalog_sha(catalog7) == SHA_N_LE_7


@pytest.mark.slow
def test_catalog_n8_matches_known_count_and_pinned_hash():
    graphs = list(all_graphs(8, min_n=8))
    assert len(graphs) == CLASS_COUNTS[8] == 12346
    assert _catalog_sha(graphs) == SHA_N_8


@pytest.mark.slow
def test_catalog_n9_matches_known_count():
    assert len(graph_classes(9)) == CLASS_COUNTS[9] == 274668
