"""Graph structure, parsing, packing number, and the contraction construction.

Derived expectations are frozen from brute-force oracles defined here
(subset enumeration for the packing number, permutation search for induced
subgraph checks), never from the functions under test.
"""

import math
import os
import pickle
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from eil.graphs import (
    Graph,
    Graph6Error,
    _admissible_pool,
    _bits,
    _contract,
    _labels,
    _mask,
    complete_graph,
    cycle_graph,
    delete_vertices,
    emit_graph6,
    empty_graph,
    even_connection_graph,
    graph_from_edges,
    is_wk3_free,
    maximal_independent_sets,
    minimal_vertex_covers,
    parse_edge_list,
    parse_graph6,
    path_graph,
    random_graph,
    star_packing_number,
    triangles,
    whiskered_triangle,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# oracles


def brute_alpha2(G):
    """Packing number by scanning all 2^n center sets."""
    closed = [G.closed_mask(i) for i in range(G.n)]
    best = 0
    for mask in range(1 << G.n):
        chosen = [i for i in range(G.n) if mask & (1 << i)]
        if all(not closed[a] & closed[b] for a, b in combinations(chosen, 2)):
            best = max(best, len(chosen))
    return best


def distance(G, u, v):
    """Shortest-path edge count between two vertices, math.inf if disconnected."""
    s, t = G.index(u), G.index(v)
    if s == t:
        return 0
    seen = 1 << s
    frontier = 1 << s
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for i in _bits(frontier):
            nxt |= G.adj[i]
        nxt &= ~seen
        if nxt & (1 << t):
            return d
        seen |= nxt
        frontier = nxt
    return math.inf


def is_valid_packing(G, centers):
    """True when the closed neighborhoods of the given centers are pairwise disjoint."""
    masks = [G.closed_mask(G.index(c)) for c in centers]
    return all(not a & b for a, b in combinations(masks, 2))


def brute_triangles(G):
    out = []
    for i, j, k in combinations(range(G.n), 3):
        if G.has_edge(i, j) and G.has_edge(i, k) and G.has_edge(j, k):
            out.append((G.labels[i], G.labels[j], G.labels[k]))
    return out


def induced_copy_exists(G, H):
    """Does G contain an induced subgraph isomorphic to H?  Permutation search."""
    for sub in combinations(range(G.n), H.n):
        for perm in permutations(sub):
            ok = True
            for a in range(H.n):
                for b in range(a + 1, H.n):
                    if H.has_edge(a, b) != G.has_edge(perm[a], perm[b]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def brute_maximal_independent_sets(G):
    sets = []
    for mask in range(1 << G.n):
        verts = [i for i in range(G.n) if mask & (1 << i)]
        if any(G.has_edge(a, b) for a, b in combinations(verts, 2)):
            continue
        sets.append(mask)
    return sorted(
        m for m in sets
        if not any(m != other and m & other == m for other in sets)
    )


# ---------------------------------------------------------------------------
# Graph type


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="pairwise distinct"):
        Graph(("a", "a"), (0, 0))
    with pytest.raises(ValueError, match="loop at vertex a"):
        Graph(("a", "b"), (1, 0))
    with pytest.raises(ValueError, match="asymmetric adjacency between a and b"):
        Graph(("a", "b"), (2, 0))
    with pytest.raises(ValueError, match="differ in length"):
        Graph(("a", "b"), (0,))
    with pytest.raises(ValueError, match="exceeds vertex range"):
        Graph(("a", "b"), (4, 0))


def test_induced_and_contracted_graphs_equal_checked_ones(catalog6):
    # induced subgraphs and contractions are built without the constructor's
    # checks: each equals, and hashes as, the graph that Graph(...) builds,
    # and so passes, from its fields
    def assert_checked(H):
        built = Graph(H.labels, H.adj)
        assert (H.labels, H.adj) == (built.labels, built.adj)
        assert H == built and hash(H) == hash(built)
        assert type(H.labels) is tuple and type(H.adj) is tuple

    induced = contracted = 0
    for G in catalog6:
        for keep in range(1 << G.n):
            assert_checked(G.induced(keep))
            induced += 1
        for i, j in G.edges():
            pool = _admissible_pool(G, G.labels[i], G.labels[j])[2]
            for a in range(pool + 1):
                if a & ~pool == 0:
                    assert_checked(_contract(G, i, j, a)[0])
                    contracted += 1
    assert (induced, contracted) == (sum(1 << G.n for G in catalog6), 1094 + 11740)


def test_edges_and_degrees():
    G = path_graph(4)
    assert G.edge_labels() == [("x1", "x2"), ("x2", "x3"), ("x3", "x4")]
    assert [G.degree(i) for i in range(4)] == [1, 2, 2, 1]
    assert len(G.edges()) == 3


def test_pickled_graph_carries_no_hash():
    # a Graph keeps its hash, which string hashing makes per interpreter; the
    # pickle holds only labels and masks, so a worker hashes it afresh
    G = whiskered_triangle()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(G, protocol)
        assert b"_hash" not in data
        H = pickle.loads(data)
        fresh = graph_from_edges(G.labels, G.edge_labels())
        assert H == fresh and hash(H) == hash(fresh) == hash(G)
    # in an interpreter with another string hash seed, the loaded graph hashes
    # as one built there does
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    probe = ("import pickle, sys; from eil.graphs import Graph; "
             "H = pickle.loads(sys.stdin.buffer.read()); "
             "print(hash(H) == hash(Graph(H.labels, H.adj)))")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps(G),
                          capture_output=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == b"True"


# ---------------------------------------------------------------------------
# graph6


def test_parse_graph6_k2():
    G = parse_graph6("A_")
    assert G.n == 2 and G.edge_labels() == [("x1", "x2")]


def test_parse_graph6_two_isolated():
    G = parse_graph6("A?")
    assert G.n == 2 and len(G.edges()) == 0


def test_parse_graph6_empty_input():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_parse_graph6_errors_name_offset():
    cases = {
        "A_X": 2,  # trailing garbage
        "B": 1,  # truncated edge data
        "A" + chr(30): 1,  # non-printable
        "~??": 3,  # truncated extended header
        "~~??????": 1,  # beyond 258047 vertices
        "": 0,  # empty
        "\n": 0,
    }
    header = ">>graph6<<"
    for text, offset in list(cases.items()):
        cases[header + text] = len(header) + offset
    cases[header + "B!"] = 11  # the "!" is the input's byte 11
    for text, offset in cases.items():
        with pytest.raises(Graph6Error) as err:
            parse_graph6(text)
        assert err.value.offset == offset, text


def test_parse_graph6_header_prefix_and_newline():
    assert parse_graph6(">>graph6<<A_\n") == parse_graph6("A_")


def test_graph6_roundtrip_small_catalog(catalog6):
    for G in catalog6:
        assert parse_graph6(emit_graph6(G)) == G


def test_graph6_roundtrip_large_header():
    rng = random.Random(5)
    G = random_graph(63, rng)
    line = emit_graph6(G)
    assert line.startswith("~")
    assert parse_graph6(line).adj == G.adj


def test_known_encodings():
    assert emit_graph6(complete_graph(3)) == "Bw"
    assert emit_graph6(empty_graph(1)) == "@"


# ---------------------------------------------------------------------------
# edge lists


def test_parse_edge_list_triangle():
    G = parse_edge_list("x y\ny z\nx z")
    assert G.labels == ("x", "y", "z")
    assert len(G.edges()) == 3


def test_parse_edge_list_path():
    G = parse_edge_list("a b\nb c\nc d")
    assert G.edge_labels() == [("a", "b"), ("b", "c"), ("c", "d")]


def test_parse_edge_list_loop_rejected():
    with pytest.raises(ValueError):
        parse_edge_list("a a")


def test_parse_edge_list_too_many_tokens():
    with pytest.raises(ValueError):
        parse_edge_list("a b c")


def test_parse_edge_list_lines_end_at_newline_only():
    # U+0085 (NEL) is whitespace inside a line, as a tab is
    with pytest.raises(ValueError, match=r"^line 1: expected 'u v' or 'u', got 4 tokens$"):
        parse_edge_list("a b\x85c d")
    assert parse_edge_list("a b\r\nb c\r\n").edge_labels() == [("a", "b"), ("b", "c")]


def test_parse_edge_list_isolated_and_natural_order():
    G = parse_edge_list("x10 x2\nx1")
    assert G.labels == ("x1", "x2", "x10")
    assert len(G.edges()) == 1


# ---------------------------------------------------------------------------
# deletion and distance


def test_delete_vertices_triangle():
    G = delete_vertices(complete_graph(3), {"x3"})
    assert G.labels == ("x1", "x2") and len(G.edges()) == 1


def test_delete_nothing_is_identity():
    G = path_graph(4)
    assert delete_vertices(G, set()) == G


def test_delete_leaf_of_whiskered_triangle():
    G = delete_vertices(whiskered_triangle(), {"z3"})
    assert G.n == 5 and len(G.edges()) == 5
    assert sorted(G.labels) == ["x1", "x2", "x3", "z1", "z2"]


def test_delete_unknown_vertex():
    with pytest.raises(ValueError):
        delete_vertices(path_graph(3), {"nope"})
    with pytest.raises(ValueError, match=r"vertices not in graph: \['a', 'nope'\]"):
        delete_vertices(path_graph(3), {"nope", "x2", "a"})


def test_labels_mask_round_trip():
    G = whiskered_triangle()
    for mask in range(1 << G.n):
        names = _labels(G, mask)
        assert list(names) == [G.labels[i] for i in range(G.n) if mask >> i & 1]
        assert _mask(G, names) == mask
        assert _mask(G, reversed(names)) == mask
    assert _labels(G, 0) == () and _mask(G, ()) == 0
    with pytest.raises(ValueError, match=r"vertices not in graph: \['w'\]"):
        _mask(G, ("x1", "w"))


def test_distance():
    P = path_graph(4)
    assert distance(P, "x1", "x4") == 3
    assert distance(P, "x2", "x2") == 0
    two = graph_from_edges(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    assert distance(two, "a", "c") == math.inf
    with pytest.raises(ValueError):
        distance(P, "x1", "zz")


# ---------------------------------------------------------------------------
# star packing number


def test_alpha2_frozen_examples():
    assert star_packing_number(complete_graph(3)).size == 1 == brute_alpha2(complete_graph(3))
    assert star_packing_number(empty_graph(5)).size == 5
    w = star_packing_number(whiskered_triangle())
    assert w.size == 3 == brute_alpha2(whiskered_triangle())
    assert set(w.centers) == {"z1", "z2", "z3"}


def test_alpha2_witness_is_valid_and_sized():
    rng = random.Random(11)
    for _ in range(40):
        G = random_graph(rng.randint(1, 8), rng)
        w = star_packing_number(G)
        assert len(w.centers) == w.size
        assert is_valid_packing(G, w.centers)
        # center validity is exactly pairwise distance >= 3
        for a, b in combinations(w.centers, 2):
            assert distance(G, a, b) >= 3


def test_packing_validity_is_distance_three():
    # a center set is a packing exactly when centers are pairwise at distance >= 3
    rng = random.Random(59)
    for _ in range(60):
        G = random_graph(rng.randint(2, 7), rng)
        k = rng.randint(2, min(4, G.n))
        centers = rng.sample(G.labels, k)
        expected = all(distance(G, a, b) >= 3 for a, b in combinations(centers, 2))
        assert is_valid_packing(G, centers) == expected


def test_alpha2_matches_bruteforce_exhaustively(catalog6):
    for G in catalog6:
        assert star_packing_number(G).size == brute_alpha2(G)


def test_alpha2_matches_bruteforce_random_larger():
    rng = random.Random(23)
    for _ in range(200):
        G = random_graph(rng.choice((7, 8)), rng)
        assert star_packing_number(G).size == brute_alpha2(G)


def test_alpha2_additive_over_disjoint_union():
    rng = random.Random(7)
    for _ in range(25):
        G1 = random_graph(rng.randint(1, 5), rng)
        G2 = random_graph(rng.randint(1, 5), rng)
        labels = tuple(f"a{i}" for i in range(G1.n)) + tuple(f"b{i}" for i in range(G2.n))
        adj = tuple(m for m in G1.adj) + tuple(m << G1.n for m in G2.adj)
        union = Graph(labels, adj)
        assert (
            star_packing_number(union).size
            == star_packing_number(G1).size + star_packing_number(G2).size
        )


def test_alpha2_empty_graph():
    assert star_packing_number(empty_graph(0)).size == 0


# ---------------------------------------------------------------------------
# triangles and whiskered-triangle freeness


def test_triangles_examples():
    assert triangles(complete_graph(3)) == [("x1", "x2", "x3")]
    assert triangles(path_graph(4)) == []
    assert triangles(whiskered_triangle()) == [("x1", "x2", "x3")]


def test_triangles_match_bruteforce():
    rng = random.Random(3)
    for _ in range(30):
        G = random_graph(rng.randint(1, 7), rng)
        assert triangles(G) == brute_triangles(G)


def test_wk3_free_examples():
    assert not is_wk3_free(whiskered_triangle())
    assert is_wk3_free(complete_graph(3))
    assert is_wk3_free(cycle_graph(6))  # triangle-free


def test_wk3_free_matches_induced_search(catalog6):
    target = whiskered_triangle()
    for G in catalog6:
        assert is_wk3_free(G) == (not induced_copy_exists(G, target))


def test_wk3_free_random_seven_vertices():
    rng = random.Random(17)
    target = whiskered_triangle()
    for _ in range(60):
        G = random_graph(7, rng)
        assert is_wk3_free(G) == (not induced_copy_exists(G, target))


# ---------------------------------------------------------------------------
# contraction at an edge


def test_even_connection_triangle():
    gprime, L = even_connection_graph(complete_graph(3), "x1", "x2", ())
    assert L == ("x3",)
    assert gprime.labels == ("x1", "x2") and len(gprime.edges()) == 1


def test_even_connection_single_edge_identity():
    K2 = complete_graph(2)
    gprime, L = even_connection_graph(K2, "x1", "x2", ())
    assert L == () and gprime == K2


def test_even_connection_path_makes_cycle():
    gprime, L = even_connection_graph(path_graph(4), "x2", "x3", ())
    assert L == ()
    assert sorted(gprime.edge_labels()) == sorted(
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x1", "x4")]
    )


def test_even_connection_rejects_bad_input():
    P = path_graph(4)
    with pytest.raises(ValueError):
        even_connection_graph(P, "x1", "x3", ())  # not an edge
    with pytest.raises(ValueError):
        even_connection_graph(P, "x1", "x2", ("x4",))  # outside the pool


def reference_even_connection_graph(G, u, v, A):
    """G'_A built from label pairs: G minus A and L, plus every pair of a
    remaining neighbor of u and a remaining neighbor of v."""
    L = tuple(w for w in G.labels if w not in A
              and G.has_edge(G.index(u), G.index(w)) and G.has_edge(G.index(v), G.index(w)))
    keep = [w for w in G.labels if w not in A and w not in L]
    edges = [(p, q) for p, q in G.edge_labels() if p in keep and q in keep]
    ni = [p for p in keep if G.has_edge(G.index(u), G.index(p))]
    nj = [q for q in keep if G.has_edge(G.index(v), G.index(q))]
    edges += [(p, q) for p in ni for q in nj if p != q]
    return graph_from_edges(keep, edges), L


def test_even_connection_matches_label_construction(catalog5):
    cases = 0
    for G in catalog5:
        for u, v in G.edge_labels():
            pool = _labels(G, _admissible_pool(G, u, v)[2])
            for r in range(len(pool) + 1):
                for A in combinations(pool, r):
                    gprime, L = even_connection_graph(G, u, v, A)
                    want, want_L = reference_even_connection_graph(G, u, v, A)
                    assert gprime.labels == want.labels
                    assert gprime.adj == want.adj
                    assert L == want_L
                    cases += 1
    assert cases > 1000


def test_even_connection_with_deletion_set():
    # deleting the common neighbor first leaves nothing to contract
    gprime, L = even_connection_graph(complete_graph(3), "x1", "x2", ("x3",))
    assert L == ()
    assert gprime.labels == ("x1", "x2") and len(gprime.edges()) == 1


# ---------------------------------------------------------------------------
# covers


def test_maximal_independent_sets_match_bruteforce():
    rng = random.Random(31)
    for _ in range(30):
        G = random_graph(rng.randint(0, 7), rng)
        assert maximal_independent_sets(G) == brute_maximal_independent_sets(G)


def test_minimal_vertex_covers_cover_every_edge():
    rng = random.Random(37)
    for _ in range(20):
        G = random_graph(rng.randint(1, 7), rng)
        for cover in minimal_vertex_covers(G):
            cset = set(cover)
            assert all(i in cset or j in cset for i, j in G.edges())
