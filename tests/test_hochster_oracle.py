"""Independent depth oracle: Hochster's local-cohomology formula.

    depth k[Delta] = min over faces F of |F| + 1 + min{j : H~_j(lk F) != 0}

(Hochster 1977; Bruns-Herzog, Thm 5.3.8).  The engine reads depth off
Takayama's degree complexes on the variables the ideal uses, or, for a
squarefree ideal, off the projective dimension, from reduced homology of
induced subcomplexes on its lcm lattice; both walks share the engine's face lists
and ranks, and so does the F2-vs-Q cross-check.  This oracle shares none of
that code: it polarizes on its own, lists every face of the complex, builds
each link from that list and takes dense ranks, mod 2 with the textbook
elimination of test_depth.py and over Q by integer elimination with gcd
reduction.  The engine and the oracle meet only in the answer.
"""

import math
from itertools import combinations, permutations

import pytest
from test_depth import _degree_pd, _dense_rank_f2, reduced_homology_dims

import eil.checks
import eil.depth
import eil.orbits
from eil.catalog import all_graphs
from eil.checks import sharp_example_graphs
from eil.depth import GF2, QQ, ComplexView, clear_depth_cache, depth_ideal, depth_ideal_both
from eil.graphs import emit_graph6
from eil.ideals import MonomialIdeal, edge_ideal
from eil.suite import run_suite


def _dense_rank_z(rows):
    """Rank over Q: integer row elimination, each new row divided by the gcd
    of its entries, so entries stay small."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        pivot = rows.pop()
        c = next(k for k, x in enumerate(pivot) if x)
        rest = []
        for r in rows:
            if r[c]:
                r = [pivot[c] * a - r[c] * b for a, b in zip(r, pivot)]
                g = math.gcd(*r)
                if not g:
                    continue
                r = [a // g for a in r]
            rest.append(r)
        rows = rest
        rank += 1
    return rank


def _polarized_supports(I):
    """Generator supports of the polarization of I (variable i becomes as many
    copies as its largest exponent) and the number of copies."""
    tops = [max(g[i] for g in I.gens) for i in range(len(I.ambient))]
    first = [sum(tops[:i]) for i in range(len(tops))]
    supports = [frozenset(first[i] + k for i, e in enumerate(g) for k in range(e)) for g in I.gens]
    return supports, sum(tops)


def _faces_by_size(supports, n):
    """Every face (a vertex set holding no generator support), by size."""
    layers = []
    for size in range(n + 1):
        layer = [frozenset(F) for F in combinations(range(n), size)
                 if not any(s <= frozenset(F) for s in supports)]
        if not layer:
            break
        layers.append(layer)
    return layers


def _first_homology(layers, F, limit, rank):
    """Smallest j < limit with H~_j(lk F) != 0, or None.  Link faces of size t
    (dimension t - 1) are the faces of size |F| + t through F, minus F."""
    def link(t):
        k = len(F) + t
        return [H - F for H in layers[k] if F <= H] if k < len(layers) else []

    def boundary_rank(lower, upper):
        index = {G: c for c, G in enumerate(lower)}
        rows = []
        for G in upper:
            row = [0] * len(lower)
            for pos, v in enumerate(sorted(G)):
                row[index[G - {v}]] = (-1) ** pos
            rows.append(row)
        return rank(rows) if rows and lower else 0

    here, down = link(0), 0
    for t in range(limit + 1):
        above = link(t + 1)
        up = boundary_rank(here, above)
        if len(here) - down - up:
            return t - 1
        if not above:
            return None
        here, down = above, up
    return None


def hochster_depth(I, characteristic):
    """Module depth of a proper nonzero monomial ideal by Hochster's formula.

    Faces are scanned by size.  A face of size s gives at least s, and s only
    when it is a facet; a facet that beats every smaller face forces the
    complex to be that simplex, whose smaller faces give nothing.  So once
    s + 1 reaches the best value no larger face can lower it.
    """
    supports, n = _polarized_supports(I)
    layers = _faces_by_size(supports, n)
    rank = _dense_rank_f2 if characteristic == 2 else _dense_rank_z
    best = math.inf
    for s, layer in enumerate(layers):
        if s + 1 >= best:
            break
        for F in layer:
            # only j with s + 1 + j < best can lower the best value
            j = _first_homology(layers, F, min(best - s - 1, n), rank)
            if j is not None:
                best = min(best, s + 1 + j)
    # depth S/I = depth of the polarized quotient minus the added copies
    return best - n + len(I.ambient) + 1


def _both_cold(I):
    """The engine's depth in characteristics 2 and 0, from the fused walk and
    from each single-field walk, every one with a cold memo."""
    values = []
    for call in (depth_ideal_both, lambda J: (depth_ideal(J, GF2), depth_ideal(J, QQ))):
        clear_depth_cache()
        values.append(tuple(call(I)))
    return values


def _degree_module_depths(I):
    """Module depth in characteristics 2 and 0 from the engine's degree
    complexes alone, whichever path depth_ideal would take."""
    return tuple(len(I.ambient) - pd + 1 for pd in _degree_pd(I, (2, 0)))


def _squarefree_ideal(ambient, *texts):
    """The ideal of squarefree products written as 'a*b', read here rather
    than by the engine's parser."""
    return MonomialIdeal(ambient, tuple(tuple(int(v in t.split("*")) for v in ambient)
                                        for t in texts))


def test_oracle_on_known_depths():
    # the principal quadric, the triangle's edge ideal and its square
    xy = _squarefree_ideal(("x", "y"), "x*y")
    K3 = _squarefree_ideal(("a", "b", "c"), "a*b", "b*c", "a*c")
    for characteristic in (2, 0):
        assert hochster_depth(xy, characteristic) == 2
        assert hochster_depth(K3, characteristic) == 2
        assert hochster_depth(K3 ** 2, characteristic) == 1
    assert [_degree_module_depths(I) for I in (xy, K3, K3 ** 2)] == [(2, 2), (2, 2), (1, 1)]


def test_oracle_matches_engine_on_squares_n5(catalog5):
    for G in catalog5:
        if not G.edges():
            continue
        I = edge_ideal(G) ** 2
        oracle = (hochster_depth(I, 2), hochster_depth(I, 0))
        assert _both_cold(I) == [oracle, oracle], emit_graph6(G)
        assert _degree_module_depths(I) == oracle, emit_graph6(G)


def test_oracle_matches_sharp_examples():
    for name, G, want_depth, _, _ in sharp_example_graphs():
        I = edge_ideal(G) ** 2
        assert hochster_depth(I, 2) == hochster_depth(I, 0) == want_depth, name
        assert _both_cold(I) == [(want_depth, want_depth)] * 2, name


# the six-vertex real projective plane: the ten facets, each edge in two
RP2_FACETS = ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")


def _rp2_ideal():
    """Stanley-Reisner ideal of RP^2_6: the ten triples that are not facets."""
    facets = {frozenset(f) for f in RP2_FACETS}
    amb = tuple(f"x{k}" for k in "123456")
    gens = [tuple(int(k in t) for k in "123456") for t in combinations("123456", 3)
            if frozenset(t) not in facets]
    return MonomialIdeal(amb, tuple(gens))


def test_rp2_torsion_splits_the_fields():
    # H~_1(RP^2; Z) = Z/2: mod 2 it shows in dimensions 1 and 2, over Q nowhere,
    # so the first mod-2-alive size does not decide the rational one here
    I = _rp2_ideal()
    assert len(I.gens) == 10
    C = ComplexView.from_ideal(I)
    mod2 = reduced_homology_dims(C, 0b111111, GF2)
    assert {d: r for d, r in mod2.items() if r} == {1: 1, 2: 1}
    assert set(reduced_homology_dims(C, 0b111111, QQ).values()) == {0}
    assert (hochster_depth(I, 2), hochster_depth(I, 0)) == (3, 4)
    # a squarefree ideal, so the dispatch takes the sweep; the degree
    # complexes and the sweep must each see the torsion on their own
    assert _degree_module_depths(I) == (3, 4)
    assert eil.depth._sweep_pd(C.nonfaces, (2, 0), 6) == [4, 3]  # pd = 6 - depth S/I
    calls = {
        "both": depth_ideal_both,
        "F2": lambda J: depth_ideal(J, GF2),
        "Q": lambda J: depth_ideal(J, QQ),
    }
    want = {"both": (3, 4), "F2": 3, "Q": 4}
    for order in permutations(calls):
        clear_depth_cache()
        for name in order:
            assert calls[name](I) == want[name], order


@pytest.mark.slow
def test_oracle_matches_every_ideal_of_the_n5_suite(monkeypatch):
    # every distinct ideal a cross-checked n <= 5 run asks the engine for,
    # with the pair of depths it got back, with every edge computed: a row
    # mapped along an Aut(G) orbit asks the engine nothing
    seen = {}
    engine = eil.checks.depth_ideal_both

    def record(I):
        seen[I] = engine(I)
        return seen[I]

    monkeypatch.setattr(eil.checks, "depth_ideal_both", record)
    monkeypatch.setattr(eil.orbits, "_edge_orbits", lambda G: {})
    run_suite(all_graphs(5), ["all"], GF2, cross_check=True)
    assert len(seen) == 535
    for I, depths in seen.items():
        assert (hochster_depth(I, 2), hochster_depth(I, 0)) == depths, I
