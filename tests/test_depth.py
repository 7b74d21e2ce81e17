"""Depth engine: homology conventions, Hochster scan, depth bookkeeping.

The homology index conventions are validated first; everything else builds
on them.  The independent oracle is the Taylor-complex strand: its field
arithmetic (dense Fraction/mod-2 elimination) shares nothing with the
engine's bitset and sparse-integer paths.
"""

import hashlib
import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

import pytest

import eil.catalog
import eil.checks
import eil.depth
from eil.depth import (
    GF2,
    QQ,
    ComplexView,
    FieldChoice,
    _cone_reducer,
    _faces_by_size,
    _first_alive_sizes,
    _rank_exact,
    _ranks_by_size,
    clear_depth_cache,
    depth_ideal,
    depth_ideal_both,
)
from eil.graphs import (
    _bits,
    complete_graph,
    cycle_graph,
    emit_graph6,
    graph_from_edges,
    path_graph,
    whiskered_triangle,
)
from eil.ideals import MonomialIdeal, _guard, _minimal, _pack, edge_ideal, polarize, symbolic_square_edge_ideal
from eil.suite import CHECKS, run_suite
from test_ideals import ideal

XY = ("x", "y")
XYZ = ("x", "y", "z")


def quotient_depth(I, field):
    """depth S/I, read off the module depth of I."""
    return depth_ideal(I, field) - 1


def quotient_pd(I, field):
    """pd S/I by Auslander-Buchsbaum over the ambient of I."""
    return len(I.ambient) + 1 - depth_ideal(I, field)


# ---------------------------------------------------------------------------
# independent oracle: Taylor strands with dense textbook elimination


def _dense_rank_q(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    lead = 0
    for c in range(cols):
        pivot = next((r for r in range(lead, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][c]
        rows[lead] = [x / pv for x in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[lead])]
        lead += 1
        rank += 1
    return rank


def _dense_rank_f2(rows):
    """Rank mod 2: each row packed into an int (column c at bit c), then
    Gaussian elimination that clears only below each pivot."""
    packed = [sum((x & 1) << c for c, x in enumerate(r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        bit = 1 << c
        pivot = next((r for r in range(rank, len(packed)) if packed[r] & bit), None)
        if pivot is None:
            continue
        packed[rank], packed[pivot] = packed[pivot], packed[rank]
        for r in range(rank + 1, len(packed)):
            if packed[r] & bit:
                packed[r] ^= packed[rank]
        rank += 1
    return rank


def test_dense_rank_f2_counts_the_row_span():
    # 2^rank is the size of the row span, enumerated by brute force
    rng = random.Random(5)
    for _ in range(400):
        width = rng.randint(1, 8)
        rows = [[rng.randint(0, 1) for _ in range(width)] for _ in range(rng.randint(1, 8))]
        span = {(0,) * width}
        for r in rows:
            span |= {tuple(a ^ b for a, b in zip(v, r)) for v in span}
        assert 1 << _dense_rank_f2(rows) == len(span), rows


def taylor_betti(I, characteristic):
    """Multigraded Betti numbers of S/I from the Taylor complex.

    Works for any monomial ideal; keys are (homological degree, lcm exponent
    vector).  Exponential in the generator count, fine for small inputs.
    """
    gens = list(I.gens)
    m = len(gens)
    width = len(I.ambient)

    def lcm_of(subset):
        vec = [0] * width
        for k in subset:
            vec = [max(a, b) for a, b in zip(vec, gens[k])]
        return tuple(vec)

    strands = {}
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            strands.setdefault(lcm_of(subset), {}).setdefault(size, []).append(subset)

    rank_fn = _dense_rank_f2 if characteristic == 2 else _dense_rank_q
    out = {}
    for degree, by_size in strands.items():
        sizes = sorted(by_size)
        ranks = {}
        for s in sizes:
            if s == 0 or (s - 1) not in by_size:
                ranks[s] = 0
                continue
            lower = {sub: k for k, sub in enumerate(by_size[s - 1])}
            rows = []
            for sub in by_size[s]:
                row = [0] * len(lower)
                for pos, drop in enumerate(sub):
                    rest = tuple(k for k in sub if k != drop)
                    if lcm_of(rest) == degree and rest in lower:
                        row[lower[rest]] = (-1) ** pos
                rows.append(row)
            ranks[s] = rank_fn(rows) if rows and lower else 0
        for s in sizes:
            h = len(by_size[s]) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            if h:
                out[(s, degree)] = h
    return out


def taylor_total_betti(I, characteristic):
    totals = {}
    for (i, _), r in taylor_betti(I, characteristic).items():
        totals[i] = totals.get(i, 0) + r
    return totals


def random_squarefree_ideal(rng, width, max_gens):
    amb = tuple(f"v{k}" for k in range(width))
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        support = rng.randint(1, (1 << width) - 1)
        gens.append(tuple((support >> k) & 1 for k in range(width)))
    return MonomialIdeal(amb, tuple(gens))


def random_monomial_ideal(rng, width, max_exp, max_gens):
    amb = tuple(f"v{k}" for k in range(width))
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        vec = tuple(rng.randint(0, max_exp) for _ in range(width))
        if any(vec):
            gens.append(vec)
    return MonomialIdeal(amb, tuple(gens)) if gens else MonomialIdeal(amb, ((1,) + (0,) * (width - 1),))


# ---------------------------------------------------------------------------
# homology conventions come first: everything downstream trusts these


def reduced_homology_dims(C: ComplexView, W: int, field: FieldChoice) -> dict[int, int]:
    """Reduced homology ranks {dimension: rank} of C's induced subcomplex on
    W, by the engine's face listing and boundary ranks.

    Dimensions run from -1 (the empty face; rank 1 exactly for the complex
    {emptyset}) up to the top face dimension.  The void complex gives {}.
    """
    if W >> len(C.ambient):
        raise ValueError("W is not a subset of the ambient vertices")
    ranks = _ranks_by_size(_faces_by_size(W, C.nonfaces), field.characteristic)
    return {s - 1: h for s, h in enumerate(ranks)}


def test_hollow_triangle_has_one_loop():
    C = ComplexView(XYZ, (0b111,))
    for field in (GF2, QQ):
        assert reduced_homology_dims(C, 0b111, field) == {-1: 0, 0: 0, 1: 1}


def test_full_simplex_is_acyclic():
    C = ComplexView(XYZ, ())
    for field in (GF2, QQ):
        dims = reduced_homology_dims(C, 0b111, field)
        assert set(dims.values()) == {0}


def test_two_points_have_reduced_h0():
    C = ComplexView(XY, (0b11,))
    for field in (GF2, QQ):
        assert reduced_homology_dims(C, 0b11, field) == {-1: 0, 0: 1}


def test_empty_complex_has_h_minus_one():
    C = ComplexView(XY, (0b01, 0b10))  # both vertices are nonfaces
    assert reduced_homology_dims(C, 0b11, GF2) == {-1: 1}


def test_void_complex_is_trivial():
    C = ComplexView(XY, (0,))
    assert reduced_homology_dims(C, 0b11, GF2) == {}


def test_induced_subcomplex_restricts_nonfaces():
    C = ComplexView(XYZ, (0b111,))
    dims = reduced_homology_dims(C, 0b011, GF2)  # edge xy survives, contractible
    assert set(dims.values()) == {0}


def test_complex_view_rejects_nonfaces_outside_the_ambient():
    assert ComplexView(("x",), (0b1,)).nonfaces == (0b1,)
    for mask in (0b110, 0b10, -1):
        with pytest.raises(ValueError, match="exceeds the ambient"):
            ComplexView(("x",), (mask,))


def test_homology_rejects_foreign_vertices():
    C = ComplexView(XY, (0b11,))
    with pytest.raises(ValueError):
        reduced_homology_dims(C, 0b101, GF2)


def test_circle_from_four_edges():
    # boundary of a square: nonfaces are the two diagonals
    C = ComplexView(("a", "b", "c", "d"), (0b0101, 0b1010))
    dims = reduced_homology_dims(C, 0b1111, QQ)
    assert dims == {-1: 0, 0: 0, 1: 1}


def test_field_choice_validation():
    with pytest.raises(ValueError):
        FieldChoice(3)
    assert str(GF2) == "F2" and str(QQ) == "Q"


def test_complex_view_needs_squarefree():
    with pytest.raises(ValueError):
        ComplexView.from_ideal(ideal("x^2", ambient=XY))


def _brute_faces_by_size(W, nonfaces):
    # every subset of W with no nonface inside, by size, in combinations'
    # lexicographic order; faces are closed under subsets, so the first
    # empty size ends the list
    verts = [v for v in range(W.bit_length()) if W >> v & 1]
    out = []
    for k in range(len(verts) + 1):
        masks = (sum(1 << v for v in c) for c in combinations(verts, k))
        layer = [F for F in masks if all(s & ~F for s in nonfaces)]
        if not layer:
            break
        out.append(layer)
    return out


def test_faces_by_size_matches_brute_force():
    rng = random.Random(11)
    assert _faces_by_size(0, ()) == [[0]]
    assert _faces_by_size(0, (0b11,)) == [[0]]
    assert _faces_by_size(0b111, (0b10, 0)) == []  # void: the empty set is a nonface
    for _ in range(600):
        n = rng.randint(1, 9)
        nonfaces = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 6))]
        W = rng.randrange(1 << n)
        assert _faces_by_size(W, nonfaces) == _brute_faces_by_size(W, nonfaces), (W, nonfaces)


def test_rank_exact_matches_dense_rational_rank():
    # random integer entries, so pivots other than +-1 and the gcd step occur
    rng = random.Random(13)
    for _ in range(500):
        width = rng.randint(1, 8)
        rows = [[rng.randint(-3, 5) for _ in range(width)] for _ in range(rng.randint(1, 8))]
        assert _rank_exact([dict(enumerate(r)) for r in rows]) == _dense_rank_q(rows), rows


# ---------------------------------------------------------------------------
# Betti numbers by Hochster's formula, and what the sweep may skip


def lcm_lattice(nonfaces):
    """Every nonempty union of the nonfaces: the masks of the lcm lattice."""
    lattice = {0}
    for s in nonfaces:
        lattice |= {r | s for r in lattice}
    lattice.discard(0)
    return lattice


def _alive(C, W, field):
    """The nonzero reduced homology ranks {dimension: rank} of C on W."""
    return {d: r for d, r in reduced_homology_dims(C, W, field).items() if r}


def hochster_betti(C, masks, field, reduce=None):
    """Multigraded Betti numbers {(i, W): rank} of the Stanley-Reisner
    quotient of C, read by Hochster's formula off these masks: each mask W
    as given, or off reduce(W), which has the same homology."""
    out = {(0, 0): 1}
    for W in masks:
        for d, r in _alive(C, reduce(W) if reduce else W, field).items():
            out[(W.bit_count() - 1 - d, W)] = r
    return out


def sweep_blind_spots(C):
    """The (field, W) where the sweep's view of mask W is wrong, over every
    nonempty mask and both fields: a mask outside the lcm lattice must be
    acyclic, and a lattice mask must have the homology of its cone
    reduction.  None means the pruned, reduced walk sees every Betti number
    that a scan of all masks sees."""
    lattice = lcm_lattice(C.nonfaces)
    reduce = _cone_reducer(C.nonfaces)
    for field in (GF2, QQ):
        alive = [_alive(C, W, field) for W in range(1 << len(C.ambient))]
        for W in range(1, len(alive)):
            if alive[W] != (alive[reduce(W)] if W in lattice else {}):
                return field, W
    return None


def test_betti_shared_variable_pair():
    # two generators with a shared variable: the Taylor resolution is minimal
    amb = ("x1", "x2", "y1")
    I = ideal("x1*x2", "x1*y1", ambient=amb)
    oracle = taylor_betti(I, 2)
    assert max(i for i, _ in oracle) == 2  # pd(S/I) = 2, settled by the oracle
    got = hochster_betti(ComplexView.from_ideal(I), range(1, 1 << len(amb)), GF2)
    assert got == {(0, 0): 1, (1, 0b011): 1, (1, 0b101): 1, (2, 0b111): 1}
    assert quotient_pd(I, GF2) == 2


def test_betti_matches_taylor_oracle_random_squarefree():
    # Hochster's formula over every mask against the Taylor strands, and
    # the sweep's pruning and cone reduction mask by mask
    rng = random.Random(8191)
    for _ in range(40):
        I = random_squarefree_ideal(rng, rng.randint(2, 6), 5)
        if I.is_unit:
            continue
        C = ComplexView.from_ideal(I)
        for field in (GF2, QQ):
            oracle = {}
            for (i, vec), r in taylor_betti(I, field.characteristic).items():
                mask = sum(1 << k for k, e in enumerate(vec) if e)
                oracle[(i, mask)] = r
            assert hochster_betti(C, range(1, 1 << len(I.ambient)), field) == oracle
        assert sweep_blind_spots(C) is None, I


def test_lcm_pruning_is_lossless():
    rng = random.Random(4099)
    for _ in range(15):
        I = random_squarefree_ideal(rng, rng.randint(2, 5), 4)
        if I.is_unit:
            continue
        assert sweep_blind_spots(ComplexView.from_ideal(I)) is None, I


# ---------------------------------------------------------------------------
# cone reduction: the sweep's deletion of cone-link vertices


def test_cone_reducer_on_known_complexes():
    abcd = ("a", "b", "c", "d")
    cases = [
        # cone with apex d over the hollow triangle abc: down to one vertex,
        # b in the fixed deletion order
        (ComplexView(abcd, (0b0111,)), 0b1111, 0b0010),
        # hollow triangle and the 4-cycle (diagonals missing) are irreducible
        (ComplexView(XYZ, (0b111,)), 0b111, 0b111),
        (ComplexView(abcd, (0b0101, 0b1010)), 0b1111, 0b1111),
        # {x} is a nonface, so x is no vertex at all: x goes, yz stays
        (ComplexView(XYZ, (0b001, 0b110)), 0b111, 0b110),
    ]
    for C, W, reduced in cases:
        assert _cone_reducer(C.nonfaces)(W) == reduced
        for field in (GF2, QQ):
            assert _alive(C, W, field) == _alive(C, reduced, field)


def test_cone_reduction_counts_whiskered_triangle_square():
    # pinned so that a change to the pruning or the reduction shows in review
    C = ComplexView.from_ideal(polarize(edge_ideal(whiskered_triangle()) ** 2).ideal)
    masks = lcm_lattice(C.nonfaces)
    reduce = _cone_reducer(C.nonfaces)
    assert (len(C.ambient), len(masks), len({reduce(W) for W in masks})) == (12, 181, 53)


def test_cone_reduction_is_lossless_on_squares(catalog5):
    # every mask of the polarized I(G)^2, unreduced, against the sweep's view
    for G in catalog5:
        if G.edges():
            C = ComplexView.from_ideal(polarize(edge_ideal(G) ** 2).ideal)
            assert sweep_blind_spots(C) is None, emit_graph6(G)


def test_cone_reduction_keeps_the_path_sweep_small(monkeypatch):
    # I(P18) goes to the sweep, which lists the faces of 137 reduced masks,
    # 35729 faces in all.  With no cone reduction it lists those of 1596
    # masks, 2870403 faces, about 100 times the time (0.1 s against 12 s on
    # a 2-vCPU VM, Python 3.11.7); P20 takes 0.36 s against 157 s
    listed = []
    faces = eil.depth._faces_by_size

    def counting(W, nonfaces):
        layers = faces(W, nonfaces)
        listed.append(sum(map(len, layers)))
        return layers

    monkeypatch.setattr(eil.depth, "_faces_by_size", counting)
    clear_depth_cache()
    assert depth_ideal(edge_ideal(path_graph(18)), GF2) == 7
    assert (len(listed), sum(listed)) == (137, 35729)


# ---------------------------------------------------------------------------
# depth of quotients and ideals


def test_depth_principal_quadric():
    I = ideal("x*y", ambient=XY)
    assert (quotient_pd(I, GF2), quotient_depth(I, GF2), depth_ideal(I, GF2)) == (1, 1, 2)


def test_depth_triangle():
    I = edge_ideal(complete_graph(3))
    assert (quotient_depth(I, GF2), depth_ideal(I, GF2)) == (1, 2)


def test_depth_triangle_square_has_depth_one():
    I = edge_ideal(complete_graph(3))
    assert quotient_depth(I ** 2, GF2) == 0
    assert depth_ideal(I ** 2, GF2) == 1


def test_depth_single_edge():
    assert depth_ideal(edge_ideal(complete_graph(2)), GF2) == 2


def test_depth_path_square():
    assert depth_ideal(edge_ideal(path_graph(4)) ** 2, GF2) == 2


def test_depth_whiskered_triangle_square():
    assert depth_ideal(edge_ideal(whiskered_triangle()) ** 2, GF2) == 1


def test_depth_textbook_paths_and_cycles():
    # depth of the path quotient is ceil(n/3); the pentagon is the classic
    # Cohen-Macaulay odd cycle (depth = dim = 2) while the square is not
    assert quotient_depth(edge_ideal(path_graph(4)), GF2) == 2
    assert quotient_depth(edge_ideal(path_graph(6)), GF2) == 2
    assert quotient_depth(edge_ideal(cycle_graph(5)), GF2) == 2
    assert quotient_depth(edge_ideal(cycle_graph(4)), GF2) == 1


# sha256 of the sorted (graph6, depth_ideal_both(I(G)^2)) over the 202 edged
# classes with n <= 6, recorded with the unreduced sweep
GOLDEN_SQUARES_N6 = "eba51dd2775d84a39c72d40520d859092d406a285ce3ffaf1bf136c050fb47d4"


def test_square_depths_n6_golden(catalog6):
    clear_depth_cache()
    rows = sorted((emit_graph6(G), depth_ideal_both(edge_ideal(G) ** 2))
                  for G in catalog6 if G.edges())
    assert len(rows) == 202
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_SQUARES_N6


def test_rational_ranks_only_where_mod2_is_alive_in_adjacent_sizes(catalog5, monkeypatch):
    # rational ranks are taken only for complexes whose first mod-2-alive
    # size a has a+1 alive too; elsewhere the mod-2 scan decides, and an
    # F2-only depth takes no rational ranks at all.  That is checked on every
    # complex either depth walk reads (degree complexes or reduced lattice
    # masks); the forced count comes from every reduced lattice mask
    rational = []
    scan = eil.depth._ranks_by_size

    def counting(faces, characteristic, *args, **kwargs):
        if characteristic == 0:
            rational.append(faces)
        return scan(faces, characteristic, *args, **kwargs)

    def forced(faces):
        mod2 = list(scan(faces, 2))
        first = next(s for s, h in enumerate(mod2) if h)
        return first + 1 < len(mod2) and mod2[first + 1] > 0

    monkeypatch.setattr(eil.depth, "_ranks_by_size", counting)

    def forced_masks(I):
        C = ComplexView.from_ideal(polarize(I).ideal)
        reduce = _cone_reducer(C.nonfaces)
        forced = set()
        for R in {reduce(W) for W in lcm_lattice(C.nonfaces)}:
            alive = list(_alive(C, R, GF2))
            if alive and alive[0] + 1 in alive:
                forced.add(R)
        return forced

    squares = [edge_ideal(G) ** 2 for G in catalog5 if G.edges()]
    assert len(squares) == 47
    for I in squares:
        clear_depth_cache()
        depth_ideal(I, GF2)
    assert rational == []
    total = 0
    for I in squares:
        clear_depth_cache()
        rational.clear()
        depth_ideal_both(I)
        assert all(map(forced, rational))
        total += len(forced_masks(I))
    assert total == 2
    # the depth walks take no rational rank on these squares, so the check
    # above holds vacuously; RP^2_6, whose mod-2 homology on its whole vertex
    # set is alive in degrees 1 and 2, is a case where it has to hold
    from test_hochster_oracle import _rp2_ideal

    I = _rp2_ideal()
    clear_depth_cache()
    rational.clear()
    depth_ideal_both(I)
    assert [sum(faces[1]) for faces in rational] == [0x3F]  # the vertices
    assert all(map(forced, rational)) and 0x3F in forced_masks(I)


def _direct_sweep(I, characteristics):
    """pd of S/I from the Hochster sweep alone, bounded only by n_used.  The
    exponents of each used column are ranked here first (0 stays 0, the
    others go to 1, 2, ... in order), which keeps pd, so the polarization
    has as many vertices as the ranks add up to, however large the
    exponents are."""
    columns = []
    for col in zip(*_used_columns(I)):
        rank = {e: r for r, e in enumerate(sorted(set(col) | {0}))}
        columns.append([rank[e] for e in col])
    ranked = MonomialIdeal(tuple(f"v{j}" for j in range(len(columns))), tuple(zip(*columns)))
    nonfaces = ComplexView.from_ideal(polarize(ranked).ideal).nonfaces
    return eil.depth._sweep_pd(nonfaces, characteristics, len(columns))


def _check_bounded_sweep_is_exact(catalog):
    # _pd (socle test, then a depth walk) and the direct sweep against the
    # largest homological degree that Hochster's formula gives on the lcm
    # lattice of the polarized ideal, each mask read whole: no walk order,
    # stop rule or cone reduction is shared with the sweep.  Per field and
    # fused, with a cold memo per ideal
    compared = 0
    for G in catalog:
        if not G.edges():
            continue
        for I in (edge_ideal(G), edge_ideal(G) ** 2):
            C = ComplexView.from_ideal(polarize(I).ideal)
            want = [max(i for i, _ in hochster_betti(C, lcm_lattice(C.nonfaces), field))
                    for field in (GF2, QQ)]
            clear_depth_cache()
            assert eil.depth._pd(I, (2, 0)) == want, emit_graph6(G)
            assert _direct_sweep(I, (2, 0)) == want, emit_graph6(G)
            for c, pd in zip((2, 0), want):
                clear_depth_cache()
                assert eil.depth._pd(I, (c,)) == [pd], emit_graph6(G)
                assert _direct_sweep(I, (c,)) == [pd], emit_graph6(G)
            compared += 2
    return compared


def test_bounded_sweep_is_exact_n5(catalog5):
    assert _check_bounded_sweep_is_exact(catalog5) == 188


@pytest.mark.slow
def test_bounded_sweep_is_exact_n6(catalog6):
    assert _check_bounded_sweep_is_exact(catalog6) == 808


def _check_socle_test_is_exact(ideals):
    # depth S/I = 0 over the used variables exactly when the direct sweep
    # reaches pd = n_used, in both fields
    settled = 0
    for I in ideals:
        rows = _used_columns(I)
        top = len(rows[0])
        socle = eil.depth._has_socle(rows)
        assert [pd == top for pd in _direct_sweep(I, (2, 0))] == [socle] * 2, I
        settled += socle
    return settled


EDGE_SET_CHECKS = ["colon_intersection", "even_connection_depth", "square_colon_depth",
                   "square_colon_formula", "deletion_bound"]


def _suite_ideals(catalog, checks=EDGE_SET_CHECKS, cross_check=False):
    """One ideal per memo key that these checks fill on this catalog when
    every edge is computed: a row mapped along an Aut(G) orbit computes no
    depth, so the ideals of mapped rows alone would be missing."""
    clear_depth_cache()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eil.catalog, "_edge_orbits", lambda G: {})
        run_suite(catalog, checks, GF2, cross_check=cross_check)
    rows = sorted({key for _, key in eil.depth._PD_CACHE})
    return [MonomialIdeal(tuple(f"v{j}" for j in range(len(r[0]))), r) for r in rows]


@pytest.fixture(scope="module")
def suite6_ideals(catalog6):
    # every distinct ideal that a cross-checked n <= 6 run of every check
    # asks for: the checks registered with no depth ask for none, so they are
    # left out
    return _suite_ideals(catalog6, [c for c in CHECKS if CHECKS[c].depth], cross_check=True)


def test_socle_test_matches_the_sweep_n5(catalog5):
    squares = [edge_ideal(G) ** 2 for G in catalog5 if G.edges()]
    assert (len(squares), _check_socle_test_is_exact(squares)) == (47, 23)
    suite = _suite_ideals(catalog5)
    assert (len(suite), _check_socle_test_is_exact(suite)) == (162, 60)


@pytest.mark.slow
def test_socle_test_matches_the_sweep_n7(catalog7):
    squares = [edge_ideal(G) ** 2 for G in catalog7 if G.n == 7 and G.edges()]
    assert (len(squares), _check_socle_test_is_exact(squares)) == (1043, 725)


# non-squarefree ideals, most with a candidate set of three or more values,
# several m-primary (a pure power of every variable, so depth 0), with the
# depth of S/I over their used variables
SOCLE_TABLE = [
    (("x^3", "x^2*y", "y^4"), XY, 0),
    (("x^2", "x*y"), XY, 0),
    (("x^2", "y^3"), XY, 0),
    (("x^3", "x*y^2", "y^3", "x^2*y*z"), XYZ, 0),
    (("x^4", "x^2*y^2", "y^4", "x*y*z^2", "z^3"), XYZ, 0),
    (("x^3*y", "x^2*y^2", "x*y^3", "x*y*z^2"), XYZ, 0),
    (("x^2", "y^2", "z^2", "x*y*z"), XYZ, 0),
    (("x^3", "y^3", "x^2*y^2*z", "x*z^4"), XYZ, 0),
    (("x^2*y", "x*y^2", "x^3*z"), XYZ, 1),
    (("x*y^2", "x*y*z^4", "y^4*z^2"), XYZ, 1),
    (("x^4", "x^3*z", "x^2*y^3*z^2"), XYZ, 1),
    (("x*y^2*z", "y^3*z", "x*z^4", "x^2*y^4"), XYZ, 1),
    (("x^3*y^2*z",), XYZ, 2),
]


def test_socle_test_on_non_squarefree_ideals():
    from test_hochster_oracle import hochster_depth

    wide = 0
    for texts, ambient, depth in SOCLE_TABLE:
        I = ideal(*texts, ambient=ambient)
        rows = _used_columns(I)
        wide += any(len({e for e in col if e}) >= 3 for col in zip(*rows))
        assert eil.depth._has_socle(rows) == (depth == 0), texts
        for c in (2, 0):
            assert hochster_depth(I, c) == len(rows[0]) - _direct_sweep(I, (c,))[0] + 1 == depth + 1, texts
    assert wide == 8


def _socle_by_candidates(rows) -> bool:
    """The socle test by enumeration, the reference for the grid kernel:
    each candidate u has u_j among the values g_j - 1 of column j with
    g_j >= 1, and u and each u * x_i are tested against every generator on
    packed words: h | w iff ((w | GUARD) - h) & GUARD == GUARD."""
    n = len(rows[0])
    b, words = _pack(rows, n)
    guard = _guard(b, n)
    units = [1 << b * (n - 1 - i) for i in range(n)]
    cands = [0]
    for unit, col in zip(units, zip(*rows)):
        steps = [(e - 1) * unit for e in set(col) if e]
        cands = [u + step for u in cands for step in steps]

    def inside(u):
        u |= guard
        return any((u - g) & guard == guard for g in words)

    return any(not inside(u) and all(inside(u + e) for e in units) for u in cands)


def _check_socle_grid_matches_the_candidates(rows):
    verdicts = [eil.depth._has_socle(r) for r in rows]
    assert verdicts == [_socle_by_candidates(r) for r in rows]
    return sum(verdicts)


def test_socle_grid_matches_the_candidates_n6(suite6_ideals):
    rows = [_used_columns(I) for I in suite6_ideals]
    assert (len(rows), _check_socle_grid_matches_the_candidates(rows)) == (1529, 474)


def test_socle_grid_matches_the_candidates_on_random_ideals():
    # unranked rows on up to 7 variables with exponents up to 4: the grid
    # prod_j [0, rho_j - 1] holds more than the candidates wherever a column
    # skips a value, and the verdict must not change
    rng = random.Random(32)
    ideals = [random_monomial_ideal(rng, rng.randint(1, 7), 4, 6) for _ in range(10000)]
    rows = [_used_columns(I) for I in ideals if not I.is_unit]
    assert len(rows) == 10000
    assert sum(any(max(col) > len(set(col) - {0}) for col in zip(*r)) for r in rows) == 8680
    assert _check_socle_grid_matches_the_candidates(rows) == 3026


def test_socle_grid_on_a_matching_and_the_whiskered_triangle():
    # the square of the 5-edge matching a1 b1 ... a5 b5 has 10 columns of
    # largest exponent 2 and no socle; the whiskered triangle's square has one
    labels = [f"{c}{k}" for k in range(1, 6) for c in "ab"]
    matching = graph_from_edges(labels, [(f"a{k}", f"b{k}") for k in range(1, 6)])
    for G, grid, socle in ((matching, 1024, False), (whiskered_triangle(), 64, True)):
        rows = _used_columns(edge_ideal(G) ** 2)
        assert math.prod(max(col) for col in zip(*rows)) == grid
        assert eil.depth._has_socle(rows) == _socle_by_candidates(rows) == socle


def test_socle_grid_top_layer_generators():
    # a generator with two exponents at their column max adds nothing.  In
    # (z^2, xz, xy^2), xy^2 is such (rho_x = 1, rho_y = 2), and taken as a
    # grid point it would make a socle that is not there; so would yz in
    # (x^2, xz, yz), taken into the top layer of y.  In (x^2, xy, y^2), x * x
    # lies in I only through x^2, on the top layer of x, and x is a socle
    # monomial
    no_socle = [_used_columns(ideal(*texts, ambient=XYZ))
                for texts in (("x*z", "x*y^2", "z^2"), ("x^2", "x*z", "y*z"))]
    assert (1, 2, 0) in no_socle[0] and (0, 1, 1) in no_socle[1]
    assert [[max(col) for col in zip(*rows)] for rows in no_socle] == [[1, 2, 2], [2, 1, 1]]
    top_only = _used_columns(ideal("x^2", "x*y", "y^2", ambient=XY))
    assert [g for g in top_only if g[0] <= 2 and not g[1]] == [(2, 0)]
    for rows, socle in [(no_socle[0], False), (no_socle[1], False), (top_only, True)]:
        assert eil.depth._has_socle(rows) == _socle_by_candidates(rows) == socle


def _degree_depths_by_lists(rows, characteristics):
    """Takayama's degree complexes with one N_u per generator in a list, the
    reference for the packed walk of eil.depth._degree_depths: per G, the
    localization's generators; per point a, levels[t] = {j in V : a_j = t}
    and N_u the union over t of levels[t] & {j : u_j > t}.  It leaves a level
    only when the next one starts."""
    n = len(rows[0])
    b, words = _pack(rows, n)
    field = (1 << b) - 1
    depth = dict.fromkeys(characteristics, n - 1)
    memo = {}
    for k in range(n):
        if k >= max(depth.values()):
            break
        for G in combinations(range(n), k):
            V = (1 << n) - 1 ^ sum(1 << j for j in G)
            keep = sum(field << b * (n - 1 - j) for j in _bits(V))
            local = {w & keep for w in words}
            if 0 in local:
                continue
            gens = _minimal(local, b, n)[0]
            rho = [max(col) for col in zip(*gens)]
            if sum(1 << j for j, r in enumerate(rho) if r) != V:
                continue
            above = [[sum(1 << j for j, e in enumerate(u) if e > t) for u in gens] for t in range(max(rho))]
            wide = [j for j in _bits(V) if rho[j] > 1]
            for a in product(*(range(rho[j]) for j in wide)):
                levels = [V] + [0] * (len(above) - 1)
                for j, t in zip(wide, a):
                    if t:
                        levels[0] ^= 1 << j
                        levels[t] |= 1 << j
                N = [0] * len(gens)
                for level, masks in zip(levels, above):
                    N = [x | level & m for x, m in zip(N, masks)]
                if 0 in N:
                    continue
                nonfaces = []
                for x in sorted(set(N), key=int.bit_count):
                    if all(m & ~x for m in nonfaces):
                        nonfaces.append(x)
                if reduce(or_, nonfaces) != V:
                    continue
                if k + nonfaces[0].bit_count() - 1 >= max(depth.values()):
                    continue
                key = frozenset(nonfaces)
                if key not in memo:
                    memo[key] = _first_alive_sizes(_faces_by_size(V, nonfaces), characteristics)
                for c, s in zip(characteristics, memo[key]):
                    if s is not None:
                        depth[c] = min(depth[c], k + s)
    return [depth[c] for c in characteristics]


def _check_packed_walk_matches_the_lists(rows_list, fields=((2, 0),)):
    """The depths of each rows in each tuple of characteristics, the packed
    walk checked against the list walk."""
    out = []
    for rows in rows_list:
        for characteristics in fields:
            want = _degree_depths_by_lists(rows, characteristics)
            assert eil.depth._degree_depths(rows, characteristics) == want, (rows, characteristics)
            out.append(want)
    return out


def test_packed_degree_walk_matches_the_lists_n6(suite6_ideals):
    # every distinct ideal without a socle that a cross-checked n <= 6 run
    # of every check asks for, whichever path the dispatch gives it
    rows = [r for r in map(_used_columns, suite6_ideals) if not eil.depth._has_socle(r)]
    assert len(rows) == 1055
    _check_packed_walk_matches_the_lists(rows, ((2, 0), (2,), (0,)))


def test_packed_degree_walk_every_field_width():
    # N_u fields of 8, 16, 32, 64 and 128 bits: the squares of the stars
    # K_{1,7} and K_{1,15} (8 and 16 used variables, depth S/I = 1 found among
    # the 2^n points of G = {}), and (x_0^2, x_1 x_2, x_3, ..., x_{n-1}),
    # whose quotient is k[x_0]/(x_0^2) (x) k[x_1, x_2]/(x_1 x_2), of depth 1
    # on every n.  There every point has the nonface {n - 1}, which for
    # n = 7, 15, 31, 63 and 127 sits just below the top bit of its field;
    # past 64 bits the fields are read by shifts
    def star(r):
        leaves = [f"l{i}" for i in range(r)]
        return graph_from_edges(["c", *leaves], [("c", v) for v in leaves])

    rows = [_used_columns(edge_ideal(star(r)) ** 2) for r in (7, 15)]
    for n in (7, 15, 31, 63, 127):
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        rows.append(tuple([tuple(2 * e for e in unit[0]), tuple(map(or_, unit[1], unit[2])), *unit[3:]]))
    assert [8 << (len(r[0]) // 8).bit_length() for r in rows] == [16, 32, 8, 16, 32, 64, 128]
    assert _check_packed_walk_matches_the_lists(rows) == [[1, 1]] * len(rows)


def _degree_pd(I, characteristics):
    """pd of S/I from Takayama's degree complexes alone."""
    rows = _used_columns(I)
    return [len(rows[0]) - d for d in eil.depth._degree_depths(rows, characteristics)]


def _check_degree_complexes_match_the_sweep(ideals, single=False):
    # the fused walk, which stops on the rational best, and with single each
    # field on its own, against the direct sweep, or against pd = n_used
    # where the socle test (checked against the sweep above) fires; returns
    # how many ideals have a depth that depends on the field
    split = 0
    for I in ideals:
        rows = _used_columns(I)
        want = [len(rows[0])] * 2 if eil.depth._has_socle(rows) else _direct_sweep(I, (2, 0))
        assert _degree_pd(I, (2, 0)) == want, I
        if single:
            assert [_degree_pd(I, (c,))[0] for c in (2, 0)] == want, I
        split += want[0] != want[1]
    return split


def test_degree_complexes_match_the_sweep_n6(suite6_ideals):
    # socle or not, whichever path the dispatch picks.  The single fields,
    # through the dispatch, are compared on n <= 5 in
    # test_bounded_sweep_is_exact_n5
    assert len(suite6_ideals) == 1529
    assert _check_degree_complexes_match_the_sweep(suite6_ideals) == 0


@pytest.mark.slow
def test_degree_complexes_match_the_sweep_n7(catalog7):
    # the ideals with no socle, the ones that reach either depth walk
    graphs = [G for G in catalog7 if G.n == 7 and G.edges()]
    for make, count in ((lambda G: edge_ideal(G) ** 2, 318), (symbolic_square_edge_ideal, 1043)):
        ideals = [make(G) for G in graphs]
        ideals = [I for I in ideals if not eil.depth._has_socle(_used_columns(I))]
        assert len(ideals) == count
        assert _check_degree_complexes_match_the_sweep(ideals) == 0


def test_degree_complexes_on_non_squarefree_ideals():
    # exponents up to 3, so a runs over up to three values per variable, and
    # the hand table of non-squarefree ideals, whose depths are known
    rng = random.Random(2005)
    ideals = [random_monomial_ideal(rng, rng.randint(2, 5), 3, 6) for _ in range(80)]
    ideals = [I for I in ideals if not I.is_unit]
    assert sum(max(map(max, I.gens)) == 3 for I in ideals) == 59
    assert _check_degree_complexes_match_the_sweep(ideals, single=True) == 0
    for texts, ambient, depth in SOCLE_TABLE:
        I = ideal(*texts, ambient=ambient)
        assert eil.depth._degree_depths(_used_columns(I), (2, 0)) == [depth] * 2, texts
        assert _check_degree_complexes_match_the_sweep([I], single=True) == 0


def test_wide_exponents_are_ranked_before_any_walk(monkeypatch):
    # a map of each column that keeps order and fixes 0 leaves the lcm
    # lattice, and so pd, as it is: every nonzero exponent e moved to 120 + 7e
    # gives the same depths, and neither walk is fed an exponent above the
    # number of distinct values in its column, so neither grows with the
    # exponents' size: the sweep's nonfaces span at most the used variables
    walked = []
    span = []  # the used variables of the ideal in hand

    def spy(name, within):
        real = getattr(eil.depth, name)

        def checked(*args):
            assert within(*args), (name, args)
            walked.append(name)
            return real(*args)
        monkeypatch.setattr(eil.depth, name, checked)

    spy("_degree_depths", lambda rows, characteristics:
        all(max(col) <= len(set(col)) for col in zip(*rows)))
    spy("_sweep_pd", lambda nonfaces, characteristics, top:
        max(nonfaces).bit_length() <= span[-1])
    rng = random.Random(1999)
    ideals = [random_monomial_ideal(rng, rng.randint(2, 4), 3, 8) for _ in range(40)]
    ideals += [ideal(*texts, ambient=ambient) for texts, ambient, _ in SOCLE_TABLE]
    ideals.append(edge_ideal(cycle_graph(5)) ** 2)
    for I in ideals:
        if I.is_unit:
            continue
        span.append(len(_used_columns(I)[0]))
        wide = MonomialIdeal(I.ambient, tuple(tuple(e and 120 + 7 * e for e in g) for g in I.gens))
        for call in (depth_ideal_both, lambda J: depth_ideal(J, GF2), lambda J: depth_ideal(J, QQ)):
            clear_depth_cache()
            want = call(I)
            clear_depth_cache()
            assert call(wide) == want, I
    # both walks are reached: of the ideals without a socle, those with a
    # ranked exponent above 1 go to the degree complexes, the squarefree
    # ones to the sweep
    assert (walked.count("_degree_depths"), walked.count("_sweep_pd")) == (102, 48)


def _spy_paths(monkeypatch):
    """The depth walks that _pd calls, in order, into the returned list."""
    paths = []
    for name in ("_degree_depths", "_sweep_pd"):
        def spy(*args, _real=getattr(eil.depth, name), _name=name):
            paths.append(_name)
            return _real(*args)
        monkeypatch.setattr(eil.depth, name, spy)
    return paths


def _matching(m):
    labels = [f"{c}{k}" for k in range(1, m + 1) for c in "ab"]
    return graph_from_edges(labels, [(f"a{k}", f"b{k}") for k in range(1, m + 1)])


def _squarefree(width, supports):
    amb = tuple(f"v{j}" for j in range(width))
    return MonomialIdeal(amb, tuple(tuple(int(j in S) for j in range(width)) for S in supports))


# t^2 x1..x4, t x5..x9, x10..x14 (v0 is t): 3 generators on 15 variables,
# depth S/I = 12 = n_used - m, Taylor's floor
T2 = MonomialIdeal(tuple(f"v{j}" for j in range(15)),
                   ((2, 1, 1, 1, 1) + (0,) * 10, (1,) + (0,) * 4 + (1,) * 5 + (0,) * 5, (0,) * 10 + (1,) * 5))


def test_dispatch_sends_only_squarefree_ideals_to_the_sweep(monkeypatch):
    # without a socle, an ideal with a ranked exponent above 1 goes to the
    # degree complexes and a squarefree one to the sweep, whatever its
    # numbers of variables and generators.  To the sweep: a squarefree ideal
    # on 12 variables with 3 generators (depth S/I = 9), the path P5 (4
    # generators on 5 variables) and the complete intersection of 3
    # squarefree generators on 15 variables.  To the degree complexes: the
    # square of the 5-cycle (15 generators, 3^5 pairs) and T2 (3 generators
    # on 15 variables); test_matching_powers_are_cohen_macaulay has more
    paths = _spy_paths(monkeypatch)
    wide = _squarefree(12, (range(0, 5), range(4, 9), range(7, 12)))
    ci = _squarefree(15, (range(0, 5), range(5, 10), range(10, 15)))
    cases = [(wide, "_sweep_pd", 10), (edge_ideal(path_graph(5)), "_sweep_pd", 3),
             (edge_ideal(cycle_graph(5)) ** 2, "_degree_depths", 3)]
    for I, path, depth in cases:
        assert not eil.depth._has_socle(_used_columns(I))
        for call in (lambda J: depth_ideal(J, GF2), lambda J: depth_ideal(J, QQ), depth_ideal_both):
            clear_depth_cache()
            paths.clear()
            assert call(I) in (depth, (depth, depth))
            assert paths == [path]
    for I, path, depth in [(ci, "_sweep_pd", 13), (T2, "_degree_depths", 13)]:
        assert not eil.depth._has_socle(_used_columns(I))
        clear_depth_cache()
        paths.clear()
        assert depth_ideal_both(I) == (depth, depth)
        assert paths == [path]


def test_degree_walk_stops_at_taylors_floor(monkeypatch):
    # T2 has depth S/I = 12 = n_used - m, found on the first complex the walk
    # reads (G = {}); the floor ends the walk there.  Without it the walk
    # goes on through the layers |G| = 1, ..., 11 and lists more faces:
    # the second listing fails here, long before that walk would end
    calls = []
    faces = eil.depth._faces_by_size

    def counting(W, nonfaces):
        calls.append(W)
        assert len(calls) == 1, "the degree walk went past Taylor's floor"
        return faces(W, nonfaces)

    monkeypatch.setattr(eil.depth, "_faces_by_size", counting)
    rows = _used_columns(T2)
    assert len(rows[0]) - len(rows) == 12
    for characteristics in ((2, 0), (2,), (0,)):
        calls.clear()
        assert eil.depth._degree_depths(rows, characteristics) == [12] * len(characteristics)
        assert len(calls) == 1


def test_degree_walk_on_few_generator_ideals(monkeypatch):
    # seeded ideals with a ranked exponent above 1, no socle and more used
    # variables than generators, drawn on 5 to 9 variables with 2 to 6
    # generators and exponents up to 3, and kept as drawn.  The reference
    # sweep ranks before it polarizes and lists faces on sum_j rho_j
    # polarized vertices, so that sum of the ranks is held to 14; the
    # exponents as drawn add up to more than 14 in 17 of the 40.  _pd sends
    # each to the degree complexes, and its answer, per field and fused, is
    # the direct sweep's
    paths = _spy_paths(monkeypatch)
    rng = random.Random(34)
    ideals = []
    wide = 0
    while len(ideals) < 40:
        n = rng.randint(5, 9)
        gens = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n)) for _ in range(rng.randint(2, 6))]
        if not all(map(any, gens)):
            continue
        I = MonomialIdeal(tuple(f"v{j}" for j in range(n)), tuple(gens))
        rows = _used_columns(I)
        ranked = tuple(zip(*(map(sorted({0, *col}).index, col) for col in zip(*rows))))
        rho = [max(col) for col in zip(*ranked)]
        if max(rho) > 1 and len(rho) > len(ranked) and sum(rho) <= 14 and not eil.depth._has_socle(ranked):
            ideals.append(I)
            wide += sum(map(max, zip(*rows))) > 14
    assert wide == 17
    # 6 variables, 3 generators, exponents up to 3: 18 polarized vertices as
    # drawn, 12 ranked, and pd 3
    I = MonomialIdeal(tuple(f"v{j}" for j in range(6)),
                      ((3, 2, 0, 1, 0, 3), (1, 3, 3, 0, 2, 0), (0, 0, 1, 3, 3, 2)))
    assert _direct_sweep(I, (2, 0)) == [3, 3]
    ideals.append(I)
    for I in ideals:
        for characteristics in ((2, 0), (2,), (0,)):
            want = _direct_sweep(I, characteristics)
            clear_depth_cache()
            paths.clear()
            assert eil.depth._pd(I, characteristics) == want, I
            assert paths == ["_degree_depths"], I


def test_matching_powers_are_cohen_macaulay(monkeypatch):
    # a matching of m edges is a complete intersection, so I^k is
    # Cohen-Macaulay of dimension m: module depth m + 1.  The first powers
    # and the square of one edge are squarefree once ranked and go to the
    # sweep; the squares from 2 edges on have a ranked exponent 2 and go to
    # the degree complexes.  The 5-edge square (15 generators on 10
    # variables) ran past a minute on the sweep and takes about 0.4 s on the
    # degree complexes
    paths = _spy_paths(monkeypatch)
    walked = {}
    for m in range(1, 6):
        for k in (1, 2):
            clear_depth_cache()
            paths.clear()
            assert depth_ideal_both(edge_ideal(_matching(m)) ** k) == (m + 1, m + 1), (m, k)
            walked[m, k] = paths[:]
    sweep, degree = ["_sweep_pd"], ["_degree_depths"]
    assert walked == {**{(m, 1): sweep for m in range(1, 6)}, (1, 2): sweep,
                      **{(m, 2): degree for m in range(2, 6)}}


def test_bounded_sweep_work_counts(catalog5, monkeypatch):
    # pinned so that a change to the bound, the walk order, the socle test,
    # the dispatch or the degree-complex walk changes a count: the direct
    # sweep on the polarized squares, then depth_ideal, where a square
    # without a socle goes to the degree complexes unless its ranked
    # exponents are squarefree, as for a single edge
    calls = []
    faces = eil.depth._faces_by_size

    def counting(W, nonfaces):
        calls.append(W)
        return faces(W, nonfaces)

    monkeypatch.setattr(eil.depth, "_faces_by_size", counting)
    squares = [edge_ideal(G) ** 2 for G in catalog5 if G.edges()]
    for I in squares:
        _direct_sweep(I, (2,))
    assert len(calls) == 162
    calls.clear()
    for I in squares:
        clear_depth_cache()
        depth_ideal(I, GF2)
    assert len(calls) == 90
    W3 = edge_ideal(whiskered_triangle()) ** 2
    calls.clear()
    _direct_sweep(W3, (2,))
    assert len(calls) == 3
    calls.clear()
    clear_depth_cache()
    depth_ideal(W3, GF2)
    assert calls == []


def test_socle_test_settles_most_squares(catalog6):
    squares = {_used_columns(edge_ideal(G) ** 2) for G in catalog6 if G.edges()}
    assert (len(squares), sum(map(eil.depth._has_socle, squares))) == (155, 96)


def test_lattice_walk_goes_by_decreasing_size(monkeypatch):
    # the masks the sweep cone-reduces are the first ones of the lcm lattice
    # by nonincreasing bit count, ties in increasing mask order
    walked = []
    real = eil.depth._cone_reducer

    def recording(nonfaces):
        reduce = real(nonfaces)

        def walk(W):
            walked.append(W)
            return reduce(W)
        return walk

    monkeypatch.setattr(eil.depth, "_cone_reducer", recording)
    C = ComplexView.from_ideal(polarize(edge_ideal(whiskered_triangle()) ** 2).ideal)
    eil.depth._sweep_pd(C.nonfaces, (2, 0), len(C.ambient))
    order = sorted(lcm_lattice(C.nonfaces), key=lambda W: (-W.bit_count(), W))
    assert len(walked) > 1 and walked == order[:len(walked)]


def _used_columns(I):
    used = [j for j in range(len(I.ambient)) if any(g[j] for g in I.gens)]
    return tuple(tuple(g[j] for j in used) for g in I.gens)


def test_depth_memo_is_keyed_by_the_used_columns(catalog5, monkeypatch):
    # one memo entry per distinct generator matrix without unused variables:
    # relabeled copies are not merged, an unused variable is not seen
    seen = []
    depth = eil.checks.depth_ideal

    def spy(I, field=GF2):
        seen.append(I)
        return depth(I, field)

    monkeypatch.setattr(eil.checks, "depth_ideal", spy)
    checks = ["colon_intersection", "even_connection_depth", "square_colon_depth",
              "square_colon_formula", "deletion_bound"]
    clear_depth_cache()
    run_suite(catalog5, checks, GF2)
    assert len(seen) > len(eil.depth._PD_CACHE) > 0
    assert len(eil.depth._PD_CACHE) == len({_used_columns(I) for I in seen})

    clear_depth_cache()
    I = edge_ideal(path_graph(4)) ** 2
    J = MonomialIdeal(("w",) + I.ambient, tuple((0,) + g for g in I.gens))
    assert depth_ideal(J, GF2) == depth_ideal(I, GF2) + 1
    assert len(eil.depth._PD_CACHE) == 1


def test_depth_zero_and_unit_ideals():
    for I in (MonomialIdeal.zero(XYZ), ideal("1")):
        for call in (lambda J: depth_ideal(J, GF2), lambda J: depth_ideal(J, QQ), depth_ideal_both):
            with pytest.raises(ValueError):
                call(I)


def test_maximal_ideal_quotient():
    I = ideal("x", "y", "z")
    assert (quotient_pd(I, GF2), quotient_depth(I, GF2)) == (3, 0)


def test_free_variable_shift():
    rng = random.Random(271)
    for _ in range(25):
        I = random_monomial_ideal(rng, rng.randint(1, 4), 3, 4)
        if I.is_unit:
            continue
        wider = MonomialIdeal(I.ambient + ("spare",), tuple(g + (0,) for g in I.gens))
        assert quotient_pd(wider, GF2) == quotient_pd(I, GF2)
        assert quotient_depth(wider, GF2) == quotient_depth(I, GF2) + 1


def test_complete_intersections_have_pd_k():
    rng = random.Random(31337)
    for _ in range(20):
        width = rng.randint(2, 6)
        amb = tuple(f"v{k}" for k in range(width))
        vars_left = list(range(width))
        rng.shuffle(vars_left)
        k = rng.randint(1, width)
        blocks = [vars_left[i::k] for i in range(k)]
        gens = []
        for block in blocks:
            vec = [0] * width
            for v in block[: rng.randint(1, len(block))]:
                vec[v] = rng.randint(1, 3)
            if not any(vec):
                vec[block[0]] = 1
            gens.append(tuple(vec))
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        if any(a & b for a, b in combinations(supports, 2)):
            continue
        I = MonomialIdeal(amb, tuple(gens))
        assert quotient_pd(I, GF2) == len(I.gens)


def test_polarization_bridge_on_random_ideals():
    rng = random.Random(509)
    taylor_checked = 0
    for trial in range(100):
        I = random_monomial_ideal(rng, rng.randint(1, 5), 3, 4)
        if I.is_unit:
            continue
        res = polarize(I)
        for field in (GF2, QQ):
            dq = quotient_depth(I, field)
            dq_pol = quotient_depth(res.ideal, field)
            assert dq == dq_pol - res.extra
        if len(I.gens) <= 5 and trial % 3 == 0:
            # polarization preserves total Betti numbers; the Taylor strand
            # oracle computes them without polarizing
            totals = taylor_total_betti(I, 2)
            C = ComplexView.from_ideal(res.ideal)
            hochster = {}
            betti = hochster_betti(C, lcm_lattice(C.nonfaces), GF2, _cone_reducer(C.nonfaces))
            for (i, _), r in betti.items():
                hochster[i] = hochster.get(i, 0) + r
            assert totals == hochster
            taylor_checked += 1
    assert taylor_checked >= 20


def test_field_agreement_and_fused_path():
    calls = {
        "both": depth_ideal_both,
        "F2": lambda I: depth_ideal(I, GF2),
        "Q": lambda I: depth_ideal(I, QQ),
    }
    rng = random.Random(613)
    for _ in range(20):
        I = random_monomial_ideal(rng, rng.randint(2, 5), 2, 5)
        if I.is_unit or I.is_zero:
            continue
        cold = {}
        for name, call in calls.items():
            clear_depth_cache()
            cold[name] = call(I)
        assert cold["both"] == (cold["F2"], cold["Q"])
        # one sweep may fill several memo keys: no call order may change a value
        for order in permutations(calls):
            clear_depth_cache()
            for name in order:
                assert calls[name](I) == cold[name], order


def test_depth_cache_transparent():
    I = edge_ideal(complete_graph(3))
    clear_depth_cache()
    first = depth_ideal(I, GF2)
    second = depth_ideal(I, GF2)
    assert first == second

