"""Depth engine: homology conventions, Hochster scan, depth bookkeeping.

The homology index conventions are validated first; everything else builds
on them.  The independent oracle is the Taylor-complex strand: its field
arithmetic (dense Fraction/mod-2 elimination) shares nothing with the
engine's bitset and sparse-integer paths.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import eil.checks
import eil.depth
from eil.depth import (
    GF2,
    QQ,
    ComplexView,
    DepthResult,
    FieldChoice,
    _cone_reducer,
    _faces_by_size,
    _lattice_homology,
    _rank_exact,
    betti_numbers,
    betti_table_rows,
    clear_depth_cache,
    depth_ideal,
    depth_ideal_both,
    depth_quotient,
    reduced_homology_dims,
)
from eil.graphs import complete_graph, cycle_graph, emit_graph6, path_graph, whiskered_triangle
from eil.ideals import MonomialIdeal, edge_ideal, polarize
from eil.suite import run_suite

XY = ("x", "y")
XYZ = ("x", "y", "z")


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
        ComplexView.from_ideal(MonomialIdeal.from_strings(XY, ["x^2"]))


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
# Betti numbers


def test_betti_principal_quadric():
    I = MonomialIdeal.from_strings(XY, ["x*y"])
    assert betti_numbers(I, GF2) == {(0, 0): 1, (1, 0b11): 1}


def test_betti_zero_ideal():
    assert betti_numbers(MonomialIdeal.zero(XY), GF2) == {(0, 0): 1}


def test_betti_rejects_unit_and_nonsquarefree():
    with pytest.raises(ValueError):
        betti_numbers(MonomialIdeal.from_strings(XY, ["1"]), GF2)
    with pytest.raises(ValueError):
        betti_numbers(MonomialIdeal.from_strings(XY, ["x^2"]), GF2)


def test_betti_shared_variable_pair():
    # two generators with a shared variable: the Taylor resolution is minimal
    amb = ("x1", "x2", "y1")
    I = MonomialIdeal.from_strings(amb, ["x1*x2", "x1*y1"])
    oracle = taylor_betti(I, 2)
    assert max(i for i, _ in oracle) == 2  # pd(S/I) = 2, settled by the oracle
    got = betti_numbers(I, GF2)
    assert got == {(0, 0): 1, (1, 0b011): 1, (1, 0b101): 1, (2, 0b111): 1}
    assert depth_quotient(I, GF2).pd_quotient == 2


def test_betti_matches_taylor_oracle_random_squarefree():
    rng = random.Random(8191)
    for _ in range(40):
        I = random_squarefree_ideal(rng, rng.randint(2, 6), 5)
        if I.is_unit:
            continue
        for field in (GF2, QQ):
            oracle = {}
            for (i, vec), r in taylor_betti(I, field.characteristic).items():
                mask = sum(1 << k for k, e in enumerate(vec) if e)
                oracle[(i, mask)] = r
            assert betti_numbers(I, field) == oracle


def test_lcm_pruning_is_lossless():
    # scanning every one of the 2^n masks must reproduce the pruned table
    rng = random.Random(4099)
    for _ in range(15):
        I = random_squarefree_ideal(rng, rng.randint(2, 5), 4)
        if I.is_unit:
            continue
        C = ComplexView.from_ideal(I)
        width = len(I.ambient)
        for field in (GF2, QQ):
            unpruned = {(0, 0): 1}
            for W in range(1, 1 << width):
                for d, r in reduced_homology_dims(C, W, field).items():
                    if r:
                        unpruned[(W.bit_count() - 1 - d, W)] = r
            assert betti_numbers(I, field) == unpruned


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
            before = {d: r for d, r in reduced_homology_dims(C, W, field).items() if r}
            after = {d: r for d, r in reduced_homology_dims(C, reduced, field).items() if r}
            assert before == after


def test_cone_reduction_counts_whiskered_triangle_square():
    # pinned so that a change to the pruning or the reduction shows in review
    C = ComplexView.from_ideal(polarize(edge_ideal(whiskered_triangle()) ** 2).ideal)
    masks = [W for W, _ in _lattice_homology(C.nonfaces, len)]
    reduce = _cone_reducer(C.nonfaces)
    assert (len(C.ambient), len(masks), len({reduce(W) for W in masks})) == (12, 181, 53)


def test_cone_reduction_is_lossless_on_squares(catalog5):
    # the unreduced oracle scans every mask of the polarized I(G)^2
    for G in catalog5:
        if not G.num_edges():
            continue
        I = polarize(edge_ideal(G) ** 2).ideal
        C = ComplexView.from_ideal(I)
        for field in (GF2, QQ):
            oracle = {(0, 0): 1}
            for W in range(1, 1 << len(I.ambient)):
                for d, r in reduced_homology_dims(C, W, field).items():
                    if r:
                        oracle[(W.bit_count() - 1 - d, W)] = r
            assert betti_numbers(I, field) == oracle, emit_graph6(G)


def test_betti_table_rows_format():
    I = MonomialIdeal.from_strings(XY, ["x*y"])
    assert betti_table_rows(betti_numbers(I, GF2)) == [(0, 0, "0", 1), (1, 2, "3", 1)]


# ---------------------------------------------------------------------------
# depth of quotients and ideals


def test_depth_principal_quadric():
    I = MonomialIdeal.from_strings(XY, ["x*y"])
    r = depth_quotient(I, GF2)
    assert (r.pd_quotient, r.depth_quotient, r.depth_ideal) == (1, 1, 2)


def test_depth_triangle():
    I = edge_ideal(complete_graph(3))
    r = depth_quotient(I, GF2)
    assert (r.depth_quotient, r.depth_ideal) == (1, 2)


def test_depth_triangle_square_has_depth_one():
    I = edge_ideal(complete_graph(3))
    assert depth_quotient(I ** 2, GF2).depth_quotient == 0
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
    assert depth_quotient(edge_ideal(path_graph(4)), GF2).depth_quotient == 2
    assert depth_quotient(edge_ideal(path_graph(6)), GF2).depth_quotient == 2
    assert depth_quotient(edge_ideal(cycle_graph(5)), GF2).depth_quotient == 2
    assert depth_quotient(edge_ideal(cycle_graph(4)), GF2).depth_quotient == 1


# sha256 of the sorted (graph6, depth_ideal_both(I(G)^2)) over the 202 edged
# classes with n <= 6, recorded with the unreduced sweep
GOLDEN_SQUARES_N6 = "eba51dd2775d84a39c72d40520d859092d406a285ce3ffaf1bf136c050fb47d4"


def test_square_depths_n6_golden(catalog6):
    clear_depth_cache()
    rows = sorted((emit_graph6(G), depth_ideal_both(edge_ideal(G) ** 2))
                  for G in catalog6 if G.num_edges())
    assert len(rows) == 202
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == GOLDEN_SQUARES_N6


def test_rational_ranks_only_where_mod2_is_alive_in_adjacent_sizes(catalog5, monkeypatch):
    # rational ranks are taken for exactly the reduced masks whose first
    # mod-2-alive size a has a+1 alive too; elsewhere the mod-2 scan decides,
    # and an F2-only depth takes no rational ranks at all
    rational = []
    scan = eil.depth._ranks_by_size

    def counting(faces, characteristic, *args, **kwargs):
        if characteristic == 0:
            rational.append(len(faces))
        return scan(faces, characteristic, *args, **kwargs)

    monkeypatch.setattr(eil.depth, "_ranks_by_size", counting)
    squares = [edge_ideal(G) ** 2 for G in catalog5 if G.num_edges()]
    assert len(squares) == 47
    for I in squares:
        clear_depth_cache()
        depth_ideal(I, GF2)
    assert rational == []
    forced = 0
    for I in squares:
        clear_depth_cache()
        depth_ideal_both(I)
        C = ComplexView.from_ideal(polarize(I).ideal)
        reduce = _cone_reducer(C.nonfaces)
        for R in {reduce(W) for W, _ in _lattice_homology(C.nonfaces, len)}:
            alive = [d for d, r in reduced_homology_dims(C, R, GF2).items() if r]
            forced += bool(alive) and alive[0] + 1 in alive
    assert len(rational) == forced == 2


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
    zero = MonomialIdeal.zero(XYZ)
    r = depth_quotient(zero, GF2)
    assert r.depth_quotient == 3 and r.pd_quotient == 0 and r.depth_ideal is None
    unit = MonomialIdeal.from_strings(XYZ, ["1"])
    with pytest.raises(ValueError):
        depth_quotient(unit, GF2)
    with pytest.raises(ValueError):
        depth_ideal(zero, GF2)
    with pytest.raises(ValueError):
        depth_ideal(unit, GF2)


def test_depth_result_bookkeeping_enforced():
    with pytest.raises(ValueError):
        DepthResult(3, 1, 1, 2, GF2)


def test_maximal_ideal_quotient():
    I = MonomialIdeal.from_strings(XYZ, ["x", "y", "z"])
    r = depth_quotient(I, GF2)
    assert r.pd_quotient == 3 and r.depth_quotient == 0


def test_free_variable_shift():
    rng = random.Random(271)
    for _ in range(25):
        I = random_monomial_ideal(rng, rng.randint(1, 4), 3, 4)
        if I.is_unit:
            continue
        r = depth_quotient(I, GF2)
        wider = MonomialIdeal(I.ambient + ("spare",), tuple(g + (0,) for g in I.gens))
        rw = depth_quotient(wider, GF2)
        assert rw.pd_quotient == r.pd_quotient
        assert rw.depth_quotient == r.depth_quotient + 1


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
        assert depth_quotient(I, GF2).pd_quotient == len(I.gens)


def test_polarization_bridge_on_random_ideals():
    rng = random.Random(509)
    taylor_checked = 0
    for trial in range(100):
        I = random_monomial_ideal(rng, rng.randint(1, 5), 3, 4)
        if I.is_unit:
            continue
        res = polarize(I)
        for field in (GF2, QQ):
            dq = depth_quotient(I, field).depth_quotient
            dq_pol = depth_quotient(res.ideal, field).depth_quotient
            assert dq == dq_pol - res.extra
        if len(I.gens) <= 5 and trial % 3 == 0:
            # polarization preserves total Betti numbers; the Taylor strand
            # oracle computes them without polarizing
            totals = taylor_total_betti(I, 2)
            engine = {}
            for (i, _), r in betti_numbers(res.ideal, GF2).items():
                engine[i] = engine.get(i, 0) + r
            assert totals == engine
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
    first = depth_quotient(I, GF2)
    second = depth_quotient(I, GF2)
    assert first == second


def test_depth_quotient_with_betti_table():
    I = edge_ideal(complete_graph(3)) ** 2
    for field in (GF2, QQ):
        r = depth_quotient(I, field, want_betti=True)
        # the attached table describes the polarized ideal; its top degree is pd
        assert max(i for i, _ in r.betti) == r.pd_quotient == 3
        assert r.betti[(0, 0)] == 1
        assert depth_quotient(I, field).pd_quotient == r.pd_quotient
