"""Monomial-ideal arithmetic: minimal generators, colon, intersection,
symbolic squares, polarization.

Membership laws are the working oracle: v in (I:m) iff v*m in I, and
v in I meet J iff v lies in both.  Random monomials are seeded, so failures
replay.
"""

import random

import pytest

from eil.graphs import (
    complete_graph,
    delete_vertices,
    empty_graph,
    graph_from_edges,
    path_graph,
    random_graph,
    whiskered_triangle,
)
from eil.ideals import (
    MonomialIdeal,
    edge_ideal,
    format_monomial,
    ideal_digest,
    minimalize,
    parse_monomial,
    polarize,
    symbolic_square_edge_ideal,
)

XYZ = ("x", "y", "z")


def ideal(*texts, ambient=XYZ):
    return MonomialIdeal(ambient, tuple(parse_monomial(ambient, t) for t in texts))


def random_monomial(rng, width, max_degree):
    vec = [0] * width
    for _ in range(rng.randint(0, max_degree)):
        vec[rng.randrange(width)] += 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# construction and minimal generators


def test_minimalize_drops_multiples():
    assert ideal("y", "y*z", "x*y") == ideal("y")
    assert ideal("x^2", "x") == ideal("x")


def test_minimalize_mixed_example():
    got = ideal("x*y", "x*z", "y*z", "x*z^2", "z^2", "y*z^2")
    assert got == ideal("x*y", "x*z", "y*z", "z^2")


def test_minimalize_rejects_wrong_width():
    with pytest.raises(ValueError):
        minimalize([(1, 0)], 3)


# ---------------------------------------------------------------------------
# tuple references for the packed kernels


def _divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def _minimalize_by_scan(gens, width):
    """minimalize before packing: sort by (degree, descending lex), then keep
    each monomial no kept one divides; the reference for the packed kernel."""
    unique = sorted(set(tuple(g) for g in gens), key=lambda u: (sum(u), tuple(-e for e in u)))
    for g in unique:
        if len(g) != width:
            raise ValueError(f"monomial width {len(g)} does not match ambient {width}")
    kept = []
    for g in unique:
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return tuple(kept)


# around every field width the kernel can pick: 1 to 5 bits and whole bytes,
# where the degree or an exponent reaching 128 or 256 moves off the byte path
STRADDLE = (0, 1, 2, 3, 4, 7, 8, 15, 16)
WIDE = STRADDLE + (63, 64, 127, 128, 129, 255, 256, 1000)


@pytest.mark.parametrize("width", range(9))
def test_packed_minimalize_matches_tuple_scan(width):
    rng = random.Random(width)
    for _ in range(400):
        values = rng.choice([(0, 1), (0, 1, 2), STRADDLE, WIDE])
        gens = [tuple(rng.choice(values) for _ in range(width))
                for _ in range(rng.randint(0, 10))]
        gens += rng.sample(gens, min(len(gens), 3))  # duplicates
        assert minimalize(gens, width) == _minimalize_by_scan(gens, width), gens
    zero = (0,) * width
    assert minimalize([], width) == ()
    assert minimalize([zero, zero], width) == (zero,)
    assert minimalize([(2,) * width, zero, (1,) * width], width) == (zero,)


def test_packed_minimalize_field_boundaries():
    cases = [[(0, 0), (0, 128)], [(1, 0), (1, 128)],  # 128 in a byte would set its guard
             [(127, 0), (64, 64), (128, 0), (0, 128)],  # degree 128 leaves the byte path
             [(255, 1), (256, 0), (255, 0), (0, 256)],  # bytes() refuses 256
             [(7, 8), (8, 7), (15, 16), (16, 15), (8, 8)]]
    for gens in cases:
        assert minimalize(gens, 2) == _minimalize_by_scan(gens, 2)
    with pytest.raises(ValueError, match="width 1 does not match ambient 2"):
        minimalize([(1, 0), (1,)], 2)
    for gens in ([(1, -1)], [(300, 0), (0, -2)]):
        with pytest.raises(ValueError, match="nonnegative"):
            minimalize(gens, 2)


def test_zero_and_unit():
    zero = MonomialIdeal.zero(XYZ)
    unit = ideal("1")
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert unit.contains(parse_monomial(XYZ, "x"))
    assert not zero.contains(parse_monomial(XYZ, "x"))


def test_pretty_and_parse_roundtrip():
    I = ideal("x*y", "z^2")
    assert I.pretty() == "(x*y, z^2)"
    assert I == MonomialIdeal(XYZ, ((1, 1, 0), (0, 0, 2)))
    assert format_monomial(XYZ, parse_monomial(XYZ, "x^2*z")) == "x^2*z"
    for bad in ("x^", "x*y^", "w", "x^-1", "x^2*x^-1"):
        with pytest.raises(ValueError):
            parse_monomial(XYZ, bad)
    assert MonomialIdeal.zero(XYZ).pretty() == "(0)"


def test_ideal_digest_short_and_hashed():
    assert ideal_digest(ideal("x*y")) == "(x*y)"
    wide = tuple(f"v{i}" for i in range(40))
    big = MonomialIdeal(wide, tuple(
        tuple(1 if k in (i, i + 1) else 0 for k in range(40)) for i in range(39)
    ))
    assert ideal_digest(big).startswith("39gens:")


# ---------------------------------------------------------------------------
# edge ideals


def test_edge_ideal_examples():
    assert edge_ideal(complete_graph(2)).pretty() == "(x1*x2)"
    assert edge_ideal(complete_graph(3)) == ideal(
        "x1*x2", "x1*x3", "x2*x3", ambient=("x1", "x2", "x3"))
    z = edge_ideal(empty_graph(3))
    assert z.is_zero and len(z.ambient) == 3


# ---------------------------------------------------------------------------
# sum, product, power


def test_power_of_principal():
    assert ideal("x*y") ** 2 == ideal("x^2*y^2")


def test_power_one_is_identity():
    I = edge_ideal(complete_graph(3))
    assert I ** 1 == I


def test_power_square_of_triangle():
    I = edge_ideal(complete_graph(3))
    amb = I.ambient
    expected = ideal("x1^2*x2^2", "x1^2*x2*x3", "x1^2*x3^2", "x1*x2^2*x3", "x1*x2*x3^2",
                     "x2^2*x3^2", ambient=amb)
    assert I ** 2 == expected


def test_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        edge_ideal(complete_graph(2)) ** 0


def test_ambient_mismatch_raises():
    I = ideal("x*y")
    J = ideal("x*y", ambient=("x", "y"))
    for op in (lambda: I + J, lambda: I * J, lambda: I.intersect(J)):
        with pytest.raises(ValueError):
            op()


# ---------------------------------------------------------------------------
# colon and intersection


def test_colon_examples():
    assert ideal("x*y").colon(parse_monomial(XYZ, "x")) == ideal("y")
    I = edge_ideal(complete_graph(3))
    assert I.colon(parse_monomial(I.ambient, "1")) == I
    sq = I ** 2
    got = sq.colon(parse_monomial(I.ambient, "x1*x2"))
    assert got == ideal("x1*x2", "x1*x3", "x2*x3", "x3^2", ambient=I.ambient)
    for m in ((-1, 0, 0), (0, -2, 0), (2, -1, 1)):  # not (x*y) but an error
        with pytest.raises(ValueError, match="must be nonnegative"):
            ideal("x*y").colon(m)


def test_intersect_examples():
    assert ideal("x").intersect(ideal("y")) == ideal("x*y")
    I = edge_ideal(complete_graph(3))
    assert I.intersect(I) == I
    assert ideal("y", "z").intersect(ideal("x", "z")) == ideal("z", "x*y")


def test_contains_examples():
    assert ideal("x*y").contains(parse_monomial(XYZ, "x^2*y"))
    assert not MonomialIdeal.zero(XYZ).contains(parse_monomial(XYZ, "x"))
    sq = edge_ideal(complete_graph(3)) ** 2
    assert not sq.contains(parse_monomial(sq.ambient, "x1*x2*x3"))
    for m in ((-1, 0, 0), (2, -1, 1)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            ideal("x*y").contains(m)


def _random_ideal(rng, width):
    """Seeded gens over one of the value sets, or the zero or unit ideal."""
    kind = rng.randrange(12)
    if kind == 0:
        return ()
    if kind == 1:
        return ((0,) * width,)
    values = rng.choice([(0, 1), (0, 1, 2), STRADDLE, WIDE, (0, 63, 64, 127)])
    return tuple(tuple(rng.choice(values) for _ in range(width))
                 for _ in range(rng.randint(1, 6)))


def test_packed_arithmetic_matches_tuple_reference():
    # products, colons, lcms and sums of packed words against the tuple
    # formulas; WIDE exponents take fields wider than a byte, and 64 + 64 or
    # 127 + 127 push a product past a byte field's guard bit
    rng = random.Random(1998)
    ambient = tuple(f"x{k}" for k in range(6))
    for _ in range(600):
        width = rng.randint(0, 6)
        amb = ambient[:width]
        a, c = _random_ideal(rng, width), _random_ideal(rng, width)
        m = rng.choice(_random_ideal(rng, width) or ((0,) * width,))
        I, J = MonomialIdeal(amb, a), MonomialIdeal(amb, c)
        assert (I * J).gens == _minimalize_by_scan(
            [tuple(x + y for x, y in zip(u, v)) for u in I.gens for v in J.gens], width)
        assert I.intersect(J).gens == _minimalize_by_scan(
            [tuple(max(x, y) for x, y in zip(u, v)) for u in I.gens for v in J.gens], width)
        assert (I + J).gens == _minimalize_by_scan(I.gens + J.gens, width)
        assert I.colon(m).gens == _minimalize_by_scan(
            [tuple(max(x - y, 0) for x, y in zip(u, m)) for u in I.gens], width)
        assert I.contains(m) == any(_divides(g, m) for g in I.gens)
        assert I ** 2 == I * I


def test_packed_arithmetic_edge_cases():
    for width in (0, 1, 3):
        amb = XYZ[:width]
        zero, unit = MonomialIdeal.zero(amb), MonomialIdeal(amb, [(0,) * width])
        I = MonomialIdeal(amb, [(300,) * width, (2,) * width])  # wide fields
        one = (0,) * width
        assert unit * I == I and zero * I == zero and unit * unit == unit
        assert unit.intersect(I) == I and zero.intersect(I) == zero
        assert zero + I == I and unit + I == unit
        assert I.colon(one) == I and unit.colon((5,) * width) == unit
        assert zero.colon((1,) * width) == zero and not zero.contains(one)
        assert I.colon((2,) * width) == unit
    I = ideal("x^2*y", "z^130")
    assert I.colon(parse_monomial(XYZ, "x*z^129")) == ideal("x*y", "z")
    assert (I * I).gens[-1] == (0, 0, 260)
    for m in ((1, 0), (1, 0, 0, 0), (-1, 0, 0), (0, 0, -300)):
        for op in (I.colon, I.contains, ideal("x").colon):
            with pytest.raises(ValueError, match="width|nonnegative"):
                op(m)


def test_membership_laws_random():
    rng = random.Random(977)
    graphs = [random_graph(rng.randint(2, 5), rng) for _ in range(10)]
    checked = 0
    for G in graphs:
        I = edge_ideal(G)
        if I.is_zero:
            continue
        J = I ** 2
        width = len(I.ambient)
        for _ in range(50):
            m = random_monomial(rng, width, 3)
            v = random_monomial(rng, width, 4)
            colon = J.colon(m)
            assert colon.contains(v) == J.contains(tuple(a + b for a, b in zip(v, m)))
            meet = I.intersect(J)
            assert meet.contains(v) == (I.contains(v) and J.contains(v))
            checked += 2
    assert checked >= 500


def test_ideal_inside_square_colon_by_generator():
    rng = random.Random(53)
    for _ in range(20):
        G = random_graph(rng.randint(2, 6), rng)
        I = edge_ideal(G)
        if I.is_zero:
            continue
        sq = I ** 2
        for g in I.gens:
            colon = sq.colon(g)
            assert all(colon.contains(h) for h in I.gens)


# ---------------------------------------------------------------------------
# symbolic square


def test_symbolic_square_single_edge():
    G = complete_graph(2)
    assert symbolic_square_edge_ideal(G) == edge_ideal(G) ** 2


def test_symbolic_square_triangle_adds_product():
    G = complete_graph(3)
    I = edge_ideal(G)
    expected = I ** 2 + ideal("x1*x2*x3", ambient=I.ambient)
    assert symbolic_square_edge_ideal(G) == expected


def test_symbolic_square_path_is_ordinary():
    G = path_graph(4)
    assert symbolic_square_edge_ideal(G) == edge_ideal(G) ** 2


def test_symbolic_square_edgeless():
    G = empty_graph(4)
    assert symbolic_square_edge_ideal(G).is_zero


def test_symbolic_sandwich(catalog5):
    for G in catalog5:
        I = edge_ideal(G)
        if I.is_zero:
            continue
        sym = symbolic_square_edge_ideal(G)
        sq = I ** 2
        assert all(sym.contains(g) for g in sq.gens)   # I^2 inside symbolic
        assert all(I.contains(g) for g in sym.gens)    # symbolic inside I


# ---------------------------------------------------------------------------
# polarization


def test_polarize_principal():
    res = polarize(ideal("x^2*y^2", ambient=("x", "y")))
    assert res.extra == 2
    assert res.ideal.ambient == ("x", "x.2", "y", "y.2")
    assert res.ideal == ideal("x*x.2*y*y.2", ambient=res.ideal.ambient)


def test_polarize_two_generators():
    res = polarize(ideal("x^2", "x*y", ambient=("x", "y")))
    assert res.extra == 1
    assert res.ideal == ideal("x*x.2", "x*y", ambient=("x", "x.2", "y"))


def test_polarize_zero_and_unit_are_identity():
    for I in (MonomialIdeal.zero(XYZ), ideal("1")):
        res = polarize(I)
        assert res.extra == 0 and res.ideal == I


def test_polarize_ambient_bookkeeping():
    rng = random.Random(71)
    for _ in range(40):
        width = rng.randint(1, 5)
        amb = tuple(f"v{i}" for i in range(width))
        gens = [random_monomial(rng, width, 4) for _ in range(rng.randint(1, 5))]
        I = MonomialIdeal(amb, tuple(g for g in gens if any(g)))
        res = polarize(I)
        assert len(res.ideal.ambient) == len(amb) + res.extra
        assert res.ideal.is_squarefree


def test_depolarization_recovers_generators():
    rng = random.Random(73)
    for _ in range(40):
        width = rng.randint(1, 5)
        amb = tuple(f"v{i}" for i in range(width))
        gens = [g for g in (random_monomial(rng, width, 4) for _ in range(5)) if any(g)]
        if not gens:
            continue
        I = MonomialIdeal(amb, tuple(gens))
        res = polarize(I)
        back = []
        for g in res.ideal.gens:
            vec = [0] * width
            for slot, e in enumerate(g):
                if e:
                    name = res.ideal.ambient[slot].split(".")[0]
                    vec[amb.index(name)] += e
            back.append(tuple(vec))
        assert MonomialIdeal(amb, tuple(back)) == I


def test_polarized_colon_is_whiskered_graph():
    # (I(K3)^2 : x1x2) polarizes to the edge ideal of K3 plus one whisker at x3
    I = edge_ideal(complete_graph(3))
    colon = (I ** 2).colon(parse_monomial(I.ambient, "x1*x2"))
    res = polarize(colon)
    H = graph_from_edges(
        ("x1", "x2", "x3", "x3.2"),
        [("x1", "x2"), ("x1", "x3"), ("x2", "x3"), ("x3", "x3.2")],
    )
    assert res.ideal == edge_ideal(H)
    assert res.extra == 1


def test_polarized_square_colon_matches_whisker_construction():
    # same shape after deleting a deletion set: W(K3) at edge x1x2 with A={z1}
    G = delete_vertices(whiskered_triangle(), {"z1"})
    I = edge_ideal(G)
    colon = (I ** 2).colon(parse_monomial(I.ambient, "x1*x2"))
    res = polarize(colon)
    assert res.ideal.is_squarefree
    assert res.extra == len([n for n in res.ideal.ambient if "." in n])


# ---------------------------------------------------------------------------
# ambient rewriting


def test_with_ambient_extends_and_reorders():
    I = ideal("a*b", ambient=("a", "b"))
    J = I.with_ambient(("c", "a", "b"))
    assert J.pretty() == "(a*b)"
    assert len(J.ambient) == 3


def test_with_ambient_missing_used_variable():
    I = ideal("a*b", ambient=("a", "b"))
    with pytest.raises(ValueError):
        I.with_ambient(("a", "c"))
