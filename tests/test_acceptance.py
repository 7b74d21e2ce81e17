"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines scroll by.
Depth-valued criteria run with dual-field cross checking; every comparison
feeds the field-agreement ledger that criterion 10 finally audits.
"""

import os
import random
import time
from itertools import combinations

from test_depth import quotient_depth, quotient_pd, reduced_homology_dims, sweep_blind_spots

from eil.checks import DepthComputer, check_colon_intersection, check_sharp_examples
from eil.depth import GF2, QQ, ComplexView
from eil.graphs import random_graph, triangles
from eil.ideals import MonomialIdeal, edge_ideal, polarize, symbolic_square_edge_ideal
from eil.suite import run_suite

JOBS = min(8, os.cpu_count() or 1)
SEED = 20260808

# field-disagreement ledger shared by the criteria, audited by criterion 10
FINDINGS: list[dict] = []
COMPARISONS = [0]


def _register(report):
    FINDINGS.extend(report.findings)
    COMPARISONS[0] += report.depth_comparisons


def _verdict(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_sharp_examples():
    t0 = time.perf_counter()
    computer = DepthComputer(GF2, cross_check=True)
    outcomes = check_sharp_examples(computer)
    FINDINGS.extend(computer.findings)
    COMPARISONS[0] += computer.comparisons
    got = [(oc.lhs, oc.witness["alpha2"]) for oc in outcomes]
    ok = (
        [oc.status for oc in outcomes] == ["holds"] * 3
        and got == [(1, 3), (1, 2), (2, 2)]
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(1, ok, f"sharp instances (depth, alpha2) = {got}, {elapsed:.2f}s < 5s")


def test_criterion_02_square_bound_exhaustive_n6(catalog6):
    t0 = time.perf_counter()
    report = run_suite(catalog6, ["square_general"], cross_check=True,
                       jobs=JOBS, corpus_name="classes:n<=6")
    _register(report)
    elapsed = time.perf_counter() - t0
    ok = (
        len(catalog6) == 208
        and report.summary["fails"] == 0
        and not report.findings
        and elapsed < 600
    )
    _verdict(2, ok, f"general square bound on 208 classes, both fields: "
                    f"{report.summary['fails']} violations, {elapsed:.1f}s < 600s")


def test_criterion_03_square_bound_restricted_classes(catalog6):
    report = run_suite(catalog6, ["square_wk3_free", "square_triangle_free"],
                       cross_check=True, jobs=JOBS, corpus_name="classes:n<=6")
    _register(report)
    ok = (
        report.summary["fails"] == 0
        and report.summary["holds"] > 100  # both hypotheses are common at this size
    )
    _verdict(3, ok, f"whisker-free and triangle-free square bounds: "
                    f"{report.summary['fails']} violations over "
                    f"{report.summary['holds']} applicable instances")


def test_criterion_04_first_power_exhaustive_n7(catalog7):
    t0 = time.perf_counter()
    report = run_suite(catalog7, ["first_power"], cross_check=True,
                       jobs=JOBS, corpus_name="classes:n<=7")
    _register(report)
    elapsed = time.perf_counter() - t0
    ok = (
        len(catalog7) == 1252
        and report.summary["not_applicable"] == 7  # one edgeless class per size
        and report.summary["holds"] == 1245
        and report.summary["fails"] == 0
        and elapsed < 600
    )
    _verdict(4, ok, f"first-power bound on 1245 edged classes of 1252: "
                    f"{report.summary['fails']} violations, {elapsed:.1f}s < 600s")


def test_criterion_05_colon_intersection_identity(catalog6):
    t0 = time.perf_counter()
    report = run_suite(catalog6, ["colon_intersection"], jobs=JOBS,
                       corpus_name="classes:n<=6")
    bad = len(report.failures)
    rng = random.Random(SEED)
    random_instances = 0
    for _ in range(200):
        G = random_graph(rng.randint(2, 9), rng)
        for u, v in G.edge_labels():
            if check_colon_intersection(G, (u, v)).status != "holds":
                bad += 1
            random_instances += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120
    _verdict(5, ok, f"colon-intersection identity: {bad} failures over "
                    f"{report.summary['outcomes']} catalog edges and "
                    f"{random_instances} random edges (n<=9), {elapsed:.1f}s < 120s")


def test_criterion_06_square_colon_formula_n5(catalog5):
    report = run_suite(catalog5, ["square_colon_formula"], jobs=JOBS,
                       corpus_name="classes:n<=5")
    isolated_edges = sum(1 for oc in report.outcomes
                if oc.witness and oc.witness.get("isolated_edge_case"))
    ok = report.summary["fails"] == 0 and isolated_edges > 0
    _verdict(6, ok, f"square-colon formula and isolated-edge identity: "
                    f"{report.summary['fails']} failures over "
                    f"{report.summary['outcomes']} (edge, deletion-set) instances, "
                    f"{isolated_edges} isolated-edge cases")


def test_criterion_07_deletion_colon_depth_suite_n5(catalog5):
    t0 = time.perf_counter()
    report = run_suite(
        catalog5,
        ["triangle_deletion_packing", "colon_intersection_depth",
         "even_connection_depth", "square_colon_depth", "deletion_bound"],
        cross_check=True, jobs=JOBS, corpus_name="classes:n<=5",
    )
    _register(report)
    elapsed = time.perf_counter() - t0
    ok = report.summary["fails"] == 0 and elapsed < 1800
    _verdict(7, ok, f"deletion/colon depth bounds, exhaustive edges and sets: "
                    f"{report.summary['fails']} violations over "
                    f"{report.summary['outcomes']} instances, {elapsed:.1f}s < 1800s")


def test_criterion_08_symbolic_square(catalog5, catalog6):
    report = run_suite(catalog5, ["symbolic_square"], cross_check=True,
                       jobs=JOBS, corpus_name="classes:n<=5")
    _register(report)
    mismatches = 0
    checked6 = 0
    for G in catalog6:
        if G.n != 6 or not any(G.adj) or triangles(G):
            continue
        checked6 += 1
        if symbolic_square_edge_ideal(G) != edge_ideal(G) ** 2:
            mismatches += 1
    ok = report.summary["fails"] == 0 and mismatches == 0 and checked6 > 0
    _verdict(8, ok, f"symbolic square: {report.summary['fails']} depth violations "
                    f"(n<=5), {mismatches} triangle-free equality mismatches "
                    f"({checked6} classes at n=6)")


def _random_monomial(rng, width, max_degree):
    vec = [0] * width
    for _ in range(rng.randint(0, max_degree)):
        vec[rng.randrange(width)] += 1
    return tuple(vec)


def test_criterion_09_engine_sanity():
    t0 = time.perf_counter()
    problems = []

    # homology index conventions
    hollow = ComplexView(("x", "y", "z"), (0b111,))
    if reduced_homology_dims(hollow, 0b111, GF2) != {-1: 0, 0: 0, 1: 1}:
        problems.append("hollow triangle")
    full = ComplexView(("x", "y", "z"), ())
    if set(reduced_homology_dims(full, 0b111, GF2).values()) != {0}:
        problems.append("full simplex")
    points = ComplexView(("x", "y"), (0b11,))
    if reduced_homology_dims(points, 0b11, GF2) != {-1: 0, 0: 1}:
        problems.append("two points")

    rng = random.Random(SEED)

    # polarization bridge, both fields, 100 random ideals
    for _ in range(100):
        width = rng.randint(1, 5)
        amb = tuple(f"v{k}" for k in range(width))
        gens = [g for g in (_random_monomial(rng, width, 3) for _ in range(4)) if any(g)]
        if not gens:
            continue
        I = MonomialIdeal(amb, tuple(gens))
        res = polarize(I)
        values = {}
        for field in (GF2, QQ):
            dq = quotient_depth(I, field)
            if dq != quotient_depth(res.ideal, field) - res.extra:
                problems.append(f"bridge {I.pretty()} char {field.characteristic}")
            values[field.characteristic] = dq
        COMPARISONS[0] += 1
        if values[2] != values[0]:
            FINDINGS.append({"kind": "field_disagreement", "ideal": I.pretty(),
                             "char2": values[2], "char0": values[0]})

    # complete intersections: pairwise disjoint supports give pd = #generators
    for _ in range(25):
        width = rng.randint(2, 6)
        amb = tuple(f"v{k}" for k in range(width))
        order = list(range(width))
        rng.shuffle(order)
        k = rng.randint(1, width)
        gens = []
        for block in (order[i::k] for i in range(k)):
            vec = [0] * width
            for v in block[: rng.randint(1, len(block))]:
                vec[v] = rng.randint(1, 3)
            gens.append(tuple(vec))
        supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
        if any(a & b for a, b in combinations(supports, 2)):
            continue
        I = MonomialIdeal(amb, tuple(gens))
        if quotient_pd(I, GF2) != len(I.gens):
            problems.append(f"complete intersection {I.pretty()}")

    # free-variable shift
    for _ in range(25):
        width = rng.randint(1, 4)
        amb = tuple(f"v{k}" for k in range(width))
        gens = [g for g in (_random_monomial(rng, width, 3) for _ in range(3)) if any(g)]
        if not gens:
            continue
        I = MonomialIdeal(amb, tuple(gens))
        wider = MonomialIdeal(amb + ("spare",), tuple(g + (0,) for g in I.gens))
        if (quotient_pd(wider, GF2), quotient_depth(wider, GF2)) != (
            quotient_pd(I, GF2), quotient_depth(I, GF2) + 1
        ):
            problems.append(f"free variable shift {I.pretty()}")

    # lcm pruning and cone reduction against every mask, in both fields
    for _ in range(10):
        width = rng.randint(2, 5)
        amb = tuple(f"v{k}" for k in range(width))
        gens = []
        for _ in range(rng.randint(1, 4)):
            support = rng.randint(1, (1 << width) - 1)
            gens.append(tuple((support >> t) & 1 for t in range(width)))
        I = MonomialIdeal(amb, tuple(gens))
        if I.is_unit:
            continue
        if sweep_blind_spots(ComplexView.from_ideal(I)) is not None:
            problems.append(f"pruning {I.pretty()}")

    # colon and intersection membership laws, 1000 random monomials
    membership = 0
    while membership < 1000:
        G = random_graph(rng.randint(2, 5), rng)
        I = edge_ideal(G)
        if I.is_zero:
            continue
        J = I ** 2
        width = len(I.ambient)
        for _ in range(40):
            m = _random_monomial(rng, width, 3)
            v = _random_monomial(rng, width, 4)
            if J.colon(m).contains(v) != J.contains(tuple(a + b for a, b in zip(v, m))):
                problems.append("colon membership law")
            if I.intersect(J).contains(v) != (I.contains(v) and J.contains(v)):
                problems.append("intersection membership law")
            membership += 2

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60
    _verdict(9, ok, f"engine sanity: {len(problems)} problems "
                    f"({', '.join(problems[:3]) if problems else 'none'}), "
                    f"{membership} membership checks, {elapsed:.1f}s < 60s")


def test_criterion_10_field_agreement(catalog5):
    if COMPARISONS[0] == 0:
        # criterion run in isolation: make it non-vacuous with its own sweep
        report = run_suite(catalog5, ["main"], cross_check=True, jobs=JOBS,
                           corpus_name="classes:n<=5")
        _register(report)
    ok = COMPARISONS[0] >= 1000 and not FINDINGS
    _verdict(10, ok, f"characteristics 2 and 0 agree on all "
                     f"{COMPARISONS[0]} depths computed above; "
                     f"{len(FINDINGS)} disagreements")
