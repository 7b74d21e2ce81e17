"""One named check per verified statement.

Every check computes both sides of its inequality or identity exactly and
returns a CheckOutcome with a replayable witness.  Checks never pre-filter
their input: a graph outside a statement's hypotheses yields a first-class
``not_applicable`` outcome, so exhaustive sweeps can feed every graph to
every check.

Depth-valued checks go through a DepthComputer, which optionally computes
every depth in both supported characteristics and records disagreements as
findings (a separate channel from check failures).

Checks compute verdicts only; the suite times each check call and fills in
elapsed_ms, which stays 0.0 when a check is called directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from .depth import GF2, FieldChoice, depth_ideal, depth_ideal_both
from .graphs import (
    Graph,
    _admissible_pool,
    _labels,
    _mask,
    delete_vertices,
    emit_graph6,
    even_connection_graph,
    is_wk3_free,
    path_graph,
    star_packing_number,
    triangles,
    whiskered_triangle,
)
from .ideals import MonomialIdeal, _mul, edge_ideal, ideal_digest, symbolic_square_edge_ideal

__all__ = [
    "HOLDS",
    "FAILS",
    "NOT_APPLICABLE",
    "CheckOutcome",
    "DepthComputer",
    "check_first_power",
    "check_triangle_neighborhood_packing",
    "check_colon_intersection",
    "check_even_connection_depth",
    "check_square_colon_depth",
    "check_square_colon_formula",
    "check_square_depth_bounds",
    "check_sharp_examples",
    "check_symbolic_square",
    "check_generator_order_decomposition",
    "check_packing_deletion_bound",
    "sharp_example_graphs",
]

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"


@dataclass
class CheckOutcome:
    """Verdict for one check instance; witness makes failures replayable."""

    check_id: str
    graph_id: str
    status: str
    lhs: object = None
    rhs: object = None
    witness: dict | None = None
    field_char: int | None = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "graph_id": self.graph_id,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "witness": self.witness,
            "field_char": self.field_char,
            "elapsed_ms": self.elapsed_ms,
        }


class DepthComputer:
    """Depth evaluations for the harness, with optional dual-field cross checks.

    With cross_check set, every depth is recomputed in the other
    characteristic; mismatches are appended to ``findings`` and never
    silently resolved.  The primary field's value is always returned.
    """

    def __init__(self, field: FieldChoice = GF2, cross_check: bool = False):
        self.field = field
        self.cross_check = cross_check
        self.findings: list[dict] = []
        self.comparisons = 0

    def ideal_depth(self, I: MonomialIdeal) -> int:
        if not self.cross_check:
            return depth_ideal(I, self.field)
        d2, d0 = depth_ideal_both(I)
        self.comparisons += 1
        if d2 != d0:
            self.findings.append(
                {
                    "kind": "field_disagreement",
                    "ideal": ideal_digest(I),
                    "ambient_size": len(I.ambient),
                    "char2": d2,
                    "char0": d0,
                }
            )
        return d2 if self.field.characteristic == 2 else d0


def _as_computer(field) -> DepthComputer:
    if isinstance(field, DepthComputer):
        return field
    return DepthComputer(field)


def _edge_monomial(I: MonomialIdeal, u: str, v: str):
    return _mul(I.var(u), I.var(v))


@lru_cache(maxsize=1)
def _pieces(G: Graph) -> SimpleNamespace:
    """What the edge-set checks share on one graph, made once: its graph6 id,
    alpha2(G), wk3-freeness and, in memo, each construction (see _memo).
    Only the graph being checked is held; an equal Graph value finds it."""
    return SimpleNamespace(gid=emit_graph6(G), alpha2=star_packing_number(G).size,
                           wk3_free=is_wk3_free(G), memo={})


def _memo(G: Graph, key, build):
    """build(), made once per graph and key."""
    memo = _pieces(G).memo
    return memo[key] if key in memo else memo.setdefault(key, build())


def _minus(G: Graph, A) -> tuple[Graph, MonomialIdeal]:
    """(G-A, I(G-A)), made once per graph and deletion set."""
    GA = _memo(G, frozenset(A), lambda: delete_vertices(G, A))
    return GA, _memo(G, ("ideal", frozenset(A)), lambda: edge_ideal(GA))


def _colon_intersection_pair(G: Graph, u: str, v: str, A):
    """J = (I(G-A):u) meet (I(G-A):v) and K = I(G'_A) + (L), both over the
    ring of G-A, where G'_A is the contracted graph and L the common neighbors
    of u and v outside A.  Returns (J, K, L); raises ValueError unless uv is
    an edge and A lies in its pool."""
    _admissible_pool(G, u, v, A)

    def build():
        gprime, L = even_connection_graph(G, u, v, A)
        GA, IA = _minus(G, A)
        J = IA.colon(IA.var(u)).intersect(IA.colon(IA.var(v)))
        K = (edge_ideal(gprime).with_ambient(GA.labels)
             + MonomialIdeal(GA.labels, tuple(IA.var(c) for c in L)))
        return J, K, L
    return _memo(G, ("pair", u, v, frozenset(A)), build)


def _square_colon(G: Graph, u: str, v: str, A):
    """(I(G-A)^2 : uv) over the ring of G-A.  Returns (G-A, I(G-A), colon);
    raises ValueError unless uv is an edge and A lies in its pool."""
    _admissible_pool(G, u, v, A)
    GA, IA = _minus(G, A)
    square = _memo(G, ("square", frozenset(A)), lambda: IA ** 2)
    colon = _memo(G, ("colon", u, v, frozenset(A)),
                  lambda: square.colon(_edge_monomial(IA, u, v)))
    return GA, IA, colon


# ---------------------------------------------------------------------------
# per-graph checks


def check_first_power(G: Graph, field=GF2) -> CheckOutcome:
    """depth of the edge ideal >= packing number + 1."""
    gid = emit_graph6(G)
    if not any(G.adj):
        return CheckOutcome("first_power", gid, NOT_APPLICABLE)
    computer = _as_computer(field)
    pack = star_packing_number(G)
    lhs = computer.ideal_depth(edge_ideal(G))
    rhs = pack.size + 1
    status = HOLDS if lhs >= rhs else FAILS
    witness = {"centers": list(pack.centers)}
    return CheckOutcome("first_power", gid, status, lhs, rhs, witness,
                        computer.field.characteristic)


def check_triangle_neighborhood_packing(G: Graph) -> list[CheckOutcome]:
    """Deleting the union of open neighborhoods of a triangle costs the
    packing number at most 2, provided no induced whiskered triangle exists.
    One outcome per triangle."""
    gid = emit_graph6(G)
    tris = triangles(G)
    if not tris or not is_wk3_free(G):
        reason = "no triangle" if not tris else "whiskered triangle present"
        return [CheckOutcome("triangle_deletion_packing", gid, NOT_APPLICABLE,
                             witness={"reason": reason})]
    base = star_packing_number(G).size
    out = []
    for tri in tris:
        a, b, c = map(G.index, tri)
        drop = G.adj[a] | G.adj[b] | G.adj[c]
        lhs = star_packing_number(G.induced(((1 << G.n) - 1) & ~drop)).size
        rhs = base - 2
        status = HOLDS if lhs >= rhs else FAILS
        witness = {"triangle": list(tri), "deleted": sorted(_labels(G, drop))}
        out.append(CheckOutcome("triangle_deletion_packing", gid, status, lhs, rhs, witness))
    return out


def check_colon_intersection(G: Graph, edge: tuple[str, str]) -> CheckOutcome:
    """(I : u) meet (I : v) equals the edge ideal of the contracted graph plus
    the common neighbors, as an exact ideal identity."""
    u, v = edge
    lhs_ideal, rhs_ideal, L = _colon_intersection_pair(G, u, v, ())
    status = HOLDS if lhs_ideal == rhs_ideal else FAILS
    witness = {"edge": [u, v], "L": list(L)}
    if status == FAILS:
        witness["lhs_gens"] = lhs_ideal.pretty()
        witness["rhs_gens"] = rhs_ideal.pretty()
    return CheckOutcome("colon_intersection", _pieces(G).gid, status,
                        ideal_digest(lhs_ideal), ideal_digest(rhs_ideal), witness)


def check_even_connection_depth(G: Graph, edge, A, field=GF2) -> CheckOutcome:
    """depth of K = I(G'_A) + (L), from the contracted graph, over the
    shrunken ring is at least the packing number of the original graph, and K
    equals J = (I(G-A):u) meet (I(G-A):v).  So whenever this holds, depth(J) =
    depth(K) clears the same bound: the colon-intersection depth statement."""
    u, v = edge
    computer = _as_computer(field)
    J, K, L = _colon_intersection_pair(G, u, v, A)
    identity = K == J
    lhs = computer.ideal_depth(K)
    pieces = _pieces(G)
    rhs = pieces.alpha2
    status = HOLDS if identity and lhs >= rhs else FAILS
    witness = {"edge": [u, v], "A": sorted(A), "L": list(L), "identity": identity}
    return CheckOutcome("even_connection_depth", pieces.gid, status, lhs, rhs, witness,
                        computer.field.characteristic)


def check_square_colon_depth(G: Graph, edge, A, field=GF2) -> CheckOutcome:
    """depth of (I(G-A)^2 : uv) over the shrunken ring is at least the packing
    number minus 2, minus 1 only when no whiskered triangle is induced."""
    u, v = edge
    computer = _as_computer(field)
    _, _, colon = _square_colon(G, u, v, A)
    lhs = computer.ideal_depth(colon)
    pieces = _pieces(G)
    rhs = pieces.alpha2 - (1 if pieces.wk3_free else 2)
    status = HOLDS if lhs >= rhs else FAILS
    witness = {"edge": [u, v], "A": sorted(A), "wk3_free": pieces.wk3_free}
    return CheckOutcome("square_colon_depth", pieces.gid, status, lhs, rhs, witness,
                        computer.field.characteristic)


def check_square_colon_formula(G: Graph, edge, A) -> CheckOutcome:
    """(I(G-A)^2 : uv) computed generator-wise must equal the even-connection
    description: I(G-A) + mixed neighbor products + squares of common
    neighbors.  When the edge is its own component, both collapse to I(G-A)."""
    u, v = edge
    GA, IA, lhs_ideal = _square_colon(G, u, v, A)
    i, j = GA.index(u), GA.index(v)
    ni, nj = _labels(GA, GA.adj[i]), _labels(GA, GA.adj[j])
    common = _labels(GA, GA.adj[i] & GA.adj[j])
    extra = [_mul(IA.var(p), IA.var(q)) for p in ni for q in nj if p != q]
    extra += [_mul(IA.var(c), IA.var(c)) for c in common]
    rhs_ideal = IA + MonomialIdeal(GA.labels, tuple(extra))
    isolated = GA.degree(i) == 1 and GA.degree(j) == 1
    ok = lhs_ideal == rhs_ideal and (not isolated or lhs_ideal == IA)
    witness = {"edge": [u, v], "A": sorted(A), "L": list(common), "isolated_edge_case": isolated}
    if not ok:
        witness["lhs_gens"] = lhs_ideal.pretty()
        witness["rhs_gens"] = rhs_ideal.pretty()
    return CheckOutcome("square_colon_formula", _pieces(G).gid, HOLDS if ok else FAILS,
                        ideal_digest(lhs_ideal), ideal_digest(rhs_ideal), witness)


def check_square_depth_bounds(G: Graph, field=GF2) -> list[CheckOutcome]:
    """Lower bounds for depth of the squared edge ideal: packing number minus
    2 in general, minus 1 without induced whiskered triangles, and unchanged
    for triangle-free graphs.  Always three outcomes, in that order, with ids
    square_general, square_wk3_free and square_triangle_free; a part whose
    hypothesis fails (every part, for an edgeless graph) is not_applicable."""
    gid = emit_graph6(G)
    parts = {"square_general": 2, "square_wk3_free": 1, "square_triangle_free": 0}
    if not any(G.adj):
        return [CheckOutcome(part, gid, NOT_APPLICABLE) for part in parts]
    computer = _as_computer(field)
    pack = star_packing_number(G)
    wk3free = is_wk3_free(G)
    trifree = not triangles(G)
    lhs = computer.ideal_depth(edge_ideal(G) ** 2)
    applicable = {
        "square_general": True,
        "square_wk3_free": wk3free,
        "square_triangle_free": trifree,
    }
    witness = {"centers": list(pack.centers), "wk3_free": wk3free, "triangle_free": trifree}
    out = []
    for part, slack in parts.items():
        if not applicable[part]:
            out.append(CheckOutcome(part, gid, NOT_APPLICABLE))
            continue
        rhs = pack.size - slack
        status = HOLDS if lhs >= rhs else FAILS
        out.append(CheckOutcome(part, gid, status, lhs, rhs, dict(witness),
                                computer.field.characteristic))
    return out


def sharp_example_graphs() -> list[tuple[str, Graph, int, int, int]]:
    """The three sharpness instances: (name, graph, exact square depth,
    exact packing number, slack of the matching bound)."""
    wk3 = whiskered_triangle()
    return [
        ("whiskered_triangle", wk3, 1, 3, 2),
        ("whiskered_triangle_minus_leaf", delete_vertices(wk3, {"z3"}), 1, 2, 1),
        ("path_p4", path_graph(4), 2, 2, 0),
    ]


def check_sharp_examples(field=GF2) -> list[CheckOutcome]:
    """Exact reproduction of the sharpness table: the depth of each squared
    edge ideal must hit its bound with equality."""
    computer = _as_computer(field)
    out = []
    for name, G, want_depth, want_alpha2, slack in sharp_example_graphs():
        gid = emit_graph6(G)
        pack = star_packing_number(G)
        seen = len(computer.findings)
        depth = computer.ideal_depth(edge_ideal(G) ** 2)
        for finding in computer.findings[seen:]:  # no per-graph task tags these
            finding["graph_id"] = gid
        ok = depth == want_depth and pack.size == want_alpha2 and depth == pack.size - slack
        witness = {
            "name": name,
            "alpha2": pack.size,
            "alpha2_expected": want_alpha2,
            "centers": list(pack.centers),
            "bound_slack": slack,
        }
        out.append(CheckOutcome("sharp_examples", gid, HOLDS if ok else FAILS, depth,
                                want_depth, witness, computer.field.characteristic))
    return out


def check_symbolic_square(G: Graph, field=GF2) -> CheckOutcome:
    """Second symbolic power: equals the ordinary square for triangle-free
    graphs, and its depth is at least the packing number."""
    gid = emit_graph6(G)
    if not any(G.adj):
        return CheckOutcome("symbolic_square", gid, NOT_APPLICABLE)
    computer = _as_computer(field)
    I = edge_ideal(G)
    square = I ** 2
    symbolic = symbolic_square_edge_ideal(G)
    trifree = not triangles(G)
    equal = square == symbolic
    lhs = computer.ideal_depth(symbolic)
    rhs = star_packing_number(G).size
    ok = lhs >= rhs and (equal or not trifree)
    witness = {"triangle_free": trifree, "square_equals_symbolic": equal}
    if trifree and not equal:
        witness["symbolic_only_gens"] = [
            g for g in symbolic.gens if not square.contains(g)
        ]
    return CheckOutcome("symbolic_square", gid, HOLDS if ok else FAILS, lhs, rhs,
                        witness, computer.field.characteristic)


ORDER_MAX_EDGES = 8  # the order search is exponential in the edge count


def check_generator_order_decomposition(G: Graph) -> CheckOutcome:
    """Search for a generator order in which each partial-sum colon
    ((I^2 + (u_1..u_{k-1})) : u_k) splits as (I^2 : u_k) plus variables from
    the open neighborhoods of u_k's endpoints.  Graphs with more than
    ORDER_MAX_EDGES edges are not_applicable."""
    gid = emit_graph6(G)
    edges = G.edge_labels()
    m = len(edges)
    if m == 0:
        return CheckOutcome("order_decomposition", gid, NOT_APPLICABLE,
                            witness={"reason": "edgeless"})
    if m > ORDER_MAX_EDGES:
        return CheckOutcome("order_decomposition", gid, NOT_APPLICABLE,
                            witness={"reason": f"more than {ORDER_MAX_EDGES} edges"})
    I = edge_ideal(G)
    I2 = I ** 2
    gens = list(I.gens)
    order_of_gen = {_edge_monomial(I, u, v): (u, v) for u, v in edges}
    pool_of = {k: set(_admissible_pool(G, *order_of_gen[g])) for k, g in enumerate(gens)}
    base_colon = [I2.colon(g) for g in gens]
    width = len(I.ambient)

    def condition(used: frozenset, t: int) -> bool:
        partial = I2 + MonomialIdeal(I.ambient, tuple(gens[k] for k in used))
        left = partial.colon(gens[t])
        linear = [g for g in left.gens if sum(g) == 1]
        for g in linear:
            name = I.ambient[g.index(1)]
            if name not in pool_of[t]:
                return False
        return left == base_colon[t] + MonomialIdeal(I.ambient, tuple(linear))

    dead: set[frozenset] = set()

    def search(used: frozenset):
        if len(used) == m:
            return []
        if used in dead:
            return None
        for t in range(m):
            if t in used:
                continue
            if condition(used, t):
                rest = search(used | {t})
                if rest is not None:
                    return [t] + rest
        dead.add(used)
        return None

    found = search(frozenset())
    ok = found is not None
    witness = {"edges": m}
    if ok:
        witness["order"] = [list(order_of_gen[gens[t]]) for t in found]
    return CheckOutcome("order_decomposition", gid, HOLDS if ok else FAILS,
                        int(ok), 1, witness)


def check_packing_deletion_bound(G: Graph, edge, A) -> CheckOutcome:
    """Deleting A together with a closed neighborhood (either endpoint), or
    both closed neighborhoods, lowers the packing number by at most 2."""
    u, v = edge
    _admissible_pool(G, u, v, A)
    pieces = _pieces(G)
    rhs = pieces.alpha2 - 2
    a, cu, cv = _mask(G, A), G.closed_mask(G.index(u)), G.closed_mask(G.index(v))
    variants = {"A_plus_closed_u": a | cu, "A_plus_closed_v": a | cv,
                "closed_u_plus_closed_v": cu | cv}
    values = {
        name: star_packing_number(G.induced(((1 << G.n) - 1) & ~drop)).size
        for name, drop in variants.items()
    }
    lhs = min(values.values())
    status = HOLDS if lhs >= rhs else FAILS
    witness = {"edge": [u, v], "A": sorted(A), "values": values}
    return CheckOutcome("deletion_bound", pieces.gid, status, lhs, rhs, witness)
