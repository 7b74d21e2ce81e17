"""One named check per verified statement.

Every check computes both sides of its inequality or identity exactly and
returns a CheckOutcome with a replayable witness.  Checks never pre-filter
their input: a graph outside a statement's hypotheses yields a first-class
``not_applicable`` outcome, so exhaustive sweeps can feed every graph to
every check.

Depth-valued checks take an optional DepthComputer (F2 when omitted), which
can compute every depth in both supported characteristics and records
disagreements as findings (a separate channel from check failures).

Every per-graph check reads the pieces of its graph (graph6 id, packing
witness, triangles, wk3-freeness, I(G), I(G)^2, edge-set constructions) as
_memo(G, fn, *args), one lru_cache of the last _MEMO_PIECES pieces fn(G,
*args), whose args are vertex labels and masks.  A piece is keyed by the
graph it depends on: the edge-set pieces and alpha2 after a deletion by G-A,
which many catalog graphs share, so each is made once per G-A, not per (G, A).
An edge-set check takes one edge and returns a row per deletion set: of
every subset of the edge's pool, in increasing mask order, or of the sets it
is given.  It validates the edge, and each given set, with
graphs._admissible_pool before it reads a piece; the set is read once and
becomes a vertex mask, which the pieces and the witness take from there.
The pieces of G itself (graph6 id, alpha2, wk3-freeness) are read once per
call.

Each statement here is invariant under the automorphisms of G, so the suite
calls an edge or edge-set check only on the first edge of each Aut(G) orbit
and maps its rows to the others.  The ideal of a digest row is read back
through _DIGESTED, to be digested again with its columns permuted.

Checks compute verdicts only; the suite times each check call and fills in
elapsed_ms, which stays 0.0 when a check is called directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .depth import GF2, FieldChoice, depth_ideal, depth_ideal_both
from .graphs import (
    Graph,
    _admissible_pool,
    _contract,
    _labels,
    delete_vertices,
    emit_graph6,
    is_wk3_free,
    path_graph,
    star_packing_number,
    triangles,
    whiskered_triangle,
)
from .ideals import MonomialIdeal, edge_ideal, ideal_digest, symbolic_square_edge_ideal

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


@dataclass(slots=True)
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
        return {name: getattr(self, name) for name in self.__slots__}


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


def _monomial(I: MonomialIdeal, *names: str):
    """The product of the named variables, as a monomial of I's ambient."""
    vec = [0] * len(I.ambient)
    for name in names:
        vec[I.ambient.index(name)] += 1
    return tuple(vec)


# The edge-set checks on n <= 6 read 17559 distinct pieces.  A cold
# run_suite of them by memo size (2 vCPU, Python 3.11.7, median of 7 runs in
# fresh processes), misses, wall time and peak RSS: 2048 pieces 23141, 1.54 s,
# 52.6 MB; 4096 pieces 20496, 1.50 s, 54.8 MB; 8192 pieces 18891, 1.42 s,
# 58.1 MB.  4096 is the largest that keeps peak RSS within 5% of the smallest.
_MEMO_PIECES = 4096


@lru_cache(maxsize=_MEMO_PIECES)
def _memo(G: Graph, fn, *args):
    """fn(G, *args), kept for the last _MEMO_PIECES keys read; an equal Graph
    finds it.  The builders below take masks the calling check has validated."""
    return fn(G, *args)


def _deletion_masks(G: Graph, u: str, v: str, sets) -> tuple[int, int, list[int]]:
    """(i, j, masks): the indices of u and v and the mask of each deletion set
    of sets, each read once, or of every subset of the pool of uv in
    increasing order when sets is None.  Raises ValueError when uv is not an
    edge or a set leaves the pool."""
    i, j, pool, _ = _admissible_pool(G, u, v)
    if sets is not None:
        return i, j, [_admissible_pool(G, u, v, A)[3] for A in sets]
    masks = [0]
    while masks[-1] != pool:
        masks.append((masks[-1] - pool) & pool)
    return i, j, masks


def _without(G: Graph, a: int) -> Graph:
    """G-A for the mask a of A; G itself when A is empty."""
    return G.induced(((1 << G.n) - 1) & ~a) if a else G


def _square(G: Graph) -> MonomialIdeal:
    """I(G)^2."""
    return _memo(G, edge_ideal) ** 2


def _digests(lhs: MonomialIdeal, rhs: MonomialIdeal) -> tuple[str, str]:
    """ideal_digest of both sides, made once when the ideals are equal."""
    left = ideal_digest(lhs)
    return left, left if rhs == lhs else ideal_digest(rhs)


def _var_colon(G: Graph, u: str) -> MonomialIdeal:
    """(I(G):u), which every edge at u reads."""
    I = _memo(G, edge_ideal)
    return I.colon(_monomial(I, u))


def _colon_intersection_pair(G: Graph, u: str, v: str):
    """(J, K, L): J = (I(G):u) meet (I(G):v) and K = I(G') + (L) over the ring
    of G, where G' is the contracted graph and L the common neighbors of u
    and v.  Read on G-A, they are the pair of the deletion set A."""
    gprime, l_mask = _contract(G, G.index(u), G.index(v), 0)
    L = _labels(G, l_mask)
    I = _memo(G, edge_ideal)
    J = _memo(G, _var_colon, u).intersect(_memo(G, _var_colon, v))
    K = MonomialIdeal(G.labels, tuple(_monomial(I, *e) for e in gprime.edge_labels())
                      + tuple(_monomial(I, c) for c in L))
    return J, K, L


def _square_colon(G: Graph, u: str, v: str) -> MonomialIdeal:
    """(I(G)^2 : uv) over the ring of G."""
    return _memo(G, _square).colon(_monomial(_memo(G, edge_ideal), u, v))


def _formula(G: Graph, u: str, v: str):
    """The square-colon formula at uv, read on G-A: (ok, both digests, common
    neighbors, isolated-edge flag, both generator strings or None if ok)."""
    lhs = _memo(G, _square_colon, u, v)
    I = _memo(G, edge_ideal)
    i, j = G.index(u), G.index(v)
    ni, nj = _labels(G, G.adj[i]), _labels(G, G.adj[j])
    common = _labels(G, G.adj[i] & G.adj[j])
    extra = [_monomial(I, p, q) for p in ni for q in nj if p != q]
    extra += [_monomial(I, c, c) for c in common]
    rhs = MonomialIdeal(G.labels, I.gens + tuple(extra))
    isolated = G.degree(i) == 1 and G.degree(j) == 1
    ok = lhs == rhs and (not isolated or lhs == I)
    return (ok, *_digests(lhs, rhs), common, isolated,
            None if ok else (lhs.pretty(), rhs.pretty()))


# A holding row of these checks has one digest on both sides, of the ideal
# that this piece of G - A gives at the row's edge.
_DIGESTED = {
    "colon_intersection": lambda GA, u, v: _memo(GA, _colon_intersection_pair, u, v)[0],
    "square_colon_formula": lambda GA, u, v: _memo(GA, _square_colon, u, v),
}


# ---------------------------------------------------------------------------
# per-graph checks


def check_first_power(G: Graph, computer=None) -> CheckOutcome:
    """depth of the edge ideal >= packing number + 1."""
    gid = _memo(G, emit_graph6)
    if not any(G.adj):
        return CheckOutcome("first_power", gid, NOT_APPLICABLE)
    computer = computer or DepthComputer()
    pack = _memo(G, star_packing_number)
    lhs = computer.ideal_depth(_memo(G, edge_ideal))
    rhs = pack.size + 1
    status = HOLDS if lhs >= rhs else FAILS
    witness = {"centers": list(pack.centers)}
    return CheckOutcome("first_power", gid, status, lhs, rhs, witness,
                        computer.field.characteristic)


def check_triangle_neighborhood_packing(G: Graph) -> list[CheckOutcome]:
    """Deleting the union of open neighborhoods of a triangle costs the
    packing number at most 2, provided no induced whiskered triangle exists.
    One outcome per triangle."""
    gid = _memo(G, emit_graph6)
    tris = _memo(G, triangles)
    if not tris or not _memo(G, is_wk3_free):
        reason = "no triangle" if not tris else "whiskered triangle present"
        return [CheckOutcome("triangle_deletion_packing", gid, NOT_APPLICABLE,
                             witness={"reason": reason})]
    base = _memo(G, star_packing_number).size
    out = []
    for tri in tris:
        a, b, c = map(G.index, tri)
        drop = G.adj[a] | G.adj[b] | G.adj[c]
        lhs = _memo(_memo(G, _without, drop), star_packing_number).size
        rhs = base - 2
        status = HOLDS if lhs >= rhs else FAILS
        witness = {"triangle": list(tri), "deleted": sorted(_labels(G, drop))}
        out.append(CheckOutcome("triangle_deletion_packing", gid, status, lhs, rhs, witness))
    return out


def check_colon_intersection(G: Graph, edge: tuple[str, str]) -> CheckOutcome:
    """(I : u) meet (I : v) equals the edge ideal of the contracted graph plus
    the common neighbors, as an exact ideal identity."""
    u, v = edge
    a = _admissible_pool(G, u, v)[3]
    lhs_ideal, rhs_ideal, L = _memo(G, _colon_intersection_pair, u, v)
    status = HOLDS if lhs_ideal == rhs_ideal else FAILS
    witness = {"edge": [u, v], "L": list(L)}
    if status == FAILS:
        witness["lhs_gens"] = lhs_ideal.pretty()
        witness["rhs_gens"] = rhs_ideal.pretty()
    return CheckOutcome("colon_intersection", _memo(G, emit_graph6), status,
                        *_digests(lhs_ideal, rhs_ideal), witness)


def check_even_connection_depth(G: Graph, edge, sets=None, computer=None) -> list[CheckOutcome]:
    """depth of K = I(G'_A) + (L), from the contracted graph, over the
    shrunken ring is at least the packing number of the original graph, and K
    equals J = (I(G-A):u) meet (I(G-A):v).  So whenever this holds, depth(J) =
    depth(K) clears the same bound: the colon-intersection depth statement.
    One outcome per deletion set A (see _deletion_masks)."""
    u, v = edge
    masks = _deletion_masks(G, u, v, sets)[2]
    computer = computer or DepthComputer()
    gid, rhs = _memo(G, emit_graph6), _memo(G, star_packing_number).size
    out = []
    for a in masks:
        J, K, L = _memo(_memo(G, _without, a), _colon_intersection_pair, u, v)
        identity = K == J
        lhs = computer.ideal_depth(K)
        status = HOLDS if identity and lhs >= rhs else FAILS
        witness = {"edge": [u, v], "A": sorted(_labels(G, a)), "L": list(L),
                   "identity": identity}
        out.append(CheckOutcome("even_connection_depth", gid, status, lhs, rhs, witness,
                                computer.field.characteristic))
    return out


def check_square_colon_depth(G: Graph, edge, sets=None, computer=None) -> list[CheckOutcome]:
    """depth of (I(G-A)^2 : uv) over the shrunken ring is at least the packing
    number minus 2, minus 1 only when no whiskered triangle is induced.  One
    outcome per deletion set A (see _deletion_masks)."""
    u, v = edge
    masks = _deletion_masks(G, u, v, sets)[2]
    computer = computer or DepthComputer()
    gid, wk3_free = _memo(G, emit_graph6), _memo(G, is_wk3_free)
    rhs = _memo(G, star_packing_number).size - (1 if wk3_free else 2)
    out = []
    for a in masks:
        lhs = computer.ideal_depth(_memo(_memo(G, _without, a), _square_colon, u, v))
        status = HOLDS if lhs >= rhs else FAILS
        witness = {"edge": [u, v], "A": sorted(_labels(G, a)), "wk3_free": wk3_free}
        out.append(CheckOutcome("square_colon_depth", gid, status, lhs, rhs, witness,
                                computer.field.characteristic))
    return out


def check_square_colon_formula(G: Graph, edge, sets=None) -> list[CheckOutcome]:
    """(I(G-A)^2 : uv) computed generator-wise must equal the even-connection
    description: I(G-A) + mixed neighbor products + squares of common
    neighbors.  When the edge is its own component, both collapse to I(G-A).
    One outcome per deletion set A (see _deletion_masks)."""
    u, v = edge
    masks = _deletion_masks(G, u, v, sets)[2]
    gid = _memo(G, emit_graph6)
    out = []
    for a in masks:
        ok, lhs, rhs, L, isolated, gens = _memo(_memo(G, _without, a), _formula, u, v)
        witness = {"edge": [u, v], "A": sorted(_labels(G, a)), "L": list(L),
                   "isolated_edge_case": isolated}
        if gens:
            witness["lhs_gens"], witness["rhs_gens"] = gens
        out.append(CheckOutcome("square_colon_formula", gid, HOLDS if ok else FAILS,
                                lhs, rhs, witness))
    return out


def check_square_depth_bounds(G: Graph, computer=None) -> list[CheckOutcome]:
    """Lower bounds for depth of the squared edge ideal: packing number minus
    2 in general, minus 1 without induced whiskered triangles, and unchanged
    for triangle-free graphs.  Always three outcomes, in that order, with ids
    square_general, square_wk3_free and square_triangle_free; a part whose
    hypothesis fails (every part, for an edgeless graph) is not_applicable."""
    gid = _memo(G, emit_graph6)
    parts = {"square_general": 2, "square_wk3_free": 1, "square_triangle_free": 0}
    if not any(G.adj):
        return [CheckOutcome(part, gid, NOT_APPLICABLE) for part in parts]
    computer = computer or DepthComputer()
    pack = _memo(G, star_packing_number)
    wk3free = _memo(G, is_wk3_free)
    trifree = not _memo(G, triangles)
    lhs = computer.ideal_depth(_memo(G, _square))
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


def check_sharp_examples(computer=None) -> list[CheckOutcome]:
    """Exact reproduction of the sharpness table: the depth of each squared
    edge ideal must hit its bound with equality."""
    computer = computer or DepthComputer()
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


def check_symbolic_square(G: Graph, computer=None) -> CheckOutcome:
    """Second symbolic power: equals the ordinary square for triangle-free
    graphs, and its depth is at least the packing number."""
    gid = _memo(G, emit_graph6)
    if not any(G.adj):
        return CheckOutcome("symbolic_square", gid, NOT_APPLICABLE)
    computer = computer or DepthComputer()
    square = _memo(G, _square)
    symbolic = symbolic_square_edge_ideal(G)
    trifree = not _memo(G, triangles)
    equal = square == symbolic
    lhs = computer.ideal_depth(symbolic)
    rhs = _memo(G, star_packing_number).size
    ok = lhs >= rhs and (equal or not trifree)
    witness = {"triangle_free": trifree, "square_equals_symbolic": equal}
    if trifree and not equal:
        witness["symbolic_only_gens"] = [
            g for g in symbolic.gens if not square.contains(g)
        ]
    return CheckOutcome("symbolic_square", gid, HOLDS if ok else FAILS, lhs, rhs,
                        witness, computer.field.characteristic)


ORDER_MAX_EDGES = 8  # the order search is exponential in the edge count


def _first_order(used: frozenset, m: int, condition, dead: set) -> list[int] | None:
    """Depth first, least index first: an order of the m generators not in used
    that passes condition(used so far, next) at every step, or None; dead holds dead ends."""
    if len(used) == m:
        return []
    if used in dead:
        return None
    for t in range(m):
        if t not in used and condition(used, t):
            rest = _first_order(used | {t}, m, condition, dead)
            if rest is not None:
                return [t] + rest
    dead.add(used)
    return None


def check_generator_order_decomposition(G: Graph) -> CheckOutcome:
    """Search for a generator order in which each partial-sum colon
    ((I^2 + (u_1..u_{k-1})) : u_k) splits as (I^2 : u_k) plus variables from
    the open neighborhoods of u_k's endpoints.  Graphs with more than
    ORDER_MAX_EDGES edges are not_applicable."""
    gid = _memo(G, emit_graph6)
    edges = G.edge_labels()
    m = len(edges)
    if m == 0:
        return CheckOutcome("order_decomposition", gid, NOT_APPLICABLE,
                            witness={"reason": "edgeless"})
    if m > ORDER_MAX_EDGES:
        return CheckOutcome("order_decomposition", gid, NOT_APPLICABLE,
                            witness={"reason": f"more than {ORDER_MAX_EDGES} edges"})
    I, I2 = _memo(G, edge_ideal), _memo(G, _square)
    gens = list(I.gens)
    order_of_gen = {_monomial(I, u, v): (u, v) for u, v in edges}
    pool_of = {k: _admissible_pool(G, *order_of_gen[g])[2] for k, g in enumerate(gens)}
    base_colon = [I2.colon(g) for g in gens]

    def condition(used: frozenset, t: int) -> bool:
        partial = I2 + MonomialIdeal(I.ambient, tuple(gens[k] for k in used))
        left = partial.colon(gens[t])
        linear = [g for g in left.gens if sum(g) == 1]
        if any(not pool_of[t] >> g.index(1) & 1 for g in linear):
            return False
        return left == base_colon[t] + MonomialIdeal(I.ambient, tuple(linear))

    found = _first_order(frozenset(), m, condition, set())
    ok = found is not None
    witness = {"edges": m}
    if ok:
        witness["order"] = [list(order_of_gen[gens[t]]) for t in found]
    return CheckOutcome("order_decomposition", gid, HOLDS if ok else FAILS,
                        int(ok), 1, witness)


def check_packing_deletion_bound(G: Graph, edge, sets=None) -> list[CheckOutcome]:
    """Deleting A together with a closed neighborhood (either endpoint), or
    both closed neighborhoods, lowers the packing number by at most 2.  One
    outcome per deletion set A (see _deletion_masks)."""
    u, v = edge
    i, j, masks = _deletion_masks(G, u, v, sets)
    gid, rhs = _memo(G, emit_graph6), _memo(G, star_packing_number).size - 2
    cu, cv = G.closed_mask(i), G.closed_mask(j)
    out = []
    for a in masks:
        variants = {"A_plus_closed_u": a | cu, "A_plus_closed_v": a | cv,
                    "closed_u_plus_closed_v": cu | cv}
        values = {name: _memo(_memo(G, _without, drop), star_packing_number).size
                  for name, drop in variants.items()}
        lhs = min(values.values())
        status = HOLDS if lhs >= rhs else FAILS
        witness = {"edge": [u, v], "A": sorted(_labels(G, a)), "values": values}
        out.append(CheckOutcome("deletion_bound", gid, status, lhs, rhs, witness))
    return out
