"""Edge orbits under Aut(G), for the edge and edge-set checks of the suite.

Every statement an edge or edge-set check verifies is invariant under the
automorphisms of G.  So the suite computes the first edge, in G.edges()
order, of each orbit of edges, and maps its rows to the other edges of the
orbit by an automorphism sigma: the edge is its own label pair, A and L are
sigma(A) sorted as strings and sigma(L) in vertex order, the deletion bound's
endpoint values swap when sigma turns the edge around, and an ideal digest
is made again from the first edge's ideal with its columns permuted.  The
first edge's depth comparisons are counted again for each mapped edge.  A
mapped row equals the row computing would give.  An orbit is computed edge
by edge when its pools are sampled (each edge draws its own sample), and
when its first edge gave a fail or raised a finding, so no witness or
finding comes from a mapping.

The suite imports this module at its first edge or edge-set check, so a run
of graph-level checks does not load it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import checks as _checks
from .catalog import _search
from .checks import CheckOutcome
from .graphs import Graph, _bits, _mask, _pool
from .ideals import ideal_digest


def _edge_orbits(G: Graph) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Every edge of G but the first of each orbit under Aut(G), by its index
    in G.edges(): (k, sigma), where edge k is the first of its orbit and the
    vertex permutation sigma takes edge k to it.  sigma is a product of the
    automorphisms catalog._search finds, along a breadth-first walk."""
    edges = G.edges()
    if not edges:
        return {}
    at = {e: k for k, e in enumerate(edges)}
    gens = _search(G.n, G.adj)[1]
    out: dict[int, tuple[int, tuple[int, ...]]] = {}
    for k, edge in enumerate(edges):
        if k in out:
            continue
        walk = [(edge, tuple(range(G.n)))]
        for (i, j), sigma in walk:
            for g in gens:
                t = at[min(g[i], g[j]), max(g[i], g[j])]
                if t != k and t not in out:
                    tau = tuple(g[s] for s in sigma)
                    out[t] = k, tau
                    walk.append((edges[t], tau))
    return out


class _Computed(NamedTuple):
    """The rows of one check at the first edge ij of an orbit, which the
    other edges of the orbit map."""

    i: int
    j: int
    rows: list[CheckOutcome]  # in the order of their deletion sets' masks
    comparisons: int          # depth comparisons its rows made


def _mapped_rows(G: Graph, name: str, first: _Computed, sigma, p: int, q: int) -> list[CheckOutcome]:
    """The rows of the check name at the edge pq, mapped from those of the
    orbit's first edge by sigma, an automorphism of G taking that edge to pq,
    in pq's own deletion-set order (by mask over its pool).  Vertex sets in
    the witness are mapped, the endpoint values swap when sigma turns the edge
    around, and a digest is made again from the first edge's ideal, permuted."""
    labels, n = G.labels, G.n
    to = {x: sigma[k] for k, x in enumerate(labels)}  # a label to its image's index
    inverse = sorted(range(n), key=sigma.__getitem__)
    rank = {w: 1 << t for t, w in enumerate(_bits(_pool(G, p, q)))}
    edge = [labels[p], labels[q]]  # one list for all the edge's rows, which stay as made
    flip = sigma[first.i] == q
    digested = _checks._DIGESTED.get(name)
    out: list = [None] * len(first.rows)
    for oc in first.rows:
        witness = dict(oc.witness)
        witness["edge"] = edge
        A = [to[x] for x in witness.get("A", ())]
        # sorted() of a list is a list of its exact size, as the report holds
        # a row per instance
        if "A" in witness:
            witness["A"] = sorted([labels[k] for k in A])
        if "L" in witness:
            witness["L"] = sorted([labels[to[x]] for x in witness["L"]], key=labels.index)
        if "values" in witness:
            values = dict(witness["values"])
            if flip:
                values["A_plus_closed_u"], values["A_plus_closed_v"] = (
                    values["A_plus_closed_v"], values["A_plus_closed_u"])
            witness["values"] = values
        lhs, rhs = oc.lhs, oc.rhs
        if digested:
            a = _mask(G, oc.witness.get("A", ()))
            column = {w: c for c, w in enumerate(k for k in range(n) if not a >> k & 1)}
            ring = [k for k in range(n) if k not in A]
            ideal = digested(_checks._memo(G, _checks._without, a),
                             labels[first.i], labels[first.j])
            lhs = rhs = ideal_digest(ideal._permuted(
                tuple(labels[k] for k in ring), [column[inverse[k]] for k in ring]))
        out[sum(rank[k] for k in A)] = CheckOutcome(
            oc.check_id, oc.graph_id, oc.status, lhs, rhs, witness, oc.field_char)
    return out
