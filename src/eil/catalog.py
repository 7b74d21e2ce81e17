"""Exhaustive catalogs of small graphs, one representative per isomorphism class.

Level n attaches a new vertex to each class of level n-1 in every way,
deduplicated by an exact canonical form: individualization-refinement (McKay &
Piperno, *Practical graph isomorphism, II*, 2014).  Partitions are refined to
equitable ones by nauty's splitter rule; each vertex of the first smallest
non-singleton cell is individualized in turn, and the key is the least
relabeled edge bit string over the discrete leaves.  Swapped twins and leaves
equal to earlier ones give automorphisms.  A node that individualized F skips a
vertex that those fixing F pointwise map into the orbit of a vertex tried
there; an equal leaf ends the search below the two leaves' common ancestor.  So
_level keeps generators of Aut, not every automorphism, and extends each class
only by the least new-vertex neighbour mask of each orbit under them: the first
candidate of every class is still the one kept.  _edge_orbits walks the same
generators to the edge orbits along which the suite maps rows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, default_labels

__all__ = ["canonical_key", "graph_classes", "all_graphs", "CLASS_COUNTS"]

# Known isomorphism-class counts for n = 0..9 (OEIS A000088), used as an
# enumeration self-check.
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


def _equitable(adj: tuple[int, ...], cells: list[int], stack: list[int]) -> list[int]:
    """Refine an ordered partition of vertex masks until it is equitable.

    Each splitter popped from ``stack`` splits every cell by neighbour counts in
    it, parts in increasing count order.  A split cell's parts replace it on the
    stack, or else all but its first largest part, fixed by the others, go on."""
    n = len(adj)
    while stack and len(cells) < n:
        w = stack.pop()
        refined: list[int] = []
        if not w & (w - 1):
            nb = adj[w.bit_length() - 1]
            for cell in cells:
                hi = cell & nb
                if not hi or hi == cell:
                    refined.append(cell)
                    continue
                lo = cell ^ hi
                refined += (lo, hi)
                if cell in stack:
                    stack.remove(cell)
                    stack += (lo, hi)
                else:
                    stack.append(hi if lo.bit_count() >= hi.bit_count() else lo)
        else:
            for cell in cells:
                parts = [0] * n
                rest = cell if cell & (cell - 1) else 0
                while rest:
                    b = rest & -rest
                    rest ^= b
                    parts[(adj[b.bit_length() - 1] & w).bit_count()] |= b
                split = [p for p in parts if p]
                if len(split) < 2:
                    refined.append(cell)
                    continue
                refined += split
                if cell in stack:
                    stack.remove(cell)
                else:
                    split.remove(max(split, key=int.bit_count))
                stack += split
        cells = refined
    return cells


def _visit(n: int, adj: tuple[int, ...], cells: list[int], stack: list[int], fixed: tuple[int, ...],
           leaves: dict[int, tuple[list[int], tuple[int, ...]]], auts: list[tuple[int, ...]]) -> int:
    """Search below the partition that individualized fixed; record new leaf
    keys' cells and paths in leaves, automorphisms in auts.  Returns the depth
    to resume at: for a leaf equal to an earlier one, their common ancestor's."""
    cells = _equitable(adj, cells, stack)
    if len(cells) == n:
        key = base = 0
        for i, c in enumerate(cells):
            row = adj[c.bit_length() - 1]
            for j in range(i):
                if row & cells[j]:
                    key |= 1 << base + j
            base += i
        first, path = leaves.setdefault(key, (cells, fixed))
        if first is cells:
            return len(fixed)
        auts.append(tuple(w.bit_length() - 1 for _, w in sorted(zip(cells, first))))  # v -> v's place in first
        return next(d for d, (u, w) in enumerate(zip(fixed, path)) if u != w)
    cell = min((c for c in cells if c & (c - 1)), key=int.bit_count)
    k = cells.index(cell)
    tried: list[tuple[int, int]] = []  # (vertex, its row) for each vertex searched below
    orbit, known = 0, -1  # the orbits of tried under stab, the automorphisms in auts[:known] fixing fixed
    rest = cell
    while rest:
        b = rest & -rest
        rest ^= b
        if orbit & b:
            continue
        v, row = b.bit_length() - 1, adj[b.bit_length() - 1]
        for u, r in tried:
            if not (row ^ r) & ~(b | 1 << u):  # twins: swapping them fixes the partition
                auts.append(tuple(v if x == u else u if x == v else x for x in range(n)))
                break
        else:
            back = _visit(n, adj, cells[:k] + [b, cell ^ b] + cells[k + 1:], [b], fixed + (v,), leaves, auts)
            if back < len(fixed):
                return back
            tried.append((v, row))
        orbit |= b
        if rest and known < len(auts):
            known, stab = len(auts), [g for g in auts if all(g[f] == f for f in fixed)]
        todo = [x for x in range(n) if orbit >> x & 1] if rest and stab else []
        for x in todo:
            for g in stab:
                if not orbit >> g[x] & 1:
                    orbit |= 1 << g[x]
                    todo.append(g[x])
    return len(fixed)


def _search(n: int, adj: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical key of a trusted adjacency tuple, and generators of its automorphisms."""
    leaves: dict[int, tuple[list[int], tuple[int, ...]]] = {}
    auts: list[tuple[int, ...]] = []
    _visit(n, adj, [(1 << n) - 1] if n else [], [(1 << n) - 1], (), leaves, auts)
    return min(leaves), auts


def _edge_orbits(G: Graph) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Every edge of G but the first of each orbit under Aut(G), by its index
    in G.edges(): (k, sigma), where edge k is the first of its orbit and the
    vertex permutation sigma takes edge k to it.  sigma is a product of the
    generators _search finds, along a breadth-first walk.  The suite maps
    rows along these orbits (see suite._graph_task)."""
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


def canonical_key(n: int, adj: tuple[int, ...]) -> int:
    """Canonical edge bit string: equal for two graphs iff they are isomorphic."""
    if n < 0:
        raise ValueError(f"canonical_key needs n >= 0, got n = {n}")
    G = Graph(default_labels(n), adj)
    return _search(G.n, G.adj)[0]


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """(adjacency, automorphism generators) for every class on n vertices,
    sorted by adjacency."""
    if n == 0:
        return (((), ()),)
    seen: dict[int, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}
    for base, gens in _level(n - 1):
        # images[g][m]: mask m moved by generator g, built from m minus its low bit
        images: list[list[int]] = []
        for g in gens:
            images.append(image := [0])
            for m in range(1, 1 << (n - 1)):
                image.append(image[m & (m - 1)] | 1 << g[(m & -m).bit_length() - 1])
        reached = 0
        for mask in range(1 << (n - 1)):
            if reached >> mask & 1:
                continue
            reached |= 1 << mask
            orbit = [mask]
            for m in orbit:
                for image in images:
                    if not reached >> image[m] & 1:
                        reached |= 1 << image[m]
                        orbit.append(image[m])
            adj = tuple(base[i] | (mask >> i & 1) << (n - 1) for i in range(n - 1)) + (mask,)
            key, auts = _search(n, adj)
            if key not in seen:
                seen[key] = (adj, tuple(dict.fromkeys(auts)))
    return tuple(sorted(seen.values()))


def graph_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency tuples for all isomorphism classes on exactly n vertices."""
    if n < 0:
        raise ValueError(f"graph_classes needs n >= 0, got n = {n}")
    return tuple(adj for adj, _ in _level(n))


def all_graphs(max_n: int, min_n: int = 1) -> Iterator[Graph]:
    """One Graph per isomorphism class with min_n <= n <= max_n, labels x1..xn."""
    for n in range(min_n, max_n + 1):
        labels = default_labels(n)
        for adj in graph_classes(n):
            yield Graph(labels, adj)
