"""Exhaustive catalogs of small graphs, one representative per isomorphism class.

Enumeration is incremental: every class on n vertices arises from a class on
n-1 vertices by attaching one new vertex, so level n is built from level n-1
candidates deduplicated by an exact canonical form: individualization-
refinement (McKay & Piperno, *Practical graph isomorphism, II*, 2014).  The
vertex partition is refined to an equitable one, then each vertex of the first
smallest non-singleton cell is individualized in turn, down to discrete
partitions; the key is the least relabeled edge bit string over these leaves.
A twin of a vertex already tried is skipped: swapping the two is an
automorphism fixing the partition, so its subtree holds the same leaves.
Skipped twins and leaves with equal bit strings give automorphisms; each
representative is extended only by the least new-vertex neighbour mask of each
orbit under them, so the first candidate of every class is still the one kept.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, _bits, default_labels

__all__ = ["canonical_key", "graph_classes", "all_graphs", "CLASS_COUNTS"]

# Known isomorphism-class counts for n = 0..9 (OEIS A000088), used as an
# enumeration self-check.
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


def _equitable(adj: tuple[int, ...], cells: list[int], stack: list[int]) -> list[int]:
    """Refine an ordered partition of vertex masks until it is equitable.

    Each splitter popped from ``stack`` splits every cell by its vertices'
    neighbour counts in the splitter, parts in increasing count order; every
    new part is pushed as a splitter.  A single-vertex splitter splits a cell
    into its non-neighbours and neighbours."""
    while stack and len(cells) < len(adj):
        w = stack.pop()
        refined: list[int] = []
        if not w & (w - 1):
            nb = adj[w.bit_length() - 1]
            for cell in cells:
                lo, hi = cell & ~nb, cell & nb
                if lo and hi:
                    refined += (lo, hi)
                    stack += (lo, hi)
                else:
                    refined.append(cell)
            cells = refined
            continue
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[int, int] = {}
            for v in _bits(cell):
                c = (adj[v] & w).bit_count()
                parts[c] = parts.get(c, 0) | 1 << v
            split = [parts[c] for c in sorted(parts)]
            refined += split
            if len(split) > 1:
                stack += split
        cells = refined
    return cells


def _visit(n: int, adj: tuple[int, ...], cells: list[int], stack: list[int],
           leaves: dict[int, list[int]], auts: list[tuple[int, ...]]) -> None:
    """Search below an ordered partition: record each leaf's key in leaves and
    each automorphism found in auts."""
    cells = _equitable(adj, cells, stack)
    _, k = min(
        ((c.bit_count(), i) for i, c in enumerate(cells) if c & (c - 1)),
        default=(1, -1),
    )
    if k < 0:
        order = [c.bit_length() - 1 for c in cells]
        key = 0
        for i, v in enumerate(order):
            row = adj[v]
            for j in range(i):
                if row >> order[j] & 1:
                    key |= 1 << (i * (i - 1) // 2 + j)
        first = leaves.setdefault(key, order)
        if first is not order:  # v -> the vertex at v's position in the first leaf
            auts.append(tuple(w for _, w in sorted(zip(order, first))))
        return
    cell = cells[k]
    tried: list[int] = []
    for v in _bits(cell):
        u = next((u for u in tried if adj[v] & ~(1 << u) == adj[u] & ~(1 << v)), -1)
        if u >= 0:
            auts.append(tuple(v if x == u else u if x == v else x for x in range(n)))
            continue
        tried.append(v)
        _visit(n, adj, cells[:k] + [1 << v, cell ^ 1 << v] + cells[k + 1:], [1 << v], leaves, auts)


def _search(n: int, adj: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """Canonical key of a trusted adjacency tuple, and automorphisms found."""
    leaves: dict[int, list[int]] = {}
    auts: list[tuple[int, ...]] = []
    _visit(n, adj, [(1 << n) - 1] if n else [], [(1 << n) - 1], leaves, auts)
    return min(leaves), auts


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
        images = []
        for g in gens:
            image = [0]
            for m in range(1, 1 << (n - 1)):
                image.append(image[m & (m - 1)] | 1 << g[(m & -m).bit_length() - 1])
            images.append(image)
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
            adj = tuple(
                base[i] | (((mask >> i) & 1) << (n - 1)) for i in range(n - 1)
            ) + (mask,)
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
