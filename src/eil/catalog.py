"""Exhaustive catalogs of small graphs, one representative per isomorphism class.

Enumeration is incremental: every class on n vertices arises from a class on
n-1 vertices by attaching one new vertex, so level n is built from level n-1
candidates deduplicated by an exact canonical form.  The canonical form is the
minimum edge bit string over all label-respecting bijections, restricted to
the bijections compatible with an iterated degree refinement (refinement keys
are isomorphism invariants, so the restriction is lossless).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

from .graphs import Graph, _bits, default_labels

__all__ = ["canonical_key", "graph_classes", "all_graphs", "CLASS_COUNTS"]

# Known isomorphism-class counts for n = 0..7, used as an enumeration self-check.
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)


def _refine(nbrs: list[tuple[int, ...]]) -> list[int]:
    """Iterated neighbor-degree refinement over neighbor lists; returns an
    invariant key per vertex."""
    keys = [len(nb) for nb in nbrs]
    for _ in range(3):
        raw = [(k, tuple(sorted([keys[j] for j in nb]))) for k, nb in zip(keys, nbrs)]
        ranks = {k: r for r, k in enumerate(sorted(set(raw)))}
        new = [ranks[k] for k in raw]
        if new == keys:
            break
        keys = new
    return keys


def canonical_key(n: int, adj: tuple[int, ...]) -> int:
    """Canonical edge bit string: equal for two graphs iff they are isomorphic."""
    if n <= 1:
        return 0
    nbrs = [tuple(_bits(m)) for m in adj]
    keys = _refine(nbrs)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(keys[v], []).append(v)
    blocks = [groups[k] for k in sorted(groups)]
    # positions are handed out block by block, so only within-block orders vary
    starts = []
    pos = 0
    for b in blocks:
        starts.append(pos)
        pos += len(b)
    edges = [(i, j) for i, nb in enumerate(nbrs) for j in nb if j > i]
    best = None
    for assignment in product(*(permutations(b) for b in blocks)):
        sigma = [0] * n
        for block_vertices, start in zip(assignment, starts):
            for off, v in enumerate(block_vertices):
                sigma[v] = start + off
        mask = 0
        for i, j in edges:
            a, b = sigma[i], sigma[j]
            if a > b:
                a, b = b, a
            mask |= 1 << (b * (b - 1) // 2 + a)
        if best is None or mask < best:
            best = mask
    return best


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency tuples for all isomorphism classes on exactly n vertices."""
    if n == 0:
        return ((),)
    seen: dict[int, tuple[int, ...]] = {}
    for base in graph_classes(n - 1):
        for mask in range(1 << (n - 1)):
            adj = tuple(
                base[i] | (((mask >> i) & 1) << (n - 1)) for i in range(n - 1)
            ) + (mask,)
            key = canonical_key(n, adj)
            if key not in seen:
                seen[key] = adj
    return tuple(sorted(seen.values()))


def all_graphs(max_n: int, min_n: int = 1) -> Iterator[Graph]:
    """One Graph per isomorphism class with min_n <= n <= max_n, labels x1..xn."""
    for n in range(min_n, max_n + 1):
        labels = default_labels(n)
        for adj in graph_classes(n):
            yield Graph(labels, adj)
