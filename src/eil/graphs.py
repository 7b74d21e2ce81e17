"""Labeled simple graphs on adjacency bit masks.

Vertex labels double as polynomial-ring variable names, and the label order
fixes the ambient variable order everywhere downstream, so nothing in this
module may silently permute vertices.  Graphs are immutable values; every
operation returns a fresh Graph and is safe to call concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "Graph",
    "Graph6Error",
    "StarPackingWitness",
    "graph_from_edges",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "delete_vertices",
    "distance",
    "star_packing_number",
    "is_valid_packing",
    "triangles",
    "is_wk3_free",
    "even_connection_graph",
    "maximal_independent_sets",
    "minimal_vertex_covers",
    "random_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "whiskered_triangle",
]


def _natural_key(name: str):
    """Sort key putting x2 before x10 while keeping arbitrary names ordered."""
    return tuple(
        (0, int(chunk)) if chunk.isdigit() else (1, chunk)
        for chunk in re.split(r"(\d+)", name)
        if chunk
    )


def _bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _labels(G: "Graph", mask: int) -> tuple[str, ...]:
    """Labels of the set bits of mask, in vertex order."""
    return tuple(G.labels[i] for i in _bits(mask))


def _mask(G: "Graph", names) -> int:
    """Mask of the given labels; raises ValueError naming any label G lacks."""
    names = set(names)
    mask = 0
    for i, name in enumerate(G.labels):
        if name in names:
            mask |= 1 << i
    if mask.bit_count() != len(names):
        raise ValueError(f"vertices not in graph: {sorted(names - set(G.labels))}")
    return mask


@dataclass(frozen=True)
class Graph:
    """Simple graph: ``labels[i]`` names vertex i, ``adj[i]`` is its neighbor mask.

    Invariants enforced at construction: no loops, symmetric adjacency,
    pairwise-distinct labels aligned with the masks.
    """

    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "adj", tuple(self.adj))
        n = len(self.labels)
        if len(self.adj) != n:
            raise ValueError("labels and adjacency masks differ in length")
        if len(set(self.labels)) != n:
            raise ValueError("vertex labels must be pairwise distinct")
        full = (1 << n) - 1
        for i, mask in enumerate(self.adj):
            if mask >> n:
                raise ValueError(f"adjacency mask of vertex {i} exceeds vertex range")
            if mask & (1 << i):
                raise ValueError(f"loop at vertex {self.labels[i]}")
            for j in _bits(mask & full):
                if not self.adj[j] & (1 << i):
                    raise ValueError(
                        f"asymmetric adjacency between {self.labels[i]} and {self.labels[j]}"
                    )

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown vertex {label!r}") from None

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def closed_mask(self, i: int) -> int:
        return self.adj[i] | (1 << i)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] & (1 << j))

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in _bits(self.adj[i]) if j > i]

    def edge_labels(self) -> list[tuple[str, str]]:
        return [(self.labels[i], self.labels[j]) for i, j in self.edges()]

    def num_edges(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def induced(self, keep_mask: int) -> "Graph":
        """Induced subgraph on the masked vertices, label order preserved."""
        pos = {v: k for k, v in enumerate(_bits(keep_mask))}
        adj = []
        for v in pos:
            m = 0
            for u in _bits(self.adj[v] & keep_mask):
                m |= 1 << pos[u]
            adj.append(m)
        return Graph(_labels(self, keep_mask), tuple(adj))

    def __repr__(self):
        return f"Graph({list(self.labels)}, edges={self.edge_labels()})"


@dataclass(frozen=True)
class StarPackingWitness:
    """Centers of pairwise vertex-disjoint stars realizing the packing number."""

    centers: tuple[str, ...]
    size: int


# ---------------------------------------------------------------------------
# construction and parsing


def graph_from_edges(labels, edges) -> Graph:
    """Graph over explicit labels with edges given as label pairs."""
    labels = tuple(labels)
    pos = {name: i for i, name in enumerate(labels)}
    adj = [0] * len(labels)
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u!r}")
        i, j = pos[u], pos[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(labels, tuple(adj))


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the zero-based offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph with default labels x1..xn.

    Accepts the optional ``>>graph6<<`` prefix and a trailing newline; anything
    else beyond the encoded bytes is an error.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    s = text.rstrip("\r\n")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 input", 0)
    for k, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 character {ch!r}", k)
    if s[0] == "~":
        if len(s) < 4:
            raise Graph6Error("truncated extended vertex-count header", len(s))
        if s[1] == "~":
            raise Graph6Error("graphs beyond 258047 vertices are not supported", 1)
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body_at = 4
    else:
        n = ord(s[0]) - 63
        body_at = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[body_at:]
    if len(body) < need:
        raise Graph6Error(
            f"truncated edge data: expected {need} bytes, found {len(body)}", len(s)
        )
    if len(body) > need:
        raise Graph6Error("trailing garbage after edge data", body_at + need)
    vals = [ord(ch) - 63 for ch in body]
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (vals[k // 6] >> (5 - k % 6)) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(default_labels(n), tuple(adj))


def emit_graph6(G: Graph) -> str:
    """Encode a graph in canonical graph6 (zero padding, no prefix)."""
    n = G.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    else:
        raise ValueError("graphs beyond 258047 vertices are not supported")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if G.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [
        chr(63 + (bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
                  | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]))
        for k in range(0, len(bits), 6)
    ]
    return head + "".join(chars)


def parse_edge_list(text: str) -> Graph:
    """Parse plain edge-list text: one edge ``u v`` or isolated vertex ``u`` per line.

    Vertex names are arbitrary tokens; the result is sorted in natural label
    order (x2 before x10).  Blank lines and ``#`` comments are skipped.
    """
    names: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) > 2:
            raise ValueError(f"line {lineno}: expected 'u v' or 'u', got {len(tokens)} tokens")
        if len(tokens) == 2 and tokens[0] == tokens[1]:
            raise ValueError(f"line {lineno}: loop {tokens[0]!r} {tokens[1]!r}")
        names.update(tokens)
        if len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
    return graph_from_edges(sorted(names, key=_natural_key), edges)


# ---------------------------------------------------------------------------
# named small graphs


def path_graph(n: int) -> Graph:
    labels = default_labels(n)
    return graph_from_edges(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    labels = default_labels(n)
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return graph_from_edges(labels, edges if n > 2 else [])


def complete_graph(n: int) -> Graph:
    labels = default_labels(n)
    return graph_from_edges(labels, combinations(labels, 2))


def empty_graph(n: int) -> Graph:
    return Graph(default_labels(n), (0,) * n)


def whiskered_triangle() -> Graph:
    """Triangle x1x2x3 with a pendant leaf zi attached at each xi."""
    return graph_from_edges(
        ("x1", "x2", "x3", "z1", "z2", "z3"),
        [("x1", "x2"), ("x1", "x3"), ("x2", "x3"),
         ("x1", "z1"), ("x2", "z2"), ("x3", "z3")],
    )


# ---------------------------------------------------------------------------
# structural operations


def delete_vertices(G: Graph, drop) -> Graph:
    """Graph on V minus the given labels; edges meeting a dropped vertex vanish."""
    return G.induced(((1 << G.n) - 1) & ~_mask(G, drop))


def distance(G: Graph, u: str, v: str):
    """Shortest-path edge count between two vertices, math.inf if disconnected."""
    s, t = G.index(u), G.index(v)
    if s == t:
        return 0
    seen = 1 << s
    frontier = 1 << s
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for i in _bits(frontier):
            nxt |= G.adj[i]
        nxt &= ~seen
        if nxt & (1 << t):
            return d
        seen |= nxt
        frontier = nxt
    return math.inf


def star_packing_number(G: Graph) -> StarPackingWitness:
    """Largest family of stars with pairwise disjoint vertex sets.

    Equivalent to a maximum set of centers whose closed neighborhoods are
    pairwise disjoint; found by exact branch and bound (branch on the highest
    degree candidate, prune on remaining-candidate count).
    """
    n = G.n
    if n == 0:
        return StarPackingWitness((), 0)
    closed = [G.closed_mask(i) for i in range(n)]
    conflict = []
    for i in range(n):
        m = 0
        for j in range(n):
            if closed[i] & closed[j]:
                m |= 1 << j
        conflict.append(m)
    order = sorted(range(n), key=lambda v: -G.degree(v))

    best_size = 0
    best_mask = 0

    def first_candidate(mask: int) -> int:
        for v in order:
            if mask & (1 << v):
                return v
        raise AssertionError

    def explore(chosen_mask: int, count: int, cand: int):
        nonlocal best_size, best_mask
        if count > best_size:
            best_size, best_mask = count, chosen_mask
        if count + cand.bit_count() <= best_size or not cand:
            return
        v = first_candidate(cand)
        explore(chosen_mask | (1 << v), count + 1, cand & ~conflict[v])
        explore(chosen_mask, count, cand & ~(1 << v))

    explore(0, 0, (1 << n) - 1)
    return StarPackingWitness(_labels(G, best_mask), best_size)


def is_valid_packing(G: Graph, centers) -> bool:
    """True when the closed neighborhoods of the given centers are pairwise disjoint."""
    masks = [G.closed_mask(G.index(c)) for c in centers]
    for a, b in combinations(masks, 2):
        if a & b:
            return False
    return True


def triangles(G: Graph) -> list[tuple[str, str, str]]:
    """All 3-cliques as label triples, each once, in index order."""
    out = []
    for i in range(G.n):
        for j in _bits(G.adj[i]):
            if j <= i:
                continue
            for k in _bits(G.adj[i] & G.adj[j]):
                if k > j:
                    out.append((G.labels[i], G.labels[j], G.labels[k]))
    return out


def is_wk3_free(G: Graph) -> bool:
    """True when no 6-vertex induced subgraph is a whiskered triangle.

    A 6-vertex graph is a whiskered triangle exactly when its degree multiset
    is {3,3,3,1,1,1} and the three degree-3 vertices are pairwise adjacent
    (the pendant matching is then forced by edge counting).
    """
    if G.n < 6:
        return True
    for sub in combinations(range(G.n), 6):
        sub_mask = 0
        for v in sub:
            sub_mask |= 1 << v
        degs = [(G.adj[v] & sub_mask).bit_count() for v in sub]
        if sorted(degs) != [1, 1, 1, 3, 3, 3]:
            continue
        hubs = [v for v, d in zip(sub, degs) if d == 3]
        if all(G.has_edge(a, b) for a, b in combinations(hubs, 2)):
            return False
    return True


def _admissible_pool(G: Graph, u: str, v: str, A=()) -> tuple[str, ...]:
    """Vertices an edge-parameterized statement may delete at the edge uv:
    the neighbors of u or v, minus u and v, in vertex order.  Raises
    ValueError when uv is not an edge or A leaves the pool."""
    i, j = G.index(u), G.index(v)
    if not G.has_edge(i, j):
        raise ValueError(f"{u!r} {v!r} is not an edge")
    pool = _labels(G, (G.adj[i] | G.adj[j]) & ~(1 << i) & ~(1 << j))
    bad = set(A) - set(pool)
    if bad:
        raise ValueError(f"inadmissible deletion set, {sorted(bad)} outside the neighborhood pool")
    return pool


def even_connection_graph(G: Graph, u: str, v: str, A=()) -> tuple[Graph, tuple[str, ...]]:
    """Contracted graph describing the colon-intersection ideal at an edge.

    For the edge uv and an allowed deletion set A (a subset of the open
    neighborhoods of u and v, excluding u and v), removes A, removes the
    common neighbors L of u and v, and joins every remaining neighbor of u to
    every remaining neighbor of v.  Returns the new graph together with L.
    """
    _admissible_pool(G, u, v, A)
    i, j = G.index(u), G.index(v)
    a_mask = _mask(G, A)
    l_mask = G.adj[i] & G.adj[j] & ~a_mask
    keep = ((1 << G.n) - 1) & ~a_mask & ~l_mask
    ni, nj = G.adj[i] & keep, G.adj[j] & keep
    # ni and nj are disjoint (their meet lies in A or L), so no loop appears
    adj = tuple(m | (nj if ni >> p & 1 else ni if nj >> p & 1 else 0)
                for p, m in enumerate(G.adj))
    return Graph(G.labels, adj).induced(keep), _labels(G, l_mask)


# ---------------------------------------------------------------------------
# vertex covers (minimal primes of the edge ideal)


def maximal_independent_sets(G: Graph) -> list[int]:
    """All inclusion-maximal independent sets, as vertex masks.

    Bron-Kerbosch with pivoting on the complement graph (maximal independent
    sets are maximal cliques of the complement).
    """
    n = G.n
    if n == 0:
        return [0]
    full = (1 << n) - 1
    comp = [~G.adj[i] & full & ~(1 << i) for i in range(n)]
    out: list[int] = []

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda w: (comp[w] & p).bit_count())
        for w in _bits(p & ~comp[pivot]):
            wm = 1 << w
            expand(r | wm, p & comp[w], x & comp[w])
            p &= ~wm
            x |= wm

    expand(0, full, 0)
    return sorted(out)


def minimal_vertex_covers(G: Graph) -> list[tuple[int, ...]]:
    """Minimal vertex covers as sorted index tuples (complements of maximal
    independent sets)."""
    full = (1 << G.n) - 1
    covers = []
    for mis in maximal_independent_sets(G):
        covers.append(tuple(_bits(full & ~mis)))
    return sorted(covers)


def random_graph(n: int, rng) -> Graph:
    """Uniform random labeled graph on n vertices (each pair independently 1/2)."""
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(default_labels(n), tuple(adj))
