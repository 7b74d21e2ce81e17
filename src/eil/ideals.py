"""Exact monomial-ideal arithmetic over an explicit ambient variable list.

Monomials are exponent tuples aligned with the ambient; ideals always store
their minimal generating set in graded-lexicographic order, so structural
equality of MonomialIdeal values is ideal equality.  Deleting ring variables
is modeled by shrinking the ambient (see with_ambient), never by quotients,
because depth bookkeeping depends on the ambient size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement

from .graphs import Graph, minimal_vertex_covers

__all__ = [
    "Monomial",
    "MonomialIdeal",
    "PolarizationResult",
    "minimalize",
    "edge_ideal",
    "polarize",
    "symbolic_square_edge_ideal",
    "parse_monomial",
    "format_monomial",
    "ideal_digest",
]

Monomial = tuple[int, ...]


def _divides(u: Monomial, v: Monomial) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _lcm(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a if a >= b else b for a, b in zip(u, v))


def _mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(u, v))


def _quotient_by_gcd(u: Monomial, m: Monomial) -> Monomial:
    """u / gcd(u, m), the generator-wise colon step."""
    return tuple(a - b if a > b else 0 for a, b in zip(u, m))


def _packed_rows(unique) -> tuple[int, list]:
    """(b, rows): rows = (degree, -packed, g) sorted, g packed into one int of
    b bits per variable, first variable highest; so degree first, then
    descending lex (x*y before z^2).  Every field's top (guard) bit stays
    clear: b = 8 while the degree is below 128, else one bit above need."""
    try:
        rows = sorted((sum(g), -int.from_bytes(bytes(g), "big"), g) for g in unique)
        if not rows or rows[-1][0] < 128:
            return 8, rows
    except ValueError:  # an exponent outside 0..255
        if any(e < 0 for g in unique for e in g):
            raise ValueError("monomial exponents must be nonnegative") from None
    b = max(map(max, unique)).bit_length() + 1
    return b, sorted((sum(g), -reduce(lambda p, e: p << b | e, g, 0), g) for g in unique)


def minimalize(gens, width: int) -> tuple[Monomial, ...]:
    """Divisibility antichain of the given monomials, canonically sorted.

    h | g is one test on packed words (Bachmann-Schoenemann, ISSAC 1998):
    g - h, with g's guard bits set, clears a field's guard exactly where h
    has the larger exponent, so h | g iff ((g | GUARD) - h) & GUARD == GUARD.
    """
    unique = set(map(tuple, gens))
    for g in unique:
        if len(g) != width:
            raise ValueError(f"monomial width {len(g)} does not match ambient {width}")
    b, rows = _packed_rows(unique)
    guard = ((1 << b * width) - 1) // ((1 << b) - 1) << (b - 1)
    kept, packed = [], []
    for _, neg, g in rows:
        g_guarded = guard - neg
        for h in packed:
            if (g_guarded - h) & guard == guard:
                break
        else:
            kept.append(g)
            packed.append(-neg)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators over a fixed ambient.

    The zero ideal has no generators; the unit ideal is generated by 1 (the
    all-zero exponent vector).  Construction minimalizes and sorts, so two
    values compare equal exactly when they are the same ideal in the same
    ambient.
    """

    ambient: tuple[str, ...]
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        ambient = tuple(self.ambient)
        if len(set(ambient)) != len(ambient):
            raise ValueError("ambient variable names must be distinct")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "gens", minimalize(self.gens, len(ambient)))

    # -- basic views --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def var(self, name: str) -> Monomial:
        """The variable `name` as a monomial of this ambient."""
        i = self.ambient.index(name)
        return tuple(1 if k == i else 0 for k in range(len(self.ambient)))

    def gens_rows(self) -> list[tuple[int, ...]]:
        """Machine-readable generator dump: one exponent-vector row per generator."""
        return [tuple(g) for g in self.gens]

    def pretty(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(format_monomial(self.ambient, g) for g in self.gens) + ")"

    def __repr__(self):
        return f"MonomialIdeal{self.pretty()}"

    # -- arithmetic ---------------------------------------------------------

    def _check_same_ambient(self, other: "MonomialIdeal"):
        if self.ambient != other.ambient:
            raise ValueError("ideals live in different ambients")

    def _check_monomial(self, m: Monomial):
        if len(m) != len(self.ambient):
            raise ValueError("monomial width does not match ambient")
        if min(m, default=0) < 0:
            raise ValueError("monomial exponents must be nonnegative")

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_ambient(other)
        return MonomialIdeal(self.ambient, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_ambient(other)
        return MonomialIdeal(
            self.ambient, tuple(_mul(u, v) for u in self.gens for v in other.gens)
        )

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 1:
            raise ValueError("power expects a positive exponent")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """(I : m) = monomials v with v*m in I."""
        self._check_monomial(m)
        return MonomialIdeal(self.ambient, tuple(_quotient_by_gcd(u, m) for u in self.gens))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_ambient(other)
        return MonomialIdeal(
            self.ambient, tuple(_lcm(u, v) for u in self.gens for v in other.gens)
        )

    def contains(self, m: Monomial) -> bool:
        self._check_monomial(m)
        return any(_divides(g, m) for g in self.gens)

    def with_ambient(self, ambient) -> "MonomialIdeal":
        """Rewrite the generators over another ambient (matched by name).

        Every variable actually used by a generator must exist in the new
        ambient; fresh variables are fine and enter with exponent zero.
        """
        ambient = tuple(ambient)
        pos = {name: i for i, name in enumerate(ambient)}
        width = len(ambient)
        new_gens = []
        for g in self.gens:
            vec = [0] * width
            for old_i, e in enumerate(g):
                if not e:
                    continue
                name = self.ambient[old_i]
                if name not in pos:
                    raise ValueError(f"variable {name!r} missing from target ambient")
                vec[pos[name]] = e
            new_gens.append(tuple(vec))
        return MonomialIdeal(ambient, tuple(new_gens))

    @classmethod
    def zero(cls, ambient) -> "MonomialIdeal":
        return cls(tuple(ambient), ())

    @classmethod
    def from_strings(cls, ambient, texts) -> "MonomialIdeal":
        ambient = tuple(ambient)
        return cls(ambient, tuple(parse_monomial(ambient, t) for t in texts))


@dataclass(frozen=True)
class PolarizationResult:
    """Squarefree polarization plus the number of variables it added."""

    ideal: MonomialIdeal
    extra: int


# ---------------------------------------------------------------------------
# formatting


def format_monomial(ambient, m: Monomial) -> str:
    if not any(m):
        return "1"
    parts = []
    for name, e in zip(ambient, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def parse_monomial(ambient, text: str) -> Monomial:
    """Inverse of format_monomial: '1', 'x', 'x^2*y' over the named ambient."""
    vec = [0] * len(ambient)
    text = text.strip()
    if text == "1":
        return tuple(vec)
    pos = {name: i for i, name in enumerate(ambient)}
    for factor in text.split("*"):
        name, caret, exp = factor.strip().partition("^")
        if name not in pos:
            raise ValueError(f"unknown variable {name!r}")
        vec[pos[name]] += int(exp) if caret else 1
    return tuple(vec)


def ideal_digest(I: MonomialIdeal) -> str:
    """Short deterministic identifier for report rows."""
    text = I.pretty()
    if len(text) <= 72:
        return text
    h = hashlib.sha1(text.encode()).hexdigest()[:12]
    return f"{len(I.gens)}gens:{h}"


# ---------------------------------------------------------------------------
# ideals attached to graphs


def edge_ideal(G: Graph) -> MonomialIdeal:
    """Ideal generated by x_i*x_j over the edges, ambient = all vertex labels."""
    n = G.n
    gens = []
    for i, j in G.edges():
        vec = [0] * n
        vec[i] = 1
        vec[j] = 1
        gens.append(tuple(vec))
    return MonomialIdeal(G.labels, tuple(gens))


def symbolic_square_edge_ideal(G: Graph) -> MonomialIdeal:
    """Second symbolic power of the edge ideal.

    Computed as the intersection of P^2 over the minimal primes P of the edge
    ideal, which are generated by the minimal vertex covers of the graph.
    """
    n = G.n
    if not any(G.adj):
        return MonomialIdeal.zero(G.labels)
    result = None
    for cover in minimal_vertex_covers(G):
        gens = []
        for a, b in combinations_with_replacement(cover, 2):
            vec = [0] * n
            vec[a] += 1
            vec[b] += 1
            gens.append(tuple(vec))
        p_squared = MonomialIdeal(G.labels, tuple(gens))
        result = p_squared if result is None else result.intersect(p_squared)
    return result


def polarize(I: MonomialIdeal) -> PolarizationResult:
    """Exponent-splitting squarefree transform.

    Each variable x with maximal exponent a gets copies x, x.2, ..., x.a in
    the enlarged ambient (copies of one variable stay adjacent); a generator
    x^e contributes its first e copies.  Specializing every copy back to x
    recovers the original generators.  extra = added variable count.
    """
    n = len(I.ambient)
    amax = [0] * n
    for g in I.gens:
        for i, e in enumerate(g):
            if e > amax[i]:
                amax[i] = e
    used = set(I.ambient)
    new_names: list[str] = []
    slots: list[list[int]] = []
    for i, name in enumerate(I.ambient):
        copies = [len(new_names)]
        new_names.append(name)
        for k in range(2, amax[i] + 1):
            alias = f"{name}.{k}"
            while alias in used:
                alias += "'"
            used.add(alias)
            copies.append(len(new_names))
            new_names.append(alias)
        slots.append(copies)
    width = len(new_names)
    new_gens = []
    for g in I.gens:
        vec = [0] * width
        for i, e in enumerate(g):
            for k in range(e):
                vec[slots[i][k]] = 1
        new_gens.append(tuple(vec))
    ideal = MonomialIdeal(tuple(new_names), tuple(new_gens))
    return PolarizationResult(ideal, width - n)
