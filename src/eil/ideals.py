"""Exact monomial-ideal arithmetic over an explicit ambient variable list.

Monomials are exponent tuples aligned with the ambient; ideals always store
their minimal generating set in graded-lexicographic order, so structural
equality of MonomialIdeal values is ideal equality.  Deleting ring variables
is modeled by shrinking the ambient, never by quotients, because depth
bookkeeping depends on the ambient size: I(G - A) is the edge_ideal of
G.induced on the vertices outside A, over their labels only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement
from operator import or_

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


# Packed monomials (Bachmann-Schoenemann, ISSAC 1998): an exponent tuple as
# one int of b bits per variable, first variable highest, every field's top
# (guard) bit clear.  Numeric order on words is lex order on tuples, and per
# field comparisons are one subtraction: (g | GUARD) - h keeps a field's guard
# bit exactly where g's exponent is at least h's, and leaves g - h below it.


def _guard(b: int, width: int) -> int:
    return ((1 << b * width) - 1) // ((1 << b) - 1) << (b - 1)


def _pack_at(gens, b: int) -> list[int]:
    if b == 8:
        return [int.from_bytes(bytes(g), "big") for g in gens]
    return [reduce(lambda p, e: p << b | e, g, 0) for g in gens]


def _pack(gens, width: int, top: int = 0) -> tuple[int, list[int]]:
    """(b, words): b is 8 while every exponent (and top) is below 128, else
    one bit above the largest of them, so every guard bit is clear.  Raises
    ValueError on a negative exponent."""
    if top < 128:
        try:
            words = _pack_at(gens, 8)
            if not reduce(or_, words, 0) & _guard(8, width):
                return 8, words
        except ValueError:  # an exponent outside 0..255
            if min(map(min, gens)) < 0:
                raise ValueError("monomial exponents must be nonnegative") from None
    b = max(top, max(map(max, gens), default=0)).bit_length() + 1
    return b, _pack_at(gens, b)


def _monus(g: int, h: int, guard: int, shift: int) -> int:
    """Per field max(g - h, 0) of two packed words; shift is b - 1."""
    x = (g | guard) - h
    keep = x & guard
    return x & (keep - (keep >> shift))


def _minimal(words, b: int, width: int, gens=None) -> tuple[tuple[Monomial, ...], list[int]]:
    """(tuples, words) of the divisibility antichain of the packed words, the
    tuples sorted by degree, then descending lex.  gens, when given, are the
    tuples of the words, position by position; otherwise the kept words are
    unpacked.  h | g iff ((g | GUARD) - h) & GUARD == GUARD; ascending words
    put each divisor before its multiples, so one pass, testing each word
    against those kept so far, finds the antichain."""
    guard = _guard(b, width)
    table = dict(zip(words, gens)) if gens is not None else dict.fromkeys(words)
    kept = []
    for g in sorted(table):
        g_guarded = g | guard
        for h in kept:
            if (g_guarded - h) & guard == guard:
                break
        else:
            kept.append(g)
    if gens is not None:
        out = [table[w] for w in reversed(kept)]
    elif b == 8:
        out = [tuple(w.to_bytes(width, "big")) for w in reversed(kept)]
    else:
        shifts, field = range(b * (width - 1), -1, -b), (1 << b) - 1
        out = [tuple(w >> s & field for s in shifts) for w in reversed(kept)]
    out.sort(key=sum)  # stable: descending lex within each degree
    return tuple(out), kept


def minimalize(gens, width: int) -> tuple[Monomial, ...]:
    """Divisibility antichain of the given monomials, canonically sorted."""
    unique = list(set(map(tuple, gens)))
    for g in unique:
        if len(g) != width:
            raise ValueError(f"monomial width {len(g)} does not match ambient {width}")
    b, words = _pack(unique, width)
    return _minimal(words, b, width, unique)[0]


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

    def _packed(self) -> tuple[int, list[int]]:
        """(b, words) of the generators (see _pack), made on first use; an
        ideal that arithmetic made keeps the words it was made from."""
        try:
            return self._words
        except AttributeError:
            object.__setattr__(self, "_words", _pack(self.gens, len(self.ambient)))
            return self._words

    def _at(self, b: int) -> list[int]:
        """The packed generators with b bits per field."""
        own, words = self._packed()
        return words if own == b else _pack_at(self.gens, b)

    def _derived(self, words, b: int) -> "MonomialIdeal":
        """The ideal of this ambient generated by the packed words."""
        gens, kept = _minimal(words, b, len(self.ambient))
        out = object.__new__(MonomialIdeal)
        object.__setattr__(out, "ambient", self.ambient)
        object.__setattr__(out, "gens", gens)
        object.__setattr__(out, "_words", (b, kept))
        return out

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_ambient(other)
        b = max(self._packed()[0], other._packed()[0])
        return self._derived(self._at(b) + other._at(b), b)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generated by the pairwise products, each one word addition.  The
        sums fit their fields; where one reaches a guard bit, all are redone
        with fields wide enough for the largest sum."""
        self._check_same_ambient(other)
        b = max(self._packed()[0], other._packed()[0])
        right = other._at(b)
        words = [u + v for u in self._at(b) for v in right]
        if reduce(or_, words, 0) & _guard(b, len(self.ambient)):
            top = max(map(max, self.gens)) + max(map(max, other.gens))
            b, left = _pack(self.gens, len(self.ambient), top)
            right = _pack_at(other.gens, b)
            words = [u + v for u in left for v in right]
        return self._derived(words, b)

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 1:
            raise ValueError("power expects a positive exponent")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def _with_monomial(self, m: Monomial) -> tuple[int, list[int], int]:
        """(b, packed generators, packed m), at one field width."""
        self._check_monomial(m)
        own, (word,) = _pack((m,), len(self.ambient))
        b = max(own, self._packed()[0])
        if b != own:
            (word,) = _pack_at((m,), b)
        return b, self._at(b), word

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """(I : m) = monomials v with v*m in I: generator-wise u / gcd(u, m)."""
        b, words, mono = self._with_monomial(m)
        guard = _guard(b, len(self.ambient))
        return self._derived([_monus(u, mono, guard, b - 1) for u in words], b)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generated by the pairwise lcms, max(u, v) = u + max(v - u, 0)."""
        self._check_same_ambient(other)
        b = max(self._packed()[0], other._packed()[0])
        guard, right = _guard(b, len(self.ambient)), other._at(b)
        return self._derived([u + _monus(v, u, guard, b - 1)
                              for u in self._at(b) for v in right], b)

    def contains(self, m: Monomial) -> bool:
        b, words, mono = self._with_monomial(m)
        guard = _guard(b, len(self.ambient))
        mono |= guard
        return any((mono - g) & guard == guard for g in words)

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

    def _permuted(self, ambient: tuple[str, ...], src) -> "MonomialIdeal":
        """The ideal over ambient whose column p is column src[p] of this
        one, src a permutation: the generators stay minimal, so they are
        only sorted again, by degree and then descending lex."""
        gens = [tuple(map(g.__getitem__, src)) for g in self.gens]
        gens.sort(reverse=True)
        gens.sort(key=sum)
        out = object.__new__(MonomialIdeal)
        object.__setattr__(out, "ambient", ambient)
        object.__setattr__(out, "gens", tuple(gens))
        return out

    @classmethod
    def zero(cls, ambient) -> "MonomialIdeal":
        return cls(tuple(ambient), ())


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
        e = int(exp) if caret else 1
        if e < 0:
            raise ValueError("monomial exponents must be nonnegative")
        vec[pos[name]] += e
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
