"""Exact depth and projective dimension of monomial quotients.

Pipeline: polarize to a squarefree ideal, read its Stanley-Reisner complex
(minimal nonfaces = generator supports), and recover multigraded Betti
numbers from reduced homology of induced subcomplexes,

    beta_{i,W}(S/I) = rank H~_{|W|-i-1}(Delta restricted to W)

over the chosen coefficient field.  Only masks W in the union closure of the
generator supports (the lcm lattice) can carry homology, which keeps the scan
exact and small.  Depth is ambient size minus projective dimension; the
polarization shift cancels, so results are always relative to the ideal's own
ambient.

Each lattice mask is first reduced: a vertex v of W whose link in Delta_W is
a cone is deleted, and this repeats.  Delta_W is the union of the deletion
Delta_{W-v} and the star of v, which meet in the link; star and link are
acyclic, so Mayer-Vietoris gives H~(Delta_W) = H~(Delta_{W-v}) over any
field.  Homology is then computed once per reduced mask of each ideal.
reduced_homology_dims reads one mask as given, unreduced.

Module depth of a proper nonzero ideal is defined as depth of the quotient
plus one (equivalently pd(I) = pd(S/I) - 1), and is undefined for the zero
and unit ideals.

Homology ranks come from boundary-matrix ranks: bit-packed elimination over
F2 (the default fast path) or fraction-free integer elimination for exact
characteristic-zero ranks (the cross-check path).  A depth sweep needs only
the smallest nonvanishing size per mask, and over Q it takes ranks only where
mod-2 homology is alive at that size and the next: elsewhere universal
coefficients force the rational answer to equal the mod-2 one.  Projective
dimensions are memoized per characteristic under the generator matrix with
its unused columns dropped; relabeled copies of an ideal are separate entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graphs import _bits
from .ideals import MonomialIdeal, polarize

__all__ = [
    "FieldChoice",
    "GF2",
    "QQ",
    "ComplexView",
    "DepthResult",
    "reduced_homology_dims",
    "betti_numbers",
    "depth_quotient",
    "depth_ideal",
    "depth_ideal_both",
    "betti_table_rows",
    "clear_depth_cache",
]


@dataclass(frozen=True)
class FieldChoice:
    """Coefficient field for homology ranks: characteristic 2 or 0."""

    characteristic: int

    def __post_init__(self):
        if self.characteristic not in (0, 2):
            raise ValueError("supported characteristics: 0 and 2")

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


GF2 = FieldChoice(2)
QQ = FieldChoice(0)


@dataclass(frozen=True)
class ComplexView:
    """Stanley-Reisner data: W is a face iff no nonface mask is a subset of W."""

    ambient: tuple[str, ...]
    nonfaces: tuple[int, ...]

    def __post_init__(self):
        for s in self.nonfaces:
            if s >> len(self.ambient):  # also nonzero for every negative s
                raise ValueError(f"nonface mask {s:#x} exceeds the ambient vertices")

    @classmethod
    def from_ideal(cls, I: MonomialIdeal) -> "ComplexView":
        if not I.is_squarefree:
            raise ValueError("Stanley-Reisner complex needs a squarefree ideal")
        masks = (sum(1 << i for i, e in enumerate(g) if e) for g in I.gens)
        return cls(tuple(I.ambient), tuple(masks))


@dataclass(frozen=True)
class DepthResult:
    """Depth/pd bundle for one quotient; depth_ideal is None for the zero ideal."""

    ambient_size: int
    pd_quotient: int
    depth_quotient: int
    depth_ideal: int | None
    field: FieldChoice
    betti: dict | None = None

    def __post_init__(self):
        if self.depth_quotient + self.pd_quotient != self.ambient_size:
            raise ValueError("depth + pd must equal the ambient size")


# ---------------------------------------------------------------------------
# faces and boundary ranks


def _faces_by_size(W: int, nonfaces) -> list[list[int]]:
    """Faces of the induced subcomplex on W, grouped by vertex count.

    Entry s lists the masks with s vertices, in lexicographic order of their
    sorted vertices; entry 0 is the empty face, and no entry is empty.  Size
    s + 1 holds each face F of size s plus one vertex v of W above F's
    highest vertex such that F + v contains no nonface; as F is a face, only
    the nonfaces through v need testing.  The void complex (some nonface
    inside W is empty) yields an empty list.
    """
    local = [s for s in nonfaces if not s & ~W]
    if 0 in local:
        return []
    cands = [(1 << v, [s for s in local if (s >> v) & 1]) for v in _bits(W)]
    out = []
    layer = [(0, 0)]  # (face, index of the first candidate above its top vertex)
    while layer:
        out.append([F for F, _ in layer])
        grown = []
        for F, start in layer:
            for t in range(start, len(cands)):
                bit, through = cands[t]
                G = F | bit
                for s in through:
                    if not s & ~G:
                        break
                else:
                    grown.append((G, t + 1))
        layer = grown
    return out


def _rank_gf2(cols: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for v in cols:
        while v:
            low = v & -v
            row = pivots.get(low)
            if row is None:
                pivots[low] = v
                rank += 1
                break
            v ^= row
    return rank


def _rank_exact(cols: list[dict[int, int]]) -> int:
    """Rank over the rationals by fraction-free integer elimination.

    A column v whose leading entry a meets a pivot p with leading entry b is
    reduced to b * v - a * p, which stays integral and loses that entry, and
    then divided by the gcd of its entries, which keeps the entries small.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for vec in cols:
        v = {k: c for k, c in vec.items() if c}
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                rank += 1
                break
            a, b = v[lead], p[lead]
            v = {k: b * c for k, c in v.items()}
            for k, c in p.items():
                c = v.get(k, 0) - a * c
                if c:
                    v[k] = c
                else:
                    v.pop(k, None)
            g = math.gcd(*v.values())
            if g > 1:
                v = {k: c // g for k, c in v.items()}
    return rank


def _boundary_rank(prev_faces: list[int], cur_faces: list[int], characteristic: int) -> int:
    """Rank of the boundary map from size-s faces down to size-(s-1) faces."""
    index = {m: t for t, m in enumerate(prev_faces)}
    if characteristic == 2:
        cols = []
        for F in cur_faces:
            col = 0
            m = F
            while m:
                low = m & -m
                col |= 1 << index[F ^ low]
                m ^= low
            cols.append(col)
        return _rank_gf2(cols)
    cols_q = []
    for F in cur_faces:
        col: dict[int, int] = {}
        sign = 1
        m = F
        while m:
            low = m & -m
            col[index[F ^ low]] = sign
            sign = -sign
            m ^= low
        cols_q.append(col)
    return _rank_exact(cols_q)


def _ranks_by_size(faces, characteristic: int, lo: int = 0):
    """Reduced homology ranks at face sizes lo, lo + 1, ... (dimension s-1),
    lazily: a caller that stops early takes no further boundary ranks."""
    S = len(faces) - 1
    prev_bd = _boundary_rank(faces[lo - 1], faces[lo], characteristic) if lo else 0
    for s in range(lo, S + 1):
        next_bd = _boundary_rank(faces[s], faces[s + 1], characteristic) if s < S else 0
        yield len(faces[s]) - prev_bd - next_bd
        prev_bd = next_bd


def _first_alive_sizes(faces, characteristics: tuple[int, ...]) -> tuple:
    """Smallest face size with nonvanishing reduced homology in each
    characteristic, in order; None where the complex is acyclic.

    The rational answer is read off the mod-2 scan where it is forced.  By
    universal coefficients h_s = b_s + t_s + t_{s-1}, where h and b are the
    mod-2 and rational ranks at size s and t_s counts the even-order
    summands of the integral homology there.  So b vanishes below the first
    mod-2-alive size a, and when size a+1 is mod-2-dead too, t_a = t_{a-1} = 0
    and b_a = h_a > 0.  Rational ranks, from a on, are taken only when
    sizes a and a+1 are both mod-2-alive.
    """
    mod2 = _ranks_by_size(faces, 2)
    first = next((s for s, h in enumerate(mod2) if h), None)
    rational = first
    if 0 in characteristics and first is not None and next(mod2, 0):
        ranks = _ranks_by_size(faces, 0, lo=first)
        rational = next((s for s, h in enumerate(ranks, first) if h), None)
    return tuple(first if c == 2 else rational for c in characteristics)


def reduced_homology_dims(C: ComplexView, W: int, field: FieldChoice) -> dict[int, int]:
    """Reduced homology ranks {dimension: rank} of the induced subcomplex on W.

    Dimensions run from -1 (the empty face; rank 1 exactly for the complex
    {emptyset}) up to the top face dimension.  The void complex gives {}.
    """
    if W >> len(C.ambient):
        raise ValueError("W is not a subset of the ambient vertices")
    ranks = _ranks_by_size(_faces_by_size(W, C.nonfaces), field.characteristic)
    return {s - 1: h for s, h in enumerate(ranks)}


# ---------------------------------------------------------------------------
# Hochster scan over the lcm lattice


def _cone_reducer(nonfaces):
    """reduce(W): W with vertices deleted while some vertex v of it has a
    cone as its link in the induced complex on W.

    The minimal nonfaces of that link are the minimal sets among s - v for
    the nonfaces s in W, and a vertex u in none of them is an apex.  That
    holds when every nonface s in W through u is not minimal there: v is
    outside s and some nonface t has t - s = {v}.  Those v depend on s
    alone.  A nonface {v} kills every s without v: v, no vertex at all, goes
    too.  The order is fixed: the lowest u that is an apex of some link,
    then the lowest such v.  Reductions are memoized per mask, intermediate
    masks included.
    """
    through = {}  # u -> [(s, the v whose link s is not minimal in)]
    for s in nonfaces:
        vs = 0
        for t in nonfaces:
            d = t & ~s
            if not d & (d - 1):
                vs |= d
        for u in _bits(s):
            through.setdefault(u, []).append((s, vs))
    memo = {}

    def reduce(W: int) -> int:
        chain = []
        while W not in memo:
            chain.append(W)
            for u in _bits(W):
                gone = W ^ (1 << u)
                for s, vs in through.get(u, ()):
                    if not s & ~W:
                        gone &= vs
                        if not gone:
                            break
                if gone:
                    W ^= gone & -gone
                    break
            else:
                memo[W] = W
        for X in chain:
            memo[X] = memo[W]
        return memo[W]

    return reduce


def _lattice_homology(nonfaces, homology):
    """The Hochster sweep: (W, homology(faces)) for every nonempty mask W of
    the lcm lattice (the unions of nonfaces), the only masks that can carry
    homology.  Each W is cone-reduced first, and homology runs once per
    reduced mask, on its faces grouped by size."""
    lattice = {0}
    for s in nonfaces:
        lattice |= {r | s for r in lattice}
    reduce = _cone_reducer(nonfaces)
    memo = {}
    for W in sorted(lattice):
        if W:
            R = reduce(W)
            if R not in memo:
                memo[R] = homology(_faces_by_size(R, nonfaces))
            yield W, memo[R]


def betti_numbers(I: MonomialIdeal, field: FieldChoice) -> dict[tuple[int, int], int]:
    """All nonzero multigraded Betti numbers of S/I for squarefree I.

    Keys are (homological degree, multidegree bit mask over I.ambient).  Only
    union-of-support masks are scanned; that pruning is exact.
    """
    if I.is_unit:
        raise ValueError("Betti numbers of the unit quotient are not defined here")
    out = {(0, 0): 1}
    nonfaces = ComplexView.from_ideal(I).nonfaces
    c = field.characteristic
    for W, ranks in _lattice_homology(nonfaces, lambda faces: list(_ranks_by_size(faces, c))):
        size = W.bit_count()
        for s, h in enumerate(ranks):
            if h:
                out[(size - s, W)] = h
    return out


# ---------------------------------------------------------------------------
# public depth API


_PD_CACHE: dict = {}
# Keyed by (characteristic, generator matrix without its unused columns):
# pd does not see variables that no generator uses, or their names.  The
# rows keep the ideal's canonical order, so no sort is needed; ideals that
# differ by a relabeling are separate entries.  Plain dict writes are
# GIL-atomic and the value is a pure function of the key, so concurrent
# duplicate computation is the worst case.


def clear_depth_cache():
    _PD_CACHE.clear()


def _pd(I: MonomialIdeal, characteristics: tuple[int, ...]) -> list[int]:
    """pd of S/I for a proper nonzero I, in each characteristic.

    The memo is read before polarizing; one sweep fills every missing
    characteristic.  Per mask the smallest nonvanishing dimension carries the
    largest homological degree, so the sweep stops at it.
    """
    rows = tuple(zip(*(col for col in zip(*I.gens) if any(col))))
    missing = tuple(c for c in characteristics if (c, rows) not in _PD_CACHE)
    if missing:
        pd = dict.fromkeys(missing, 0)
        nonfaces = ComplexView.from_ideal(polarize(I).ideal).nonfaces
        sweep = _lattice_homology(nonfaces, lambda faces: _first_alive_sizes(faces, missing))
        for W, firsts in sweep:
            for c, s in zip(missing, firsts):
                if s is not None:
                    pd[c] = max(pd[c], W.bit_count() - s)
        for c in missing:
            _PD_CACHE[(c, rows)] = pd[c]
    return [_PD_CACHE[(c, rows)] for c in characteristics]


def depth_quotient(I: MonomialIdeal, field: FieldChoice = GF2, want_betti: bool = False) -> DepthResult:
    """Depth and projective dimension of S/I over the ideal's own ambient.

    Non-squarefree input is polarized first; the added-variable shift cancels
    against the enlarged ambient, so pd is preserved and depth stays relative
    to len(I.ambient).  The zero ideal gives depth = ambient size.  pd always
    comes from the depth sweep; want_betti only attaches the full
    multigraded table of the (polarized) ideal, computed separately.
    """
    if I.is_unit:
        raise ValueError("depth of the unit quotient is undefined")
    n = len(I.ambient)
    if I.is_zero:
        return DepthResult(n, 0, n, None, field, {(0, 0): 1} if want_betti else None)
    (pd,) = _pd(I, (field.characteristic,))
    betti = betti_numbers(polarize(I).ideal, field) if want_betti else None
    return DepthResult(n, pd, n - pd, n - pd + 1, field, betti)


def _module_depths(I: MonomialIdeal, characteristics: tuple[int, ...]) -> tuple[int, ...]:
    if I.is_zero or I.is_unit:
        raise ValueError("module depth needs a proper nonzero ideal")
    return tuple(len(I.ambient) - pd + 1 for pd in _pd(I, characteristics))


def depth_ideal(I: MonomialIdeal, field: FieldChoice = GF2) -> int:
    """Module depth of a proper nonzero ideal: depth of the quotient plus one."""
    return _module_depths(I, (field.characteristic,))[0]


def depth_ideal_both(I: MonomialIdeal) -> tuple[int, int]:
    """Module depth in characteristics 2 and 0, sharing one homology sweep.

    Cheaper than two depth_ideal calls; used by the cross-checking harness.
    """
    return _module_depths(I, (2, 0))


def betti_table_rows(betti: dict[tuple[int, int], int]) -> list[tuple[int, int, str, int]]:
    """Betti map flattened to sorted CSV rows (i, |W|, W-mask-hex, rank)."""
    rows = [(i, W.bit_count(), format(W, "x"), r) for (i, W), r in betti.items()]
    return sorted(rows)
