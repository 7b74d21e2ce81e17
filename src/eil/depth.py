"""Exact depth and projective dimension of monomial quotients.

pd of S/I does not see the variables no generator uses, nor the size of an
exponent, only its rank among 0 and the values in its column: a map of one
column that keeps order and sends 0 to 0 commutes with max, so the lcm
lattice stays the same up to isomorphism, and Betti numbers over any field,
hence pd, depend on that lattice alone (Gasharov-Peeva-Welker, Math. Res.
Lett. 6 (1999)).  So depth is found over the n_used variables that the
generators use, with ranked exponents, in one of three exact ways, chosen
from that matrix alone: a socle gives pd = n_used, a squarefree ideal goes
to the Hochster sweep, and every other one to the degree complexes.

- Socle test.  depth S/I = 0 exactly when S/I has a socle monomial u (u
  outside I, u * x_i in I for each i), and each x_i then needs a generator g
  with g_i = u_i + 1, so u lies in the grid prod_j [0, rho_j - 1], rho_j
  the largest exponent of x_j.  The grid is indexed in mixed radix, and
  each set {u : u_j >= t} is one integer holding a repeated bit pattern.
  The grid points in I are a union over the generators of intersections of
  such sets.  Those that x_i takes into I are the same set shifted down by
  the stride of i, except on the top layer u_i = rho_i - 1, where only
  generators with g_i = rho_i and no other exponent at its column max add
  points.  The socle monomials lie in each of those sets and not in I.
  That takes one intersection per generator and n shifts.
  Associated primes do not depend on the field, so a socle gives
  pd = n_used in both.
- Degree complexes (Takayama, Bull. Math. Soc. Sci. Math. Roumanie 48 (2005);
  Minh-Trung, J. Algebra 322 (2009), Lemma 1.2).  For a in Z^n with
  G = {j : a_j < 0},

      dim H^i_m(S/I)_a = dim H~_{i-|G|-1}(Delta_a),

  where Delta_a is the complex on V = [n] - G whose nonfaces are the sets
  N_u = {j in V : u_j > a_j}, one per generator u.  So depth S/I is the
  least |G| + s over all a, s being the first face size at which Delta_a
  has homology (s = 0 for Delta_a = {emptyset}).  Only the localization of
  I at the variables of G counts (a generator dominated there gives a
  larger N_u), so its minimal generators stand for I; with rho_j their
  largest exponent of x_j, a_j >= rho_j puts j in no N_u, and Delta_a is a
  cone.  So a runs over [0, rho_j - 1] on V.  Delta_a is skipped when it is
  void (some N_u is empty: no homology) or a cone over a vertex that no
  minimal nonface holds, and its s is taken once per nonface set.  Layers
  |G| = 0, 1, ... are walked until |G| reaches the best depth found, the
  rational one when both fields are asked for: it is never below the mod-2
  one.  Taylor's resolution gives pd S/I <= m for m generators, so the walk
  also stops once the best depth reaches n - m.  It visits at most
  prod_j (rho_j + 1) pairs (G, a), and packs the N_u of a point into one
  integer.
- Hochster sweep.  A squarefree ideal is the Stanley-Reisner ideal of the
  complex whose minimal nonfaces are the generator supports, and its
  multigraded Betti numbers come from reduced homology of induced
  subcomplexes,

      beta_{i,W}(S/I) = rank H~_{|W|-i-1}(Delta restricted to W).

  Only masks W in the union closure of the generator supports (the lcm
  lattice, at most 2^m - 1 masks for m generators) can carry homology.
  pd is the largest |W| - s_W.  With k the smallest nonface size, every
  subset of W with fewer than k vertices is a face, so s_W >= k - 1; the
  sweep walks masks by decreasing |W| and stops once |W| - k + 1, or
  n_used - 1 (Hilbert's syzygy bound, as depth >= 1 without a socle), is
  no more than the best pd, the rational one with both fields.  Each mask
  is first reduced: a vertex v of W whose link in Delta_W is a cone is
  deleted, and this repeats.  Delta_W is the union of the deletion
  Delta_{W-v} and the star of v, which meet in the link; star and link are
  acyclic, so Mayer-Vietoris gives H~(Delta_W) = H~(Delta_{W-v}) over any
  field.  Homology is computed once per reduced mask.

The degree complexes read depth from below and stop at Taylor's floor
n - m; the sweep reads pd from above, over at most 2^m - 1 lattice masks.

Homology ranks come from boundary-matrix ranks: bit-packed elimination over
F2 (the default fast path) or fraction-free integer elimination for exact
characteristic-zero ranks (the cross-check path).  Both depth walks need
only the smallest nonvanishing size of each complex, and over Q that takes
ranks only where mod-2 homology is alive at that size and the next:
elsewhere universal coefficients force the rational answer to equal the
mod-2 one.

The public depth is that of the module: for a proper nonzero ideal,
depth I = depth S/I + 1 = n - pd(S/I) + 1 over its n ambient variables;
the zero and unit ideals have none.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from operator import and_, or_

from .graphs import _bits
from .ideals import MonomialIdeal, _minimal, _pack

__all__ = [
    "FieldChoice",
    "GF2",
    "QQ",
    "ComplexView",
    "depth_ideal",
    "depth_ideal_both",
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


def _has_socle(rows) -> bool:
    """Whether S/I has a socle monomial over the used variables (module
    docstring), as set operations over the grid prod_j [0, rho_j - 1],
    rho_j = max of column j.

    The test is exact for any rows, ranked or not: a socle monomial u has,
    for each i, a generator g with g <= u + x_i and g not <= u, so
    g_i = u_i + 1 <= rho_i and u is in the grid.  at[j][t] is the set
    {u : u_j >= t}, and at[j][rho_j] is at[j][rho_j - 1], the top layer of
    column j; with s_j the product of the radices after j, at[j][t] is the
    block of s_j * rho_j bits whose upper (rho_j - t) * s_j bits are set,
    repeated.  A generator g with g_j = rho_j for no j adds the intersection
    over j of at[j][g_j] to inside, the grid points in I.  Off the top layer
    of i, u * x_i is a grid point, so {u : u * x_i in I} is inside shifted
    down by s_i there.  On that layer, a u outside I has u * x_i in I only
    through a generator g with g_i = rho_i and g_j <= u_j < rho_j for every
    other j; such a g adds the same intersection, which at[i][rho_i] keeps
    within that layer, to top[i].  A generator with two columns at their
    max adds to neither set.  The socle monomials are the points outside
    inside that, for every i, lie in its shift or in top[i].
    """
    rho = [max(col) for col in zip(*rows)]
    size = math.prod(rho)
    full = (1 << size) - 1
    at = []
    strides = []
    stride = size
    for r in rho:
        stride //= r
        period = stride * r
        repeat = full // ((1 << period) - 1)
        layers = [((1 << period) - (1 << t * stride)) * repeat for t in range(r)]
        at.append(layers + layers[-1:])
        strides.append(stride)
    inside = 0
    top = [0] * len(rho)
    for g in rows:
        peaks = [j for j, e in enumerate(g) if e == rho[j]]
        if len(peaks) < 2:
            cell = reduce(and_, map(list.__getitem__, at, g))
            if peaks:
                top[peaks[0]] |= cell
            else:
                inside |= cell
    socle = full ^ inside
    for layers, s, extra in zip(at, strides, top):
        socle &= inside >> s & ~layers[-1] | extra
    return socle != 0


def _sweep_pd(nonfaces, characteristics: tuple[int, ...], top: int) -> list[int]:
    """pd of the squarefree quotient with these minimal nonfaces, in each
    characteristic, by the Hochster sweep (module docstring): lcm-lattice
    masks W by decreasing |W|, then increasing W, until
    min(|W| - k + 1, top) <= the smaller best pd, top being a bound on pd."""
    lattice = {0}
    for s in nonfaces:
        lattice |= {r | s for r in lattice}
    lattice.discard(0)
    reduce = _cone_reducer(nonfaces)
    alive = {}  # reduced mask -> _first_alive_sizes of its faces
    pd = dict.fromkeys(characteristics, 0)
    k = min(s.bit_count() for s in nonfaces)
    for W in sorted(lattice, key=lambda W: (-W.bit_count(), W)):
        if min(W.bit_count() - k + 1, top) <= min(pd.values()):
            break
        R = reduce(W)
        if R not in alive:
            alive[R] = _first_alive_sizes(_faces_by_size(R, nonfaces), characteristics)
        for c, s in zip(characteristics, alive[R]):
            if s is not None:
                pd[c] = max(pd[c], W.bit_count() - s)
    return [pd[c] for c in characteristics]


def _degree_depths(rows, characteristics: tuple[int, ...]) -> list[int]:
    """depth S/I over the used variables, in each characteristic, from
    Takayama's degree complexes (module docstring).  Exact with or without a
    socle; _pd asks only when there is none.

    Per G, the localization drops the columns of G from the packed rows and
    keeps the divisibility antichain.  The N_u of a point a are the fields
    of one integer N, each 8 << i bits wide for the least i that leaves its
    top bit above vertex n - 1: above[t] packs {j : u_j > t} over the
    generators u, and with levels[t] = {j in V : a_j = t} copied into every
    field, N is the union over t of levels[t] & above[t].  Some N_u is empty
    exactly when subtracting 1 from every field, its top bit set, clears a
    top bit.  The distinct N_u are read off N's bytes as machine integers,
    or by shifts past 64 bits.  A complex is read only when its smallest
    nonface, of size q, leaves room below the best depth: faces include
    every set of fewer than q vertices, so s >= q - 1.  The walk ends as
    soon as |G| or Taylor's floor n - len(rows) reaches the best depth,
    within a layer too; rows that are not minimal only lower that floor.
    """
    n = len(rows[0])
    b, words = _pack(rows, n)
    field = (1 << b) - 1
    width = 8 << (n // 8).bit_length()  # bits per field of N
    read = {8: "B", 16: "H", 32: "I", 64: "Q"}.get(width)  # as a memoryview format
    depth = dict.fromkeys(characteristics, n - 1)  # pd >= 1 for a proper nonzero I
    floor = n - len(rows)  # pd <= m by Taylor's resolution
    memo = {}
    for k, G in ((k, G) for k in range(n) for G in combinations(range(n), k)):
        if max(depth.values()) <= max(k, floor):
            break
        V = (1 << n) - 1 ^ sum(1 << j for j in G)
        keep = sum(field << b * (n - 1 - j) for j in _bits(V))
        local = {w & keep for w in words}
        if 0 in local:
            continue  # a generator lives on G: every Delta_a is void
        gens = _minimal(local, b, n)[0]
        rho = [max(col) for col in zip(*gens)]
        if sum(1 << j for j, r in enumerate(rho) if r) != V:
            continue  # a vertex of V in no N_u: every Delta_a is a cone
        ones = ((1 << width * len(gens)) - 1) // ((1 << width) - 1)
        guard = ones << width - 1
        above = [sum(sum(1 << j for j, e in enumerate(u) if e > t) << width * i for i, u in enumerate(gens))
                 for t in range(max(rho))]
        wide = [j for j in _bits(V) if rho[j] > 1]
        nbytes = width // 8 * len(gens)
        for a in product(*(range(rho[j]) for j in wide)):
            levels = [V] + [0] * (len(above) - 1)
            for j, t in zip(wide, a):
                if t:
                    levels[0] ^= 1 << j
                    levels[t] |= 1 << j
            N = 0
            for level, packed in zip(levels, above):
                N |= level * ones & packed
            if (N | guard) - ones & guard != guard:
                continue  # void
            if read:
                fields = set(memoryview(N.to_bytes(nbytes, sys.byteorder)).cast(read))
            else:
                fields = {N >> width * i & (1 << width) - 1 for i in range(len(gens))}
            nonfaces = []  # the minimal N_u, smallest first
            for x in sorted(fields, key=int.bit_count):
                for m in nonfaces:
                    if not m & ~x:
                        break
                else:
                    nonfaces.append(x)
            if reduce(or_, nonfaces) != V:
                continue  # a cone over a vertex in no minimal nonface
            if k + nonfaces[0].bit_count() - 1 >= max(depth.values()):
                continue
            key = frozenset(nonfaces)  # V is their union
            if key not in memo:
                memo[key] = _first_alive_sizes(_faces_by_size(V, nonfaces), characteristics)
            for c, s in zip(characteristics, memo[key]):
                if s is not None:
                    depth[c] = min(depth[c], k + s)
            if max(depth.values()) <= max(k, floor):
                break
    return [depth[c] for c in characteristics]


def _pd(I: MonomialIdeal, characteristics: tuple[int, ...]) -> list[int]:
    """pd of S/I for a proper nonzero I, in each characteristic.

    The memo is read first, and one answer fills every missing
    characteristic.  On a miss, the exponents of the n_used columns that the
    generators use are ranked (module docstring).  Then a socle monomial
    gives pd = n_used in every field.  Without one, an ideal with a ranked
    exponent above 1 takes pd = n_used - depth from the degree complexes,
    and a squarefree one goes to the sweep, with its generator supports as
    the nonfaces and top = n_used - 1.  The path is a function of the memo
    key alone, so no cache state can change which path answers.
    """
    rows = tuple(zip(*(col for col in zip(*I.gens) if any(col))))
    missing = tuple(c for c in characteristics if (c, rows) not in _PD_CACHE)
    if missing:
        n_used = len(rows[0])
        ranked = tuple(zip(*(map(sorted({0, *col}).index, col) for col in zip(*rows))))
        if _has_socle(ranked):
            pd = [n_used] * len(missing)
        elif max(map(max, ranked)) > 1:
            pd = [n_used - d for d in _degree_depths(ranked, missing)]
        else:
            pd = _sweep_pd([sum(e << j for j, e in enumerate(u)) for u in ranked], missing, n_used - 1)
        _PD_CACHE.update(((c, rows), p) for c, p in zip(missing, pd))
    return [_PD_CACHE[(c, rows)] for c in characteristics]


def _module_depths(I: MonomialIdeal, characteristics: tuple[int, ...]) -> tuple[int, ...]:
    if I.is_zero or I.is_unit:
        raise ValueError("module depth needs a proper nonzero ideal")
    return tuple(len(I.ambient) - pd + 1 for pd in _pd(I, characteristics))


def depth_ideal(I: MonomialIdeal, field: FieldChoice = GF2) -> int:
    """Module depth of a proper nonzero ideal: depth of the quotient plus one."""
    return _module_depths(I, (field.characteristic,))[0]


def depth_ideal_both(I: MonomialIdeal) -> tuple[int, int]:
    """Module depth in characteristics 2 and 0, sharing one depth walk."""
    return _module_depths(I, (2, 0))

