"""Matroids given by explicit bases on the 1-indexed ground set [n].

Constructors (uniform, minimal, Schubert, lattice-path, panhandle, rational
matrix realization), structural queries (dual, minors, circuits, rank,
connectivity), the beta invariant, paving classification, and direct sums.

The uniform, minimal, panhandle and Schubert matroids are lattice path
matroids (Bonin and de Mier, "Lattice path matroids: structural
properties", Eur. J. Combin. 27, 2006): their bases are the r-sets
b_1 < ... < b_r with p_i <= b_i <= q_i.  Each family but U(r, n) gives its
bounds to one enumeration, `_path_matroid`, which builds through
`from_bases`; `uniform` checks U(r, n)'s canonical instance (below) with
`validate_exchange`; so every family passes the exchange check.
`lattice_path_matroid` reads the bounds off two N/E step strings.

Bases are stored as int bitmasks, element e being bit e - 1.  The checked
constructor reads a basis list in C-level maps.  A dense list, with more
than half as many bases as r-sets, looks each basis up in the index
{sorted r-tuple: mask} of the r-sets (`_rset_index`).  Any other list, or
a dense one with a basis the index misses, takes one bulk pass: each
element is looked up in a table of the bits of [n] (of no more entries
than elements given), and each run of r bits is summed into a mask.  An
element outside the table fails the lookup (a KeyError, so no shift is
taken of it) and a repeated element carries in the sum (a mask of fewer
than r bits); either sends the list to a basis-by-basis rescan that
raises the first fault.

A direct sum is split before any table of the whole sum is built: the
fundamental graph of one basis b0, which joins x in b0 and y outside it
when b0 - x + y is a basis, has the connected components as its parts
(Krogdahl, "The dependence graph for bases in matroids", Discrete Math.
19, 1977; Oxley, Matroid Theory, 4.3), at r(n - r) lookups.  A loop is a
part of its own without a merge, and every other fundamental circuit
holds an element of b0, so at most r parts are open and the merge costs
r(n - r) as well.  With several parts, a basis family is a matroid
exactly when it is the product of its projections onto the parts and
each projection is a matroid, so `validate_exchange`, which the checked
constructor calls, checks the factors alone, and the sum's
classification is read off theirs.  Each factor, a component, splits
into one part, so it has no factors of its own, and the sum's loops and
coloops are its one-element factors.

U(r, n) is one shared, immutable object per (n, r) for the life of the
process, `_uniform`, whose masks are the values of the r-set index:
`_from_masks` gives that object for U(r, n)'s masks, and so do `uniform`
and a sum's uniform factor; the checked constructor, which builds through
`_from_masks`, gives a new object holding its masks and cache.  So each
fact derived from U(r, n), its exchange check included, is derived once
per (n, r).

One exchange table per connected matroid maps each (r-1)-set S = B - x to
F(S) = {e : S + e is a basis}, the complement of the hyperplane cl(S).  It
is built in r updates per r-set of the smaller side: from the bases, or,
when they outnumber the non-bases, from a copy of U(r, n)'s table less the
non-bases, which are U(r, n)'s r-sets less the bases.  So a near-uniform
matroid such as a sparse paving one pays for its few non-bases and one
copy of the table, not for its |B| * r basis exchanges or an enumeration
of the r-sets.  Its distinct values, the F-sets, are derived once beside
it (`_f_sets`).  Every consumer reads the one or the other:
- validation (of a connected family, or of one that is not the product
  of its factors' bases): B1 = S + x has no exchange into B2 exactly when
  B2 lies in cl(S), and only a hyperplane of more than r elements can
  hold a basis;
- paving: every (r-1)-set is a key; dual paving: every hyperplane has at
  most r elements, so every cocircuit at least n - r, which is also
  validation's quick exit: one scan of the F-sets;
- beta: F(B - x) is the fundamental cocircuit of x in B, and x lies in
  the fundamental circuit of B + y exactly when y is in F(B - x).  With
  1 < ... < n, beta counts the bases B that hold 1 in which every other
  x has an element below it in F(B - x) and every y outside B lies in
  F(B - x) for some x < y of B (Crapo's t_10: internal activity 1,
  external activity 0).
- flats: every flat is an intersection of hyperplanes, so
  `_binding_constraints` derives the polytope's binding flats from the
  hyperplanes of at least r elements, each flat ranked by
  `_rank`; the volume oracle reads the flats, not the table, so no other
  module knows the table's format.
Circuits are the fundamental circuits of the bases, from the one routine
`_fundamental_circuits` that the split of a sum reads too, and the rank of
a set is its largest meet with a basis (`_rank`, which `is_independent`
reads), so no table over the subsets of the ground set is built.  Derived
facts (the exchange check, the `bases` view, the factors of a sum, the
exchange table and its F-sets, the classification, beta, and the
polytope's binding flats and coordinate order) are computed once per cache
by functions decorated with `_memo`, the only writer of the per-instance
cache.  Every layer reads a sum through its factors, so
the library builds no exchange table, flats or coordinate order of a sum's
own: those exist for connected matroids.
"""

import re
from collections import namedtuple
from functools import lru_cache, reduce, wraps
from itertools import chain, combinations
from math import comb, prod
from operator import and_, or_

from .errors import (
    BadStepString,
    DependentContraction,
    ElementOutOfRange,
    EmptyBases,
    ExchangeAxiomViolated,
    InvalidDimensions,
    MalformedBasis,
    OverlappingSets,
    PathsCross,
    RankDeficient,
    WrongBasisSize,
    WrongShape,
    require_count,
    require_dimensions,
    require_int,
    require_type,
)


def _elements(mask: int) -> tuple[int, ...]:
    """The elements of `mask`, ascending."""
    return tuple(low.bit_length() for low in _bits(mask))


def _bits(mask: int) -> list[int]:
    """The single-bit masks of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


class Matroid:
    """Immutable matroid with ground set [n], rank r, and an explicit basis set.

    Two constructors.  `Matroid(n, r, bases)` is the checked one, for input
    from outside the library: n and r are ints with 0 <= r <= n, every basis
    is r distinct int elements of [n], there is at least one basis, and the
    bases satisfy the exchange axiom; the first fault raises its named
    error; a direct sum is checked factor by factor (`validate_exchange`).
    `Matroid._from_masks(n, r, masks)` trusts its bitmasks and checks
    nothing; it builds what is derived from a valid matroid (`dual`,
    `minor`, `direct_sum`), and tests use it for deliberate non-matroids.
    The checked constructor takes the fields of `_from_masks`' instance, so
    either, given U(r, n)'s r-sets, shares its canonical instance's masks
    and cache (see the module docstring).

    `bases` is a read-only view (a frozenset of sorted element tuples) of the
    bitmasks the library works on.  `_cache` holds what the `_memo`
    functions derive from them: the passed exchange check, the `bases` view
    itself, the classification, beta, and the factors of a disconnected
    matroid; for a connected matroid also the exchange table, its F-sets and
    the base polytope's binding flats and counter plan (a sum is read
    through its factors, which hold their own).
    """

    __slots__ = ("n", "r", "_masks", "_cache")

    def __init__(self, n: int, r: int, bases):
        # the common input, every basis r elements that are exactly ints,
        # takes C-level passes (`_parse`); any other, or one that `_parse`
        # finds a fault in, goes to `_rescan`, which goes basis by basis,
        # raises the first fault (its type, then its size, then its range),
        # and takes int subclasses
        require_dimensions(r, n)
        try:
            bases = list(map(tuple, bases))
        except TypeError as exc:
            raise MalformedBasis(f"bases must be collections of elements: {exc}") from None
        masks = None
        if set(map(len, bases)) <= {r} and set(map(type, chain.from_iterable(bases))) <= {int}:
            masks = _parse(n, r, bases)
        if masks is None:
            masks = _rescan(n, r, bases)
        if not masks:
            raise EmptyBases("a matroid needs at least one basis")
        # the fields of the trusted instance of these masks
        trusted = Matroid._from_masks(n, r, masks)
        self.n, self.r, self._masks, self._cache = n, r, trusted._masks, trusted._cache
        validate_exchange(self)

    @classmethod
    def _from_masks(cls, n: int, r: int, masks) -> "Matroid":
        masks = frozenset(masks)
        if len(masks) == comb(n, r) > 0 and masks == _uniform(n, r)._masks:
            return _uniform(n, r)
        m = cls.__new__(cls)
        m.n, m.r, m._masks, m._cache = n, r, masks, {}
        return m

    @property
    def bases(self) -> frozenset:
        return _element_bases(self)

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.r == other.r
            and self._masks == other._masks
        )

    def __hash__(self):
        return hash((self.n, self.r, self._masks))  # a frozenset caches its own hash

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.r}, |bases|={len(self._masks)})"

    def _ground(self) -> int:
        return (1 << self.n) - 1

    def is_independent(self, subset) -> bool:
        s = _subset_mask(self.n, subset)
        return _rank(self, s) == s.bit_count()

    def rank_of(self, subset) -> int:
        return _rank(self, _subset_mask(self.n, subset))

    def loops(self) -> frozenset:
        return frozenset(_elements(self._ground() & ~reduce(or_, self._masks)))

    def coloops(self) -> frozenset:
        return frozenset(_elements(reduce(and_, self._masks)))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "bases": [list(b) for b in sorted(self.bases)],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Matroid":
        require_type(data, dict, "a matroid")
        return from_bases(data["n"], data["r"], data["bases"])


def _memo(fn):
    """fn(m), computed once per cache, and kept in `m._cache` under fn's
    name; a call that raises keeps nothing, and the memoized functions
    never return None."""
    name = fn.__name__

    @wraps(fn)
    def memoized(m: Matroid):
        value = m._cache.get(name)
        if value is None:
            value = m._cache[name] = fn(m)
        return value

    return memoized


def _rank(m: Matroid, s: int) -> int:
    """rank(S) of the mask s: the most elements of S that one basis holds."""
    return max((s & b).bit_count() for b in m._masks)


@_memo
def _element_bases(m: Matroid) -> frozenset:
    """The `bases` view: each basis mask as its sorted element tuple."""
    return frozenset(map(_elements, m._masks))


@lru_cache(maxsize=None)
def _rset_index(n: int, r: int) -> dict[tuple[int, ...], int]:
    """{sorted r-tuple: mask} of the r-subsets of [n]: the one place the
    r-sets are built, once per (n, r) for the life of the process.  Its
    values are U(r, n)'s masks, and the checked constructor reads a dense
    basis list through it."""
    masks = map(sum, combinations(_bits((1 << n) - 1), r))
    return dict(zip(combinations(range(1, n + 1), r), masks))


@lru_cache(maxsize=None)
def _uniform(n: int, r: int) -> Matroid:
    """The canonical U(r, n), for 0 <= r <= n, one per (n, r) for the life
    of the process, its masks the values of `_rset_index(n, r)`.  What is
    derived from it is only read; `_exchange_table` copies its table before
    it changes it."""
    u = Matroid.__new__(Matroid)
    u.n, u.r, u._masks, u._cache = n, r, frozenset(_rset_index(n, r).values()), {}
    return u


@_memo
def _exchange_table(m: Matroid) -> dict[int, int]:
    """F(S) = {e : S + e is a basis} for every (r-1)-set S = B - x.

    S is independent, F(S) holds the x of every basis S + x, and its
    complement is the hyperplane cl(S).  The table is built from the smaller
    side of the r-sets, at r updates per set.  When the bases do not
    outnumber the non-bases (or r = 0), it starts empty and each basis S + x
    puts x into F(S).  Otherwise it starts as a copy of the table of
    U(r, n)'s canonical instance (`_uniform`), F(S) = E - S for every
    (r-1)-set S, and each non-basis S + x, one of the canonical instance's
    masks that is not a basis, takes x out of F(S); the S left with an
    empty F(S) lie in no basis, and are dropped, so the keys are the
    independent (r-1)-sets on either side.  A sparse paving matroid empties
    no F(S), and its table is not scanned again.
    """
    n, r, masks = m.n, m.r, m._masks
    if r and 2 * len(masks) > comb(n, r):
        u = _uniform(n, r)
        if m._masks is u._masks:  # U(r, n) itself
            ground = m._ground()
            return {s: ground ^ s for s in map(sum, combinations(_bits(ground), r - 1))}
        table, flips = _exchange_table(u).copy(), u._masks - masks
    else:
        table, flips = {}, masks
    get = table.get
    emptied = False
    for b in flips:
        rest = b
        while rest:
            x = rest & -rest
            rest ^= x
            fs = table[b ^ x] = get(b ^ x, 0) ^ x
            emptied = emptied or not fs
    if not emptied:
        return table
    return {s: fs for s, fs in table.items() if fs}


@_memo
def _f_sets(m: Matroid) -> frozenset[int]:
    """The distinct F-sets of the exchange table: the complements of the
    hyperplanes of a connected m."""
    return frozenset(_exchange_table(m).values())


@_memo
def _binding_constraints(m: Matroid) -> list[tuple[int, int]]:
    """(A, rank(A)) for the flats A (as masks, ascending) of a connected m
    with 2 <= |A| and rank(A) < min(|A|, r): every constraint the base
    polytope's lattice-point counter needs.

    A set that is not closed, some e outside it keeping the rank, gives way
    to its closure, a tighter constraint.  The hyperplanes are the distinct
    E - F(S) of the exchange table, and every flat is the intersection of
    the hyperplanes that hold it (E the empty intersection).  A kept flat
    is dependent with rank < r, and a hyperplane that holds a dependent set
    is dependent, so it has at least r elements: the kept flats are among
    {E} closed under intersection with the hyperplanes of at least r
    elements, and the smaller hyperplanes are never intersected.  Computed
    once per matroid: every dilate shares them.
    """
    ground = m._ground()
    flats = {ground}
    for fs in _f_sets(m):  # the hyperplane E - F
        if m.n - fs.bit_count() >= m.r:
            flats |= {a & ~fs for a in flats}
    ranked = ((a, _rank(m, a)) for a in sorted(flats) if a.bit_count() >= 2)
    return [(a, rk) for a, rk in ranked if rk < min(a.bit_count(), m.r)]


@_memo
def validate_exchange(m: Matroid) -> bool:
    """Exhaustively check the basis-exchange axiom: True, kept once per
    cache, or raise with a witness, which keeps nothing, so a failing
    family raises again on every call.  Every instance of U(r, n), a sum's
    uniform factor among them, shares one check.

    A family that `_factors` splits, and that is the product of its
    projections (their basis counts multiply to |B|), is a matroid exactly
    when each projection is one, so each factor is checked alone.  Only if
    a factor fails, or the counts differ, is the whole family's table built
    and checked, which then raises with the witness it gives: a matroid is
    the direct sum of its components, so it always passes the factor check.

    B1 = S + x exchanges against B2 exactly when some y of B2 makes S + y a
    basis, so it fails exactly when B2 lies inside cl(S) = E - F(S).  A
    hyperplane of at most r elements holds no basis: cl(S) = S + z has z
    outside F(S).  So a dual-paving family, every F(S) of at least n - r
    elements, passes on one scan of the F-sets, and otherwise only each
    larger hyperplane needs one scan of the bases.

    The witness is the least violation: the smallest B1 = S + x, then the
    smallest B2, then the smallest x, comparing sets as bitmasks.  It so
    depends on the family alone, not on the order its bases came in; it is
    searched for only once some violation is found.
    """
    factors = _factors(m)
    if factors and prod(len(f._masks) for _, f in factors) == len(m._masks):
        try:
            return all(validate_exchange(f) for _, f in factors)
        except ExchangeAxiomViolated:
            pass
    n, r, bases = m.n, m.r, m._masks
    f_sets = _f_sets(m)
    if min(map(int.bit_count, f_sets), default=n) >= n - r or not any(
            n - fs.bit_count() > r and any(not b & fs for b in bases) for fs in f_sets):
        return True
    least = {fs: min((b for b in bases if not b & fs), default=None) for fs in f_sets}
    b1, b2, x = min((s | x, least[fs], x) for s, fs in _exchange_table(m).items()
                    if least[fs] is not None for x in _bits(fs))
    raise ExchangeAxiomViolated(frozenset(_elements(b1)), frozenset(_elements(b2)), x.bit_length())


def from_bases(n: int, r: int, bases) -> Matroid:
    """Build a validated matroid from an explicit basis list: the checked
    constructor `Matroid(n, r, bases)`."""
    return Matroid(n, r, bases)


def _parse(n: int, r: int, bases: list[tuple]) -> set[int] | None:
    """The masks of a list of r-tuples of exact ints, in C-level passes, or
    None when some tuple is not an r-subset of [n].

    A dense list (more than half as many bases as r-sets, the side on which
    `_exchange_table` starts from U(r, n)) looks each tuple up in the index
    of sorted r-tuples, `_rset_index`.  A tuple the index misses (unsorted,
    or not an r-subset of [n]) sends the list on to the bulk pass, which any
    other list takes at once: each element is looked up in `bit`, and each
    run of r bits summed (r = 0 takes the lengths: {0}, or none).  An
    element outside [n] fails the lookup, and a repeated one gives a sum of
    fewer than r bits.  `bit` has no more entries than elements were given, so a
    huge n costs no table: an element above that count also fails.
    """
    if r and 2 * len(bases) > comb(n, r):
        try:
            return set(map(_rset_index(n, r).__getitem__, bases))
        except KeyError:
            pass
    bit = {e: 1 << (e - 1) for e in range(1, min(n, r * len(bases)) + 1)}
    elements = map(bit.__getitem__, chain.from_iterable(bases))
    try:
        masks = set(map(sum, zip(*[elements] * r))) if r else set(map(len, bases))
    except KeyError:
        return None
    return masks if set(map(int.bit_count, masks)) <= {r} else None


def _rescan(n: int, r: int, bases: list[tuple]) -> set[int]:
    """The masks of `bases`, checked one basis at a time."""
    masks = set()
    for b in bases:
        for e in b:
            if type(e) is not int:  # a bool, a float, a str or an int subclass
                require_int(e, "basis element")
        if len(b) != r or len(set(b)) != r:  # a repeated element is not dropped
            raise WrongBasisSize(f"basis {b} is not a set of {r} elements")
        if b and (min(b) < 1 or max(b) > n):
            raise ElementOutOfRange(f"basis {tuple(sorted(b))} not inside [{n}]")
        masks.add(sum(1 << (e - 1) for e in b))
    return masks


# ---------------------------------------------------------------------------
# constructors


def _path_matroid(n: int, p: list, q) -> Matroid:
    """The lattice path matroid on [n] with bounds p <= q: its bases are the
    sets {b_1 < ... < b_r} with p_i <= b_i <= q_i, checked by `from_bases`.

    Each b_i is chosen in [max(p_i, b_(i-1) + 1), q_i], so the work grows
    with the number of bases, not with C(n, r); the bases come in
    lexicographic order.
    """
    bases = [()]
    for lo, hi in zip(p, q):
        bases = [b + (x,) for b in bases for x in range(max(lo, b[-1] + 1 if b else lo), hi + 1)]
    return from_bases(n, len(p), bases)


def lattice_path_matroid(upper: str, lower: str) -> Matroid:
    """Lattice path matroid M[P,Q] for step strings over {N,E}.

    Bases are the sets {b_1 < ... < b_r} with p_i <= b_i <= q_i where p_i, q_i
    are the positions of the i-th north step of the upper and lower path.
    The upper path dips below the lower one exactly when some q_i < p_i,
    first at the least such step q_i.
    """
    for path in (upper, lower):
        if set(path) - {"N", "E"}:
            raise BadStepString(f"steps must be N or E: {path!r}")
    if len(upper) != len(lower) or upper.count("N") != lower.count("N"):
        raise BadStepString("paths must share endpoints")
    p = [i + 1 for i, s in enumerate(upper) if s == "N"]
    q = [i + 1 for i, s in enumerate(lower) if s == "N"]
    for lo, hi in zip(p, q):
        if hi < lo:
            raise PathsCross(f"upper path dips below lower path at step {hi}")
    return _path_matroid(len(upper), p, q)


def schubert_matroid(n: int, indices) -> Matroid:
    """SM_I: upper path N^r E^(n-r), lower path with north steps at I, so
    the bounds are p = (1, ..., r) and q = I in order.

    n is a non-negative int.  I is a set of distinct int indices in [n],
    checked by the gate of every element set, `_subset_mask`; a repeated
    index is an error, not dropped.
    """
    require_count(n, "ground-set size")
    indices = list(indices)
    mask = _subset_mask(n, indices)
    if mask.bit_count() != len(indices):
        raise ElementOutOfRange(f"index set {sorted(indices)} repeats an index")
    return _path_matroid(n, [*range(1, len(indices) + 1)], _elements(mask))


def uniform(r: int, n: int) -> Matroid:
    """U_{r,n} = SM_{ {n-r+1, ..., n} }, for 0 <= r <= n: the shared,
    immutable canonical instance (`_uniform`), checked by
    `validate_exchange` like every family, once per (n, r)."""
    require_dimensions(r, n)
    u = _uniform(n, r)
    validate_exchange(u)
    return u


def minimal(r: int, n: int) -> Matroid:
    """T_{r,n} = SM_{ {2, ..., r, n} }: the connected matroid with r(n-r)+1
    bases, for 1 <= r <= n-1."""
    require_dimensions(r, n, 1)
    return _path_matroid(n, [*range(1, r + 1)], [*range(2, r + 1), n])


def panhandle(r: int, s: int, n: int) -> Matroid:
    """Pan_{r,s,n} = SM_{ {s-r+2, ..., s, n} }, for 1 <= r <= s <= n-1;
    Pan_{r,r,n} = T_{r,n}, Pan_{r,n-1,n} = U_{r,n}."""
    require_dimensions(r, n, 1)
    require_int(s, "panhandle size s")
    if not r <= s <= n - 1:
        raise InvalidDimensions(f"need 1 <= r <= s <= n-1, got r={r}, s={s}, n={n}")
    return _path_matroid(n, [*range(1, r + 1)], [*range(s - r + 2, s + 1), n])


def matrix_rank(entries) -> int:
    """Exact row rank over the rationals, by Gaussian elimination."""
    from fractions import Fraction  # imported on use, not with the package

    rows = [list(map(Fraction, row)) for row in entries]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def _matrix_entry(e):
    """An int, a Fraction or a "p/q" string, as a Fraction; a float or a
    bool is rejected."""
    from fractions import Fraction  # imported on use, not with the package

    if isinstance(e, str) and _RATIONAL.fullmatch(e) or (
        isinstance(e, (int, Fraction)) and not isinstance(e, bool)
    ):
        return Fraction(e)
    raise WrongShape(f'matrix entry {e!r} is neither an int nor a "p/q" string')


def from_rational_matrix(entries, r: int) -> Matroid:
    """Matroid of the column vectors of an exact rational r x n matrix.

    entries is a non-empty list of equally long row lists.  Bases are the
    column subsets with non-zero r x r minor.
    """
    require_count(r, "row count")
    require_type(entries, list, "matrix entries")
    for row in entries:
        require_type(row, list, "a matrix row")
    rows = [[_matrix_entry(e) for e in row] for row in entries]
    if not rows:
        raise WrongShape("a matrix needs at least one row")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise WrongShape(f"matrix rows have lengths {[len(row) for row in rows]}")
    if len(rows) != r:
        raise RankDeficient(f"matrix has {len(rows)} rows, expected r={r}")
    if matrix_rank(rows) < r:
        raise RankDeficient("matrix rank is smaller than r")
    bases = [
        tuple(c + 1 for c in cols)
        for cols in combinations(range(n), r)
        if matrix_rank([[row[j] for j in cols] for row in rows]) == r
    ]
    return from_bases(n, r, bases)


# ---------------------------------------------------------------------------
# structural operations


def _subset_mask(n: int, elements) -> int:
    """The mask of a set of elements of [n]; an element that is not an int,
    or lies outside [n], raises before it is masked."""
    mask = 0
    for e in elements:
        require_int(e, "element")
        if not 1 <= e <= n:
            raise ElementOutOfRange(f"element {e} not inside [{n}]")
        mask |= 1 << (e - 1)
    return mask


def dual(m: Matroid) -> Matroid:
    ground = m._ground()
    return Matroid._from_masks(m.n, m.n - m.r, (ground ^ b for b in m._masks))


def minor(m: Matroid, delete=(), contract=()) -> Matroid:
    """Delete and contract, relabelling the remaining ground set to [m] in order.

    Both sets hold int elements of [n]; each element, as given, goes
    through `_subset_mask` before anything else, so True or 1.0 beside 1
    raises NotAnInteger in either order.  Loops created by contraction stay
    in the ground set.
    """
    d, c = _subset_mask(m.n, delete), _subset_mask(m.n, contract)
    if d & c:
        raise OverlappingSets(f"{list(_elements(d & c))} in both sets")
    keep = m._ground() & ~d & ~c
    # contract: bases containing the contract set, minus it; then delete: the
    # largest distinct traces on the kept elements are the bases of the minor
    traces = {b & keep for b in m._masks if b & c == c}
    if not traces:  # no basis holds the contract set
        raise DependentContraction(f"{list(_elements(c))} is dependent")
    new_rank = max(t.bit_count() for t in traces)
    new_bases = _relabel([t for t in traces if t.bit_count() == new_rank], keep)
    return Matroid._from_masks(keep.bit_count(), new_rank, new_bases)


def _relabel(masks, keep: int) -> set[int]:
    """The masks, subsets of keep, with keep's elements renumbered 1, 2, ... in order."""
    positions = _bits(keep)
    return {sum(1 << i for i, p in enumerate(positions) if t & p) for t in masks}


def restriction(m: Matroid, subset) -> Matroid:
    """M restricted to subset, a set of int elements of [n] (delete
    everything else)."""
    return minor(m, delete=_elements(m._ground() & ~_subset_mask(m.n, subset)))


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    return Matroid._from_masks(
        m1.n + m2.n,
        m1.r + m2.r,
        (b1 | b2 << m1.n for b1 in m1._masks for b2 in m2._masks),
    )


def _fundamental_circuits(m: Matroid, b: int) -> list[int]:
    """C(b, y) for each y outside the basis b, lowest y first: the one
    circuit inside b + y, which is y with the x of b for which b - x + y is
    a basis."""
    masks = m._masks
    inside = _bits(b)
    found = []
    for y in _bits(m._ground() & ~b):
        c = y
        for x in inside:
            if b ^ x | y in masks:
                c |= x
        found.append(c)
    return found


def circuits(m: Matroid) -> frozenset:
    """All minimal dependent sets, as the fundamental circuits of the bases.

    Every circuit C arises so: extend C - y to a basis, which then avoids y.
    """
    found = {c for b in m._masks for c in _fundamental_circuits(m, b)}
    return frozenset(frozenset(_elements(c)) for c in found)


class Classification(namedtuple("Classification", [
    "components",  # tuple[tuple[int, ...], ...]
    "kappa",  # int
    "loops",  # frozenset
    "coloops",  # frozenset
    "is_paving",  # bool
    "is_sparse_paving",  # bool
    "nonbasis_count",  # int
    "is_minimal",  # bool
    "is_uniform",  # bool
])):
    """Derived structural facts about a matroid."""

    __slots__ = ()


def _split(m: Matroid) -> list[int]:
    """The parts of the fundamental graph of one basis b0, lowest first.

    y outside b0 is joined to the x of b0 with b0 - x + y a basis: its
    fundamental circuit.  For a matroid the parts are the connected
    components, at r(n - r) lookups.  A loop, a one-element circuit, meets
    no other circuit, so it is left out of the merge and becomes a
    singleton at the end, with the coloops.  Every other circuit holds an
    element of b0, so at most r parts are open and the merge also costs
    r(n - r).
    """
    parts: list[int] = []
    for merged in _fundamental_circuits(m, next(iter(m._masks))):
        if not merged & merged - 1:  # a loop
            continue
        rest = []
        for part in parts:
            if part & merged:
                merged |= part
            else:
                rest.append(part)
        rest.append(merged)
        parts = rest
    parts += _bits(m._ground() & ~reduce(or_, parts, 0))
    return sorted(parts, key=lambda p: p & -p)


@_memo
def _factors(m: Matroid) -> tuple:
    """(part, factor) for each part of `_split(m)`, the factor being the
    projections of the bases onto the part, relabelled to [|part|]; empty
    when there is at most one part, so that a connected matroid does not
    hold itself.  For a matroid these are its components, and m their sum;
    each factor, connected, derives its own () from one `_split`.

    A projection of C(|c|, r_c) masks of r_c bits each is every r_c-set of
    the part c, so that factor is U(r_c, |c|)'s canonical instance
    (`_uniform`), taken as it is: it needs no relabelling and no mask
    comparison.  Any other factor is a new instance of its own.
    """
    parts = _split(m)
    if len(parts) < 2:
        return ()
    b0 = next(iter(m._masks))
    factors = []
    for c in parts:
        n, r = c.bit_count(), (b0 & c).bit_count()
        projection = {b & c for b in m._masks}
        if len(projection) == comb(n, r) and set(map(int.bit_count, projection)) == {r}:
            factors.append((c, _uniform(n, r)))
        else:
            factors.append((c, Matroid._from_masks(n, r, _relabel(projection, c))))
    return tuple(factors)


@_memo
def classify(m: Matroid) -> Classification:
    """Components, paving and family flags; computed once per matroid.

    A connected matroid is read off its exchange table.  Paving: every
    (r-1)-set is independent, that is, a key of the table.  Dual paving:
    every hyperplane E - F(S) has at most r elements, so every cocircuit at
    least n - r.  A sum is read off its factors: it is paving when every
    circuit has at least r elements, and a factor's smallest circuit has
    r_i + 1 elements if it is uniform, r_i if it is paving and fewer
    otherwise (a coloop has none); cocircuits likewise, with n - r.  The
    loops and coloops are the one-element factors of rank 0 and 1, so no
    basis is read: a connected matroid on two or more elements has neither.
    """
    n, r, bases = m.n, m.r, m._masks
    factors = _factors(m)
    if factors:
        components = tuple(_elements(c) for c, _ in factors)
        flags = [(f, classify(f)) for _, f in factors]
        is_paving = all(
            f.r + c.is_uniform - (not c.is_paving) >= r for f, c in flags if f.r < f.n)
        dual_paving = all(  # read only when every factor is paving
            f.n - f.r + c.is_uniform - (not c.is_sparse_paving) >= n - r for f, c in flags if f.r)
    else:
        components = (_elements(m._ground()),) if n else ()
        is_paving = r == 0 or len(_exchange_table(m)) == comb(n, r - 1)
        dual_paving = min(map(int.bit_count, _f_sets(m)), default=n) >= n - r
    own = factors or [(m._ground(), m)]  # a connected m is its own one factor
    kappa = len(components)
    nonbasis_count = comb(n, r) - len(bases)
    return Classification(
        components=components,
        kappa=kappa,
        loops=frozenset(c.bit_length() for c, f in own if f.n == 1 and not f.r),
        coloops=frozenset(c.bit_length() for c, f in own if f.n == f.r == 1),
        is_paving=is_paving,
        is_sparse_paving=is_paving and dual_paving,
        nonbasis_count=nonbasis_count,
        is_minimal=(kappa == 1 and len(bases) == r * (n - r) + 1),
        is_uniform=(nonbasis_count == 0),
    )


@_memo
def beta(m: Matroid) -> int:
    """Crapo's beta invariant, the Tutte coefficient t_10: the number of
    bases with internal activity 1 and external activity 0.

    Computed once per matroid by `_activity_count`; it vanishes on a
    matroid with several components.
    """
    return 0 if _factors(m) else _activity_count(m)


def _activity_count(m: Matroid) -> int:
    """The bases B, elements ordered 1 < ... < n, with activities (1, 0).

    Element 1 is active wherever it lies, so B holds it.  Every other x in
    B is internally passive: its fundamental cocircuit F(B - x) has an
    element below x.  Every y outside B is externally passive: some x < y
    in B has y in F(B - x).  A basis that also holds 2 never counts:
    F(B - 2) cannot hold the 1 that lies in B - 2, so 2 is internally
    active.  The basis bits are walked in ascending order, keeping the union
    of F(B - x) so far, so each basis holding 1 but not 2 costs at most r
    table reads.
    """
    table = _exchange_table(m)
    ground = m._ground()
    count = 0
    for b in m._masks:
        if b & 3 != 1:
            continue
        reached = table[b ^ 1]
        rest = b ^ 1
        while rest:
            x = rest & -rest
            rest ^= x
            below = x - 1
            fx = table[b ^ x]
            # x is active, or some y < x outside B is reached by no x' < x
            if not fx & below or below & ~b & ~reached:
                break
            reached |= fx
        else:
            count += not ground & ~b & ~reached
    return count
