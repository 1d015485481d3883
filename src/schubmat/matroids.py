"""Matroids given by explicit bases on the 1-indexed ground set [n].

Constructors (uniform, minimal, Schubert, lattice-path, panhandle, rational
matrix realization), structural queries (dual, minors, circuits, rank,
connectivity), the beta invariant, paving classification, and direct sums.

The uniform, minimal, panhandle and Schubert matroids are lattice path
matroids (Bonin and de Mier, "Lattice path matroids: structural
properties", Eur. J. Combin. 27, 2006): their bases are the r-sets
b_1 < ... < b_r with p_i <= b_i <= q_i.  Each family gives its bounds to
one enumeration, `_path_matroid`, which builds through `from_bases`, so
every family passes the exchange check; `lattice_path_matroid` reads the
bounds off two N/E step strings.

Bases are stored as int bitmasks, element e being bit e - 1.  The checked
constructor reads a basis list in one bulk pass of C-level maps: each
element is looked up in a table of the bits of [n] (of no more entries
than elements given), and each run of r bits is summed into a mask.  An
element outside the table fails the lookup (a KeyError, so no shift is
taken of it) and a repeated element carries in the sum (a mask of fewer
than r bits); either sends the list to a basis-by-basis rescan that raises
the first fault.

A direct sum is split before any table of the whole sum is built: the
fundamental graph of one basis b0, which joins x in b0 and y outside it
when b0 - x + y is a basis, has the connected components as its parts
(Krogdahl, "The dependence graph for bases in matroids", Discrete Math.
19, 1977; Oxley, Matroid Theory, 4.3), at r(n - r) lookups.  With several
parts, a basis family is a matroid exactly when it is the product of its
projections onto the parts and each projection is a matroid, so the
checked constructor validates the factors alone, and the sum's
classification is read off theirs.  Each factor is recorded as connected,
so it is never split again, and the sum's loops and coloops are its
one-element factors.
One exchange table per connected matroid maps each (r-1)-set S = B - x to
F(S) = {e : S + e is a basis}, the complement of the hyperplane cl(S).  It
is built in r updates per r-set of the smaller side: from the bases, or,
when they outnumber the non-bases, from U(r, n)'s table less the non-bases,
so a near-uniform matroid such as a sparse paving one pays for its few
non-bases, not for its |B| * r basis exchanges.  Every consumer reads it:
- validation: B1 = S + x has no exchange into B2 exactly when B2 lies in
  cl(S), and only a hyperplane of more than r elements can hold a basis;
- paving: every (r-1)-set is a key; dual paving: every hyperplane has at
  most r elements, so every cocircuit at least n - r, which is also
  validation's quick exit: one scan of the F-sets;
- beta: F(B - x) is the fundamental cocircuit of x in B, and x lies in
  the fundamental circuit of B + y exactly when y is in F(B - x).  With
  1 < ... < n, beta counts the bases B that hold 1 in which every other
  x has an element below it in F(B - x) and every y outside B lies in
  F(B - x) for some x < y of B (Crapo's t_10: internal activity 1,
  external activity 0).
- flats: every flat is an intersection of hyperplanes, so the polytope
  takes its binding flats from the table's hyperplanes of at least r
  elements, each flat ranked by `_rank`.
Circuits are the fundamental circuits of the bases, from the one routine
`_fundamental_circuits` that the split of a sum reads too, and the rank of
a set is its largest meet with a basis (`_rank`, which `is_independent`
reads), so no table over the subsets of the ground set is built.  Derived
facts (the `bases` view, the factors of a sum, the exchange table, the
classification, beta, and the polytope's binding flats and coordinate
order) are computed once per instance by functions decorated with `_memo`,
the one owner of the per-instance cache; the one other write is
`_factors` recording each factor's own, empty, factors.  Every layer
reads a sum through its factors, so the library builds no exchange table,
flats or coordinate order of a sum's own: those exist for connected
matroids.
"""

import re
from collections import namedtuple
from functools import reduce, wraps
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
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


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
    error; a direct sum is checked factor by factor (`_validate`).
    `Matroid._from_masks(n, r, masks)` trusts its bitmasks and checks
    nothing; it builds what is derived from a valid matroid (`dual`,
    `minor`, `direct_sum`), and tests use it for deliberate non-matroids.

    `bases` is a read-only view (a frozenset of sorted element tuples) of the
    bitmasks the library works on.  `_cache` holds what the `_memo`
    functions derive from them, once per instance: the `bases` view itself,
    the classification, beta, and the factors of a disconnected matroid;
    for a connected matroid also the exchange table and the base polytope's
    binding flats and counter plan (a sum is read through its factors,
    which hold their own).
    """

    __slots__ = ("n", "r", "_masks", "_cache")

    def __init__(self, n: int, r: int, bases):
        # the common input, every basis r elements that are exactly ints,
        # takes one bulk pass (r = 0 takes the lengths: {0}, or none).  An
        # element outside [n] (a KeyError from `bit`) or a repeated one (a
        # sum of fewer than r bits) sends the list to `_rescan`, which goes
        # basis by basis, raises the first fault (its type, then its size,
        # then its range), and takes int subclasses.  `bit` has no more
        # entries than elements were given, so a huge n costs no table: an
        # element above that count also goes to `_rescan`.
        require_dimensions(r, n)
        try:
            bases = list(map(tuple, bases))
        except TypeError as exc:
            raise MalformedBasis(f"bases must be collections of elements: {exc}") from None
        lengths, masks = set(map(len, bases)), None
        if lengths <= {r} and set(map(type, chain.from_iterable(bases))) <= {int}:
            bit = {e: 1 << (e - 1) for e in range(1, min(n, r * len(bases)) + 1)}
            elements = map(bit.__getitem__, chain.from_iterable(bases))
            try:
                masks = set(map(sum, zip(*[elements] * r))) if r else lengths
            except KeyError:
                pass
        if masks is None or not set(map(int.bit_count, masks)) <= {r}:
            masks = _rescan(n, r, bases)
        if not masks:
            raise EmptyBases("a matroid needs at least one basis")
        self._init(n, r, frozenset(masks))
        _validate(self)

    @classmethod
    def _from_masks(cls, n: int, r: int, masks) -> "Matroid":
        m = cls.__new__(cls)
        m._init(n, r, frozenset(masks))
        return m

    def _init(self, n: int, r: int, masks: frozenset) -> None:
        self.n = n
        self.r = r
        self._masks = masks
        self._cache = {}

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
    """fn(m), computed once per matroid instance and kept in `m._cache`
    under fn's name; the memoized functions never return None."""
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


@_memo
def _exchange_table(m: Matroid) -> dict[int, int]:
    """F(S) = {e : S + e is a basis} for every (r-1)-set S = B - x.

    S is independent, F(S) holds the x of every basis S + x, and its
    complement is the hyperplane cl(S).  The table is built from the smaller
    side of the r-sets, at r updates per set.  When the bases do not
    outnumber the non-bases (or r = 0), it starts empty and each basis S + x
    puts x into F(S).  Otherwise it starts as U(r, n)'s table, F(S) = E - S
    for every (r-1)-set S, and each non-basis S + x takes x out of F(S);
    the S left with an empty F(S) lie in no basis, and are dropped, so the
    keys are the independent (r-1)-sets on either side.  U(r, n) itself has
    no non-bases, so its r-sets are not enumerated.
    """
    n, r, masks = m.n, m.r, m._masks
    if r and 2 * len(masks) > comb(n, r):
        ground = m._ground()
        bits = _bits(ground)
        table = {s: ground ^ s for s in map(sum, combinations(bits, r - 1))}
        flips = set(map(sum, combinations(bits, r))) - masks if len(masks) < comb(n, r) else ()
    else:
        table, flips = {}, masks
    get = table.get
    for b in flips:
        rest = b
        while rest:
            x = rest & -rest
            rest ^= x
            table[b ^ x] = get(b ^ x, 0) ^ x
    if flips is masks or not flips:  # no F(S) was emptied
        return table
    return {s: fs for s, fs in table.items() if fs}


def validate_exchange(m: Matroid) -> None:
    """Exhaustively check the basis-exchange axiom; raise with a witness on failure.

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
    n, r, bases = m.n, m.r, m._masks
    table = _exchange_table(m)
    f_sets = set(table.values())
    if min(map(int.bit_count, f_sets), default=n) >= n - r or not any(
            n - fs.bit_count() > r and any(not b & fs for b in bases) for fs in f_sets):
        return
    least = {fs: min((b for b in bases if not b & fs), default=None) for fs in f_sets}
    b1, b2, x = min(
        (s | x, least[fs], x) for s, fs in table.items() if least[fs] is not None for x in _bits(fs)
    )
    raise ExchangeAxiomViolated(frozenset(_elements(b1)), frozenset(_elements(b2)), x.bit_length())


def _validate(m: Matroid) -> None:
    """The exchange check of the checked constructor.

    A disconnected m is checked as the product of its factors, each by its
    own `validate_exchange`.  Only if that fails is the whole family
    checked, which then raises with the witness it gives: a matroid is the
    direct sum of its components, so it always passes the factor check.
    """
    factors = _factors(m)
    if factors and prod(len(f._masks) for _, f in factors) == len(m._masks):
        try:
            for _, f in factors:
                validate_exchange(f)
            return
        except ExchangeAxiomViolated:
            pass
    validate_exchange(m)


def from_bases(n: int, r: int, bases) -> Matroid:
    """Build a validated matroid from an explicit basis list: the checked
    constructor `Matroid(n, r, bases)`."""
    return Matroid(n, r, bases)


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
    """U_{r,n} = SM_{ {n-r+1, ..., n} }, for 0 <= r <= n."""
    require_dimensions(r, n)
    return _path_matroid(n, [*range(1, r + 1)], [*range(n - r + 1, n + 1)])


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
    components, at r(n - r) lookups; loops and coloops stay singletons.
    """
    parts: list[int] = []
    for merged in _fundamental_circuits(m, next(iter(m._masks))):
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
    each factor is so recorded as connected, with no factors of its own.
    """
    parts = _split(m)
    if len(parts) < 2:
        return ()
    b0 = next(iter(m._masks))
    factors = tuple(
        (c, Matroid._from_masks(
            c.bit_count(), (b0 & c).bit_count(), _relabel({b & c for b in m._masks}, c)))
        for c in parts)
    for _, f in factors:  # a component is connected: it is not split again
        f._cache["_factors"] = ()
    return factors


@_memo
def classify(m: Matroid) -> Classification:
    """Components, paving and family flags; computed once per matroid instance.

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
        table = _exchange_table(m)
        components = (_elements(m._ground()),) if n else ()
        is_paving = r == 0 or len(table) == comb(n, r - 1)
        dual_paving = min(map(int.bit_count, table.values()), default=n) >= n - r
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

    Computed once per matroid instance, by `_activity_count`; it vanishes
    on a matroid with several components.
    """
    return 0 if _factors(m) else _activity_count(m)


def _activity_count(m: Matroid) -> int:
    """The bases B, elements ordered 1 < ... < n, with activities (1, 0).

    Element 1 is active wherever it lies, so B holds it.  Every other x in
    B is internally passive: its fundamental cocircuit F(B - x) has an
    element below x.  Every y outside B is externally passive: some x < y
    in B has y in F(B - x).  The basis bits are walked in ascending order,
    keeping the union of F(B - x) so far, so each basis holding element 1
    costs r table reads.
    """
    table = _exchange_table(m)
    ground = m._ground()
    count = 0
    for b in m._masks:
        if not b & 1:
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
