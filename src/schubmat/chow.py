"""The Chow ring of the Grassmannian G(r,n) as a free abelian group on
Schubert cycles, with Littlewood-Richardson products (Pieri's rule is the
one-row case), sigma_1-power degrees, and the direct-sum fold.

A ChowClass is a finite integer combination of Schubert cycles sigma_lam,
with every lam inside the r x (n-r) rectangle.  Cycles that would leave
the rectangle are truncated away (the quotient-ring convention).  Every
partition from outside the library goes through partitions.normalize.

LR terms are computed per pair of cycles (mu, nu): the LR tableaux of
content nu on mu are generated directly, one horizontal strip per label
under the lattice-word condition, so only the non-zero coefficients
c^lam_{mu,nu} are built, and shapes that would leave the rectangle are
pruned during the search.  The search recurses per label, so it takes the
pair's smaller partition as content and, when that content has more rows
than columns, searches the conjugate pair in the transposed rectangle and
conjugates the results back.  Two caches live as long as the process:
_lr_terms, keyed by the caller's (mu, nu, rectangle), so a warm pair costs
one lookup; and _strip_search, keyed by the orientation searched, which a
pair, the swapped pair and the conjugate pair in the transposed rectangle
share (c^lam_{mu,nu} = c^lam_{nu,mu} = c^lam'_{mu',nu'}), so the folds of
M and M* share searches.

A direct sum folds on the complement side, as in the paper's direct-sum
formula: the class of M1 + M2 has coefficient sum a_mu b_nu
c^kappa_{mu^c,nu^c} at sigma_{kappa^c}.  The sums are kept on kappa, and
each distinct kappa is complemented into the joint rectangle once, at the
end.  A pair is searched in its bounding rectangle and in a fixed order, so
its cache key depends on the pair only and folds into different ambients
share it.

The degree of c * sigma_1^s needs no products: sigma_lam * sigma_1^s
meets the point class once for each standard filling of the rectangle
minus lam, which the hook-length formula counts on the complement of lam.
That count is cached per shape, so folds into different ambients share the
counts of their common complements.  Complements and conjugates of
library-built partitions come from the stores in partitions, which keep
each pair both ways: the complement of a fold's output is already stored
when its degree asks for it.
"""

import re
from functools import lru_cache

from .errors import AmbientMismatch, DoesNotFit, InvalidDimensions, require_int, require_type
from .partitions import (
    Partition,
    _complements,
    _conjugates,
    _syt_count,
    contains,
    fits,
    normalize,
    padded,
    size,
)


class _ReadOnly:
    """Attributes are set once, in __init__, and never assigned or deleted.

    A plain slot class rather than a frozen dataclass: importing
    dataclasses (with inspect, ast and dis) would cost every CLI process.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ambient(_ReadOnly):
    """The Grassmannian G(r,n); Schubert cycles live in the r x (n-r) rectangle."""

    __slots__ = ("r", "n")

    def __init__(self, r: int, n: int):
        require_int(r, "rank")
        require_int(n, "ground-set size")
        if not 0 <= r <= n:
            raise AmbientMismatch(f"need 0 <= r <= n, got r={r}, n={n}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.r == other.r and self.n == other.n

    def __hash__(self):
        return hash((self.r, self.n))

    def __repr__(self):
        return f"Ambient(r={self.r!r}, n={self.n!r})"

    @property
    def rect(self) -> tuple[int, int]:
        return (self.r, self.n - self.r)


class ChowClass(_ReadOnly):
    """Integer combination of Schubert cycles in a fixed ambient.

    terms maps partitions to non-zero int coefficients; the zero class
    has an empty term map (ChowClass(ambient)).  A partition part or a
    coefficient that is not an int (a bool is not one) raises NotAnInteger:
    the kernel's caches are keyed by partitions, and (1.0,) == (1,) would
    share an entry.  The class is compared by value and, like its term map,
    is not hashable.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: Ambient, terms: dict[Partition, int] | None = None):
        clean = {}
        for lam, c in (terms or {}).items():
            lam = normalize(lam)
            if not fits(lam, ambient.rect):
                raise DoesNotFit(f"{lam} does not fit in G({ambient.r},{ambient.n})")
            require_int(c, "coefficient")
            if c != 0:
                clean[lam] = c
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, ambient: Ambient, terms: dict[Partition, int]) -> "ChowClass":
        """A class from terms the library built itself: the keys are normal
        and inside the rectangle and the coefficients are ints, so only the
        zero coefficients are dropped."""
        c = cls.__new__(cls)
        object.__setattr__(c, "ambient", ambient)
        object.__setattr__(c, "terms", {lam: v for lam, v in terms.items() if v})
        return c

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"ChowClass(ambient={self.ambient!r}, terms={self.terms!r})"

    def coefficient(self, lam: Partition) -> int:
        """The coefficient of sigma_lam; lam goes through normalize, so
        (1.0,) and (True,) raise NotAnInteger rather than read the term of
        (1,)."""
        return self.terms.get(normalize(lam), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, factor: int) -> "ChowClass":
        """The class times factor, an int (a bool is not one)."""
        require_int(factor, "factor")
        return ChowClass(self.ambient, {lam: factor * c for lam, c in self.terms.items()})

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            terms[lam] = terms.get(lam, 0) + c
        return ChowClass(self.ambient, terms)

    def to_json_dict(self) -> dict:
        return {
            "r": self.ambient.r,
            "n": self.ambient.n,
            "terms": [
                {"partition": list(lam), "coeff": str(c)}
                for lam, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ChowClass":
        """Inverse of to_json_dict.  Nothing is coerced: the document is an
        object, terms and partitions are lists, r, n and the parts are ints,
        and a coefficient is an int or a decimal-integer string."""
        require_type(data, dict, "a Chow class")
        ambient = Ambient(data["r"], data["n"])
        require_type(data["terms"], list, "terms")
        terms = {}
        for item in data["terms"]:
            require_type(item, dict, "a term")
            parts = item["partition"]
            require_type(parts, list, "partition")
            lam = normalize(parts)
            coeff = item["coeff"]
            if isinstance(coeff, str) and re.fullmatch(r"-?[0-9]+", coeff):
                coeff = int(coeff)
            require_int(coeff, "coefficient")
            terms[lam] = terms.get(lam, 0) + coeff
        return ChowClass(ambient, terms)

    def text(self) -> str:
        """Diffable one-line form, terms with larger partitions first."""
        if not self.terms:
            return "0"
        pieces = []
        for lam in sorted(self.terms, reverse=True):
            pieces.append(f"{self.terms[lam]} s[{','.join(map(str, lam))}]")
        return " + ".join(pieces)


def sigma(ambient: Ambient, lam, coeff: int = 1) -> ChowClass:
    """coeff times the Schubert cycle sigma_lam; lam is checked as a term of
    ChowClass(...) is."""
    return ChowClass(ambient, {tuple(lam): coeff})


def pieri(c: ChowClass, b: int) -> ChowClass:
    """Multiply by the one-row cycle sigma_(b); b is a non-negative int.
    Pieri's rule is the LR rule with a one-row content, so this is the LR
    product with sigma_(b), and a row that does not fit the rectangle (any
    row when r = 0) gives the zero class."""
    _require_degree(b, "Pieri degree")
    if b == 0:
        return c
    if not fits((b,), c.ambient.rect):
        return ChowClass(c.ambient)
    return product(c, sigma(c.ambient, (b,)))


@lru_cache(maxsize=None)
def _lr_terms(
    mu: Partition, nu: Partition, rect: tuple[int, int]
) -> tuple[tuple[Partition, int], ...]:
    """The pairs (lam, c^lam_{mu,nu}) with c > 0 and lam inside rect.

    The key is (mu, nu, rect) as the caller gives it: product passes its
    ambient's rectangle, fold the pair of complements in a fixed order and
    its bounding rectangle, so fold's key depends on the pair only and is
    shared by folds into different ambients.  A warm pair costs one lookup
    here.  A cold pair reads the search of the orientation that
    _search_orientation picks, which _strip_search caches in its own right,
    so (nu, mu) and (mu', nu') in the transposed rectangle read the same
    search as (mu, nu); the terms of a search run on the conjugates are
    conjugated back here, once per key.  The result is shared by every
    caller, so it is an immutable tuple.
    """
    if not (fits(mu, rect) and fits(nu, rect)):
        return ()
    outer, content, box, transposed = _search_orientation(mu, nu, rect)
    found = _strip_search(outer, content, box)
    if transposed:
        return tuple((_conjugates[lam], c) for lam, c in found)
    return found


def _search_orientation(mu: Partition, nu: Partition, rect: tuple[int, int]):
    """The (outer, content, rectangle) that _strip_search runs for the pair,
    and whether it is the conjugate pair in the transposed rectangle.

    c^lam_{mu,nu} = c^lam_{nu,mu} = c^lam'_{mu',nu'}, and lam fits in
    rows x cols iff lam' fits in cols x rows, so the four orientations of a
    pair have one set of terms up to conjugation.  The search recurses once
    per label and per row that gets cells, so the content is the smaller
    partition and has no more rows than columns; among the orientations
    that allow, the one with the fewest labels and then the least tuple is
    searched, so every orientation of a pair picks the same one.
    """
    mu_t, nu_t, rect_t = _conjugates[mu], _conjugates[nu], (rect[1], rect[0])
    orientations = []
    if size(nu) <= size(mu):
        orientations += [(mu, nu, rect, False), (mu_t, nu_t, rect_t, True)]
    if size(mu) <= size(nu):
        orientations += [(nu, mu, rect, False), (nu_t, mu_t, rect_t, True)]
    return min((len(o[1]), o) for o in orientations if not o[1] or len(o[1]) <= o[1][0])[1]


@lru_cache(maxsize=None)
def _strip_search(
    mu: Partition, nu: Partition, rect: tuple[int, int]
) -> tuple[tuple[Partition, int], ...]:
    """The pairs (lam, c^lam_{mu,nu}) for the lam inside rect with c > 0;
    mu fits in rect.  Cached for the life of the process under the
    orientation _search_orientation picks; the result is shared, so it is
    an immutable tuple.

    Grows mu by the content nu, one horizontal strip per label, keeping the
    reverse reading word (rows top to bottom, each row right to left) a
    lattice word; each completed filling is one LR tableau of shape lam/mu.
    Shapes that leave rect are never built.  Within a label, a row that
    gets no cell is stepped over in a loop (j, prev_old and cum_prev
    advance), so only a row that gets cells recurses.  Capacity prune: a
    horizontal strip puts at most prev_old - shape[j] cells in row j and at
    most shape[k-1] - shape[k] in each later row k (lengths before the
    label); that sum telescopes to prev_old - shape[-1], and a branch ends
    as soon as it is less than the cells left.  A label is finished in the
    frame that places its last cells: the last label records the tableau
    and any other starts the next label there, so no call is made for a
    label with no cells left.  An empty content gives ((mu, 1),).
    """
    if not nu:
        return ((mu, 1),)
    rows, cols = rect
    shape = list(padded(mu, rows))
    last, labels = rows - 1, len(nu)
    # placed[i][j]: cells labelled i in row j; label 0 is a placeholder with none
    placed = [[0] * rows for _ in range(labels + 1)]
    terms: dict[Partition, int] = {}

    def fill(i, j, left, prev_old, cum, cum_prev):
        """Place the `left` remaining cells labelled i in rows j, j+1, ...;
        left > 0.

        prev_old is row j-1's length before label i was added (cols for
        j = 0); cum counts the cells labelled i in rows < j, cum_prev those
        labelled i-1 in rows < j.
        """
        mine, before = placed[i], placed[i - 1]
        while j < rows:
            if prev_old - shape[last] < left:
                return  # rows j, j+1, ... have room for fewer than `left` cells
            old = shape[j]
            # horizontal strip: at most up to row j-1's old length; lattice: the
            # i's in rows <= j may not outnumber the (i-1)'s in rows < j
            hi = prev_old - old
            if left < hi:
                hi = left
            if cum_prev - cum < hi:
                hi = cum_prev - cum
            next_prev = cum_prev + before[j]
            for add in range(hi, 0, -1):
                shape[j] = old + add
                mine[j] = add
                if add < left:
                    fill(i, j + 1, left - add, old, cum + add, next_prev)
                elif i < labels:  # label i is placed: start the next one here
                    fill(i + 1, 0, nu[i], cols, 0, 0)
                else:
                    lam = tuple(filter(None, shape))
                    terms[lam] = terms.get(lam, 0) + 1
            shape[j] = old
            mine[j] = 0
            # row j gets no cell labelled i
            j, prev_old, cum_prev = j + 1, old, next_prev

    # label 1 has no lattice bound: give it one no count can reach
    fill(1, 0, nu[0], cols, 0, size(nu))
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _shape_syt(shape: Partition) -> int:
    """The standard fillings of a shape the library built, counted once per
    process: the key is the shape alone, so degrees in different ambients
    share the counts of their common complements."""
    return _syt_count(shape)


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu,nu}, read off the
    terms of (mu, nu) in lam's bounding rectangle.  Each partition goes
    through normalize before anything is cached."""
    mu, nu, lam = normalize(mu), normalize(nu), normalize(lam)
    if size(mu) + size(nu) != size(lam) or not contains(lam, mu):
        return 0
    rect = (len(lam), lam[0] if lam else 0)
    return dict(_lr_terms(mu, nu, rect)).get(lam, 0)


def product(a: ChowClass, b: ChowClass) -> ChowClass:
    """Bilinear product via Littlewood-Richardson coefficients, truncated to the rectangle."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"{a.ambient} vs {b.ambient}")
    rect = a.ambient.rect
    terms: dict[Partition, int] = {}
    for mu, ca in a.terms.items():
        for nu, cb in b.terms.items():
            for lam, c in _lr_terms(mu, nu, rect):
                terms[lam] = terms.get(lam, 0) + ca * cb * c
    return ChowClass._trusted(a.ambient, terms)


def fold(a: ChowClass, b: ChowClass) -> ChowClass:
    """The class of a direct sum M1 + M2 in G(r1 + r2, n1 + n2) from the
    class a of M1 and the class b of M2.

    The coefficient of sigma_{kappa^c} is sum a_mu b_nu c^kappa_{mu^c,nu^c},
    with mu^c and nu^c the complements in the rectangles of a and b and
    kappa^c the complement in the joint rectangle, taken once per distinct
    kappa after the sums are complete.  The LR terms of a pair
    are taken in its bounding rectangle, which holds every kappa, so nothing
    is truncated; the pair goes to _lr_terms in a fixed order, so its cache
    key does not depend on the ambients.
    """
    target = Ambient(a.ambient.r + b.ambient.r, a.ambient.n + b.ambient.n)
    rect, rect_a, rect_b = target.rect, a.ambient.rect, b.ambient.rect
    rights = [(_complements[nu, rect_b], cb) for nu, cb in b.terms.items()]
    sums: dict[Partition, int] = {}
    for mu, ca in a.terms.items():
        left = _complements[mu, rect_a]
        for right, cb in rights:
            x, y = (left, right) if left >= right else (right, left)
            for kappa, c in _lr_terms(x, y, (len(x) + len(y), sum(x[:1] + y[:1]))):
                sums[kappa] = sums.get(kappa, 0) + ca * cb * c
    return ChowClass._trusted(target, {_complements[kappa, rect]: v for kappa, v in sums.items()})


def _require_degree(d, what: str) -> None:
    require_int(d, what)
    if d < 0:
        raise InvalidDimensions(f"{what} {d} is negative")


def sigma1_power_degree(c: ChowClass, s: int) -> int:
    """deg(c * sigma_(1)^s); s is a non-negative int.

    sigma_lam * sigma_(1)^s has degree the number of standard fillings of
    the rectangle minus lam, which are counted by the hook-length formula on
    its complement; only terms with |lam| + s = r(n-r) reach the rectangle.
    """
    _require_degree(s, "sigma_1 power")
    rect = c.ambient.rect
    return sum(
        coeff * _shape_syt(_complements[lam, rect])
        for lam, coeff in c.terms.items()
        if size(lam) + s == rect[0] * rect[1]
    )
