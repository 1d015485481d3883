"""The Chow ring of the Grassmannian G(r,n) as a free abelian group on
Schubert cycles, with Pieri products, Littlewood-Richardson products,
sigma_1-power degrees, and the box-shift embedding used for direct sums.

A ChowClass is a finite integer combination of Schubert cycles sigma_lam,
with every lam inside the r x (n-r) rectangle.  Cycles that would leave
the rectangle are truncated away (the quotient-ring convention).

Products are computed per pair of cycles (mu, nu): the LR tableaux of
content nu on mu are generated directly, one horizontal strip per label
under the lattice-word condition, so only the non-zero coefficients
c^lam_{mu,nu} are ever built, and shapes that would leave the rectangle
are pruned during the search.  Within a label the search steps over rows
that get no cell without recursing, and ends a branch as soon as the rows
left cannot hold the cells left (a capacity prune).  Each pair's terms are
cached for the life of the process (one lru_cache, keyed by (mu, nu,
rectangle)); lr_coefficient reads a single coefficient out of that cache.
Two other designs give the same terms and were measured slower or no
faster on the box-shifted pairs of direct sums: a label-by-label dynamic
programme that merges equal (shape, last-label row counts) states (there
is almost nothing to merge: the coefficients are mostly 1), and folding
on the complement side, c^kappa_{mu^c, nu^c}, which is the paper's
direct-sum formula and serves as a test oracle instead.

The degree of c * sigma_1^s needs no products: sigma_lam * sigma_1^s
meets the point class once for each standard filling of the rectangle
minus lam, which the hook-length formula counts on the complement of lam.
That count is cached per (lam, rectangle), since folds repeat partitions.
"""

import re
from functools import lru_cache

from .errors import AmbientMismatch, DoesNotFit, require_int, require_type
from .partitions import (
    Partition,
    complement_in_rectangle,
    contains,
    fits,
    normalize,
    padded,
    size,
    syt_count,
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
    has an empty term map (ChowClass(ambient)).  A coefficient that is not
    an int (a bool is not one) raises NotAnInteger.  The class is compared
    by value and, like its term map, is not hashable.
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
        return self.terms.get(normalize(lam), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, factor: int) -> "ChowClass":
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
            for p in parts:
                require_int(p, "partition part")
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
    return ChowClass(ambient, {normalize(lam): coeff})


def _pieri_shapes(lam: Partition, b: int, rect: tuple[int, int]):
    """Partitions in rect obtained from lam by adding b boxes, at most one per column."""
    rows, cols = rect
    full = padded(lam, rows)

    def gen(i, remaining, prev_new, prev_old):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        old = full[i]
        # at most one box per column: row i may grow at most to the previous
        # row's *old* length; must stay weakly decreasing and inside rect
        hi = min(prev_old, prev_new, cols, old + remaining)
        for new in range(old, hi + 1):
            for rest in gen(i + 1, remaining - (new - old), new, old):
                yield (new,) + rest

    for shape in gen(0, b, cols, cols):
        yield normalize(shape)


def pieri(c: ChowClass, b: int) -> ChowClass:
    """Multiply by the single-row cycle sigma_(b) via Pieri's rule."""
    if b == 0:
        return c
    terms: dict[Partition, int] = {}
    for lam, coeff in c.terms.items():
        for mu in _pieri_shapes(lam, b, c.ambient.rect):
            terms[mu] = terms.get(mu, 0) + coeff
    return ChowClass(c.ambient, terms)


@lru_cache(maxsize=None)
def _lr_terms(
    mu: Partition, nu: Partition, rect: tuple[int, int]
) -> tuple[tuple[Partition, int], ...]:
    """The pairs (lam, c^lam_{mu,nu}) with c > 0 and lam inside rect.

    Grows mu by the content nu, one horizontal strip per label, keeping the
    reverse reading word (rows top to bottom, each row right to left) a
    lattice word; each completed filling is one LR tableau of shape lam/mu.
    Shapes that leave rect are never built.  Within a label, a row that
    gets no cell is stepped over in a loop (j, prev_old and cum_prev
    advance), so only a row that gets cells recurses.  Capacity prune: a
    horizontal strip puts at most prev_old - shape[j] cells in row j and at
    most shape[k-1] - shape[k] in each later row k (lengths before the
    label); that sum telescopes to prev_old - shape[-1], and a branch ends
    as soon as it is less than the cells left.  A label-by-label DP over
    merged states and a fold on the complement side were measured and were
    not faster (see the module docstring).  The result is shared by every
    caller, so it is an immutable tuple.
    """
    if (size(nu), nu) > (size(mu), mu):
        mu, nu = nu, mu  # c^lam_{mu,nu} = c^lam_{nu,mu}: place the smaller as content
    if not fits(mu, rect):
        return ()
    rows, cols = rect
    shape = list(padded(mu, rows))
    last = rows - 1
    # placed[i][j]: cells labelled i in row j; label 0 is a placeholder with none
    placed = [[0] * rows for _ in range(len(nu) + 1)]
    terms: dict[Partition, int] = {}

    def fill(i, j, left, prev_old, cum, cum_prev):
        """Place the `left` remaining cells labelled i in rows j, j+1, ...

        prev_old is row j-1's length before label i was added (cols for
        j = 0); cum counts the cells labelled i in rows < j, cum_prev those
        labelled i-1 in rows < j.
        """
        if left == 0:
            if i == len(nu):
                lam = tuple(p for p in shape if p)
                terms[lam] = terms.get(lam, 0) + 1
            else:
                # label 1 has no lattice bound: give it one no count can reach
                fill(i + 1, 0, nu[i], cols, 0, 0 if i else size(nu))
            return
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
                fill(i, j + 1, left - add, old, cum + add, next_prev)
            shape[j] = old
            mine[j] = 0
            # row j gets no cell labelled i
            j, prev_old, cum_prev = j + 1, old, next_prev

    fill(0, 0, 0, cols, 0, 0)
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _complement_syt(lam: Partition, rect: tuple[int, int]) -> int:
    """deg(sigma_lam * sigma_1^s) for |lam| + s = r(n-r): the standard fillings
    of the complement of lam in rect.  Folds repeat their partitions, so each
    count is taken once per process."""
    return syt_count(complement_in_rectangle(lam, rect))


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu,nu}, read off the
    terms of (mu, nu) in lam's bounding rectangle."""
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


def sigma1_power_degree(c: ChowClass, s: int) -> int:
    """deg(c * sigma_(1)^s).

    sigma_lam * sigma_(1)^s has degree the number of standard fillings of
    the rectangle minus lam, which are counted by the hook-length formula on
    its complement; only terms with |lam| + s = r(n-r) reach the rectangle.
    """
    rect = c.ambient.rect
    return sum(
        coeff * _complement_syt(lam, rect)
        for lam, coeff in c.terms.items()
        if size(lam) + s == rect[0] * rect[1]
    )


def box_shift(c: ChowClass, target: Ambient, shift: int) -> ChowClass:
    """Embed c into the larger ambient by prepending a (c.r x shift) rectangle to each term.

    Each sigma_mu becomes sigma over (shift+mu_1, ..., shift+mu_r) with mu
    zero-padded to the source rank; coefficients are unchanged.
    """
    src = c.ambient
    if shift < 0 or src.r > target.r or src.n > target.n:
        raise AmbientMismatch(
            f"cannot box-shift from G({src.r},{src.n}) into G({target.r},{target.n})"
        )
    terms: dict[Partition, int] = {}
    for mu, coeff in c.terms.items():
        shifted = normalize(tuple(shift + p for p in padded(mu, src.r)))
        if not fits(shifted, target.rect):
            raise DoesNotFit(f"shifted {shifted} exceeds {target.rect}")
        terms[shifted] = terms.get(shifted, 0) + coeff
    return ChowClass._trusted(target, terms)

