"""The Chow ring of the Grassmannian G(r,n) as a free abelian group on
Schubert cycles, with Pieri products, Littlewood-Richardson products,
the degree pairing, and the box-shift embedding used for direct sums.

A ChowClass is a finite integer combination of Schubert cycles sigma_lam,
with every lam inside the r x (n-r) rectangle.  Cycles that would leave
the rectangle are truncated away (the quotient-ring convention).
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import AmbientMismatch, DoesNotFit
from .partitions import (
    Partition,
    contains,
    fits,
    normalize,
    padded,
    partitions_in_rectangle,
    size,
)


@dataclass(frozen=True)
class Ambient:
    """The Grassmannian G(r,n); Schubert cycles live in the r x (n-r) rectangle."""

    r: int
    n: int

    def __post_init__(self):
        if not 0 <= self.r <= self.n:
            raise AmbientMismatch(f"need 0 <= r <= n, got r={self.r}, n={self.n}")

    @property
    def rect(self) -> tuple[int, int]:
        return (self.r, self.n - self.r)


@dataclass(frozen=True)
class ChowClass:
    """Integer combination of Schubert cycles in a fixed ambient.

    terms maps partitions to non-zero integer coefficients; the zero class
    has an empty term map.
    """

    ambient: Ambient
    terms: dict[Partition, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for lam, c in self.terms.items():
            lam = normalize(lam)
            if not fits(lam, self.ambient.rect):
                raise DoesNotFit(f"{lam} does not fit in G({self.ambient.r},{self.ambient.n})")
            if c != 0:
                clean[lam] = c
        object.__setattr__(self, "terms", clean)

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
        ambient = Ambient(int(data["r"]), int(data["n"]))
        terms = {}
        for item in data["terms"]:
            lam = normalize(int(p) for p in item["partition"])
            terms[lam] = terms.get(lam, 0) + int(item["coeff"])
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
def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu,nu}.

    Counts semistandard skew tableaux of shape lam/mu and content nu whose
    reverse reading word (rows top to bottom, each row right to left) is a
    lattice word.
    """
    mu, nu, lam = normalize(mu), normalize(nu), normalize(lam)
    if size(mu) + size(nu) != size(lam) or not contains(lam, mu):
        return 0
    if not nu:
        return 1
    rows = len(lam)
    mu_full = padded(mu, rows)
    # cells in reverse reading order
    cells = [(i, j) for i in range(rows) for j in range(lam[i] - 1, mu_full[i] - 1, -1)]
    k = len(nu)
    counts = [0] * (k + 1)  # counts[v] = multiplicity of v placed so far
    entry = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo, hi = 1, k
        if j + 1 < lam[i] and (i, j + 1) in entry:  # right neighbour, row weak
            hi = min(hi, entry[(i, j + 1)])
        if i > 0 and j >= mu_full[i - 1]:  # cell above, column strict
            lo = max(lo, entry[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # lattice condition
            counts[v] += 1
            entry[(i, j)] = v
            total += place(idx + 1)
            del entry[(i, j)]
            counts[v] -= 1
        return total

    return place(0)


def product(a: ChowClass, b: ChowClass) -> ChowClass:
    """Bilinear product via Littlewood-Richardson coefficients, truncated to the rectangle."""
    if a.ambient != b.ambient:
        raise AmbientMismatch(f"{a.ambient} vs {b.ambient}")
    rect = a.ambient.rect
    terms: dict[Partition, int] = {}
    for mu, ca in a.terms.items():
        for nu, cb in b.terms.items():
            weight = size(mu) + size(nu)
            if weight > rect[0] * rect[1]:
                continue
            for lam in partitions_in_rectangle(rect, weight):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    terms[lam] = terms.get(lam, 0) + ca * cb * c
    return ChowClass(a.ambient, terms)


def degree_pairing(c: ChowClass, lam) -> int:
    """deg(c * sigma_{lam^c}); by complementary dimension this is the coefficient of sigma_lam."""
    lam = normalize(lam)
    if not fits(lam, c.ambient.rect):
        raise DoesNotFit(f"{lam} does not fit in G({c.ambient.r},{c.ambient.n})")
    return c.coefficient(lam)


def sigma1_power_degree(c: ChowClass, s: int) -> int:
    """deg(c * sigma_(1)^s): iterate Pieri s times, read off the full rectangle."""
    rows, cols = c.ambient.rect
    for _ in range(s):
        c = pieri(c, 1)
    full = normalize((cols,) * rows)
    return c.coefficient(full)


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
    return ChowClass(target, terms)

