"""Partitions in a rectangle: complements, hooks, counts.

Partitions are plain tuples of positive integers in weakly decreasing order,
with no trailing zeros (normal form).  The empty partition is ``()``.
A rectangle is the pair ``(rows, cols)``.

normalize is the one gate a partition from outside the library goes
through: every public function that takes a partition calls it first.  The
helpers and stores whose names start with an underscore take partitions the
library built and check nothing.
"""

from functools import lru_cache
from math import comb, factorial, prod

from .errors import DoesNotFit, InvalidDimensions, NonIntegralCount, require_int

Partition = tuple[int, ...]
Rectangle = tuple[int, int]


def normalize(parts) -> Partition:
    """The one gate for a partition from outside the library, returning its
    canonical tuple form.  In order: every part is an int, else
    NotAnInteger (a bool is not one; the caches are keyed by partitions,
    where (1.0,) and (True,) would share the entry of (1,)); the parts
    weakly decrease and none is negative, else ValueError; trailing zeros
    are dropped."""
    parts = tuple(parts)
    for p in parts:
        require_int(p, "partition part")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def size(lam: Partition) -> int:
    return sum(lam)


def fits(lam: Partition, rect: Rectangle) -> bool:
    rows, cols = rect
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def contains(lam: Partition, mu: Partition) -> bool:
    """Young-diagram containment mu ⊆ lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def padded(lam: Partition, rows: int) -> tuple[int, ...]:
    return lam + (0,) * (rows - len(lam))


def conjugate(lam: Partition) -> Partition:
    """The transposed diagram of lam, which goes through normalize."""
    return _conjugate(normalize(lam))


def _conjugate(lam: Partition) -> Partition:
    """conjugate of a partition the library built: nothing is checked.
    Walks the rows from the bottom: the columns past the ones already
    counted and inside row i (counted from 1) have height i."""
    conj: Partition = ()
    for i in range(len(lam), 0, -1):
        conj += (i,) * (lam[i - 1] - len(conj))
    return conj


class _ConjugateStore(dict):
    """Conjugates of partitions the library built, stored both ways, since
    conjugation is an involution: the LR kernel conjugates a pair to orient
    its search and the terms of a transposed search back, and the same few
    hundred shapes recur.  A hit is one dict lookup, with no Python call."""

    __slots__ = ()

    def __missing__(self, lam: Partition) -> Partition:
        conj = self[lam] = _conjugate(lam)
        self[conj] = lam
        return conj


_conjugates = _ConjugateStore()


class _ComplementStore(dict):
    """Complements of partitions the library built, keyed by (lam, rect):
    nothing is checked, and lam must fit in rect.  Complementing is an
    involution on the partitions in a rectangle, so a miss stores the pair
    both ways: the complement of a fold's output, which the fold computed
    from the other side, is already here when sigma1_power_degree asks for
    it.  A hit is one dict lookup, with no Python call."""

    __slots__ = ()

    def __missing__(self, key: tuple[Partition, Rectangle]) -> Partition:
        lam, rect = key
        rows, cols = rect
        comp = [cols] * (rows - len(lam)) + [cols - p for p in reversed(lam)]
        while comp and not comp[-1]:
            comp.pop()
        comp = self[key] = tuple(comp)
        self[comp, rect] = lam
        return comp


_complements = _ComplementStore()


def complement_in_rectangle(lam: Partition, rect: Rectangle) -> Partition:
    """Complement of lam inside rect, rotated 180 degrees.  lam goes through
    normalize before it is fitted or reaches the store."""
    lam = normalize(lam)
    rows, cols = rect
    if not fits(lam, rect):
        raise DoesNotFit(f"{lam} does not fit in {rows}x{cols}")
    return _complements[lam, rect]


def hook(r: int, n: int) -> Partition:
    """The hook partition (n-r, 1, ..., 1) with r-1 ones."""
    require_int(r, "rank")
    require_int(n, "ground-set size")
    if r < 1 or r >= n:
        raise InvalidDimensions(f"need 1 <= r <= n-1, got r={r}, n={n}")
    return normalize((n - r,) + (1,) * (r - 1))


def hook_complement(r: int, n: int) -> Partition:
    """Complement of the hook in the r x (n-r) rectangle: an (r-1) x (n-r-1) rectangle."""
    return complement_in_rectangle(hook(r, n), (r, n - r))


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all boxes of lam, row-major order; lam goes through
    normalize."""
    return _hook_lengths(normalize(lam))


def _hook_lengths(lam: Partition) -> list[int]:
    """hook_lengths of a partition the library built: nothing is checked."""
    conj = _conjugate(lam)
    return [
        lam[i] - (j + 1) + conj[j] - i
        for i in range(len(lam))
        for j in range(lam[i])
    ]


def _over_hooks(lam: Partition, numerator: int) -> int:
    """numerator / prod(hook lengths of lam), which must be an integer."""
    hooks = prod(_hook_lengths(lam))
    value, rest = divmod(numerator, hooks)
    if rest:
        from fractions import Fraction  # imported on use, not with the package

        raise NonIntegralCount(lam, Fraction(numerator, hooks))
    return value


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula);
    lam goes through normalize."""
    return _syt_count(normalize(lam))


def _syt_count(lam: Partition) -> int:
    """syt_count of a partition the library built: nothing is checked."""
    return _over_hooks(lam, factorial(size(lam)))


def schur_at_ones(lam: Partition, k: int) -> int:
    """Principal specialization s_lam(1^k): semistandard tableaux with entries <= k.

    Hook-content product, prod (k + j - i) / prod hooks over the boxes
    (i, j); exact, returns 0 when lam has more than k rows.  lam goes
    through normalize.
    """
    lam = normalize(lam)
    require_int(k, "number of variables")
    if lam and len(lam) > k:
        return 0
    return _over_hooks(lam, prod(k + j - i for i, part in enumerate(lam) for j in range(part)))


@lru_cache(maxsize=None, typed=True)
def partitions_in_rectangle(rect: Rectangle, weight: int | None = None) -> tuple[Partition, ...]:
    """All partitions fitting in rect, or only those with |lam| = weight.

    A weight that is not an int or None raises NotAnInteger (a bool is not
    one).  The cache is typed, so True and 1.0 miss the entry of 1 and
    reach that check.  A given weight is generated directly: a branch stops
    as soon as the boxes left cannot fit in the rows left.
    """
    rows, cols = rect
    exact = weight is not None
    if exact:
        require_int(weight, "weight")

    def gen(rows_left, max_part, budget):
        if budget == 0 or not exact:
            yield ()
        if rows_left == 0 or exact and budget > rows_left * max_part:
            return
        for first in range(1, min(max_part, budget) + 1):
            for rest in gen(rows_left - 1, first, budget - first):
                yield (first,) + rest

    return tuple(gen(rows, cols, weight if exact else rows * cols))


def binomial(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0
