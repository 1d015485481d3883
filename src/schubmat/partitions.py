"""Partitions in a rectangle: complements, hooks, counts.

Partitions are plain tuples of positive integers in weakly decreasing order,
with no trailing zeros (normal form).  The empty partition is ``()``.
A rectangle is the pair ``(rows, cols)``.

normalize is the one gate a partition from outside the library goes
through: every public function that takes a partition calls it first.
_rectangle is the one gate for a rectangle: a pair of non-negative ints.
The helpers and stores whose names start with an underscore take
partitions the library built and check nothing.

Three facts are cached for the life of the process, each once, here:
conjugates (_conjugates) and complements (_complements), dicts that keep
each pair of an involution both ways, and standard-tableau counts
(_syt_count, keyed by the shape alone).  _complements is keyed by the
rectangle, then by the partition: a caller fetches a rectangle's store
once and reads each complement from it by the partition alone, so no
(partition, rectangle) key is built.  The public functions here, the chow
kernel and orbit.sc_uniform read these caches.  partitions_in_rectangle is
not cached: its one library caller, orbit.sc_uniform, is.
"""

from functools import lru_cache
from math import factorial, prod

from .errors import DoesNotFit, NonIntegralCount, WrongShape
from .errors import require_count, require_dimensions, require_int

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


def _rectangle(rect) -> Rectangle:
    """The one gate for a rectangle from outside the library: it unpacks
    into two sides, else WrongShape naming it; each side is an int, else
    NotAnInteger, and not negative, else InvalidDimensions."""
    try:
        rows, cols = rect
    except (TypeError, ValueError):
        raise WrongShape(f"a rectangle must be a pair (rows, cols), not {rect!r}") from None
    require_count(rows, "rectangle rows")
    require_count(cols, "rectangle columns")
    return rows, cols


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
    return _conjugates[normalize(lam)]


class _ConjugateStore(dict):
    """Conjugates of partitions the library built, stored both ways, since
    conjugation is an involution: the LR kernel conjugates a pair to orient
    its search and the terms of a transposed search back, hook lengths read
    the column heights, and the same few hundred shapes recur.  A hit is one
    dict lookup, with no Python call."""

    __slots__ = ()

    def __missing__(self, lam: Partition) -> Partition:
        # walk the rows from the bottom: the columns past the ones already
        # counted and inside row i (counted from 1) have height i
        conj: Partition = ()
        for i in range(len(lam), 0, -1):
            conj += (i,) * (lam[i - 1] - len(conj))
        self[lam] = conj
        self[conj] = lam
        return conj


_conjugates = _ConjugateStore()


class _ComplementStore(dict):
    """The complements in one rectangle of partitions the library built,
    keyed by the partition: nothing is checked, and a key must fit in the
    rectangle.  Complementing is an involution on the partitions in a
    rectangle, so a miss stores the pair both ways: the complement of a
    fold's output, which the fold computed from the other side, is already
    here when sigma1_power_degree asks for it.  A hit is one dict lookup,
    with no Python call and no key tuple built."""

    __slots__ = ("rows", "cols")

    def __init__(self, rect: Rectangle):
        self.rows, self.cols = rect

    def __missing__(self, lam: Partition) -> Partition:
        # the rows of lam from the bottom, the empty ones first; a full row
        # leaves nothing, and full rows are the top ones, so no zero is kept
        comp = self[lam] = tuple([self.cols - p for p in padded(lam, self.rows)[::-1] if p < self.cols])
        self[comp] = lam
        return comp


class _ComplementStores(dict):
    """One _ComplementStore per rectangle the library built, made on the
    first read of its rectangle."""

    __slots__ = ()

    def __missing__(self, rect: Rectangle) -> _ComplementStore:
        return self.setdefault(rect, _ComplementStore(rect))


_complements = _ComplementStores()


def complement_in_rectangle(lam: Partition, rect: Rectangle) -> Partition:
    """Complement of lam inside rect, rotated 180 degrees.  lam goes through
    normalize and rect through _rectangle before lam is fitted or reaches
    the store."""
    lam = normalize(lam)
    rect = rows, cols = _rectangle(rect)
    if not fits(lam, rect):
        raise DoesNotFit(f"{lam} does not fit in {rows}x{cols}")
    return _complements[rect][lam]


def hook(r: int, n: int) -> Partition:
    """The hook partition (n-r, 1, ..., 1) with r-1 ones; (r, n) is
    checked once, and the hook it builds is normal."""
    require_dimensions(r, n, 1)
    return (n - r,) + (1,) * (r - 1)


def hook_complement(r: int, n: int) -> Partition:
    """Complement of the hook in the r x (n-r) rectangle: an (r-1) x (n-r-1)
    rectangle.  hook checks (r, n) before the rectangle's store is read,
    and the hook fits the rectangle, so the store is read without a second
    check."""
    lam = hook(r, n)
    return _complements[r, n - r][lam]


def hook_lengths(lam: Partition) -> list[int]:
    """Hook lengths of all boxes of lam, row-major order; lam goes through
    normalize."""
    return _hook_lengths(normalize(lam))


def _hook_lengths(lam: Partition) -> list[int]:
    """hook_lengths of a partition the library built: nothing is checked."""
    conj = _conjugates[lam]
    return [
        lam[i] - (j + 1) + conj[j] - i
        for i in range(len(lam))
        for j in range(lam[i])
    ]


def _over_hooks(lam: Partition, numerator: int, hooks: int) -> int:
    """numerator / hooks, the product of lam's hook lengths, which must be
    an integer."""
    value, rest = divmod(numerator, hooks)
    if rest:
        from fractions import Fraction  # imported on use, not with the package

        raise NonIntegralCount(lam, Fraction(numerator, hooks))
    return value


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula);
    lam goes through normalize."""
    return _syt_count(normalize(lam))


@lru_cache(maxsize=None)
def _syt_count(lam: Partition) -> int:
    """syt_count of a partition the library built: nothing is checked.
    Cached for the life of the process under the shape alone, so the
    degrees of classes in different ambients share the counts of their
    common complements."""
    return _over_hooks(lam, factorial(size(lam)), prod(_hook_lengths(lam)))


def schur_at_ones(lam: Partition, k: int) -> int:
    """Principal specialization s_lam(1^k): semistandard tableaux with entries <= k.

    Hook-content product, prod (k + j - i) / prod hooks over the boxes
    (i, j); exact, returns 0 when lam has more than k rows.  lam goes
    through normalize, and k is a non-negative int.
    """
    lam = normalize(lam)
    require_count(k, "number of variables")
    return _schur_at_ones(lam, k, prod(_hook_lengths(lam)))


def _schur_at_ones(lam: Partition, k: int, hooks: int) -> int:
    """schur_at_ones of a partition the library built and a non-negative
    int k, given hooks, the product of lam's hook lengths, which a caller
    taking several k computes once: nothing is checked."""
    if len(lam) > k:
        return 0
    return _over_hooks(lam, prod(k + j - i for i, part in enumerate(lam) for j in range(part)), hooks)


def partitions_in_rectangle(rect: Rectangle, weight: int | None = None) -> tuple[Partition, ...]:
    """All partitions fitting in rect, or only those with |lam| = weight.

    rect goes through _rectangle, and a weight that is not an int or None
    raises NotAnInteger (a bool is not one), before anything is generated.
    A given weight is generated directly: a branch stops as soon as the
    boxes left cannot fit in the rows left.  Nothing is cached.
    """
    rows, cols = _rectangle(rect)
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
