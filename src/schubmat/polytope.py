"""Exact volume oracle for matroid base polytopes via Ehrhart interpolation.

The base polytope is the convex hull of the basis indicator vectors; a point
y of the t-th dilate is an integer vector with sum(y) = t*r and
sum(y[A]) <= t*rank(A) for every subset A.  Only flat constraints with
rank < |A| can bind, so the enumerator checks those.

Subsets are bitmasks, as in the matroid core.  One table, built after the
desk-scale check because it has 2^n entries, holds the rank of every
subset; the flats, the loops and the enumerator's rank bounds read it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import factorial
from operator import or_

from .errors import DeskScaleExceeded, NonIntegralVolume, WrongAffineDimension
from .matroids import Matroid, _bits, classify, matrix_rank

DESK_SCALE_LIMIT = 8


@dataclass(frozen=True)
class VolumeReport:
    """Ehrhart data for a base polytope and the resulting normalized volume."""

    dim: int
    counts: tuple[int, ...]
    ehrhart: tuple[Fraction, ...]  # coefficients, ascending degree
    normalized_volume: int


def polytope_vertices(m: Matroid) -> frozenset:
    """Indicator vectors of the bases; affine dimension is checked to be n - kappa."""
    vertices = frozenset(tuple(b >> i & 1 for i in range(m.n)) for b in m._masks)
    first = next(iter(vertices))
    diffs = [[a - b for a, b in zip(v, first)] for v in vertices if v != first]
    dim = matrix_rank(diffs) if diffs else 0
    expected = m.n - classify(m).kappa
    if dim != expected:
        raise WrongAffineDimension(dim, expected)
    return vertices


def _check_scale(m: Matroid, limit: int) -> None:
    if m.n > limit:
        raise DeskScaleExceeded(f"n={m.n} exceeds the desk-scale limit {limit}")


def _rank_table(m: Matroid) -> list[int]:
    """rank(S) for every subset S of [n], indexed by its mask.

    Going down from the bases, the subsets of independent sets are
    independent (rank = size); going up, a dependent set has the largest
    rank among its subsets one element smaller.  Computed once per instance.
    """
    table = m._cache.get("rank_table")
    if table is None:
        table = [0] * (1 << m.n)
        for b in m._masks:
            table[b] = m.r
        for s in range(len(table) - 1, 0, -1):
            if table[s] == s.bit_count():
                for e in _bits(s):
                    table[s ^ e] = table[s] - 1
        for s in range(1, len(table)):
            if table[s] != s.bit_count():
                table[s] = max(table[s ^ e] for e in _bits(s))
        m._cache["rank_table"] = table
    return table


def _binding_constraints(m: Matroid) -> list[tuple[int, int]]:
    """Flats A (as masks) with 2 <= |A| < n and rank(A) < min(|A|, r); all
    other rank constraints are implied, and loops are capped at 0 instead.

    Computed once per matroid instance: every dilate shares them.
    """
    out = m._cache.get("binding_flats")
    if out is None:
        rank = _rank_table(m)
        ground = m._ground()
        bits = _bits(ground)
        # a set is not closed when some e outside it keeps the rank; its
        # closure then gives a tighter constraint
        out = m._cache["binding_flats"] = [
            (s, rank[s]) for s in range(1, ground)
            if 2 <= s.bit_count() and rank[s] < min(s.bit_count(), m.r)
            and all(rank[s | e] > rank[s] for e in bits if not s & e)
        ]
    return out


def lattice_points(m: Matroid, t: int, limit: int = DESK_SCALE_LIMIT) -> int:
    """Number of lattice points of the t-th dilate of the base polytope."""
    _check_scale(m, limit)
    if t == 0:
        return 1
    rank = _rank_table(m)
    target = t * m.r
    constraints = _binding_constraints(m)
    # put constrained coordinates first so the tail can be memoized;
    # coordinates are single-bit masks, in ascending element order
    ground = m._ground()
    constrained = reduce(or_, (s for s, _ in constraints), 0)
    order = _bits(constrained) + _bits(ground & ~constrained)
    pos = {e: i for i, e in enumerate(order)}
    caps = [t if rank[e] else 0 for e in order]  # a loop has rank 0
    # per constraint: positions involved and its last position in the order
    by_last: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for s, rk in constraints:
        positions = tuple(sorted(pos[e] for e in _bits(s)))
        by_last.setdefault(positions[-1], []).append((positions, t * rk))
    n = m.n
    # prefix/suffix rank bounds in this coordinate order
    prefixes = list(accumulate(order, or_, initial=0))
    pref = [t * rank[p] for p in prefixes]
    suf = [t * rank[ground ^ p] for p in prefixes]
    free_from = (max(by_last) + 1) if by_last else 0
    y = [0] * n
    memo: dict[tuple[int, int], int] = {}

    def count_from(i: int, total: int) -> int:
        if i == n:
            return 1 if total == target else 0
        if i >= free_from:
            key = (i, total)
            cached = memo.get(key)
            if cached is not None:
                return cached
        lo = max(0, target - total - suf[i + 1])
        hi = min(caps[i], pref[i + 1] - total, target - total)
        for positions, bound in by_last.get(i, ()):
            fixed = sum(y[p] for p in positions[:-1])
            hi = min(hi, bound - fixed)
        result = 0
        for v in range(lo, hi + 1):
            y[i] = v
            result += count_from(i + 1, total + v)
        y[i] = 0
        if i >= free_from:
            memo[(i, total)] = result
        return result

    return count_from(0, 0)


def _interpolate(counts: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Coefficients, in ascending degree, of the polynomial through (t, counts[t]).

    Newton's form at t = 0, 1, ..., d, expanded by Horner's rule: p = a_d,
    then p = p * (t - k) + a_k for k = d-1, ..., 0, where a_k is the k-th
    forward difference of the counts at 0 over k!.
    """
    diffs, row = [], list(counts)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = []
    for k in reversed(range(len(diffs))):
        coeffs = [s - k * c for s, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += Fraction(diffs[k], factorial(k))
    return tuple(coeffs)


def ehrhart_report(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> VolumeReport:
    """Counts at t = 0..dim, the interpolated polynomial, and the normalized volume.

    The fit is verified against a directly computed count at t = dim + 1.
    """
    _check_scale(m, limit)
    dim = m.n - classify(m).kappa
    counts = tuple(lattice_points(m, t, limit) for t in range(dim + 1))
    coeffs = _interpolate(counts)
    check_t = dim + 1
    predicted = sum(c * check_t**k for k, c in enumerate(coeffs))
    actual = lattice_points(m, check_t, limit)
    if predicted != actual:
        raise NonIntegralVolume(
            f"Ehrhart fit fails at t={check_t}: predicted {predicted}, counted {actual}"
        )
    volume = coeffs[dim] * factorial(dim)
    if volume.denominator != 1 or volume <= 0:
        raise NonIntegralVolume(f"leading coefficient gives volume {volume}")
    return VolumeReport(dim=dim, counts=counts, ehrhart=coeffs, normalized_volume=volume.numerator)


def normalized_volume(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> int:
    return ehrhart_report(m, limit).normalized_volume


def report_to_json_dict(report: VolumeReport) -> dict:
    return {
        "dim": report.dim,
        "counts": [str(c) for c in report.counts],
        "ehrhart": [str(c) for c in report.ehrhart],
        "volume": str(report.normalized_volume),
    }
