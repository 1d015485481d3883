"""Exact volume oracle for matroid base polytopes via Ehrhart interpolation.

The base polytope is the convex hull of the basis indicator vectors; a point
y of the t-th dilate is an integer vector with sum(y) = t*r and
sum(y[A]) <= t*rank(A) for every subset A.  Only flat constraints with
rank < |A| can bind, so the enumerator checks those (computed once per
matroid and shared by every dilate).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .errors import DeskScaleExceeded, NonIntegralVolume, WrongAffineDimension
from .matroids import Matroid, classify, matrix_rank

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
    vertices = frozenset(
        tuple(1 if i in set(b) else 0 for i in range(1, m.n + 1)) for b in m.bases
    )
    first = next(iter(vertices))
    diffs = [[Fraction(v[i] - first[i]) for i in range(m.n)] for v in vertices if v != first]
    dim = matrix_rank(diffs) if diffs else 0
    expected = m.n - classify(m).kappa
    if dim != expected:
        raise WrongAffineDimension(dim, expected)
    return vertices


def _check_scale(m: Matroid, limit: int) -> None:
    if m.n > limit:
        raise DeskScaleExceeded(f"n={m.n} exceeds the desk-scale limit {limit}")


def _binding_constraints(m: Matroid):
    """Flats A with rank(A) < min(|A|, r); all other rank constraints are implied.

    Computed once per matroid instance: every dilate shares them.
    """
    out = m._cache.get("binding_flats")
    if out is not None:
        return out
    ground = list(range(1, m.n + 1))
    out = []
    for k in range(2, m.n):
        for subset in combinations(ground, k):
            s = frozenset(subset)
            rk = m.rank_of(s)
            if rk >= min(k, m.r):
                continue
            if any(m.rank_of(s | {e}) == rk for e in ground if e not in s):
                continue  # not closed; its closure gives a tighter constraint
            out.append((s, rk))
    m._cache["binding_flats"] = out
    return out


def lattice_points(m: Matroid, t: int, limit: int = DESK_SCALE_LIMIT) -> int:
    """Number of lattice points of the t-th dilate of the base polytope."""
    _check_scale(m, limit)
    if t == 0:
        return 1
    loops = m.loops()
    target = t * m.r
    constraints = _binding_constraints(m)
    # put constrained coordinates first so the tail can be memoized
    constrained = sorted({e for s, _ in constraints for e in s})
    order = constrained + [e for e in range(1, m.n + 1) if e not in constrained]
    pos = {e: i for i, e in enumerate(order)}
    caps = [0 if e in loops else t for e in order]
    # per constraint: positions involved and its last position in the order
    by_last: dict[int, list[tuple[tuple[int, ...], int]]] = {}
    for s, rk in constraints:
        positions = tuple(sorted(pos[e] for e in s))
        by_last.setdefault(positions[-1], []).append((positions, t * rk))
    n = m.n
    # prefix/suffix rank bounds in this coordinate order
    pref = [t * m.rank_of(order[:i]) if i else 0 for i in range(n + 1)]
    suf = [t * m.rank_of(order[i:]) if i < n else 0 for i in range(n + 1)]
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


def _interpolate(points: list[tuple[int, int]]) -> tuple[Fraction, ...]:
    """Exact Lagrange interpolation; returns coefficients in ascending degree."""
    d = len(points) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for xi, yi in points:
        # basis polynomial prod_{xj != xi} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            basis = nxt
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return tuple(coeffs)


def ehrhart_report(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> VolumeReport:
    """Counts at t = 0..dim, the interpolated polynomial, and the normalized volume.

    The fit is verified against a directly computed count at t = dim + 1.
    """
    _check_scale(m, limit)
    dim = m.n - classify(m).kappa
    counts = tuple(lattice_points(m, t, limit) for t in range(dim + 1))
    coeffs = _interpolate(list(enumerate(counts)))
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
