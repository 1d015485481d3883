"""Exact volume oracle for matroid base polytopes via Ehrhart interpolation.

The base polytope is the convex hull of the basis indicator vectors; a point
y of the t-th dilate is an integer vector with sum(y) = t*r and
sum(y[A]) <= t*rank(A) for every subset A.  The base polytope of a direct
sum M1 + M2 is the product P(M1) x P(M2), so the count of a sum is the
product of its factors' counts (the factors `matroids._factors` splits
off), and the counter sees one connected matroid at a time.  There only
flat constraints with rank < min(|A|, r) can bind, and every coordinate
lies in [0, t]: with two or more elements no element is a loop, and a lone
loop is held at 0 by sum(y) = 0.

Subsets are bitmasks, as in the matroid core.  The binding flats of a
connected matroid come from `matroids._binding_constraints`, which derives
them beside the exchange table that owns the hyperplanes: every flat is an
intersection of hyperplanes, and a binding flat lies only in hyperplanes of
at least r elements, the only ones intersected.  Each flat, and each suffix
of the counter's coordinate order, is ranked by its largest meet with a
basis (`matroids._rank`), so no structure over the 2^n subsets is built.

The counter fixes coordinates one at a time in an order read from the
structure, not the labels: the coordinates in more binding flats first
(the label breaks ties).  It is memoized on the frontier: the position, the
running total, and one partial sum per distinct prefix of the flats that
are open there (with coordinates on both sides).  A sum too low for any of
its flats to reach its bound is raised to a common floor.  Every bound it
reads (the target, the suffix ranks, the flat bounds and the floors) is
linear in t, so one plan (`_plan`), derived at t = 1 after the desk-scale
check, once per connected matroid, serves every dilate scaled by t; a sum
derives none of its own.  The counter nests one call per coordinate, so a
factor too large for the interpreter's recursion limit raises
DeskScaleExceeded, as a ground set above the desk-scale limit does.

The Ehrhart polynomial comes from the counts at t = 0..dim + 1 through
their forward differences at 0: the last must be 0 for the fit, and the
one before it is the normalized volume, an int.

verify_volume_relation audits the orbit engine against this oracle and
returns a VolumeVerdict.  It imports the engine when it runs, so the
volume oracle alone (`schubmat volume`) loads neither orbit nor chow.
"""

from collections import namedtuple
from functools import cache
from itertools import accumulate
from math import factorial, prod
from operator import or_

from .errors import DeskScaleExceeded, NonIntegralVolume, require_count, require_int
from .matroids import Matroid, _binding_constraints, _bits, _factors, _memo, _rank, classify

DESK_SCALE_LIMIT = 8


class VolumeReport(namedtuple("VolumeReport", [
    "dim",  # int
    "counts",  # tuple[int, ...]
    "ehrhart",  # tuple[Fraction, ...]: coefficients, ascending degree
    "normalized_volume",  # int
])):
    """Ehrhart data for a base polytope and the resulting normalized volume."""

    __slots__ = ()


class VolumeVerdict(namedtuple("VolumeVerdict", [
    "sc_result",  # ScResult
    "volume_report",  # VolumeReport
    "degree",  # int
    "volume",  # int
    "checks",  # tuple[tuple[str, int, int, bool], ...]
])):
    """The checks of `schubmat verify` on one computed class.

    checks holds (name, lhs, rhs, passed) for degree=volume, deg(Sc(M) *
    sigma_1^s) against the polytope volume, and for d_hc=beta, the
    hook-complement coefficient against beta(M).  A disconnected class sits
    in another degree, where both sides of d_hc=beta are 0.  G(r,n) with
    r = 0 or r = n is a point and has no hook complement, so that row is
    left out there.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        """Every check passed, degree=volume and d_hc=beta alike: the rule
        `schubmat verify` exits by."""
        return all(passed for *_, passed in self.checks)


def _check_scale(m: Matroid, limit: int) -> None:
    """The desk-scale gate: limit is an int, and m has at most limit elements."""
    require_int(limit, "desk-scale limit")
    if m.n > limit:
        raise DeskScaleExceeded(f"n={m.n} exceeds the desk-scale limit {limit}")


@_memo
def _plan(m: Matroid) -> tuple[list[int], list[list[tuple]], list[list[tuple]]]:
    """The frontier counter's tables for a connected m at t = 1: every bound
    in them is linear in t, so a dilate scales them by t.

    The coordinates are ordered from the structure, not the labels: those in
    more binding flats first, the label breaking ties.  Returned: suffix[i],
    the rank of the coordinates from position i on, for i = 0..n; and for
    i = 0..n-1, steps[i], one (k, held, floor) per partial sum carried past
    i, and bounds[i], one (k, rank) per flat holding i with positions
    before it, k indexing the partial sums at i.  Computed once per matroid.

    No prefix rank caps y[i]: the closure F of the first i + 1 coordinates
    is either a binding flat, whose cap here reads t*rank(F) less a partial
    sum at least the running total, or has rank |F| or r, and then y[i] <= t
    or the target is as tight.
    """
    constraints = _binding_constraints(m)
    ground = m._ground()
    order = sorted(_bits(ground), key=lambda e: -sum(1 for s, _ in constraints if s & e))
    suffix = [_rank(m, ground ^ p) for p in accumulate(order, or_, initial=0)]
    # flats as masks of positions in the order; a flat is open at i when it
    # has positions before i and at or after i
    pos = {e: i for i, e in enumerate(order)}
    flats = [(sum(1 << pos[e] for e in _bits(s)), rk) for s, rk in constraints]
    below = [(1 << i) - 1 for i in range(m.n + 1)]
    # the state at i carries one partial sum per distinct prefix (positions
    # before i) of the open flats.  A sum so low that no flat with this
    # prefix can reach its bound, even with its later coordinates at t,
    # counts the same as any other such sum, so it is raised to the
    # highest of them, the prefix's floor, and those states share a key
    floors: list[dict[int, int]] = []
    for i in range(m.n + 1):
        at: dict[int, int] = {}
        for f, rk in flats:
            prefix = f & below[i]
            if prefix and f >> i:
                floor = rk - (f >> i).bit_count()
                at[prefix] = min(at.get(prefix, floor), floor)
        floors.append(at)
    index = [{prefix: k for k, prefix in enumerate(at)} for at in floors]
    # moving past i, each prefix open at i + 1 extends one open at i (index
    # -1 reads the 0 appended to the sums: a flat that starts at i) and adds
    # y[i] when it holds i
    steps = [
        [(index[i].get(prefix & below[i], -1), prefix >> i & 1, floor)
         for prefix, floor in floors[i + 1].items()]
        for i in range(m.n)
    ]
    # a flat holding i, with positions before it, bounds y[i] by its bound
    # less its partial sum; at the flat's last position this is its check
    bounds = [
        [(index[i][f & below[i]], rk) for f, rk in flats if f >> i & 1 and f & below[i]]
        for i in range(m.n)
    ]
    return suffix, steps, bounds


def lattice_points(m: Matroid, t: int, limit: int = DESK_SCALE_LIMIT) -> int:
    """Number of lattice points of the t-th dilate of the base polytope; t is
    a non-negative int, and the desk-scale gate reads the whole ground set."""
    require_count(t, "dilation factor")
    _check_scale(m, limit)
    return _count(m, t)


def _count(m: Matroid, t: int) -> int:
    """lattice_points of a checked m and t: the product of the factors'
    counts for a sum, the frontier counter on the scaled plan for a
    connected matroid."""
    if t == 0:
        return 1
    factors = _factors(m)
    if factors:
        return prod(_count(f, t) for _, f in factors)
    target = t * m.r
    suffix, steps, bounds = _plan(m)
    steps = [[(k, held, t * floor) for k, held, floor in step] for step in steps]
    n = m.n

    @cache
    def count_from(i: int, total: int, sums: tuple[int, ...]) -> int:
        if i == n:
            return 1 if total == target else 0
        lo = max(0, target - total - t * suffix[i + 1])
        hi = min(t, target - total)
        for k, rk in bounds[i]:
            hi = min(hi, t * rk - sums[k])
        carried = sums + (0,)
        step = steps[i]
        result = 0
        for v in range(lo, hi + 1):
            result += count_from(
                i + 1, total + v, tuple(max(carried[k] + v * held, floor) for k, held, floor in step)
            )
        return result

    try:
        return count_from(0, 0, ())
    except RecursionError:  # one nested call per coordinate
        raise DeskScaleExceeded(f"n={n} is past the interpreter's recursion limit") from None


def _interpolate(diffs: list[int]) -> tuple:
    """Fraction coefficients, in ascending degree, of the polynomial whose
    forward differences at t = 0 are diffs.

    Newton's form at t = 0, 1, ..., d, expanded by Horner's rule: p = a_d,
    then p = p * (t - k) + a_k for k = d-1, ..., 0, where a_k = diffs[k] / k!.
    """
    from fractions import Fraction  # imported on use, not with the package

    coeffs = []
    for k in reversed(range(len(diffs))):
        coeffs = [s - k * c for s, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += Fraction(diffs[k], factorial(k))
    return tuple(coeffs)


def ehrhart_report(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> VolumeReport:
    """Counts at t = 0..dim, the interpolated polynomial, and the normalized volume.

    The scale is checked once; every dilate, t = 0..dim + 1, is then counted
    directly, and the forward differences at t = 0 are taken once.  The
    polynomial through the counts at 0..dim fits the count at dim + 1 exactly
    when the (dim + 1)-th difference is 0, and the normalized volume, dim!
    times the leading coefficient, is the dim-th difference.
    """
    _check_scale(m, limit)
    dim = m.n - classify(m).kappa
    counts = tuple(_count(m, t) for t in range(dim + 2))
    diffs, row = [], list(counts)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if diffs[-1]:
        predicted = counts[-1] - diffs[-1]
        raise NonIntegralVolume(
            f"Ehrhart fit fails at t={dim + 1}: predicted {predicted}, counted {counts[-1]}"
        )
    volume = diffs[dim]
    if volume <= 0:
        raise NonIntegralVolume(f"leading coefficient gives volume {volume}")
    return VolumeReport(dim, counts[:-1], _interpolate(diffs[:-1]), volume)


def normalized_volume(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> int:
    return ehrhart_report(m, limit).normalized_volume


def verify_volume_relation(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> VolumeVerdict:
    """Both checks on the class of m, with s = n - kappa; both sides exact."""
    # imported on use, so neither the engine nor the volume verb loads the other
    from .chow import sigma1_power_degree
    from .orbit import sc
    from .partitions import hook_complement

    result = sc(m)
    degree = sigma1_power_degree(result.chow_class, m.n - result.matroid_summary.kappa)
    report = ehrhart_report(m, limit)
    volume = report.normalized_volume
    checks = [("degree=volume", degree, volume, degree == volume)]
    if 0 < m.r < m.n:
        hc = result.chow_class.coefficient(hook_complement(m.r, m.n))
        checks.append(("d_hc=beta", hc, result.beta_value, hc == result.beta_value))
    return VolumeVerdict(result, report, degree, volume, checks=tuple(checks))


def report_to_json_dict(report: VolumeReport) -> dict:
    return {
        "dim": report.dim,
        "counts": [str(c) for c in report.counts],
        "ehrhart": [str(c) for c in report.ehrhart],
        "volume": str(report.normalized_volume),
    }
