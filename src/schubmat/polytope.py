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

Subsets are bitmasks, as in the matroid core.  The flats of a connected
matroid come from its exchange table: the hyperplanes are the sets E - F(S),
and every flat is an intersection of hyperplanes.  Each flat, and each
prefix and suffix of the counter's coordinate order, is ranked by its
largest meet with a basis (`matroids._rank`), so no structure over the 2^n
subsets is built.  Both are derived after the desk-scale check, once per
connected matroid: a sum derives none of its own.

The counter fixes coordinates one at a time in an order read from the
structure, not the labels: the coordinates in more binding flats first
(the label breaks ties).  It is memoized on the frontier: the position, the
running total, and one partial sum per distinct prefix of the flats that
are open there (with coordinates on both sides).  A sum too low for any of
its flats to reach its bound is raised to a common floor.

verify_volume_relation audits the orbit engine against this oracle and
returns a VolumeVerdict.  It imports the engine when it runs, so the
volume oracle alone (`schubmat volume`) loads neither orbit nor chow.
"""

from collections import namedtuple
from itertools import accumulate
from math import factorial, prod
from operator import or_

from .errors import DeskScaleExceeded, NonIntegralVolume, require_count, require_int
from .matroids import Matroid, _bits, _exchange_table, _factors, _memo, _rank, classify

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
def _binding_constraints(m: Matroid) -> list[tuple[int, int]]:
    """(A, rank(A)) for the flats A (as masks, ascending) of a connected m
    with 2 <= |A| and rank(A) < min(|A|, r): every constraint the counter
    needs.

    A set that is not closed, some e outside it keeping the rank, gives way
    to its closure, a tighter constraint.  The hyperplanes are the distinct
    E - F(S) of the exchange table, and every flat is an intersection of
    hyperplanes (E the empty intersection), so the flats are {E} closed
    under intersection with each hyperplane.  Computed once per matroid instance:
    every dilate shares them.
    """
    ground = m._ground()
    flats = {ground}
    for hyperplane in {ground ^ fs for fs in _exchange_table(m).values()}:
        flats |= {a & hyperplane for a in flats}
    ranked = ((a, _rank(m, a)) for a in sorted(flats) if a.bit_count() >= 2)
    return [(a, rk) for a, rk in ranked if rk < min(a.bit_count(), m.r)]


@_memo
def _coordinate_order(m: Matroid) -> tuple[list[int], list[int], list[int]]:
    """Coordinates (single-bit masks) of a connected m, those in more binding
    flats first, the label breaking ties; then the rank of the first i
    coordinates and of the rest of the ground set, for i = 0..n.

    Computed once per matroid instance, like the flats: every dilate scales
    the same ranks by t.
    """
    flats = _binding_constraints(m)
    ground = m._ground()
    order = sorted(_bits(ground), key=lambda e: -sum(1 for s, _ in flats if s & e))
    prefixes = list(accumulate(order, or_, initial=0))
    return order, [_rank(m, p) for p in prefixes], [_rank(m, ground ^ p) for p in prefixes]


def lattice_points(m: Matroid, t: int, limit: int = DESK_SCALE_LIMIT) -> int:
    """Number of lattice points of the t-th dilate of the base polytope; t is
    a non-negative int, and the desk-scale gate reads the whole ground set."""
    require_count(t, "dilation factor")
    _check_scale(m, limit)
    return _count(m, t)


def _count(m: Matroid, t: int) -> int:
    """lattice_points of a checked m and t: the product of the factors'
    counts for a sum, the frontier counter for a connected matroid."""
    if t == 0:
        return 1
    factors = _factors(m)
    if factors:
        return prod(_count(f, t) for _, f in factors)
    target = t * m.r
    constraints = _binding_constraints(m)
    order, prefix_ranks, suffix_ranks = _coordinate_order(m)
    n = m.n
    # prefix/suffix rank bounds in this coordinate order
    pref = [t * rk for rk in prefix_ranks]
    suf = [t * rk for rk in suffix_ranks]
    # flats as masks of positions in the order; a flat is open at i when it
    # has positions before i and at or after i
    pos = {e: i for i, e in enumerate(order)}
    flats = [(sum(1 << pos[e] for e in _bits(s)), t * rk) for s, rk in constraints]
    below = [(1 << i) - 1 for i in range(n + 1)]
    # the state at i carries one partial sum per distinct prefix (positions
    # before i) of the open flats.  A sum so low that no flat with this
    # prefix can reach its bound, even with its later coordinates at t,
    # counts the same as any other such sum, so it is raised to the
    # highest of them, the prefix's floor, and those states share a key
    floors: list[dict[int, int]] = []
    for i in range(n + 1):
        at: dict[int, int] = {}
        for f, bound in flats:
            prefix = f & below[i]
            if prefix and f >> i:
                floor = bound - t * (f >> i).bit_count()
                at[prefix] = min(at.get(prefix, floor), floor)
        floors.append(at)
    index = [{prefix: k for k, prefix in enumerate(at)} for at in floors]
    # moving past i, each prefix open at i + 1 extends one open at i (index
    # -1 reads the 0 appended to the sums: a flat that starts at i) and adds
    # y[i] when it holds i
    steps = [
        [(index[i].get(prefix & below[i], -1), prefix >> i & 1, floor)
         for prefix, floor in floors[i + 1].items()]
        for i in range(n)
    ]
    # a flat holding i, with positions before it, bounds y[i] by its bound
    # less its partial sum; at the flat's last position this is its check
    bounds = [
        [(index[i][f & below[i]], bound) for f, bound in flats if f >> i & 1 and f & below[i]]
        for i in range(n)
    ]
    memo: dict[tuple[int, int, tuple[int, ...]], int] = {}

    def count_from(i: int, total: int, sums: tuple[int, ...]) -> int:
        if i == n:
            return 1 if total == target else 0
        key = (i, total, sums)
        cached = memo.get(key)
        if cached is not None:
            return cached
        lo = max(0, target - total - suf[i + 1])
        hi = min(t, pref[i + 1] - total, target - total)
        for k, bound in bounds[i]:
            hi = min(hi, bound - sums[k])
        carried = sums + (0,)
        step = steps[i]
        result = 0
        for v in range(lo, hi + 1):
            result += count_from(
                i + 1, total + v, tuple(max(carried[k] + v * held, floor) for k, held, floor in step)
            )
        memo[key] = result
        return result

    return count_from(0, 0, ())


def _interpolate(counts: tuple[int, ...]) -> tuple:
    """Fraction coefficients, in ascending degree, of the polynomial through
    (t, counts[t]).

    Newton's form at t = 0, 1, ..., d, expanded by Horner's rule: p = a_d,
    then p = p * (t - k) + a_k for k = d-1, ..., 0, where a_k is the k-th
    forward difference of the counts at 0 over k!.
    """
    from fractions import Fraction  # imported on use, not with the package

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
    The scale is checked once; every dilate is then counted directly.
    """
    _check_scale(m, limit)
    dim = m.n - classify(m).kappa
    counts = tuple(_count(m, t) for t in range(dim + 1))
    coeffs = _interpolate(counts)
    check_t = dim + 1
    predicted = sum(c * check_t**k for k, c in enumerate(coeffs))
    actual = _count(m, check_t)
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
