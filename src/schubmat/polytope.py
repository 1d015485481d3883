"""Exact volume oracle for matroid base polytopes via Ehrhart interpolation.

The base polytope is the convex hull of the basis indicator vectors; a point
y of the t-th dilate is an integer vector with sum(y) = t*r and
sum(y[A]) <= t*rank(A) for every subset A.  Only flat constraints with
rank < |A| can bind, and a flat meeting several connected components adds
nothing to those of its parts, so the counter checks the flats inside one
component (read from the shared `classify` result) and caps each coordinate
at t*rank(e).

Subsets are bitmasks, as in the matroid core.  The core's `rank_table`
holds the rank of every subset; it has 2^n entries, so it is read only
after the desk-scale check.  The flats, the loops and the counter's rank
bounds read it.

The counter fixes coordinates one at a time in an order read from the
structure, not the labels: component by component, and inside one, the
coordinates in more binding flats first (the label breaks ties).  It is
memoized on the frontier: the position, the running total, and one partial
sum per distinct prefix of the flats that are open there (with coordinates
on both sides).  A sum too low for any of its flats to reach its bound is
raised to a common floor.  A direct sum so costs about as much as its
components, and relabelling the ground set no longer changes the time by
orders of magnitude.
"""

from collections import namedtuple
from itertools import accumulate
from math import factorial
from operator import or_

from .errors import DeskScaleExceeded, NonIntegralVolume
from .matroids import Matroid, _bits, _mask, _memo, classify, rank_table

DESK_SCALE_LIMIT = 8


class VolumeReport(namedtuple("VolumeReport", [
    "dim",  # int
    "counts",  # tuple[int, ...]
    "ehrhart",  # tuple[Fraction, ...]: coefficients, ascending degree
    "normalized_volume",  # int
])):
    """Ehrhart data for a base polytope and the resulting normalized volume."""

    __slots__ = ()


def _check_scale(m: Matroid, limit: int) -> None:
    if m.n > limit:
        raise DeskScaleExceeded(f"n={m.n} exceeds the desk-scale limit {limit}")


@_memo
def _binding_constraints(m: Matroid) -> list[tuple[int, int]]:
    """Flats A (as masks) of one connected component C, closed in C, with
    2 <= |A| and rank(A) < min(|A|, r).

    These are all the constraints the counter needs.  A flat meeting several
    components is the union of its parts A & C (and the loops), and its rank
    is the sum of theirs; each part's constraint is kept here, is a cap
    y_e <= t*rank(e), is implied by the caps (rank(A & C) = |A & C|), or,
    when rank(A & C) = r, follows from sum(y) = t*r.
    Computed once per matroid instance: every dilate shares them.
    """
    rank = rank_table(m)
    out = []
    for part in classify(m).components:
        comp = _mask(part)
        bits = _bits(comp)
        s = comp
        while s:  # every non-empty subset of the component, as a submask
            # a set is not closed in C when some e of C outside it keeps
            # the rank; its closure then gives a tighter constraint
            if (2 <= s.bit_count() and rank[s] < min(s.bit_count(), m.r)
                    and all(rank[s | e] > rank[s] for e in bits if not s & e)):
                out.append((s, rank[s]))
            s = (s - 1) & comp
    return out


@_memo
def _coordinate_order(m: Matroid) -> list[int]:
    """Coordinates (single-bit masks), component by component; inside one,
    those in more binding flats come first and the label breaks ties.

    Computed once per matroid instance, like the flats.
    """
    flats = _binding_constraints(m)
    return [
        e
        for part in classify(m).components
        for e in sorted(_bits(_mask(part)), key=lambda e: -sum(1 for s, _ in flats if s & e))
    ]


def lattice_points(m: Matroid, t: int, limit: int = DESK_SCALE_LIMIT) -> int:
    """Number of lattice points of the t-th dilate of the base polytope."""
    _check_scale(m, limit)
    if t == 0:
        return 1
    rank = rank_table(m)
    target = t * m.r
    constraints = _binding_constraints(m)
    order = _coordinate_order(m)
    n = m.n
    caps = [t if rank[e] else 0 for e in order]  # a loop has rank 0
    # prefix/suffix rank bounds in this coordinate order
    ground = m._ground()
    prefixes = list(accumulate(order, or_, initial=0))
    pref = [t * rank[p] for p in prefixes]
    suf = [t * rank[ground ^ p] for p in prefixes]
    # flats as masks of positions in the order; a flat is open at i when it
    # has positions before i and at or after i
    pos = {e: i for i, e in enumerate(order)}
    flats = [(sum(1 << pos[e] for e in _bits(s)), t * rk) for s, rk in constraints]
    below = [(1 << i) - 1 for i in range(n + 1)]
    # the state at i carries one partial sum per distinct prefix (positions
    # before i) of the open flats.  A sum so low that no flat with this
    # prefix can reach its bound, even with its later coordinates at their
    # caps, counts the same as any other such sum, so it is raised to the
    # highest of them, the prefix's floor, and those states share a key
    floors: list[dict[int, int]] = []
    for i in range(n + 1):
        at: dict[int, int] = {}
        for f, bound in flats:
            prefix = f & below[i]
            if prefix and f >> i:
                floor = bound - sum(caps[j] for j in range(i, n) if f >> j & 1)
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
        hi = min(caps[i], pref[i + 1] - total, target - total)
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
