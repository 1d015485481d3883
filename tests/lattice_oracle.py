"""The earlier lattice-point counter, kept as an auditing oracle.

It reads only n, r and the bases of a matroid and uses nothing from
schubmat.  Subsets are bitmasks (element e is bit e - 1).  The binding
constraints are the flats A of the whole matroid with 2 <= |A| < n and
rank(A) < min(|A|, r); the coordinates in some flat come first, in
ascending label, then the rest, and only the free tail is memoized.  Its
time depends on the labelling, so keep n small.
"""

from functools import reduce
from itertools import accumulate
from operator import or_


def _bits(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def rank_table(m):
    masks = [sum(1 << (e - 1) for e in b) for b in m.bases]
    return [max((s & b).bit_count() for b in masks) for s in range(1 << m.n)]


def binding_flats(m, rank):
    ground = (1 << m.n) - 1
    bits = _bits(ground)
    return [
        (s, rank[s]) for s in range(1, ground)
        if 2 <= s.bit_count() and rank[s] < min(s.bit_count(), m.r)
        and all(rank[s | e] > rank[s] for e in bits if not s & e)
    ]


def lattice_points(m, t):
    """Number of lattice points of the t-th dilate of the base polytope of m."""
    if t == 0:
        return 1
    rank = rank_table(m)
    target = t * m.r
    constraints = binding_flats(m, rank)
    ground = (1 << m.n) - 1
    constrained = reduce(or_, (s for s, _ in constraints), 0)
    order = _bits(constrained) + _bits(ground & ~constrained)
    pos = {e: i for i, e in enumerate(order)}
    caps = [t if rank[e] else 0 for e in order]
    by_last = {}
    for s, rk in constraints:
        positions = tuple(sorted(pos[e] for e in _bits(s)))
        by_last.setdefault(positions[-1], []).append((positions, t * rk))
    n = m.n
    prefixes = list(accumulate(order, or_, initial=0))
    pref = [t * rank[p] for p in prefixes]
    suf = [t * rank[ground ^ p] for p in prefixes]
    free_from = (max(by_last) + 1) if by_last else 0
    y = [0] * n
    memo = {}

    def count_from(i, total):
        if i == n:
            return 1 if total == target else 0
        if i >= free_from and (i, total) in memo:
            return memo[(i, total)]
        lo = max(0, target - total - suf[i + 1])
        hi = min(caps[i], pref[i + 1] - total, target - total)
        for positions, bound in by_last.get(i, ()):
            hi = min(hi, bound - sum(y[p] for p in positions[:-1]))
        result = 0
        for v in range(lo, hi + 1):
            y[i] = v
            result += count_from(i + 1, total + v)
        y[i] = 0
        if i >= free_from:
            memo[(i, total)] = result
        return result

    return count_from(0, 0)
