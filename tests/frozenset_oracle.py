"""Frozenset reference implementations of the matroid layer's checks.

The library stores bases as bitmasks and reads exchange validity,
components and paving off one table of hyperplanes.  These are the direct
definitions that the table replaced: all pairs of bases for the exchange
axiom, components from the circuits of M and M*, paving from circuit sizes,
and beta from Crapo's subset sum; `hyperplanes` builds the table's
contents from its definition.  They take (n, r, bases) with bases as
element tuples and use nothing from schubmat.
"""

from itertools import combinations


def _sets(bases):
    return [frozenset(b) for b in sorted({tuple(sorted(b)) for b in bases})]


def exchange_witness(bases):
    """The first (b1, b2, x) with no y in b2 - b1 making b1 - x + y a basis, or None."""
    sets = _sets(bases)
    lookup = set(sets)
    for b1 in sets:
        for b2 in sets:
            for x in b1 - b2:
                if not any(b1 - {x} | {y} in lookup for y in b2 - b1):
                    return b1, b2, x
    return None


def hyperplanes(n, r, bases):
    """{S: E - F(S)} for every (r-1)-set S inside a member, F(S) = {e : S + e is a member}."""
    sets = _sets(bases)
    ground = frozenset(range(1, n + 1))
    out = {}
    for s in {b - {x} for b in sets for x in b}:
        out[s] = ground - {e for e in ground - s if s | {e} in sets}
    return out


def rank(bases, subset) -> int:
    s = frozenset(subset)
    return max(len(s & b) for b in _sets(bases))


def circuits(n, r, bases) -> frozenset:
    """Minimal dependent sets by enumerating subsets of size at most r + 1."""
    sets = _sets(bases)
    found = []
    for k in range(1, r + 2):
        for subset in combinations(range(1, n + 1), k):
            s = frozenset(subset)
            if any(s <= b for b in sets) or any(c <= s for c in found):
                continue
            if all(any(s - {e} <= b for b in sets) for e in s):
                found.append(s)
    return frozenset(found)


def dual_bases(n, bases):
    ground = frozenset(range(1, n + 1))
    return [tuple(sorted(ground - b)) for b in _sets(bases)]


def connected_components(n, r, bases):
    """Partition of [n]: i ~ j iff some circuit of M or M* contains both."""
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for c in circuits(n, r, bases) | circuits(n, n - r, dual_bases(n, bases)):
        elems = sorted(c)
        for e in elems[1:]:
            parent[find(e)] = find(elems[0])
    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return tuple(sorted(tuple(g) for g in groups.values()))


def is_paving(n, r, bases) -> bool:
    return all(len(c) >= r for c in circuits(n, r, bases))


def is_sparse_paving(n, r, bases) -> bool:
    return is_paving(n, r, bases) and is_paving(n, n - r, dual_bases(n, bases))


def beta(n, r, bases) -> int:
    """Crapo's definition: (-1)^r * sum over X of (-1)^|X| rank(X)."""
    total = sum(
        (-1) ** k * rank(bases, subset)
        for k in range(n + 1)
        for subset in combinations(range(1, n + 1), k)
    )
    return (-1) ** r * total
