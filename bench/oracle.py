"""Expected values for benchmark outputs, computed without schubmat.

Every check here uses closed forms or plain counting, so a wrong result
from the library cannot agree with itself by accident:

- the sigma_1-power degree of a class is sum(c_lam * f^(lam^c)), with f the
  hook-length count of standard tableaux of the complement in the
  r x (n-r) rectangle (the Pieri rule read off as lattice paths);
- a connected sparse paving matroid with k nonbases has degree
  A(n-1, r-1) - k*C(n-2, r-1), with A the Eulerian numbers (k = 0 for a
  uniform matroid), and its hook-complement coefficient is C(n-2, r-1) - k;
- a minimal matroid has the single cycle at the hook complement, degree
  C(n-2, r-1);
- a direct sum has degree multinomial(n - kappa; n_i - 1) * prod(deg_i);
- deg(a * b * sigma_1^s) = sum a_mu b_nu f^(mu^c / nu), counting skew
  standard tableaux, which needs no Littlewood-Richardson coefficient.

Classes are plain dicts {partition tuple: int}.
"""

from functools import lru_cache
from math import comb, factorial, prod


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """A(n, k): permutations of [n] with exactly k descents."""
    if n == 0:
        return 1 if k == 0 else 0
    if k < 0 or k >= n:
        return 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


def sparse_paving_degree(r: int, n: int, k: int = 0) -> int:
    return eulerian(n - 1, r - 1) - k * comb(n - 2, r - 1)


def minimal_degree(r: int, n: int) -> int:
    return comb(n - 2, r - 1)


def hook_complement(r: int, n: int) -> tuple:
    """The (r-1) x (n-r-1) rectangle, as a partition."""
    return (n - r - 1,) * (r - 1) if n - r - 1 > 0 else ()


def direct_sum_degree(parts) -> int:
    """parts: (n_i, deg_i) per connected component."""
    dims = [n - 1 for n, _ in parts]
    multinomial = factorial(sum(dims)) // prod(factorial(d) for d in dims)
    return multinomial * prod(d for _, d in parts)


def complement(lam: tuple, r: int, n: int) -> tuple:
    full = lam + (0,) * (r - len(lam))
    out = tuple((n - r) - p for p in reversed(full))
    return tuple(p for p in out if p)


@lru_cache(maxsize=None)
def syt(lam: tuple) -> int:
    """Standard Young tableaux of shape lam, by the hook-length formula."""
    cells = sum(lam)
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(cells) // hooks


@lru_cache(maxsize=None)
def skew_syt(outer: tuple, inner: tuple) -> int:
    """Standard tableaux of skew shape outer/inner (0 unless inner fits in outer)."""
    if len(inner) > len(outer) or any(inner[i] > outer[i] for i in range(len(inner))):
        return 0
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, row in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        floor = inner[i] if i < len(inner) else 0
        if row > below and row > floor:  # removable corner outside inner
            shorter = outer[:i] + (row - 1,) + outer[i + 1:]
            total += skew_syt(tuple(p for p in shorter if p), inner)
    return total


def class_degree(terms: dict, r: int, n: int) -> int:
    """deg(c * sigma_1^s) for a homogeneous class c of G(r, n)."""
    return sum(c * syt(complement(lam, r, n)) for lam, c in terms.items())


def product_degree(a: dict, b: dict, r: int, n: int) -> int:
    """deg(a * b * sigma_1^s) in G(r, n) without multiplying a and b."""
    return sum(
        ca * cb * skew_syt(complement(mu, r, n), nu)
        for mu, ca in a.items()
        for nu, cb in b.items()
    )


def class_problems(terms: dict, r: int, n: int, weight: int) -> list:
    """Shape checks every returned class must pass: integers >= 0, one weight, in the box."""
    problems = []
    for lam, c in terms.items():
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            problems.append(f"coefficient {c!r} at {lam} is not a non-negative integer")
        if sum(lam) != weight:
            problems.append(f"term {lam} has weight {sum(lam)}, expected {weight}")
        if len(lam) > r or (lam and lam[0] > n - r):
            problems.append(f"term {lam} leaves the {r} x {n - r} box")
    return problems
