"""Tableau-enumeration reference for Littlewood-Richardson coefficients.

The library generates, for each pair (mu, nu), only the LR tableaux that
exist, one horizontal strip per label.  This is the direct definition it
replaced: for one triple (mu, nu, lam), fill the cells of lam/mu one by one
in reverse reading order and count the fillings that are semistandard with
content nu and whose reverse reading word is a lattice word.  Partitions
are tuples without trailing zeros; nothing from schubmat is used.
"""


def _strip(parts):
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def lr_coefficient(mu, nu, lam) -> int:
    """c^lam_{mu,nu}: LR tableaux of shape lam/mu and content nu."""
    mu, nu, lam = _strip(mu), _strip(nu), _strip(lam)
    if sum(mu) + sum(nu) != sum(lam) or len(mu) > len(lam):
        return 0
    if any(m > l for m, l in zip(mu, lam)):
        return 0
    if not nu:
        return 1
    rows = len(lam)
    mu_full = mu + (0,) * (rows - len(mu))
    # cells in reverse reading order
    cells = [(i, j) for i in range(rows) for j in range(lam[i] - 1, mu_full[i] - 1, -1)]
    k = len(nu)
    counts = [0] * (k + 1)  # counts[v] = multiplicity of v placed so far
    entry = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo, hi = 1, k
        if j + 1 < lam[i] and (i, j + 1) in entry:  # right neighbour, row weak
            hi = min(hi, entry[(i, j + 1)])
        if i > 0 and j >= mu_full[i - 1]:  # cell above, column strict
            lo = max(lo, entry[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # lattice condition
            counts[v] += 1
            entry[(i, j)] = v
            total += place(idx + 1)
            del entry[(i, j)]
            counts[v] -= 1
        return total

    return place(0)


def partitions_in_rectangle(rows, cols, weight):
    """Every partition of `weight` with at most `rows` parts, each at most `cols`."""

    def gen(rows_left, max_part, budget):
        if budget == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(max_part, budget), 0, -1):
            for rest in gen(rows_left - 1, first, budget - first):
                yield (first,) + rest

    return list(gen(rows, cols, weight))


def product_terms(a_terms, b_terms, rows, cols):
    """The truncated product of two {partition: coeff} maps in the rows x cols
    rectangle, one oracle coefficient per (mu, nu, lam) triple."""
    terms = {}
    for mu, ca in a_terms.items():
        for nu, cb in b_terms.items():
            for lam in partitions_in_rectangle(rows, cols, sum(mu) + sum(nu)):
                c = lr_coefficient(mu, nu, lam)
                if c:
                    terms[lam] = terms.get(lam, 0) + ca * cb * c
    return {lam: c for lam, c in terms.items() if c}
