"""Partition and Chow-ring helpers that only the tests use.

The jumping sequence of a partition in a rectangle, the degree pairing of
a Chow class, and the box-shift embedding that direct sums were folded by
before the library folded them on the complement side (the oracle for that
older path), built on the library's partition primitives.
"""

from schubmat.chow import Ambient, ChowClass
from schubmat.errors import AmbientMismatch, DoesNotFit
from schubmat.partitions import Partition, Rectangle, fits, normalize, padded


def jumping_sequence(lam: Partition, rect: Rectangle) -> tuple[int, ...]:
    """The strictly increasing sequence j_i = (n-r) + i - lam_i, values in [1, n]."""
    rows, cols = rect
    if not fits(lam, rect):
        raise DoesNotFit(f"{lam} does not fit in {rows}x{cols}")
    full = padded(lam, rows)
    return tuple(cols + i + 1 - full[i] for i in range(rows))


def degree_pairing(c: ChowClass, lam) -> int:
    """deg(c * sigma_{lam^c}); by complementary dimension this is the coefficient of sigma_lam."""
    lam = normalize(lam)
    if not fits(lam, c.ambient.rect):
        raise DoesNotFit(f"{lam} does not fit in G({c.ambient.r},{c.ambient.n})")
    return c.coefficient(lam)


def box_shift(c: ChowClass, target: Ambient, shift: int) -> ChowClass:
    """Embed c into the larger ambient by prepending a (c.r x shift) rectangle to each term.

    Each sigma_mu becomes sigma over (shift+mu_1, ..., shift+mu_r) with mu
    zero-padded to the source rank; coefficients are unchanged.  The product
    of a box-shifted into G(r1 + r2, n1 + n2) by n2 - r2 and b by n1 - r1 is
    the class of the direct sum.
    """
    src = c.ambient
    if shift < 0 or src.r > target.r or src.n > target.n:
        raise AmbientMismatch(
            f"cannot box-shift from G({src.r},{src.n}) into G({target.r},{target.n})"
        )
    terms: dict[Partition, int] = {}
    for mu, coeff in c.terms.items():
        shifted = normalize(tuple(shift + p for p in padded(mu, src.r)))
        if not fits(shifted, target.rect):
            raise DoesNotFit(f"shifted {shifted} exceeds {target.rect}")
        terms[shifted] = terms.get(shifted, 0) + coeff
    return ChowClass(target, terms)
