"""Partition and Chow-ring helpers that only the tests use.

The jumping sequence of a partition in a rectangle and the degree pairing
of a Chow class, built on the library's partition primitives.
"""

from schubmat.chow import ChowClass
from schubmat.errors import DoesNotFit
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
