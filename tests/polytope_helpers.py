"""Base-polytope helpers that only the tests use.

The vertex set of a base polytope, with its affine-dimension check, built
on the matroid core.  The library's volume oracle counts lattice points and
never lists the vertices.
"""

from schubmat.errors import SchubmatError
from schubmat.matroids import Matroid, classify, matrix_rank


class WrongAffineDimension(SchubmatError):
    """A base polytope's affine dimension is not n - kappa."""

    def __init__(self, dim, expected):
        self.dim, self.expected = dim, expected
        super().__init__(f"affine dimension {dim} != n - kappa = {expected}")


def polytope_vertices(m: Matroid) -> frozenset:
    """Indicator vectors of the bases; affine dimension is checked to be n - kappa."""
    vertices = frozenset(tuple(b >> i & 1 for i in range(m.n)) for b in m._masks)
    first = next(iter(vertices))
    diffs = [[a - b for a, b in zip(v, first)] for v in vertices if v != first]
    dim = matrix_rank(diffs) if diffs else 0
    expected = m.n - classify(m).kappa
    if dim != expected:
        raise WrongAffineDimension(dim, expected)
    return vertices
