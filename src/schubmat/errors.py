"""Exception hierarchy shared by all schubmat modules."""


class SchubmatError(Exception):
    """Base class for all domain errors raised by this package."""


# partition / ambient errors

class DoesNotFit(SchubmatError):
    """A partition does not fit inside the given rectangle."""


class InvalidDimensions(SchubmatError):
    """Rank/ground-set dimensions outside the valid range (of a matroid or
    of an `Ambient`), or a negative count: a degree given to `pieri` or
    `sigma1_power_degree`, a side of a rectangle, a ground-set size given to
    `schubert_matroid`, a row count given to `from_rational_matrix`, a
    variable count given to `schur_at_ones` or a dilation factor given to
    `lattice_points`."""


class AmbientMismatch(SchubmatError):
    """Two Chow classes live in different ambients."""


# matroid construction errors

class EmptyBases(SchubmatError):
    """A matroid must have at least one basis."""


class WrongBasisSize(SchubmatError):
    """A listed basis is not a set of exactly r elements: it has too few or
    too many, or it repeats an element."""


class ElementOutOfRange(SchubmatError):
    """A basis element, a Schubert index or an element given to `minor`,
    `restriction`, `rank_of` or `is_independent` lies outside the ground set
    [n], or a Schubert index set repeats an index."""


class NotAnInteger(SchubmatError):
    """A ground-set size, rank, basis element, family parameter, Schubert
    index, element of a subset given to a matroid method or `minor`,
    partition part, variable count of `schur_at_ones`, weight given to
    `partitions_in_rectangle`, side of a rectangle, Chow-class coefficient,
    Chow-kernel degree, dilation factor given to `lattice_points` or
    desk-scale limit is not an int.

    Bools, floats and numeric strings are rejected, never coerced.
    """


def require_int(value, what: str) -> None:
    """Raise NotAnInteger unless value is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise NotAnInteger(f"{what} {value!r} is not an int")


def require_count(value, what: str) -> None:
    """Raise NotAnInteger unless value is an int, then InvalidDimensions if
    it is negative."""
    require_int(value, what)
    if value < 0:
        raise InvalidDimensions(f"{what} {value} is negative")


def require_dimensions(r, n, low: int = 0) -> None:
    """The one gate for the rank r and ground-set size n of G(r, n) or of a
    matroid: NotAnInteger for r, then for n, then InvalidDimensions unless
    low <= r <= n - low (low is 0, or 1 where the hook must exist)."""
    require_int(r, "rank")
    require_int(n, "ground-set size")
    if not low <= r <= n - low:
        top = f"n-{low}" if low else "n"
        raise InvalidDimensions(f"need {low} <= r <= {top}, got r={r}, n={n}")


class WrongShape(SchubmatError):
    """An input has the wrong JSON type or shape: not an object or list where
    one belongs, a matrix with no rows, ragged rows or the wrong cols, a
    matrix entry that is neither an int nor a "p/q" string, or a Chow-class
    ambient that is not an `Ambient`."""


def require_type(value, kind: type, what: str) -> None:
    """Raise WrongShape unless value is a `kind` (dict, list or Ambient)."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise WrongShape(f"{what} must be {article} {kind.__name__}, not {type(value).__name__}")


class MalformedBasis(SchubmatError):
    """The basis list, or one basis in it, is not a collection of elements."""


class ExchangeAxiomViolated(SchubmatError):
    """The basis-exchange axiom fails; carries a witness pair."""

    def __init__(self, b1, b2, x):
        self.b1, self.b2, self.x = b1, b2, x
        super().__init__(
            f"no exchange for x={x} between bases {sorted(b1)} and {sorted(b2)}"
        )


class BadStepString(SchubmatError):
    """Lattice path string is not over {N,E} or has inconsistent counts."""


class PathsCross(SchubmatError):
    """Upper lattice path dips below the lower one: the i-th north step of
    the lower path comes before the i-th north step of the upper one
    (q_i < p_i) for some i."""


class RankDeficient(SchubmatError):
    """A realization matrix has rank smaller than the requested rank."""


class OverlappingSets(SchubmatError):
    """Deletion and contraction sets overlap."""


class DependentContraction(SchubmatError):
    """The contraction set is dependent."""


# orbit-class errors

class EmptyMatroid(SchubmatError):
    """The matroid on the empty ground set has no connected component, so no
    orbit class is defined for it; the same holds for a direct sum of no parts."""


class NotSparsePaving(SchubmatError):
    """Input matroid is not sparse paving."""


class NotConnected(SchubmatError):
    """Input matroid is not connected."""


class UnsupportedMatroid(SchubmatError):
    """A connected component is neither sparse paving nor minimal.

    No formula is implemented for such matroids; carries the offending
    component so callers can inspect it.
    """

    def __init__(self, component, message="no formula for this connected component"):
        self.component = component
        super().__init__(message)


# invariant checks: raised rather than asserted, so they survive python -O

class NegativeCoefficient(SchubmatError):
    """A Schubert coefficient that must be non-negative came out negative."""

    def __init__(self, partition, value):
        self.partition, self.value = partition, value
        super().__init__(f"negative coefficient {value} at {partition}")


class BetaMismatch(SchubmatError):
    """The subdivision count binom(n-2, r-1) - k disagrees with beta(M)."""

    def __init__(self, subdivision_count, beta_value):
        self.subdivision_count, self.beta_value = subdivision_count, beta_value
        super().__init__(
            f"subdivision count {subdivision_count} != beta {beta_value}"
        )


class InhomogeneousClass(SchubmatError):
    """An orbit class has a term outside the expected degree."""

    def __init__(self, partition, expected_size):
        self.partition, self.expected_size = partition, expected_size
        super().__init__(f"term {partition} does not have size {expected_size}")


class NonIntegralCount(SchubmatError):
    """A tableau count computed by a product formula is not an integer."""

    def __init__(self, shape, value):
        self.shape, self.value = shape, value
        super().__init__(f"count {value} for shape {shape} is not an integer")


# polytope errors

class DeskScaleExceeded(SchubmatError):
    """Ground set too large for the enumeration-based volume oracle."""


class NonIntegralVolume(SchubmatError):
    """Internal consistency failure in the Ehrhart interpolation."""
