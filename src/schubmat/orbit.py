"""Schubert coefficients of matroids.

The class of a connected sparse paving matroid agrees with the uniform one
except at the hook complement, where the coefficient drops to the beta
invariant; minimal matroids contribute a single hook-complement cycle;
direct sums fold the factors' classes on the complement side, in the joint
ambient.
Connected matroids outside these families raise UnsupportedMatroid.
"""

from collections import namedtuple
from functools import lru_cache

from .chow import Ambient, ChowClass, fold, sigma, sigma1_power_degree
from .errors import (
    BetaMismatch,
    EmptyMatroid,
    InhomogeneousClass,
    InvalidDimensions,
    NegativeCoefficient,
    NotConnected,
    NotSparsePaving,
    UnsupportedMatroid,
)
from .matroids import Classification, Matroid, _factors, beta, classify
from .partitions import (
    binomial,
    complement_in_rectangle,
    hook_complement,
    partitions_in_rectangle,
    schur_at_ones,
)
from .polytope import DESK_SCALE_LIMIT, VolumeReport, ehrhart_report

METHOD_MINIMAL = "Minimal-Lemma"
METHOD_SPARSE_PAVING = "SparsePaving-Theorem1"
METHOD_POINT = "Degenerate-Point"


class ScResult(namedtuple("ScResult", [
    "matroid_summary",  # Classification
    "chow_class",  # ChowClass
    "methods",  # tuple[str, ...]: one per connected component, ground-set order
    "k_used",  # int | None: subdivision facet count, connected sparse paving only
    "beta_value",  # int
])):
    """A computed orbit class together with how each component was handled."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        data = self.chow_class.to_json_dict()
        data["method"] = list(self.methods)
        data["kappa"] = self.matroid_summary.kappa
        data["k"] = self.k_used
        data["beta"] = str(self.beta_value)
        return data


@lru_cache(maxsize=None)
def sc_uniform(r: int, n: int) -> ChowClass:
    """Klyachko's alternating sum for the uniform matroid U_{r,n}."""
    if r < 1 or r >= n:
        raise InvalidDimensions(f"need 1 <= r <= n-1, got r={r}, n={n}")
    ambient = Ambient(r, n)
    weight = (r - 1) * (n - r - 1)
    terms = {}
    for lam in partitions_in_rectangle(ambient.rect, weight):
        comp = complement_in_rectangle(lam, ambient.rect)
        d = sum(
            (-1) ** i * binomial(n, i) * schur_at_ones(comp, r - i)
            for i in range(r + 1)
        )
        if d < 0:
            raise NegativeCoefficient(lam, d)
        if d:
            terms[lam] = d
    return ChowClass(ambient, terms)


def sc_minimal(r: int, n: int) -> ChowClass:
    """The minimal matroid T_{r,n} contributes the single cycle at the hook complement."""
    hc = hook_complement(r, n)  # InvalidDimensions unless 1 <= r <= n-1
    return sigma(Ambient(r, n), hc)


def sc_sparse_paving(m: Matroid) -> ChowClass:
    """Uniform coefficients with the hook-complement one replaced by beta(M)."""
    summary = classify(m)
    if summary.kappa != 1:
        raise NotConnected(f"kappa = {summary.kappa}")
    if not summary.is_sparse_paving:
        raise NotSparsePaving(f"{m!r} is not sparse paving")
    r, n = m.r, m.n
    k = summary.nonbasis_count
    hc = hook_complement(r, n)
    coeff = binomial(n - 2, r - 1) - k
    independent_beta = beta(m)
    if coeff != independent_beta:
        raise BetaMismatch(coeff, independent_beta)
    if coeff < 0:
        raise NegativeCoefficient(hc, coeff)
    uniform_class = sc_uniform(r, n)
    terms = dict(uniform_class.terms)
    terms[hc] = coeff
    return ChowClass._trusted(uniform_class.ambient, terms)


def sc_direct_sum(parts: list[ChowClass]) -> ChowClass:
    """Fold the classes of direct summands, left to right, into the joint
    ambient (chow.fold: the paper's direct-sum formula on the complement side)."""
    if not parts:
        raise EmptyMatroid("a direct sum needs at least one part")
    acc = parts[0]
    for nxt in parts[1:]:
        acc = fold(acc, nxt)
    return acc


def _component_class(comp: Matroid) -> tuple[ChowClass, str, int | None]:
    if comp.n == 1:
        return sigma(Ambient(comp.r, 1), ()), METHOD_POINT, None
    summary = classify(comp)
    if summary.is_sparse_paving and summary.kappa == 1:
        return sc_sparse_paving(comp), METHOD_SPARSE_PAVING, summary.nonbasis_count
    if summary.is_minimal:
        return sc_minimal(comp.r, comp.n), METHOD_MINIMAL, None
    raise UnsupportedMatroid(
        comp,
        f"connected component on {comp.n} elements of rank {comp.r} is neither "
        "sparse paving nor minimal; no formula is implemented",
    )


def sc(m: Matroid) -> ScResult:
    """Orbit class of an arbitrary supported matroid, by connected components."""
    if m.n == 0:
        raise EmptyMatroid("the empty matroid has no connected component")
    summary = classify(m)
    comps = [f for _, f in _factors(m)] or [m]
    parts, methods, ks = zip(*map(_component_class, comps))
    combined = sc_direct_sum(list(parts))
    # homogeneity: every term has size r(n-r) - (n - kappa)
    expected = m.r * (m.n - m.r) - (m.n - summary.kappa)
    for lam in combined.terms:
        if sum(lam) != expected:
            raise InhomogeneousClass(lam, expected)
    return ScResult(
        matroid_summary=summary,
        chow_class=combined,
        methods=methods,
        k_used=ks[0] if summary.kappa == 1 else None,
        beta_value=beta(m),
    )


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
        """The degree=volume check."""
        return self.degree == self.volume


def verify_volume_relation(m: Matroid, limit: int = DESK_SCALE_LIMIT) -> VolumeVerdict:
    """Both checks on the class of m, with s = n - kappa; both sides exact."""
    result = sc(m)
    degree = sigma1_power_degree(result.chow_class, m.n - result.matroid_summary.kappa)
    report = ehrhart_report(m, limit)
    volume = report.normalized_volume
    checks = [("degree=volume", degree, volume, degree == volume)]
    if 0 < m.r < m.n:
        hc = result.chow_class.coefficient(hook_complement(m.r, m.n))
        checks.append(("d_hc=beta", hc, result.beta_value, hc == result.beta_value))
    return VolumeVerdict(result, report, degree, volume, checks=tuple(checks))
