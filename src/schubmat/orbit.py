"""Schubert coefficients of matroids.

The class of a connected sparse paving matroid agrees with the uniform one
except at the hook complement, where the coefficient drops to the beta
invariant; minimal matroids contribute a single hook-complement cycle;
direct sums fold the factors' classes on the complement side, in the joint
ambient (chow.sc_direct_sum).
Connected matroids outside these families raise UnsupportedMatroid.

The engine does not import the volume oracle: verify_volume_relation, which
checks its classes against the polytope volume, lives in polytope.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb

from .chow import Ambient, ChowClass, sc_direct_sum, sigma
from .errors import (
    BetaMismatch,
    EmptyMatroid,
    InhomogeneousClass,
    NegativeCoefficient,
    NotConnected,
    NotSparsePaving,
    UnsupportedMatroid,
    require_dimensions,
)
from .matroids import Classification, Matroid, _factors, beta, classify
from .partitions import (
    complement_in_rectangle,
    hook_complement,
    partitions_in_rectangle,
    schur_at_ones,
)

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


@lru_cache(maxsize=None, typed=True)
def sc_uniform(r: int, n: int) -> ChowClass:
    """Klyachko's alternating sum for the uniform matroid U_{r,n}, for ints
    1 <= r <= n-1.  The cache is typed, so 2.0 and True miss the entry of 2
    and reach the gate."""
    require_dimensions(r, n, 1)
    ambient = Ambient(r, n)
    weight = (r - 1) * (n - r - 1)
    terms = {}
    for lam in partitions_in_rectangle(ambient.rect, weight):
        comp = complement_in_rectangle(lam, ambient.rect)
        d = sum(
            (-1) ** i * comb(n, i) * schur_at_ones(comp, r - i)
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
    coeff = comb(n - 2, r - 1) - k  # 0 <= r-1 <= n-2: hook_complement checked (r, n)
    independent_beta = beta(m)
    if coeff != independent_beta:
        raise BetaMismatch(coeff, independent_beta)
    uniform_class = sc_uniform(r, n)
    terms = dict(uniform_class.terms)
    terms[hc] = coeff
    return ChowClass._trusted(uniform_class.ambient, terms.items())


def _component_class(comp: Matroid) -> tuple[ChowClass, str]:
    """The class of a connected matroid and the method that gave it."""
    if comp.n == 1:
        return sigma(Ambient(comp.r, 1), ()), METHOD_POINT
    summary = classify(comp)
    if summary.is_sparse_paving:
        return sc_sparse_paving(comp), METHOD_SPARSE_PAVING
    if summary.is_minimal:
        return sc_minimal(comp.r, comp.n), METHOD_MINIMAL
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
    parts, methods = zip(*map(_component_class, comps))
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
        k_used=summary.nonbasis_count if methods == (METHOD_SPARSE_PAVING,) else None,
        beta_value=beta(m),
    )
