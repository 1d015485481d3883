"""Schubert coefficients of matroids.

`sc` reads a matroid by its connected components: the factors the matroid
layer split off and keeps, or the matroid itself.  One ordered table,
`_FORMULAS`, of (test, profile, formula, method) gives each component its
class: the first entry whose test holds reads the component's profile, the
facts its class depends on, and its formula builds the class from them.
In order:
- a point (a loop or a coloop), profile r: the class 1 in G(r, 1);
- a sparse paving matroid, profile (r, n, k) with k its non-bases: the
  uniform class Sc(U_{r,n}) with the hook-complement coefficient dropped
  to the beta invariant C(n-2, r-1) - k;
- a minimal matroid, profile (r, n): the single hook-complement cycle.
A connected component that no entry takes raises UnsupportedMatroid.  A
direct sum folds its components' classes on the complement side, in the
joint ambient (chow.sc_direct_sum).

So a class depends only on its components' profiles, in any order: the
fold gives one class for every order of the parts.  `_profile_class`
builds the class of each distinct multiset of profiles once for the life
of the process, keyed by the profiles sorted: it folds the formulas'
classes and checks that the class is homogeneous, every term of size
r(n-r) - (n - kappa).  The checks that read the matroid run on every
call, before that cache is read: a sparse paving component is connected
(NotConnected) and sparse paving (NotSparsePaving), and C(n-2, r-1) - k
equals its beta from the activity count (BetaMismatch).  A cached class
is shared by every caller, who only reads it.

The engine does not import the volume oracle: verify_volume_relation, which
checks its classes against the polytope volume, lives in polytope.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, prod
from operator import itemgetter

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
    _complements,
    _hook_lengths,
    _schur_at_ones,
    hook_complement,
    partitions_in_rectangle,
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
    and reach the gate.  Each complement's hook product is taken once, and
    s(1^k) = 0 below its number of rows is not summed."""
    require_dimensions(r, n, 1)
    ambient = Ambient(r, n)
    rect = ambient.rect
    complements, terms = _complements[rect], {}
    for lam in partitions_in_rectangle(rect, (r - 1) * (n - r - 1)):
        comp = complements[lam]
        hooks = prod(_hook_lengths(comp))
        d = sum(
            (-1) ** i * comb(n, i) * _schur_at_ones(comp, r - i, hooks)
            for i in range(r - len(comp) + 1)
        )
        if d < 0:
            raise NegativeCoefficient(lam, d)
        terms[lam] = d
    return ChowClass._trusted(ambient, terms.items())


def sc_minimal(r: int, n: int) -> ChowClass:
    """The minimal matroid T_{r,n} contributes the single cycle at the hook complement."""
    hc = hook_complement(r, n)  # InvalidDimensions unless 1 <= r <= n-1
    return sigma(Ambient(r, n), hc)


def _sparse_paving_profile(m: Matroid) -> tuple[int, int, int]:
    """(r, n, k) of a connected sparse paving m with k non-bases, once
    C(n-2, r-1) - k is checked against beta(M) counted from the bases."""
    summary = classify(m)
    if summary.kappa != 1:
        raise NotConnected(f"kappa = {summary.kappa}")
    if not summary.is_sparse_paving:
        raise NotSparsePaving(f"{m!r} is not sparse paving")
    r, n, k = m.r, m.n, summary.nonbasis_count
    require_dimensions(r, n, 1)  # a point is not a sparse paving class
    coeff = comb(n - 2, r - 1) - k
    independent_beta = beta(m)
    if coeff != independent_beta:
        raise BetaMismatch(coeff, independent_beta)
    return r, n, k


def _sparse_paving_class(r: int, n: int, k: int) -> ChowClass:
    """Uniform coefficients with the hook-complement one replaced by C(n-2, r-1) - k."""
    uniform_class = sc_uniform(r, n)
    terms = dict(uniform_class.terms)
    terms[hook_complement(r, n)] = comb(n - 2, r - 1) - k
    return ChowClass._trusted(uniform_class.ambient, terms.items())


def sc_sparse_paving(m: Matroid) -> ChowClass:
    """Uniform coefficients with the hook-complement one replaced by beta(M)."""
    return _sparse_paving_class(*_sparse_paving_profile(m))


def _point_class(r: int) -> ChowClass:
    """A loop (r = 0) or a coloop (r = 1): the class 1 in G(r, 1)."""
    return sigma(Ambient(r, 1), ())


# (test, profile, formula, method) per connected component: the first entry
# whose test holds takes it; profile(m) raises if m fails a check of its own
_FORMULAS = (
    (lambda m: m.n == 1, lambda m: (m.r,), _point_class, METHOD_POINT),
    (lambda m: classify(m).is_sparse_paving, _sparse_paving_profile, _sparse_paving_class,
     METHOD_SPARSE_PAVING),
    (lambda m: classify(m).is_minimal, lambda m: (m.r, m.n), sc_minimal, METHOD_MINIMAL),
)


def _component_profile(comp: Matroid) -> tuple[tuple, str]:
    """(formula, profile) of a connected matroid, and the method that gives it."""
    for test, profile, formula, method in _FORMULAS:
        if test(comp):
            return (formula, profile(comp)), method
    raise UnsupportedMatroid(
        comp,
        f"connected component on {comp.n} elements of rank {comp.r} is neither "
        "sparse paving nor minimal; no formula is implemented",
    )


@lru_cache(maxsize=None)
def _profile_class(profiles: tuple) -> ChowClass:
    """The class of the sum of components with these (formula, profile)
    pairs, sorted by profile (each formula's profiles have a length of
    their own, so the order is canonical): their formulas' classes folded
    left to right, checked homogeneous.  Built once per multiset for the
    life of the process; the class is shared and only read."""
    parts = [formula(*profile) for formula, profile in profiles]
    r = sum(part.ambient.r for part in parts)
    n = sum(part.ambient.n for part in parts)
    combined = sc_direct_sum(parts)
    # homogeneity: every term has size r(n-r) - (n - kappa)
    expected = r * (n - r) - (n - len(parts))
    for lam in combined.terms:
        if sum(lam) != expected:
            raise InhomogeneousClass(lam, expected)
    return combined


def sc(m: Matroid) -> ScResult:
    """Orbit class of an arbitrary supported matroid, by connected components."""
    if m.n == 0:
        raise EmptyMatroid("the empty matroid has no connected component")
    summary = classify(m)
    comps = [f for _, f in _factors(m)] or [m]
    profiles, methods = zip(*map(_component_profile, comps))
    return ScResult(
        matroid_summary=summary,
        chow_class=_profile_class(tuple(sorted(profiles, key=itemgetter(1)))),
        methods=methods,
        k_used=summary.nonbasis_count if methods == (METHOD_SPARSE_PAVING,) else None,
        beta_value=beta(m),
    )
