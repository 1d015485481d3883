"""Exact Schubert coefficients of matroids.

Schubert-calculus kernel for G(r,n), matroid analysis from explicit bases,
the orbit-class engine for sparse paving / minimal / direct-sum matroids,
and an independent Ehrhart volume oracle for the degree-volume identity.

Names load on first read (PEP 562): `import schubmat` imports no
submodule, and `schubmat.sc` imports orbit and what orbit imports, not the
volume oracle.  A name once read is stored in the package, so later reads
are plain attribute reads.
"""

from importlib import import_module

# public name: the submodule that defines it, listed by submodule; each
# submodule is public by its own name
_EXPORTS = {name: module for module, names in {
    "chow": [
        "Ambient", "ChowClass", "lr_coefficient", "pieri", "product", "sc_direct_sum", "sigma",
        "sigma1_power_degree",
    ],
    "errors": [],
    "matroids": [
        "Classification", "Matroid", "beta", "circuits", "classify", "direct_sum", "dual",
        "from_bases", "from_rational_matrix", "minimal", "minor", "panhandle", "restriction",
        "schubert_matroid", "uniform",
    ],
    "orbit": ["ScResult", "sc", "sc_minimal", "sc_sparse_paving", "sc_uniform"],
    "partitions": [
        "complement_in_rectangle", "hook", "hook_complement", "schur_at_ones", "syt_count",
    ],
    "polytope": [
        "VolumeReport", "ehrhart_report", "lattice_points", "normalized_volume",
        "verify_volume_relation",
    ],
}.items() for name in [module, *names]}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """A public name not read before: import its submodule, keep the value."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
