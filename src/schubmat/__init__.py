"""Exact Schubert coefficients of matroids.

Schubert-calculus kernel for G(r,n), matroid analysis from explicit bases,
the orbit-class engine for sparse paving / minimal / direct-sum matroids,
and an independent Ehrhart volume oracle for the degree-volume identity.
"""

from . import errors
from .chow import (
    Ambient,
    ChowClass,
    lr_coefficient,
    pieri,
    product,
    sigma,
    sigma1_power_degree,
)
from .matroids import (
    Classification,
    Matroid,
    beta,
    circuits,
    classify,
    direct_sum,
    dual,
    from_bases,
    from_rational_matrix,
    minimal,
    minor,
    panhandle,
    restriction,
    schubert_matroid,
    uniform,
)
from .orbit import (
    ScResult,
    sc,
    sc_direct_sum,
    sc_minimal,
    sc_sparse_paving,
    sc_uniform,
    verify_volume_relation,
)
from .partitions import (
    complement_in_rectangle,
    hook,
    hook_complement,
    schur_at_ones,
    syt_count,
)
from .polytope import (
    VolumeReport,
    ehrhart_report,
    lattice_points,
    normalized_volume,
    polytope_vertices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
