"""Invariant checks on the sc and volume paths raise named errors, also
under python -O.

Each trigger breaks one input of a check (by patching a module attribute)
and runs the code that performs the check.  The same triggers run in a
``python -O`` subprocess, where an ``assert`` would be stripped and the
broken value would pass silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from schubmat import Ambient, ChowClass, orbit, partitions, sc, uniform
from schubmat import polytope as volume_oracle
from schubmat.errors import (
    BetaMismatch,
    InhomogeneousClass,
    NegativeCoefficient,
    NonIntegralCount,
    NonIntegralVolume,
)
import polytope_helpers as polytope
from polytope_helpers import WrongAffineDimension


def negative_klyachko(patch):
    patch(orbit, "schur_at_ones", lambda lam, k: -1 if k == 2 else 0)
    orbit.sc_uniform.__wrapped__(2, 5)  # bypass the cache: no patched value is kept


def wrong_beta(patch):
    patch(orbit, "beta", lambda m: 999)
    sc(uniform(2, 5))


def inhomogeneous_class(patch):
    patch(orbit, "sc_direct_sum", lambda parts: ChowClass(Ambient(2, 5), {(1,): 1}))
    sc(uniform(2, 5))


def wrong_affine_dimension(patch):
    patch(polytope, "matrix_rank", lambda rows: 0)
    polytope.polytope_vertices(uniform(2, 4))


def non_integral_syt_count(patch):
    patch(partitions, "_hook_lengths", lambda lam: [2])
    partitions._syt_count.cache_clear()  # a cached count of (1,) would skip the hooks
    partitions.syt_count((1,))


def non_integral_schur_value(patch):
    patch(partitions, "_conjugates", {(1,): (2,)})
    partitions.schur_at_ones((1,), 1)


def ehrhart_fit_fails(patch):
    # 2^t agrees with no polynomial of degree dim at t = 0..dim+1
    patch(volume_oracle, "_count", lambda m, t: 2**t)
    volume_oracle.ehrhart_report(uniform(2, 4))


def zero_volume(patch):
    # constant counts fit, but give a leading coefficient of 0
    patch(volume_oracle, "_count", lambda m, t: 1)
    volume_oracle.ehrhart_report(uniform(2, 4))


GATES = [
    (NegativeCoefficient, negative_klyachko),
    (BetaMismatch, wrong_beta),
    (InhomogeneousClass, inhomogeneous_class),
    (WrongAffineDimension, wrong_affine_dimension),
    (NonIntegralCount, non_integral_syt_count),
    (NonIntegralCount, non_integral_schur_value),
    (NonIntegralVolume, ehrhart_fit_fails),
    (NonIntegralVolume, zero_volume),
]


@pytest.mark.parametrize("error, trigger", GATES, ids=[t.__name__ for _, t in GATES])
def test_gate_raises_named_error(monkeypatch, error, trigger):
    with pytest.raises(error):
        trigger(monkeypatch.setattr)


SCRIPT = """
import sys
import test_invariant_errors as t

missed = []
for error, trigger in t.GATES:
    undo = []

    def patch(obj, name, value):
        undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    try:
        trigger(patch)
        missed.append(trigger.__name__)
    except error:
        pass
    finally:
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)
print(" ".join(missed))
sys.exit(1 if missed else 0)
"""


def test_gates_survive_python_O():
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    paths = [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
