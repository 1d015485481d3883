"""The repository's pytest settings report a failing property test as a
failure and run the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_every_integer_is_small(x):
    assert x < 5


def test_after_the_failure():
    assert True
"""


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    """On a failure Hypothesis may import libcst, whose import warns; with
    every warning an error, that warning would end the session with
    INTERNALERROR (exit 3) before the failure is reported."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert any(line.startswith("FAILED") for line in out.splitlines()), out
    assert "1 passed" in out, out
