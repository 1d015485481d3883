"""The library has no runtime dependencies: it imports only the standard
library and itself."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "schubmat").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"schubmat"}
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_modules(ast.parse(path.read_text()))
        if name not in allowed
    }
    assert not outside, sorted(outside)


def test_matroid_cache_and_trusted_constructor_stay_in_the_matroid_module():
    """Only matroids.py reads or writes a matroid's `_cache` (through its
    memo decorator) or builds a matroid unchecked with `_from_masks`."""
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "matroids.py"
        for name in re.findall(r"\b(_cache|_from_masks)\b", path.read_text())
    }
    assert not outside, sorted(outside)


COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import schubmat.cli
added = sorted(set(sys.modules) - before)
from schubmat import ehrhart_report, uniform
report = ehrhart_report(uniform(2, 4))
print(json.dumps({
    "added": added,
    "fractions_after_volume": "fractions" in sys.modules,
    "coefficients": sorted({type(c).__module__ + "." + type(c).__name__ for c in report.ehrhart}),
}))
"""


def test_cli_import_loads_no_heavy_standard_modules():
    """`import schubmat.cli` starts every CLI process, so it loads neither
    dataclasses (with inspect, ast and dis) nor fractions (with decimal).
    The modules are compared with those of the same interpreter before the
    import, so what the site setup preloads does not count."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert "schubmat.cli" in seen["added"]
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(seen["added"])
    assert seen["fractions_after_volume"]
    assert seen["coefficients"] == ["fractions.Fraction"]
