"""The library has no runtime dependencies: it imports only the standard
library and itself."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schubmat

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
    memo decorator) or its `_masks`, builds a matroid unchecked with
    `_from_masks`, or reads the exchange table, U(r, n)'s shared instance
    or the r-set index, whose formats so have one owner."""
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "matroids.py"
        for name in re.findall(
            r"\b(_cache|_masks|_from_masks|_exchange_table|_uniform|_rset_index)\b",
            path.read_text())
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


def run_fresh(code, *argv, cwd=None):
    """Run a Python snippet in a fresh interpreter that imports the library
    from the source tree; its completed process."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)


def test_cli_import_loads_no_heavy_standard_modules():
    """`import schubmat.cli` starts every CLI process, so it loads neither
    dataclasses (with inspect, ast and dis) nor fractions (with decimal).
    The modules are compared with those of the same interpreter before the
    import, so what the site setup preloads does not count."""
    proc = run_fresh(COLD_IMPORT)
    seen = json.loads(proc.stdout)
    assert "schubmat.cli" in seen["added"]
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & set(seen["added"])
    assert seen["fractions_after_volume"]
    assert seen["coefficients"] == ["fractions.Fraction"]


# the schubmat.* submodules a fresh process loads, after the same
# comparison with sys.modules before the import
LOADED = """
import json, sys
before = set(sys.modules)
{statement}
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("schubmat."))))
"""
RUN_CLI = "import schubmat.cli; code = schubmat.cli.main(sys.argv[1:])"
MATROID_CORE = {"cli", "errors", "matroids"}
CHOW_KERNEL = {"chow", "partitions"}
ENGINE = MATROID_CORE | CHOW_KERNEL | {"orbit"}


@pytest.mark.parametrize("statement, argv, expected", [
    ("import schubmat", [], set()),
    ("import schubmat.orbit", [], {"orbit", "errors", "matroids", "chow", "partitions"}),
    (RUN_CLI, ["product", "a.json", "b.json"], {"cli", "errors"} | CHOW_KERNEL),
    (RUN_CLI, ["beta", "--minimal", "3,7"], MATROID_CORE),
    (RUN_CLI, ["info", "--uniform", "2,4", "--format", "json"], MATROID_CORE),
    (RUN_CLI, ["circuits", "--uniform", "2,4"], MATROID_CORE),
    (RUN_CLI, ["class", "--uniform", "2,5"], ENGINE),
    (RUN_CLI, ["volume", "--uniform", "2,4"], MATROID_CORE | {"polytope"}),
    (RUN_CLI, ["verify", "--uniform", "2,4"], ENGINE | {"polytope"}),
], ids=["package", "engine", "product", "beta", "info", "circuits", "class", "volume", "verify"])
def test_each_process_loads_only_the_modules_it_runs(tmp_path, statement, argv, expected):
    """`import schubmat` loads no submodule, the engine loads no volume
    oracle, and each CLI verb loads only the modules it runs."""
    unit = {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": "1"}]}
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(unit))
    code = LOADED.format(statement=statement)
    if argv:
        code += "sys.exit(code)\n"
    proc = run_fresh(code, *argv, cwd=tmp_path)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == sorted(f"schubmat.{name}" for name in expected)


PUBLIC_NAMES = [
    "Ambient", "ChowClass", "Classification", "Matroid", "ScResult", "VolumeReport", "beta",
    "chow", "circuits", "classify", "complement_in_rectangle", "direct_sum", "dual",
    "ehrhart_report", "errors", "from_bases", "from_rational_matrix", "hook", "hook_complement",
    "lattice_points", "lr_coefficient", "matroids", "minimal", "minor", "normalized_volume",
    "orbit", "panhandle", "partitions", "pieri", "polytope", "product", "restriction", "sc",
    "sc_direct_sum", "sc_minimal", "sc_sparse_paving", "sc_uniform", "schubert_matroid",
    "schur_at_ones", "sigma", "sigma1_power_degree", "syt_count", "uniform",
    "verify_volume_relation",
]
SUBMODULES = ["chow", "errors", "matroids", "orbit", "partitions", "polytope"]


def test_the_package_namespace_keeps_every_public_name():
    """Every public name resolves to the object its defining module holds,
    is kept in the package once read, and is listed by dir()."""
    assert len(PUBLIC_NAMES) == 44
    assert schubmat.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(schubmat, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"schubmat.{name}"]
        else:
            assert value.__module__.startswith("schubmat."), name
            assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(schubmat)[name] is value
    assert set(PUBLIC_NAMES) <= set(dir(schubmat))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        schubmat.no_such_name


def test_star_import_binds_every_public_name():
    proc = run_fresh("import json\nfrom schubmat import *\n"
                     "print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))")
    assert json.loads(proc.stdout) == sorted(PUBLIC_NAMES + ["json"])
