"""The library has no runtime dependencies: it imports only the standard
library and itself."""

import ast
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
