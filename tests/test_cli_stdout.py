"""Byte-for-byte stdout of `schubmat info|class|verify|volume|beta|circuits`,
in text and JSON, on a fixed corpus, against `cli_stdout.json`.

The expected file was recorded when the records were still dataclasses and
`fractions` was imported at module level; any change to it is a change of
output.  To re-record it on purpose:

    PYTHONPATH=src python tests/test_cli_stdout.py
"""

import json
from contextlib import redirect_stdout
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest

from schubmat.cli import main

EXPECTED = Path(__file__).with_name("cli_stdout.json")
VERBS = ("info", "class", "verify", "volume", "beta", "circuits")
FORMATS = ("text", "json")
# a rank-3 sparse paving matroid on [6] with the two non-bases 123 and 345
SPARSE_PAVING = {
    "n": 6,
    "r": 3,
    "bases": [list(b) for b in combinations(range(1, 7), 3) if b not in ((1, 2, 3), (3, 4, 5))],
}
CORPUS = {
    "U(2,4)": ["--uniform", "2,4"],
    "U(3,6)": ["--uniform", "3,6"],
    "T(3,6)": ["--minimal", "3,6"],
    "Pan(2,3,5)": ["--panhandle", "2,3,5"],
    "sparse-paving-file": ["--matroid", "{sparse_paving}"],
    "U(1,3)+T(2,4)": ["--uniform", "1,3", "--minimal", "2,4"],
}
# direct sums with loops, a coloop and a paving sum, pinned in `info` (json) and `class`
SUMS = {
    "U(0,2)+U(2,4)": ["--uniform", "0,2", "--uniform", "2,4"],
    "U(1,2)+U(1,1)": ["--uniform", "1,2", "--uniform", "1,1"],
    "U(2,4)+T(2,4)+U(1,1)": ["--uniform", "2,4", "--minimal", "2,4", "--uniform", "1,1"],
}
# Schubert matroids from their index sets, pinned in `info` and `class`
SCHUBERT = {
    "SM(5:3,5)": ["--schubert", "5:3,5"],
    "SM(6:2,4,6)": ["--schubert", "6:2,4,6"],
}
CASES = [f"{verb} {name} {fmt}" for verb in VERBS for name in CORPUS for fmt in FORMATS]
CASES += [f"{case} {name} {fmt}" for name in SUMS
          for case, fmt in (("info", "json"), ("class", "text"), ("class", "json"))]
CASES += [f"{verb} {name} {fmt}" for verb in ("info", "class") for name in SCHUBERT
          for fmt in FORMATS]
CORPUS.update(SUMS, **SCHUBERT)


def run_case(case: str, directory: Path) -> dict:
    verb, name, fmt = case.split()
    path = directory / "sparse_paving.json"
    path.write_text(json.dumps(SPARSE_PAVING))
    argv = [verb, *(a.format(sparse_paving=path) for a in CORPUS[name]), "--format", fmt]
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_corpus_is_recorded(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_stdout_is_unchanged(case, expected, tmp_path):
    assert run_case(case, tmp_path) == expected[case]


if __name__ == "__main__":
    from tempfile import TemporaryDirectory

    with TemporaryDirectory() as tmp:
        recorded = {case: run_case(case, Path(tmp)) for case in CASES}
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
