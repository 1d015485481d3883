"""The CLI exit contract on malformed JSON files: every variant exits 0, 1 or 2.

Each small valid document (a matroid, a matrix, a Chow class) is varied by
replacing one value, or the whole document, by a value of another JSON type,
and by deleting one key.  Every variant runs in-process through cli.main;
a traceback fails the test.
"""

import json

from schubmat.cli import main

DOCUMENTS = {
    "matroid": {"n": 3, "r": 2, "bases": [[1, 2], [1, 3], [2, 3]]},
    "matrix": {"rows": 2, "cols": 3, "entries": [[1, 0, "1/2"], [0, 1, 1]]},
    "class": {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": "2"}]},
}
REPLACEMENTS = [5, "x", [], {}, None, [5], 1.5]
DELETE = object()
UNIT_CLASS = {"r": 2, "n": 4, "terms": [{"partition": [], "coeff": "1"}]}


def paths(doc, prefix=()):
    """Every path to a value inside doc, the empty path (the document) first."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from paths(value, prefix + (key,))


def with_value(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted for DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def variants():
    for kind, doc in DOCUMENTS.items():
        for path in paths(doc):
            for value in REPLACEMENTS:
                yield kind, with_value(doc, path, value)
            if path and isinstance(path[-1], str):
                yield kind, with_value(doc, path, DELETE)


VARIANTS = list(variants())


def argv_for(kind, path, tmp_path):
    if kind == "class":
        unit = tmp_path / "unit.json"
        unit.write_text(json.dumps(UNIT_CLASS))
        return ["product", str(path), str(unit)]
    return ["class", f"--{kind}", str(path)]


def test_every_variant_keeps_the_exit_contract(capsys, tmp_path):
    assert len(VARIANTS) == 242
    path = tmp_path / "doc.json"
    broken = []
    for kind, doc in VARIANTS:
        path.write_text(json.dumps(doc))
        try:
            code = main(argv_for(kind, path, tmp_path))
        except Exception as exc:  # any traceback breaks the contract
            broken.append(f"{kind} {json.dumps(doc)}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1, 2):
            broken.append(f"{kind} {json.dumps(doc)}: exit {code}")
    capsys.readouterr()
    assert not broken, "\n".join(broken)
