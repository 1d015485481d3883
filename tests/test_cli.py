"""CLI behaviour: verbs, formats, exit codes, JSON round-trips."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from schubmat.chow import ChowClass
from schubmat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_text(capsys):
    code, out, _ = run(capsys, "class", "--uniform", "2,5", "--format", "text")
    assert code == 0
    assert out.strip() == "3 s[2] + 1 s[1,1]"


def test_beta_minimal(capsys):
    code, out, _ = run(capsys, "beta", "--minimal", "3,7")
    assert code == 0 and out.strip() == "1"


def test_class_unsupported_matroid_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "class", "--panhandle", "2,3,6")
    assert code == 1
    assert err.splitlines()[0] == "UnsupportedMatroid"


def test_matroid_file_source(capsys, tmp_path, fano):
    path = tmp_path / "fano.json"
    path.write_text(json.dumps(fano.to_json_dict()))
    code, out, _ = run(capsys, "class", "--matroid", str(path))
    assert code == 0
    assert out.strip() == "6 s[4,2] + 3 s[4,1,1] + 3 s[3,3] + 8 s[3,2,1] + 1 s[2,2,2]"


def test_matrix_file_source(capsys, tmp_path):
    path = tmp_path / "t37.json"
    path.write_text(json.dumps({
        "rows": 3,
        "cols": 7,
        "entries": [
            [1, 0, 0, 1, 1, 1, 1],
            ["0/1", 1, 0, 1, 1, 1, 1],
            [0, 0, 1, 1, 1, 1, 1],
        ],
    }))
    code, out, _ = run(capsys, "beta", "--matrix", str(path))
    assert code == 0 and out.strip() == "1"


def test_direct_sum_of_sources(capsys):
    code, out, _ = run(capsys, "class", "--uniform", "2,4", "--uniform", "2,5")
    assert code == 0
    assert "2 s[4,3,3,3]" in out and "14 s[5,4,3,1]" in out


def test_volume_and_verify(capsys):
    code, out, _ = run(capsys, "volume", "--minimal", "2,5")
    assert code == 0 and "volume 3" in out
    code, out, _ = run(capsys, "verify", "--uniform", "2,4")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_desk_scale_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--uniform", "3,9")
    assert code == 1 and err.splitlines()[0] == "DeskScaleExceeded"


def test_volume_past_the_recursion_limit_exit_1(capsys):
    code, out, err = run(capsys, "volume", "--uniform", "1,1001", "--limit-n", "1001")
    assert code == 1 and out == "" and err.splitlines()[0] == "DeskScaleExceeded"
    assert "Traceback" not in err


def test_info_and_circuits(capsys):
    code, out, _ = run(capsys, "info", "--panhandle", "2,3,5", "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["is_sparse_paving"] and info["nonbasis_count"] == 1
    code, out, _ = run(capsys, "circuits", "--uniform", "2,4", "--format", "json")
    assert json.loads(out)["circuits"] == [
        [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4],
    ]


def test_json_round_trip_through_product(capsys, tmp_path):
    code, out, _ = run(capsys, "class", "--uniform", "2,5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    cls = ChowClass.from_json_dict(data)
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps({
        "r": 2, "n": 5, "terms": [{"partition": [], "coeff": "1"}],
    }))
    saved = tmp_path / "u25.json"
    saved.write_text(out)
    code, out, _ = run(capsys, "product", str(saved), str(unit), "--format", "json")
    assert code == 0
    assert ChowClass.from_json_dict(json.loads(out)) == cls


def test_deterministic_output(capsys, vamos, tmp_path):
    path = tmp_path / "vamos.json"
    path.write_text(json.dumps(vamos.to_json_dict()))
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "class", "--matroid", str(path), "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_malformed_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "class", "--matroid", str(bad))
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"n": 3, "r": 1, "bases": [[2.7]]}', "NotAnInteger"),
        ('{"n": 3, "r": 1, "bases": [[true]]}', "NotAnInteger"),
        ('{"n": -1, "r": 0, "bases": [[]]}', "InvalidDimensions"),
        ('{"n": 2, "r": 3, "bases": [[1, 2, 3]]}', "InvalidDimensions"),
        ('{"n": 3, "r": 1, "bases": [5]}', "MalformedBasis"),
        ('{"n": 3, "r": 1, "bases": 5}', "MalformedBasis"),
    ],
    ids=["float-element", "true-element", "n<0", "r>n", "number-basis", "number-basis-list"],
)
def test_malformed_matroid_values_exit_1(capsys, tmp_path, text, error):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, _, err = run(capsys, "info", "--matroid", str(path))
    assert code == 1 and err.splitlines()[0] == error


def test_empty_matroid_exit_1(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "r": 0, "bases": [[]]}')
    code, _, err = run(capsys, "class", "--matroid", str(path))
    assert code == 1 and err.splitlines()[0] == "EmptyMatroid"


def test_matrix_rows_must_be_int(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 2.7, "entries": [[1, 0, 1], [0, 1, 1]]}')
    code, _, err = run(capsys, "class", "--matrix", str(path))
    assert code == 1 and err.splitlines()[0] == "NotAnInteger"


@pytest.mark.parametrize(
    "text",
    [
        '{"r": 2, "n": 4.9, "terms": [{"partition": [1], "coeff": "1"}]}',
        '{"r": 2, "n": 4, "terms": [{"partition": [1.5], "coeff": "1"}]}',
        '{"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": 2.7}]}',
        '{"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": true}]}',
    ],
    ids=["float-n", "float-part", "float-coeff", "true-coeff"],
)
def test_product_of_non_int_class_exit_1(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    unit = tmp_path / "unit.json"
    unit.write_text('{"r": 2, "n": 4, "terms": [{"partition": [], "coeff": "1"}]}')
    code, _, err = run(capsys, "product", str(bad), str(unit))
    assert code == 1 and err.splitlines()[0] == "NotAnInteger"


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["class", "beta", "volume", "circuits", "info", "verify"])
def test_matroid_verb_without_a_source_exits_2(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    # the verb's own usage, with its source flags, not the top-level one
    assert err[0].startswith(f"usage: schubmat {verb} [-h] [--uniform R,N]")
    assert err[-1] == f"schubmat {verb}: error: no matroid source given"


@pytest.mark.parametrize(
    "argv, code, stream, last_line",
    [
        (["class", "--uniform", "2,4"], 0, "stdout", "2 s[1]"),
        (["verify", "--uniform", "3,9"], 1, "stderr", "n=9 exceeds the desk-scale limit 8"),
        (["class"], 2, "stderr", "schubmat class: error: no matroid source given"),
        (["class", "--uniform", "2"], 2, "stderr",
         "usage error: --uniform expects 2 comma-separated integers"),
    ],
    ids=["ok", "domain-error", "argparse-error", "usage-error"],
)
def test_module_entry_point_exit_status(argv, code, stream, last_line):
    """`python -m schubmat.cli` passes main's status to the process, an
    argparse error included."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "schubmat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, (proc.stdout, proc.stderr)
    assert getattr(proc, stream).splitlines()[-1] == last_line


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def workflow_step_script(name: str) -> list[str]:
    """The lines of the `run: |` block of the workflow step called name,
    with the block's indentation removed."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"      - name: {name}")
    assert lines[start + 1].strip() == "run: |"
    block = []
    for line in lines[start + 2:]:
        if line.strip() and not line.startswith(" " * 10):
            break
        block.append(line[10:])
    return block


@pytest.mark.skipif(shutil.which("bash") is None, reason="the CI step's script is a bash script")
def test_the_installed_command_step_passes(tmp_path):
    """The script of CI's `Installed schubmat command` step, run under
    `bash -e` in a temporary directory with a `schubmat` shim first on PATH
    (a script, since a shell function is not found by `timeout`) in place of
    the installed command: `pip install .` and the `cd` into the runner's
    temporary directory are left out."""
    script = workflow_step_script("Installed schubmat command")
    skipped = {"pip install .", 'cd "$RUNNER_TEMP"'}
    assert skipped <= set(script)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "schubmat"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m schubmat.cli "$@"\n')
    shim.chmod(0o755)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    body = "\n".join(line for line in script if line not in skipped)
    proc = subprocess.run(["bash", "-e", "-c", body], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])


@pytest.mark.parametrize(
    "verb, text",
    [
        ("class", "[5]"),
        ("product", '"x"'),
        ("product", '{"r": 2, "n": 4, "terms": 5}'),
        ("product", '{"r": 2, "n": 4, "terms": [5]}'),
        ("product", '{"r": 2, "n": 4, "terms": [{"partition": 5, "coeff": "1"}]}'),
        ("product", '{"r": 2, "n": 4, "terms": [{"partition": {}, "coeff": "1"}]}'),
        ("matrix", "[[1, 0], [0, 1]]"),
        ("matrix", '{"rows": 2, "entries": 5}'),
        ("matrix", '{"rows": 2, "entries": [5, [0, 1]]}'),
        ("matrix", '{"rows": 0, "entries": []}'),
        ("matrix", '{"rows": 2, "entries": [[1, 0, 1], [0, 1]]}'),
        ("matrix", '{"rows": 2, "cols": 4, "entries": [[1, 0, 1], [0, 1, 1]]}'),
        ("matrix", '{"rows": 2, "entries": [[1, 0, 1.5], [0, 1, 1]]}'),
        ("matrix", '{"rows": 2, "entries": [[1, 0, true], [0, 1, 1]]}'),
        ("matrix", '{"rows": 2, "entries": [[1, 0, "1.5"], [0, 1, 1]]}'),
        ("matrix", '{"rows": 2, "entries": [[1, 0, "1/0"], [0, 1, 1]]}'),
    ],
    ids=[
        "matroid-not-object", "class-not-object", "terms-number", "term-number",
        "partition-number", "partition-object", "matrix-not-object", "entries-number",
        "row-number", "no-rows", "ragged-rows", "cols-disagree", "float-entry",
        "bool-entry", "decimal-string-entry", "zero-denominator",
    ],
)
def test_wrong_json_shape_exit_1(capsys, tmp_path, verb, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    unit = tmp_path / "unit.json"
    unit.write_text('{"r": 2, "n": 4, "terms": [{"partition": [], "coeff": "1"}]}')
    argv = {
        "class": ["class", "--matroid", str(bad)],
        "product": ["product", str(bad), str(unit)],
        "matrix": ["class", "--matrix", str(bad)],
    }[verb]
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.splitlines()[0] == "WrongShape"


def test_verify_json_rows(capsys):
    code, out, _ = run(capsys, "verify", "--minimal", "3,7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "d_hc=beta": {"lhs": "1", "pass": True, "rhs": "1"},
        "degree=volume": {"lhs": "10", "pass": True, "rhs": "10"},
    }
    code, out, _ = run(capsys, "verify", "--uniform", "1,2", "--uniform", "1,2")
    assert code == 0
    assert out.splitlines() == [
        "degree=volume  PASS  lhs=2 rhs=2",
        "d_hc=beta      PASS  lhs=0 rhs=0",
    ]


@pytest.mark.parametrize("spec", ["1,1", "0,1"], ids=["coloop", "loop"])
def test_verify_without_hook_complement(capsys, spec):
    # G(1,1) and G(0,1) are points: no hook complement to compare with beta
    code, out, _ = run(capsys, "verify", "--uniform", spec)
    assert code == 0
    assert out.splitlines() == ["degree=volume  PASS  lhs=1 rhs=1"]
    code, out, _ = run(capsys, "verify", "--uniform", spec, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"degree=volume": {"lhs": "1", "pass": True, "rhs": "1"}}


@pytest.mark.parametrize(
    "flag, text, key",
    [
        ("--matroid", '{"r": 1, "bases": [[1]]}', "n"),
        ("--matroid", '{"n": 1, "r": 1}', "bases"),
        ("--matrix", '{"entries": [[1, 0]]}', "rows"),
        ("--matrix", '{"rows": 1}', "entries"),
        ("product", '{"r": 1, "terms": []}', "n"),
        ("product", '{"r": 1, "n": 2, "terms": [{"coeff": "1"}]}', "partition"),
    ],
    ids=["matroid-n", "matroid-bases", "matrix-rows", "matrix-entries", "class-n",
         "class-partition"],
)
def test_missing_key_names_the_key_and_the_file(capsys, tmp_path, flag, text, key):
    path = tmp_path / "m.json"
    path.write_text(text)
    if flag == "product":
        unit = tmp_path / "unit.json"
        unit.write_text('{"r": 1, "n": 2, "terms": [{"partition": [], "coeff": "1"}]}')
        argv = ["product", str(unit), str(path)]
    else:
        argv = ["class", flag, str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.strip() == f"usage error: missing key '{key}' in {path}"


@pytest.mark.parametrize("spec", ["2", "2,x", "1,2,3"])
def test_malformed_flag_value_is_usage_error(capsys, spec):
    code, _, err = run(capsys, "class", "--uniform", spec)
    assert code == 2 and err.startswith("usage error")


def exit_code(capsys, *argv):
    """main's status, counting an argparse error (SystemExit) as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["class", "--uniform", "2,+5"], 2),
        (["class", "--uniform", " 2,5"], 2),
        (["class", "--uniform", "2,5 "], 2),
        (["class", "--uniform", "2,0x5"], 2),
        (["class", "--uniform", "2,1_0"], 2),
        (["class", "--uniform", "2,٥"], 2),
        (["class", "--minimal", "+2,5"], 2),
        (["class", "--panhandle", "2,3,5.0"], 2),
        (["class", "--schubert", "+4:2,4"], 2),
        (["class", "--schubert", "4:2, 4"], 2),
        (["verify", "--uniform", "2,5", "--limit-n", "1_0"], 2),
        (["class", "--uniform", "2,4", "--limit-n", "9"], 2),
        (["volume", "--uniform", "2,4", "--limit-n", "+8"], 2),
        (["volume", "--uniform", "2,4", "--limit-n", " 8"], 2),
        (["class", "--uniform", "2,-5"], 1),
        (["class", "--panhandle", "2,-3,5"], 1),
        (["class", "--schubert=-4:1,2"], 1),
        (["volume", "--uniform", "2,4", "--limit-n", "-1"], 1),
        (["class", "--uniform", "2,5"], 0),
        (["class", "--schubert", "4:2,4"], 0),
        (["volume", "--uniform", "2,4", "--limit-n", "8"], 0),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_flag_integers_are_not_coerced(capsys, argv, code):
    """Integers from argv are decimal `-?[0-9]+`: a sign, a space, an
    underscore, a hex prefix or a non-ASCII digit is a usage error, and a
    negative value reaches the domain checks."""
    assert exit_code(capsys, *argv) == code


def test_basis_with_a_repeated_element_exit_1(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"n": 3, "r": 2, "bases": [[1, 1, 2], [1, 3], [2, 3]]}')
    code, out, err = run(capsys, "info", "--matroid", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["WrongBasisSize", "basis (1, 1, 2) is not a set of 2 elements"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["class", "--uniform=-2,5"], "InvalidDimensions"),
        (["class", "--uniform", "6,5"], "InvalidDimensions"),
        (["class", "--minimal=-2,5"], "InvalidDimensions"),
        (["class", "--minimal", "0,5"], "InvalidDimensions"),
        (["class", "--minimal", "5,5"], "InvalidDimensions"),
        (["class", "--panhandle", "2,5,5"], "InvalidDimensions"),
        (["class", "--panhandle", "3,2,6"], "InvalidDimensions"),
        (["info", "--schubert", "4:2,2,4"], "ElementOutOfRange"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_family_parameters_out_of_range_exit_1(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[0] == error


@pytest.mark.parametrize("spec", ["1,1", "0,1", "3,3"])
def test_uniform_at_the_ends_of_its_range_exit_0(capsys, spec):
    code, out, _ = run(capsys, "class", "--uniform", spec)
    assert code == 0 and out.strip() == "1 s[]"


def digit_limit():
    """The interpreter's int/str digit limit, or None where it has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


# decimal strings built digit by digit: str() and int() of more than 4300
# digits raise outside `main` where the interpreter limits them
NINES = "9" * 3000  # 10^3000 - 1
NINES_SQUARED = "9" * 2999 + "8" + "0" * 2999 + "1"  # (10^3000 - 1)^2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_product_prints_coefficients_of_any_length_exactly(capsys, tmp_path, fmt):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": NINES}]}))
    limit = digit_limit()
    code, out, err = run(capsys, "product", str(path), str(path), "--format", fmt)
    assert (code, err) == (0, "")
    assert digit_limit() == limit
    if fmt == "text":
        assert out == f"{NINES_SQUARED} s[2] + {NINES_SQUARED} s[1,1]\n"
    else:
        assert json.loads(out)["terms"] == [
            {"partition": [1, 1], "coeff": NINES_SQUARED},
            {"partition": [2], "coeff": NINES_SQUARED},
        ]


def test_coefficient_of_5000_digits_reads_back_through_the_unit(capsys, tmp_path):
    big = "7" + "0" * 4998 + "1"
    path, unit = tmp_path / "big.json", tmp_path / "unit.json"
    path.write_text(json.dumps({"r": 2, "n": 5, "terms": [{"partition": [2, 1], "coeff": big}]}))
    unit.write_text(json.dumps({"r": 2, "n": 5, "terms": [{"partition": [], "coeff": "1"}]}))
    limit = digit_limit()
    code, out, _ = run(capsys, "product", str(path), str(unit), "--format", "json")
    assert code == 0 and digit_limit() == limit
    assert json.loads(out)["terms"] == [{"partition": [2, 1], "coeff": big}]


def test_digit_limit_is_restored_after_an_error(capsys):
    limit = digit_limit()
    assert run(capsys, "class", "--uniform", "6,5")[0] == 1
    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    assert digit_limit() == limit
