"""Command-line front-end.

Verbs: class, beta, volume, circuits, info, verify, product.  Matroids come
from --uniform/--minimal/--panhandle/--schubert parameters or from JSON
files (--matroid, --matrix); giving several sources forms their direct sum.
--limit-n, the volume oracle's ground-set bound, belongs to volume and verify;
its default, polytope.DESK_SCALE_LIMIT, is read when one of them runs.
Each verb imports the modules it runs when it runs, so a process compiles
only those: product the Chow kernel, beta/info/circuits the matroid core,
class the engine, volume the volume oracle, and verify all of them.
Integers in flags are decimal (-?[0-9]+), never coerced; integers of any
length are read and printed exactly.
Exit status: 0 success, 1 domain error (error name on stderr), 2 usage error.
"""

import argparse
import json
import re
import sys
from functools import partial, reduce
from math import comb

from .errors import SchubmatError, WrongShape, require_int, require_type


def integer(text: str) -> int:
    """A decimal integer from argv, by the rule ChowClass.from_json_dict
    applies to coefficient strings; int() alone would also take "+5", " 2"
    and "1_0".  Anything else is a usage error."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_ints(text: str, count: int, flag: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} expects {count} comma-separated integers")
    return [integer(p) for p in parts]


def _read(path: str, build):
    """build(document) for the JSON document in a file; a missing key is a
    usage error that names the key and the file."""
    with open(path) as f:
        data = json.load(f)
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in {path}") from None


def _matrix_matroid(matroids, data):
    require_type(data, dict, "a matrix file")
    m = matroids.from_rational_matrix(data["entries"], data["rows"])
    if "cols" in data:
        require_int(data["cols"], "column count")
        if data["cols"] != m.n:
            raise WrongShape(f"cols is {data['cols']} but the rows have {m.n} entries")
    return m


def _schubert(matroids, spec: str):
    head, _, tail = spec.partition(":")
    indices = [integer(i) for i in tail.split(",")]
    return matroids.schubert_matroid(integer(head), indices)


# flag: (metavar, the matroid of one value, built by the matroids module);
# sources are summed in this order
_SOURCES = {
    "uniform": ("R,N", lambda matroids, spec: matroids.uniform(*_parse_ints(spec, 2, "--uniform"))),
    "minimal": ("R,N", lambda matroids, spec: matroids.minimal(*_parse_ints(spec, 2, "--minimal"))),
    "panhandle": ("R,S,N", lambda matroids, spec: matroids.panhandle(
        *_parse_ints(spec, 3, "--panhandle"))),
    "schubert": ("N:I1,I2,...", _schubert),
    "matroid": ("FILE", lambda matroids, path: _read(path, matroids.Matroid.from_json_dict)),
    "matrix": ("FILE", lambda matroids, path: _read(path, partial(_matrix_matroid, matroids))),
}


def _require_matroid(args):
    """The direct sum of the matroid sources given; only the matroid verbs
    import the matroids module.  With none given, the verb's own parser
    reports the usage error, so the usage line shows its source flags."""
    from . import matroids

    sources = [build(matroids, value)
               for flag, (_, build) in _SOURCES.items() for value in getattr(args, flag) or []]
    if not sources:
        args.verb_parser.error("no matroid source given")
    return reduce(matroids.direct_sum, sources)


def _add_source_flags(sub):
    for flag, (metavar, _) in _SOURCES.items():
        sub.add_argument(f"--{flag}", action="append", metavar=metavar)
    sub.add_argument("--format", choices=("json", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schubmat")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in _MATROID_VERBS:
        sub = subs.add_parser(verb)
        sub.set_defaults(verb_parser=sub)
        _add_source_flags(sub)
        if verb in ("volume", "verify"):  # the verbs that count lattice points
            sub.add_argument("--limit-n", type=integer,
                             help="override the polytope desk-scale bound (at your own risk)")
    prod = subs.add_parser("product")
    prod.add_argument("lhs", metavar="CLASS_JSON")
    prod.add_argument("rhs", metavar="CLASS_JSON")
    prod.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _emit(args, json_dict: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(json_dict, indent=2, sort_keys=True))
    else:
        print(text)


def _limit_n(args) -> int:
    """--limit-n, or the volume oracle's desk-scale bound when it is not given."""
    from .polytope import DESK_SCALE_LIMIT

    return DESK_SCALE_LIMIT if args.limit_n is None else args.limit_n


def _run_class(args, m):
    from .orbit import sc

    result = sc(m)
    _emit(args, result.to_json_dict(), result.chow_class.text())


def _run_beta(args, m):
    from .matroids import beta

    value = beta(m)
    _emit(args, {"beta": str(value)}, str(value))


def _run_volume(args, m):
    from .polytope import ehrhart_report, report_to_json_dict

    report = ehrhart_report(m, _limit_n(args))
    text = (
        f"dim {report.dim}; counts {list(report.counts)}; "
        f"volume {report.normalized_volume}"
    )
    _emit(args, report_to_json_dict(report), text)


def _run_circuits(args, m):
    from .matroids import circuits

    circs = sorted(sorted(c) for c in circuits(m))
    _emit(args, {"circuits": circs}, "\n".join(str(c) for c in circs) or "(none)")


def _run_info(args, m):
    from .matroids import classify

    c = classify(m)
    # the Classification fields in order, with its tuples and sets as lists
    info = {"n": m.n, "r": m.r, "bases": comb(m.n, m.r) - c.nonbasis_count, **c._asdict(),
            "components": [list(part) for part in c.components],
            "loops": sorted(c.loops), "coloops": sorted(c.coloops)}
    text = "\n".join(f"{key}: {value}" for key, value in info.items())
    _emit(args, info, text)


def _run_verify(args, m):
    from .polytope import verify_volume_relation

    verdict = verify_volume_relation(m, _limit_n(args))
    rows = verdict.checks
    text = "\n".join(
        f"{name:<14} {'PASS' if ok else 'FAIL'}  lhs={lhs} rhs={rhs}"
        for name, lhs, rhs, ok in rows
    )
    json_dict = {
        name: {"lhs": str(lhs), "rhs": str(rhs), "pass": ok}
        for name, lhs, rhs, ok in rows
    }
    _emit(args, json_dict, text)
    if not verdict.ok:
        raise SchubmatError("verification failed")


def _run_product(args):
    from .chow import ChowClass, product

    c = product(_read(args.lhs, ChowClass.from_json_dict), _read(args.rhs, ChowClass.from_json_dict))
    _emit(args, c.to_json_dict(), c.text())


_MATROID_VERBS = {
    "class": _run_class,
    "beta": _run_beta,
    "volume": _run_volume,
    "circuits": _run_circuits,
    "info": _run_info,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    """Run one verb; the exit status.  Integers of any length are read and
    printed exactly: the interpreter's int/str digit limit, where it has
    one, is lifted while main runs and restored on return."""
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limited:
            sys.set_int_max_str_digits(old_limit)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "product":
            _run_product(args)
        else:
            _MATROID_VERBS[args.verb](args, _require_matroid(args))
    except SchubmatError as exc:
        print(type(exc).__name__, file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
