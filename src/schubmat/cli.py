"""Command-line front-end.

Verbs: class, beta, volume, circuits, info, verify, product.  Matroids come
from --uniform/--minimal/--panhandle/--schubert parameters or from JSON
files (--matroid, --matrix); giving several sources forms their direct sum.
Exit status: 0 success, 1 domain error (error name on stderr), 2 usage error.
"""

import argparse
import json
import sys

from . import matroids, orbit, polytope
from .chow import ChowClass, product
from .errors import SchubmatError
from .matroids import Matroid


def _parse_ints(text: str, count: int, flag: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"{flag} expects {count} comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_sources(args) -> list[Matroid]:
    sources: list[Matroid] = []
    for spec in args.uniform or []:
        r, n = _parse_ints(spec, 2, "--uniform")
        sources.append(matroids.uniform(r, n))
    for spec in args.minimal or []:
        r, n = _parse_ints(spec, 2, "--minimal")
        sources.append(matroids.minimal(r, n))
    for spec in args.panhandle or []:
        r, s, n = _parse_ints(spec, 3, "--panhandle")
        sources.append(matroids.panhandle(r, s, n))
    for spec in args.schubert or []:
        head, _, tail = spec.partition(":")
        sources.append(matroids.schubert_matroid(int(head), [int(i) for i in tail.split(",")]))
    for path in args.matroid or []:
        with open(path) as f:
            sources.append(Matroid.from_json_dict(json.load(f)))
    for path in args.matrix or []:
        with open(path) as f:
            data = json.load(f)
        sources.append(matroids.from_rational_matrix(data["entries"], data["rows"]))
    return sources


def _require_matroid(args, parser) -> Matroid:
    sources = _load_sources(args)
    if not sources:
        parser.error("no matroid source given")
    m = sources[0]
    for extra in sources[1:]:
        m = matroids.direct_sum(m, extra)
    return m


def _add_source_flags(sub):
    sub.add_argument("--uniform", action="append", metavar="R,N")
    sub.add_argument("--minimal", action="append", metavar="R,N")
    sub.add_argument("--panhandle", action="append", metavar="R,S,N")
    sub.add_argument("--schubert", action="append", metavar="N:I1,I2,...")
    sub.add_argument("--matroid", action="append", metavar="FILE")
    sub.add_argument("--matrix", action="append", metavar="FILE")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--limit-n", type=int, default=polytope.DESK_SCALE_LIMIT,
                     help="override the polytope desk-scale bound (at your own risk)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schubmat")
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in ("class", "beta", "volume", "circuits", "info", "verify"):
        sub = subs.add_parser(verb)
        _add_source_flags(sub)
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


def _run_class(args, parser):
    m = _require_matroid(args, parser)
    result = orbit.sc(m)
    _emit(args, result.to_json_dict(), result.chow_class.text())


def _run_beta(args, parser):
    m = _require_matroid(args, parser)
    value = matroids.beta(m)
    _emit(args, {"beta": str(value)}, str(value))


def _run_volume(args, parser):
    m = _require_matroid(args, parser)
    report = polytope.ehrhart_report(m, args.limit_n)
    text = (
        f"dim {report.dim}; counts {list(report.counts)}; "
        f"volume {report.normalized_volume}"
    )
    _emit(args, polytope.report_to_json_dict(report), text)


def _run_circuits(args, parser):
    m = _require_matroid(args, parser)
    circs = sorted(sorted(c) for c in matroids.circuits(m))
    _emit(args, {"circuits": circs}, "\n".join(str(c) for c in circs) or "(none)")


def _run_info(args, parser):
    m = _require_matroid(args, parser)
    c = matroids.classify(m)
    info = {
        "n": m.n,
        "r": m.r,
        "bases": len(m.bases),
        "components": [list(part) for part in c.components],
        "kappa": c.kappa,
        "loops": sorted(c.loops),
        "coloops": sorted(c.coloops),
        "is_paving": c.is_paving,
        "is_sparse_paving": c.is_sparse_paving,
        "nonbasis_count": c.nonbasis_count,
        "is_minimal": c.is_minimal,
        "is_uniform": c.is_uniform,
    }
    text = "\n".join(f"{key}: {value}" for key, value in info.items())
    _emit(args, info, text)


def _run_verify(args, parser):
    m = _require_matroid(args, parser)
    verdict = orbit.verify_volume_relation(m, args.limit_n)
    result = verdict.sc_result
    hc = orbit.hook_complement_coefficient(result, m.n, m.r)
    beta_ok = hc == result.beta_value if result.matroid_summary.kappa == 1 else True
    rows = [
        ("degree=volume", verdict.degree, verdict.volume, verdict.ok),
        ("d_hc=beta", hc, result.beta_value, beta_ok),
    ]
    text = "\n".join(
        f"{name:<14} {'PASS' if ok else 'FAIL'}  lhs={lhs} rhs={rhs}"
        for name, lhs, rhs, ok in rows
    )
    json_dict = {
        name: {"lhs": str(lhs), "rhs": str(rhs), "pass": ok}
        for name, lhs, rhs, ok in rows
    }
    _emit(args, json_dict, text)
    if not all(ok for *_, ok in rows):
        raise SchubmatError("verification failed")


def _run_product(args, parser):
    with open(args.lhs) as f:
        a = ChowClass.from_json_dict(json.load(f))
    with open(args.rhs) as f:
        b = ChowClass.from_json_dict(json.load(f))
    c = product(a, b)
    _emit(args, c.to_json_dict(), c.text())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "class": _run_class,
        "beta": _run_beta,
        "volume": _run_volume,
        "circuits": _run_circuits,
        "info": _run_info,
        "verify": _run_verify,
        "product": _run_product,
    }
    try:
        handlers[args.verb](args, parser)
    except SchubmatError as exc:
        print(type(exc).__name__, file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
