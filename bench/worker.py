"""Run one workload's ops in this (fresh) interpreter and print the raw results.

    python worker.py --workload W --seed S [--part P] (--seconds T | --rounds K)
                     [--trace] --work DIR [--spans FILE]

Ops run one at a time (closed loop, one caller), in whole rounds (see
workloads), until the round in which T seconds have passed is complete, K
rounds are done or the part's op sequence ends.  Only the library call is
timed; generating an op, checking its output and sampling the machine's
speed happen outside the timed region.  The process pins itself to one CPU.
The last stdout line is a JSON object with the speed-normalised latencies
and their slots, the failures, the peak RSS and, when traced, the
per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import oracle
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
SHIM = BENCH_DIR / "cli_shim.py"
CLI_TIMEOUT_S = 60

clock = time.perf_counter


# ---------------------------------------------------------------------------
# executors: run one op, return (outcome as plain data, seconds)


def _class_data(chow_class) -> dict:
    return {"r": chow_class.ambient.r, "n": chow_class.ambient.n, "terms": dict(chow_class.terms)}


def run_classes(lib, op, ctx):
    t0 = clock()
    try:
        result = lib.sc(lib.from_bases(op["n"], op["r"], op["bases"]))
    except lib.errors.SchubmatError as exc:
        return {"error": type(exc).__name__}, clock() - t0
    elapsed = clock() - t0
    return dict(_class_data(result.chow_class), kappa=result.matroid_summary.kappa), elapsed


def run_products(lib, op, ctx):
    batch = [(item, [lib.ChowClass(lib.Ambient(p["r"], p["n"]), p["terms"]) for p in item["parts"]])
             for item in op["items"]]
    results = []
    t0 = clock()
    for item, parts in batch:
        if item["kind"] == "fold":
            folded = lib.sc_direct_sum(parts)
            results.append((folded, lib.sigma1_power_degree(folded, item["s"])))
        else:
            results.append((lib.product(*parts), None))
    elapsed = clock() - t0
    out = [_class_data(c) if degree is None else dict(_class_data(c), degree=degree)
           for c, degree in results]
    return out, elapsed


def run_cli(lib, op, ctx):
    for name, data in op["files"].items():
        (ctx["work"] / name).write_text(json.dumps(data))
    env = dict(ctx["env"])
    if ctx["tracer"] is not None:
        spans = ctx["work"] / f"spans-{op['id']}.tsv"
        cmd = [sys.executable, str(SHIM), str(spans), *op["argv"]]
        env["BENCH_SPAWN_T0"] = repr(time.monotonic())
    else:
        cmd = [sys.executable, "-m", "schubmat.cli", *op["argv"]]
    t0 = clock()
    proc = subprocess.run(cmd, cwd=ctx["work"], env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    elapsed = clock() - t0
    for name in op["files"]:
        (ctx["work"] / name).unlink()
    if ctx["tracer"] is not None:
        ctx["tracer"].load(spans, op["id"])
        spans.unlink()
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}, elapsed


EXECUTORS = {"classes": run_classes, "products": run_products, "cli-cold": run_cli}


# ---------------------------------------------------------------------------
# checks: a list of problems, empty when the output is right


def check_class(expect, out) -> list:
    """Class facts shared by the classes workload and the CLI class verb."""
    if "raises" in expect:
        if out.get("error") != expect["raises"]:
            return [f"expected {expect['raises']}, got {out.get('error') or 'a class'}"]
        return []
    if "error" in out:
        return [f"raised {out['error']}"]
    r, n, terms = out["r"], out["n"], out["terms"]
    problems = oracle.class_problems(terms, r, n, expect["weight"])
    if out["kappa"] != expect["kappa"]:
        problems.append(f"kappa {out['kappa']} != {expect['kappa']}")
    degree = oracle.class_degree(terms, r, n)
    if degree != expect["degree"]:
        problems.append(f"degree {degree} != {expect['degree']}")
    if "hook" in expect and terms.get(expect["hook"][0], 0) != expect["hook"][1]:
        problems.append(f"hook-complement coefficient {terms.get(expect['hook'][0], 0)}"
                        f" != {expect['hook'][1]}")
    if "exact" in expect and terms != expect["exact"]:
        problems.append(f"class {terms} != {expect['exact']}")
    return problems


def check_classes(op, out):
    problems = check_class(op["expect"], out)
    if "terms" in out and (out["r"], out["n"]) != (op["r"], op["n"]):
        problems.append(f"ambient G({out['r']},{out['n']}) != G({op['r']},{op['n']})")
    return problems


def check_product(item, out):
    """A fold (with its sigma_1-power degree) or a same-ambient product."""
    expect = item["expect"]
    r, n, terms = out["r"], out["n"], out["terms"]
    if (r, n) != (expect["r"], expect["n"]):
        return [f"ambient G({r},{n}) != G({expect['r']},{expect['n']})"]
    problems = oracle.class_problems(terms, r, n, expect["weight"])
    degree = oracle.class_degree(terms, r, n)
    if degree != expect["degree"]:
        problems.append(f"class degree {degree} != {expect['degree']}")
    if "degree" in out and out["degree"] != expect["degree"]:
        problems.append(f"sigma1_power_degree {out['degree']} != {expect['degree']}")
    return problems


def check_products(op, out):
    return [f"{item['label']}: {problem}"
            for item, result in zip(op["items"], out) for problem in check_product(item, result)]


def _parse_class(text) -> dict:
    data = json.loads(text)
    terms = {tuple(t["partition"]): int(t["coeff"]) for t in data["terms"]}
    return {"r": data["r"], "n": data["n"], "terms": terms, "kappa": data.get("kappa")}


def _verify_rows(text) -> dict:
    """{'degree=volume': (verdict, lhs, rhs), ...} from the CLI's text output."""
    rows = {}
    for line in text.splitlines():
        name, verdict, lhs, rhs = line.split()
        rows[name] = (verdict, int(lhs.split("=")[1]), int(rhs.split("=")[1]))
    return rows


def cli_result(op, out):
    """The semantic content of a CLI op's output (also what the reference file digests)."""
    if out["code"] != 0:
        return {"code": out["code"], "error": (out["stderr"].splitlines() or [""])[0]}
    verb, text = op["verb"], out["stdout"]
    if verb in ("class", "product"):
        return _parse_class(text)
    if verb == "verify":
        return _verify_rows(text)
    if verb == "info":
        return json.loads(text)
    return {"beta": int(text)}


def check_cli(op, out):
    expect, verb = op["expect"], op["verb"]
    if "raises" in expect:
        if out["code"] != 1 or expect["raises"] not in out["stderr"]:
            return [f"expected exit 1 with {expect['raises']}, got exit {out['code']}"]
        return []
    if out["code"] != 0:
        return [f"exit {out['code']}: {out['stderr'].strip()[:200]}"]
    try:
        result = cli_result(op, out)
    except (ValueError, KeyError) as exc:
        return [f"unreadable {verb} output: {exc!r}"]
    if verb == "class":
        return check_class(expect, result)
    if verb == "product":
        return check_product(op, result)
    if verb == "verify":
        problems = [f"{name} {row[0]}" for name, row in result.items() if row[0] != "PASS"]
        if len(result) != 2:
            problems.append(f"expected two rows, got {sorted(result)}")
        elif result["degree=volume"][1] != expect["degree"]:
            problems.append(f"degree {result['degree=volume'][1]} != {expect['degree']}")
        return problems
    if verb == "info":
        got = {key: result[key] for key in ("n", "r", "bases", "kappa")}
        want = {key: expect[key] for key in ("n", "r", "bases", "kappa")}
        return [] if got == want else [f"info {got} != {want}"]
    return [] if result["beta"] == expect["beta"] else [f"beta {result['beta']} != {expect['beta']}"]


CHECKS = {"classes": check_classes, "products": check_products, "cli-cold": check_cli}


def digest(workload, op, out) -> str:
    """A short hash of an op's semantic output, for the default-seed reference file."""
    data = cli_result(op, out) if workload == "cli-cold" else out
    text = json.dumps(_canonical(data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canonical(data):
    if isinstance(data, list):
        return [_canonical(item) for item in data]
    if isinstance(data, dict) and "terms" in data:
        return dict(data, terms=sorted(data["terms"].items()))
    return data


# ---------------------------------------------------------------------------


def run(workload, seed, *, seconds=None, rounds=None, lib=None, tracer=None,
        work=None, env=None, reference=None, op_stream=None, part=0):
    """Run whole rounds until `seconds` have passed, `rounds` are done or the stream ends.

    Latencies are normalised to the reference speed (see ``speed``); an op
    that raised or gave a wrong output counts as attempted and failed but
    adds no latency.  The outputs of round 0 of part 0 are digested; with
    `reference` they must match it.
    """
    ctx = {"work": work, "env": env, "tracer": tracer}
    execute, check = EXECUTORS[workload], CHECKS[workload]
    stream = op_stream if op_stream is not None else workloads.ops(workload, seed, part)
    probe = speed.SpeedProbe()
    timed, failures, digests = [], [], []
    attempted, current_round = 0, 0
    start = clock()
    for op in stream:
        if op["id"] > 0 and op["round"] != current_round:
            if rounds is not None and op["round"] >= rounds:
                break
            if seconds is not None and clock() - start >= seconds:
                break
        current_round = op["round"]
        if tracer is not None:
            tracer.op = op["id"]
        probe.maybe_sample()
        attempted += 1
        began = clock()
        try:
            out, elapsed = execute(lib, op, ctx)
        except Exception as exc:  # an op that raises unexpectedly fails; the run goes on
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = check(op, out)
        if out is not None and part == 0 and op["round"] == 0:
            digests.append(digest(workload, op, out))
            if reference is not None and digests[-1] != reference[op["id"]]:
                problems.append("output differs from the default-seed reference")
        if problems:
            failures.append(f"op {op['id']} {op['label']}: {'; '.join(problems)}")
        else:
            timed.append((op["slot"], began, elapsed))
    probe.sample()
    return {"attempted": attempted,
            "slots": [slot for slot, _, _ in timed],
            "latencies": [elapsed * probe.factor(began, began + elapsed)
                          for _, began, elapsed in timed],
            "raw_busy_s": sum(elapsed for _, _, elapsed in timed),
            "relative_speed": probe.relative_speed(),
            "failures": failures, "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--part", type=int, default=0)
    args = parser.parse_args()
    speed.pin_to_one_cpu()

    tracer = tracing.Tracer() if args.trace else None
    lib = None
    if args.workload != "cli-cold":
        import schubmat as lib

        if tracer is not None:
            tracer.install()
    reference = None
    if args.seed == workloads.DEFAULT_SEED and args.part == 0:
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
    result = run(args.workload, args.seed, seconds=args.seconds, rounds=args.rounds, lib=lib,
                 tracer=tracer, work=args.work, env=os.environ, reference=reference,
                 part=args.part)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(result["attempted"])
        if args.spans is not None:
            tracer.dump(args.spans)
    del result["digests"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
