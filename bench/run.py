"""schubmat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload classes --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is used from ``src/`` (nothing
to build).  ``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:
set-up time over fresh interpreters, then fresh worker interpreters (so
the library's caches start empty) that run the workload's seeded ops for
``--seconds``: one for ``classes`` and ``cli-cold``, one per op sequence
for ``products``.  Latencies are normalised to a fixed machine speed
(``speed.py``); ``ops_per_s`` is the number of op slots over the sum of
their per-slot median latencies, the throughput of a typical round.
``--trace 1`` measures the per-layer metrics: the first TRACE_ROUNDS rounds
of ops (one op sequence for ``products``) run untraced, traced, and
untraced again, each in a fresh interpreter, so two commits trace the same
work; traced busy time over the mean untraced busy time is the tracing
overhead.  Per-layer seconds are raw span times.
Every op's output is checked; the last stdout line is the JSON result.
Spans of the traced run are written to ``.bench_out/spans-<workload>.tsv``.
"""

import argparse
import collections
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 21
TRACE_ROUNDS = 2
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
PERCENTILE_SPAN = 5
RUN_TIMEOUT_S = 170
IMPORT_PROBE = "import schubmat, time; print(repr(time.monotonic()))"


class BenchError(Exception):
    pass


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list, smoothed: the mean of the
    PERCENTILE_SPAN samples centred on that rank.  One order statistic of a
    few hundred noisy latencies moves far more from run to run."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    lo = max(0, rank - 1 - PERCENTILE_SPAN // 2)
    return statistics.fmean(sorted_values[lo:lo + PERCENTILE_SPAN])


def tail_percentile(count):
    """The highest percentile that still leaves at least 10 samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if count * (100 - p) / 100 >= 10),
                TAIL_PERCENTILES[-1])


def setup_seconds(env, deadline):
    """Median time from spawning a fresh interpreter until `import schubmat` returns,
    normalised to the reference speed like the op latencies."""
    probe = speed.SpeedProbe()
    spans = []
    for _ in range(SETUP_SPAWNS):
        probe.sample()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"import schubmat failed:\n{proc.stderr}")
        spans.append((t0, float(proc.stdout)))
    probe.sample()
    # the probe's clock is perf_counter; map each span onto it by its offset from now
    offset = speed.clock() - time.monotonic()
    return statistics.median((end - start) * probe.factor(start + offset, end + offset)
                             for start, end in spans)


def run_worker(args, env, deadline):
    """One fresh worker interpreter; kills its whole process group on timeout."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.splitlines()[-1])


def run_parts(args, env, work, deadline):
    """Worker processes (parts 0, 1, ...) until --seconds have passed; see workloads.ops."""
    results, part = [], 0
    t_end = time.monotonic() + args.seconds
    while part == 0 or (args.workload in workloads.PARTED and time.monotonic() < t_end):
        remaining = max(0.0, t_end - time.monotonic())
        results.append(run_worker(["--workload", args.workload, "--seed", args.seed,
                                   "--part", part, "--seconds", remaining, "--work", work],
                                  env, deadline))
        part += 1
    return results


def end_to_end(args, env, work, deadline):
    setup = setup_seconds(env, deadline)
    results = run_parts(args, env, work, deadline)
    lat = sorted(x for r in results for x in r["latencies"])
    if not lat:
        raise BenchError("every op failed")
    by_slot = collections.defaultdict(list)
    for r in results:
        for slot, latency in zip(r["slots"], r["latencies"]):
            by_slot[slot].append(latency)
    typical = sum(statistics.median(v) for v in by_slot.values())
    count = len(lat)
    tail_p = tail_percentile(count)
    metrics = {
        "ops_per_s": len(by_slot) / typical,
        "latency_p50_ms": 1000 * percentile(lat, 50),
        "latency_tail_ms": 1000 * percentile(lat, tail_p),
        "setup_s": setup,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024,
    }
    rel_speed = statistics.median(r["relative_speed"] for r in results)
    notes = {
        "ops_per_s": f"{len(by_slot)} slots / sum of per-slot median latencies; {count} ops, "
                     f"{len(results)} process(es), {sum(r['raw_busy_s'] for r in results):.2f} s "
                     f"raw busy at {rel_speed:.2f}x the reference loop time; "
                     f"input: {workloads.input_size(args.workload)}",
        "latency_p50_ms": f"{count} samples; mean of the {PERCENTILE_SPAN} around the rank",
        "latency_tail_ms": f"p{tail_p}, {count} samples; mean of the {PERCENTILE_SPAN} around the rank",
        "setup_s": f"median of {SETUP_SPAWNS} fresh interpreters",
        "peak_rss_mb": "largest CLI child" if args.workload == "cli-cold" else "largest worker",
    }
    return metrics, notes, results


def per_layer(args, env, work, deadline):
    base = ["--workload", args.workload, "--seed", args.seed, "--rounds", TRACE_ROUNDS,
            "--work", work]
    spans = ROOT / ".bench_out" / f"spans-{args.workload}.tsv"
    before = run_worker(base, env, deadline)
    traced = run_worker(base + ["--trace", "--spans", spans], env, deadline)
    after = run_worker(base, env, deadline)
    metrics = dict(traced["layers"])
    untraced = (sum(before["latencies"]) + sum(after["latencies"])) / 2
    metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / untraced
    scope = (f"over one process of {traced['attempted']} ops" if args.workload == "products"
             else f"over the first {traced['attempted']} ops ({TRACE_ROUNDS} rounds)")
    notes = {name: scope for name in metrics}
    notes["trace.overhead_ratio"] = ("traced busy time / mean of untraced runs before and after "
                                     "(speed-normalised)")
    return metrics, notes, [before, traced, after]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    speed.pin_to_one_cpu()

    if not (ROOT / "src" / "schubmat" / "__init__.py").is_file():
        print(f"bench: no library source at {ROOT / 'src' / 'schubmat'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as work:
            metrics, notes, results = measure(args, env, work, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 caller")
    for d in declared:
        name = d["name"]
        print(f"  {name:42s} {metrics[name]:>14.6g} {d['unit']:<6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':42s} {len(failures) / attempted:>14.6g} {'':6s} "
          f"{len(failures)} of {attempted} ops failed")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
