"""Rewrite reference.json: output digests of the first round of default-seed ops.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only when an output is meant to change; the benchmark fails any
default-seed op whose output no longer matches.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import schubmat

import worker
import workloads


def main() -> int:
    reference = {}
    env = dict(os.environ, PYTHONPATH=str(Path(schubmat.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as work:
        for workload in workloads.WORKLOADS:
            result = worker.run(workload, workloads.DEFAULT_SEED, rounds=1, lib=schubmat,
                                work=Path(work), env=env)
            if result["failures"]:
                print("\n".join(result["failures"]), file=sys.stderr)
                return 1
            reference[workload] = result["digests"]
    worker.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
