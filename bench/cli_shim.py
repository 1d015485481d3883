"""One traced CLI process: ``python cli_shim.py SPANS_FILE ARGV...``.

Installs the benchmark's wrappers, then calls ``schubmat.cli.main(ARGV)``
and exits with its status.  Writes the spans and counters to SPANS_FILE,
including ``cli.spawn_s``: the time from the parent's spawn call
(``BENCH_SPAWN_T0``, a ``time.monotonic`` reading) until ``main`` is entered.
"""

import os
import sys
import time

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer().install()
    tracer.op = 0
    from schubmat import cli

    tracer.counters["cli.spawn_s"] = time.monotonic() - float(os.environ["BENCH_SPAWN_T0"])
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
