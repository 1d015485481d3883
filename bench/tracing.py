"""Outside-in tracing of schubmat's public functions.

``Tracer.install`` wraps every public function of the traced modules and
rebinds every ``schubmat.*`` module attribute that holds the same function
object, because modules import each other by name
(``from .matroids import classify``).  Each call records a span (name, start,
end, parent span, op id) in flat arrays; self time is computed once, from
the spans, after the run.  Tiny helpers in SKIP are left alone: their
wrapper would cost more than their body.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("partitions", "chow", "matroids", "orbit", "polytope", "cli")
SKIP = {
    "partitions.normalize", "partitions.size", "partitions.padded", "partitions.fits",
    "partitions.contains", "partitions.conjugate", "partitions.binomial",
    "partitions.hook_lengths",
}


def _count_bases(tracer, args, result):
    tracer.counters["matroids.from_bases.bases"] += len(result.bases)


def _count_points(tracer, args, result):
    tracer.counters["polytope.lattice_points.points"] += result


def _count_lr_args(tracer, args, result):
    tracer.lr_args.add(args)


HOOKS = {
    "matroids.from_bases": _count_bases,
    "polytope.lattice_points": _count_points,
    "chow.lr_coefficient": _count_lr_args,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        self.counters: Counter = Counter()
        self.lr_args: set = set()
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap the public functions of schubmat.<layer> for each layer (imports them)."""
        import importlib

        modules = [importlib.import_module(f"schubmat.{layer}") for layer in LAYERS]
        everywhere = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "schubmat" or name.startswith("schubmat."))]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__ or name in SKIP):
                    continue
                traced = self._wrap(name, obj)
                for holder in everywhere:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, key, traced)
                            self._patched.append((holder, key, obj))
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    # -- spans out and in ---------------------------------------------------

    def dump(self, path):
        """Write counters and spans: two JSON header lines, then one TSV line per span."""
        counters = dict(self.counters)
        counters["chow.lr_coefficient.distinct"] = (
            self.counters["chow.lr_coefficient.distinct"] + len(self.lr_args))
        with open(path, "w") as f:
            f.write(json.dumps(counters) + "\n")
            f.write(json.dumps(self.names) + "\n")
            for i in range(len(self.span_start)):
                f.write(f"{self.span_name[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                        f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n")

    def load(self, path, op):
        """Append spans dumped by another process, re-numbered and tagged with this op id.

        The other process's distinct LR arguments add to this one's count: each
        process starts with its own empty cache."""
        with open(path) as f:
            self.counters.update(json.loads(f.readline()))
            ids = [self._name_id(name) for name in json.loads(f.readline())]
            offset = len(self.span_start)
            for line in f:
                nid, parent, _, start, end = line.split("\t")
                parent = int(parent)
                self.span_name.append(ids[int(nid)])
                self.span_parent.append(parent + offset if parent >= 0 else self.current)
                self.span_op.append(op)
                self.span_start.append(float(start))
                self.span_end.append(float(end))

    # -- aggregation --------------------------------------------------------

    def per_name(self):
        """{name: (calls, total seconds, self seconds)}; self = duration minus child spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, total, own = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def layer_metrics(self, ops: int) -> dict:
        """The benchmark's per-layer metrics over `ops` traced ops."""
        stats = self.per_name()

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def seconds(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        lr_calls = calls("chow.lr_coefficient")
        lr_distinct = len(self.lr_args) + self.counters["chow.lr_coefficient.distinct"]
        out = {
            "matroids.from_bases.s": seconds("matroids.from_bases"),
            "matroids.from_bases.bases": self.counters["matroids.from_bases.bases"],
            "matroids.validate_exchange.s": seconds("matroids.validate_exchange"),
            "matroids.classify.calls_per_op": calls("matroids.classify") / ops,
            "matroids.classify.s": seconds("matroids.classify"),
            "matroids.circuits.calls": calls("matroids.circuits"),
            "matroids.circuits.s": seconds("matroids.circuits"),
            "matroids.beta.s": seconds("matroids.beta"),
            "matroids.minor.calls": calls("matroids.minor"),
            "chow.product.s": seconds("chow.product"),
            "chow.box_shift.s": seconds("chow.box_shift"),
            "chow.lr_coefficient.calls": lr_calls,
            "chow.lr_coefficient.distinct_ratio": lr_distinct / lr_calls if lr_calls else 0.0,
            "chow.pieri.calls": calls("chow.pieri"),
            "chow.sigma1_power_degree.s": seconds("chow.sigma1_power_degree"),
            "partitions.partitions_in_rectangle.calls": calls("partitions.partitions_in_rectangle"),
            "partitions.schur_at_ones.calls": calls("partitions.schur_at_ones"),
            "orbit.sc.self_s": stats.get("orbit.sc", (0, 0.0, 0.0))[2],
            "orbit.sc_uniform.s": seconds("orbit.sc_uniform"),
            "orbit.sc_direct_sum.s": seconds("orbit.sc_direct_sum"),
            "polytope.lattice_points.calls": calls("polytope.lattice_points"),
            "polytope.lattice_points.s": seconds("polytope.lattice_points"),
            "polytope.lattice_points.points": self.counters["polytope.lattice_points.points"],
            "polytope.ehrhart_report.s": seconds("polytope.ehrhart_report"),
            "cli.spawn_s": self.counters["cli.spawn_s"],
            "cli.main.s": seconds("cli.main"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                own for name, (_, _, own) in stats.items() if name.startswith(layer + "."))
        return out
