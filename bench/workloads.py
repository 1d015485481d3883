"""Seeded op generators for the three benchmark workloads.

All workloads are closed loop with one caller: the next op starts when the
previous one returns.  Each generator yields an op sequence that is a pure
function of (workload, seed, part).  Every op has a slot: ops in the same
slot do the same kind of work on different random inputs, so the runner can
take a per-slot median and be robust to a slow stretch of the machine.  The
seed draws the random parts of each input (sparse paving nonbases,
ground-set relabelling, class coefficients, the product ambient) and the
order within a round.  The library only receives the generated inputs
(basis lists, classes, argv); the expected values ride along in
``op["expect"]`` and come from ``oracle``.

Why each workload, and what it varies:

- ``classes``: ``from_bases`` then ``sc`` on basis lists.  The matroid layer
  (exchange validation, circuit enumeration in ``classify``, ``beta``) does
  almost all the work; the Chow kernel does little and the polytope layer
  none.  A round holds each item of CLASSES_ROUND once (the slot is the
  item).  Varies n (4..12), rank, the nonbasis count k of random sparse
  paving matroids (n = 7..10), and direct-sum arity (2, 3).  Sums with
  n = 15 are left out: one costs about 14 s.  The round length is odd so
  that the median and the tail percentile fall inside a group of like ops;
  otherwise they jump when a run fits one round more or less.
- ``products``: class-level assembly with no matroid: random positive
  classes of degree (r-1)(n-r-1) in G(r, n), n <= 8, folded by
  ``sc_direct_sum`` and read by ``sigma1_power_degree``, plus one
  same-ambient ``product`` per op.  ``chow`` and ``partitions`` do all the
  work.  Each process (a part) starts with empty library caches and runs
  one op per pair of FOLD_SEQUENCE (the slot is the op's index): the op
  folds that pair, whose Littlewood-Richardson (LR) arguments are new to the
  process, and re-folds the FOLD_REPEATS pairs before it, whose arguments
  are cached.  So one fold in three is cold in every op, and the cold LR
  work, which any LR-kernel or caching change moves, is most of each op's
  time; the traced run reports the share of distinct LR arguments.
- ``cli-cold``: one fresh ``python -m schubmat.cli`` process per op (verbs
  class, verify, info, beta, product; flags and generated JSON files).  The
  only workload that runs the ``cli`` layer, and the only one where every op
  pays the import and starts with empty caches.  A round holds each item
  of CLI_ROUND once.

There is no in-process ``verify`` workload.  ``verify_volume_relation`` is
dominated by lattice-point counting, whose heaviest ops swung by +-30%
between runs on the shared two-core machine this was tuned on, putting its
latency tail outside any usable bound.  The polytope layer is still timed:
``cli-cold`` runs the ``verify`` verb, and its traced run reports the
``polytope.*`` metrics.
"""

import itertools
import random
from math import comb

import oracle

WORKLOADS = ("classes", "products", "cli-cold")
DEFAULT_SEED = 1
PARTED = ("products",)  # run as a series of processes, each with a finite op sequence



# ---------------------------------------------------------------------------
# matroids as basis lists


def schubert_bases(n, indices):
    """Bases of the Schubert matroid SM_I: r-sets b with b_i <= I_i."""
    r = len(indices)
    return [b for b in itertools.combinations(range(1, n + 1), r)
            if all(b[i] <= indices[i] for i in range(r))]


def component_bases(spec, rng):
    """Bases of one component spec: ("U", r, n), ("T", r, n), ("SP", r, n, k), ("Pan", r, s, n)."""
    kind = spec[0]
    if kind == "U":
        _, r, n = spec
        return list(itertools.combinations(range(1, n + 1), r))
    if kind == "T":
        _, r, n = spec
        return schubert_bases(n, list(range(2, r + 1)) + [n])
    if kind == "Pan":
        _, r, s, n = spec
        return schubert_bases(n, list(range(s - r + 2, s + 1)) + [n])
    if kind == "SP":
        _, r, n, k = spec
        nonbases = sparse_paving_nonbases(r, n, k, rng)
        return [b for b in itertools.combinations(range(1, n + 1), r) if frozenset(b) not in nonbases]
    raise ValueError(f"unknown component {spec}")


def sparse_paving_nonbases(r, n, k, rng):
    """k random r-subsets, pairwise sharing at most r-2 elements."""
    chosen = []
    while len(chosen) < k:
        cand = frozenset(rng.sample(range(1, n + 1), r))
        if all(len(cand & other) <= r - 2 for other in chosen):
            chosen.append(cand)
    return set(chosen)


def spec_n(spec):
    return spec[3] if spec[0] == "Pan" else spec[2]


def spec_degree(spec):
    kind, r, n = spec[0], spec[1], spec[2]
    if kind == "U":
        return oracle.sparse_paving_degree(r, n)
    if kind == "SP":
        return oracle.sparse_paving_degree(r, n, spec[3])
    return oracle.minimal_degree(r, n)


def spec_beta(spec):
    kind, r, n = spec[0], spec[1], spec[2]
    if kind == "T":
        return 1
    return comb(n - 2, r - 1) - (spec[3] if kind == "SP" else 0)


def label(specs):
    return "+".join(f"{s[0]}({','.join(map(str, s[1:]))})" for s in specs)


def matroid_op(specs, rng):
    """A direct sum of the given components on a shuffled ground set, with its expected class facts."""
    bases, n, r = [()], 0, 0
    for spec in specs:
        comp = component_bases(spec, rng)
        bases = [b + tuple(e + n for e in c) for b in bases for c in comp]
        n += spec_n(spec)
        r += spec[1]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    bases = sorted(tuple(sorted(perm[e - 1] for e in b)) for b in bases)
    kappa = len(specs)
    op = {"label": label(specs), "n": n, "r": r, "bases": bases}
    if specs[0][0] == "Pan":
        op["expect"] = {"raises": "UnsupportedMatroid"}
        return op
    expect = {
        "kappa": kappa,
        "weight": r * (n - r) - (n - kappa),
        "degree": oracle.direct_sum_degree([(s[2], spec_degree(s)) for s in specs]),
        "beta": spec_beta(specs[0]) if kappa == 1 else 0,
    }
    if kappa == 1:
        hc = oracle.hook_complement(r, n)
        if specs[0][0] == "T":
            expect["exact"] = {hc: 1}
        else:
            expect["hook"] = (hc, spec_beta(specs[0]))
    op["expect"] = expect
    return op


# ---------------------------------------------------------------------------
# round lists


def round_lists(items, rng):
    """Endless (round, slot, item) triples: every item once per round, in seeded order;
    the slot is the item's index in `items`."""
    for round_no in itertools.count():
        order = list(enumerate(items))
        rng.shuffle(order)
        for slot, item in order:
            yield round_no, slot, item


CLASSES_ROUND = (
    [("uniform", [("U", r, n)]) for r, n in [
        (1, 4), (2, 4), (2, 5), (3, 5), (1, 6), (2, 6), (3, 6), (2, 7), (3, 7), (2, 8), (3, 8), (4, 8),
        (2, 9), (3, 9), (4, 9), (2, 10), (3, 10), (4, 10), (5, 10), (2, 11), (3, 11)]]
    + [("sparse_paving", [("SP", r, n, k)]) for r, n, k in [
        (2, 6, 2), (3, 6, 1), (4, 6, 1), (2, 7, 2), (3, 7, 1), (3, 7, 3), (3, 7, 5), (4, 7, 2),
        (5, 7, 2), (2, 8, 3), (3, 8, 2), (3, 8, 4), (4, 8, 3), (4, 8, 6), (5, 8, 2),
        (3, 9, 3), (4, 9, 2), (4, 9, 5), (6, 9, 1), (3, 10, 4), (4, 10, 3)]]
    + [("minimal", [("T", r, n)]) for r, n in [
        (2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (2, 8), (3, 8), (4, 8), (2, 9), (3, 9), (4, 9),
        (5, 9), (3, 10), (4, 10), (5, 10)]]
    + [("panhandle", [("Pan", r, s, n)]) for r, s, n in [
        (2, 3, 6), (2, 3, 7), (3, 4, 7), (3, 5, 7), (2, 4, 7), (3, 4, 8), (3, 5, 8), (4, 5, 8)]]
    + [("sum", specs) for specs in [
        [("U", 2, 4), ("U", 2, 5)], [("U", 2, 5), ("T", 3, 6)], [("SP", 3, 7, 2), ("U", 1, 3)],
        [("U", 2, 4), ("U", 2, 4), ("U", 1, 3)], [("T", 3, 6), ("U", 2, 4)],
        [("U", 1, 2), ("U", 2, 5), ("U", 2, 4)], [("U", 2, 5), ("U", 3, 6)],
        [("U", 2, 4), ("SP", 3, 7, 3)], [("U", 1, 3), ("U", 2, 4), ("U", 2, 5)],
        [("U", 1, 2), ("U", 2, 4)], [("U", 1, 3), ("T", 2, 4)], [("T", 2, 5), ("U", 1, 2)]]]
)


def matroid_ops(round_items, rng):
    for round_no, slot, (kind, specs) in round_lists(round_items, rng):
        op = matroid_op(specs, rng)
        op.update(kind=kind, round=round_no, slot=slot)
        yield op


# ---------------------------------------------------------------------------
# products


def partitions_in_box(rows, cols, weight):
    def gen(rows_left, max_part, budget):
        if budget == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(max_part, budget), 0, -1):
            for rest in gen(rows_left - 1, first, budget - first):
                yield (first,) + rest
    return list(gen(rows, cols, weight))


def random_class(r, n, weight, rng):
    """Coefficients drawn from 1..3 on every partition of the weight in the r x (n-r) box."""
    return {lam: rng.randint(1, 3) for lam in partitions_in_box(r, n - r, weight)}


PRODUCT_AMBIENTS = [(2, 4), (2, 5), (2, 6), (3, 6), (2, 7), (3, 7), (3, 8), (4, 8)]
# Ambient pairs folded by one products process, in this order.  Each pair's
# folded ambient G(r1 + r2, n1 + n2) differs from the others', so each pair
# brings Littlewood-Richardson arguments new to the process; alone in a fresh
# process each costs 18-75 ms, 10-30 times its warm cost.
FOLD_SEQUENCE = [
    [(2, 5), (3, 7)], [(2, 5), (3, 8)], [(3, 5), (3, 8)], [(2, 6), (5, 7)], [(5, 7), (6, 8)],
    [(3, 5), (5, 8)], [(2, 7), (2, 8)], [(4, 7), (2, 8)], [(5, 7), (2, 8)], [(3, 7), (2, 8)],
    [(4, 6), (3, 8)], [(2, 8), (2, 8)], [(6, 8), (6, 8)], [(2, 6), (6, 8)], [(3, 6), (6, 8)],
    [(2, 6), (3, 8)], [(5, 7), (3, 8)], [(5, 7), (5, 8)], [(3, 7), (3, 7)], [(5, 7), (4, 8)],
]
FOLD_REPEATS = 2

def fold_op(combo, rng):
    parts = []
    for r, n in combo:
        terms = random_class(r, n, (r - 1) * (n - r - 1), rng)
        parts.append({"r": r, "n": n, "terms": terms})
    big_r, big_n, k = sum(p["r"] for p in parts), sum(p["n"] for p in parts), len(parts)
    degree = oracle.direct_sum_degree(
        [(p["n"], oracle.class_degree(p["terms"], p["r"], p["n"])) for p in parts])
    return {
        "kind": "fold", "label": "fold " + "x".join(f"G({r},{n})" for r, n in combo),
        "parts": parts, "s": big_n - k,
        "expect": {"r": big_r, "n": big_n, "weight": big_r * (big_n - big_r) - (big_n - k),
                   "degree": degree},
    }


def product_op(r, n, rng):
    top = r * (n - r)
    wa = rng.randint(1, top - 1)
    wb = rng.randint(1, top - wa)
    a, b = random_class(r, n, wa, rng), random_class(r, n, wb, rng)
    return {
        "kind": "product", "label": f"product G({r},{n}) {wa}+{wb}",
        "parts": [{"r": r, "n": n, "terms": a}, {"r": r, "n": n, "terms": b}],
        "expect": {"r": r, "n": n, "weight": wa + wb, "degree": oracle.product_degree(a, b, r, n)},
    }


def product_ops(rng):
    """One process's ops: op j folds FOLD_SEQUENCE[j], which is new to the process, re-folds
    the FOLD_REPEATS pairs before it with new coefficients, and multiplies two classes in a
    seeded pool ambient."""
    for j, combo in enumerate(FOLD_SEQUENCE):
        repeats = FOLD_SEQUENCE[max(0, j - FOLD_REPEATS):j]
        items = [fold_op(c, rng) for c in [combo, *repeats]]
        items.append(product_op(*rng.choice(PRODUCT_AMBIENTS), rng))
        yield {"kind": "batch", "label": f"batch {j}: {items[0]['label']} and {len(items) - 1} more",
               "items": items, "round": 0, "slot": j}


# ---------------------------------------------------------------------------
# cli-cold


def class_json(r, n, terms):
    return {"r": r, "n": n, "terms": [{"partition": list(lam), "coeff": str(c)}
                                      for lam, c in sorted(terms.items())]}


def flag_args(specs):
    flags = {"U": "--uniform", "T": "--minimal", "Pan": "--panhandle"}
    args = []
    for spec in specs:
        args += [flags[spec[0]], ",".join(map(str, spec[1:]))]
    return args


CLI_ROUND = (
    [("class", specs) for specs in [
        [("U", 2, 5)], [("U", 2, 6)], [("U", 3, 7)], [("U", 4, 9)], [("U", 4, 10)], [("U", 5, 10)],
        [("T", 2, 5)],
        [("Pan", 2, 3, 6)], [("U", 2, 4), ("U", 2, 5)], [("U", 2, 5), ("U", 3, 6)],
        [("T", 3, 6), ("U", 1, 3)],
        [("SP", 3, 7, 2)], [("SP", 4, 8, 2)], [("SP", 3, 9, 2)]]]
    + [("verify", specs) for specs in [
        [("U", 3, 7)], [("U", 4, 8)], [("T", 3, 7)], [("SP", 3, 8, 2)], [("SP", 4, 8, 1)],
        [("U", 2, 5), ("U", 1, 3)]]]
    + [("info", specs) for specs in [
        [("U", 3, 8)], [("U", 4, 9)], [("U", 5, 10)], [("T", 4, 8)], [("SP", 3, 8, 2)],
        [("U", 2, 4), ("U", 2, 5)]]]
    + [("beta", specs) for specs in [
        [("U", 3, 7)], [("U", 4, 8)], [("T", 3, 7)], [("SP", 4, 8, 2)], [("U", 2, 5), ("U", 1, 3)],
        [("U", 5, 10)]]]
    + [("product", ambient) for ambient in [(2, 5), (2, 6), (2, 7), (3, 6), (3, 7)]]
)


def cli_op(verb, item, index, rng):
    """argv for one CLI process plus the JSON files it reads (written by the runner)."""
    if verb == "product":
        op = product_op(*item, rng)
        r, n = item
        files = {f"op{index}-{side}.json": class_json(r, n, part["terms"])
                 for side, part in zip("ab", op["parts"])}
        return {"verb": verb, "label": op["label"], "files": files,
                "argv": ["product", *files, "--format", "json"], "expect": op["expect"]}
    mop = matroid_op(item, rng)
    files = {}
    if any(spec[0] == "SP" for spec in item):  # no flag builds these: write the bases
        name = f"op{index}-m.json"
        files[name] = {"n": mop["n"], "r": mop["r"], "bases": [list(b) for b in mop["bases"]]}
        source = ["--matroid", name]
    else:
        source = flag_args(item)
    argv = [verb, *source] + (["--format", "json"] if verb in ("class", "info") else [])
    expect = dict(mop["expect"], n=mop["n"], r=mop["r"], bases=len(mop["bases"]))
    return {"verb": verb, "label": f"{verb} {mop['label']}", "files": files,
            "argv": argv, "expect": expect}


def cli_ops(rng):
    for index, (round_no, slot, (verb, item)) in enumerate(round_lists(CLI_ROUND, rng)):
        op = cli_op(verb, item, index, rng)
        op.update(kind=verb, round=round_no, slot=slot)
        yield op


# ---------------------------------------------------------------------------


def input_size(workload) -> str:
    """What one round or process of the workload holds, for the result notes."""
    if workload == "classes":
        kinds = sorted({kind for kind, _ in CLASSES_ROUND})
        return (f"rounds of {len(CLASSES_ROUND)} basis lists ({', '.join(kinds)}), "
                f"n {min(sum(spec_n(s) for s in specs) for _, specs in CLASSES_ROUND)}.."
                f"{max(sum(spec_n(s) for s in specs) for _, specs in CLASSES_ROUND)}")
    if workload == "products":
        big_n = max(sum(n for _, n in pair) for pair in FOLD_SEQUENCE)
        return (f"processes of {len(FOLD_SEQUENCE)} ops; an op folds 1 new and up to "
                f"{FOLD_REPEATS} repeated pairs into G(R,N), N <= {big_n}, "
                f"and takes 1 product in G(r,n), n <= 8")
    verbs = sorted({verb for verb, _ in CLI_ROUND})
    return f"rounds of {len(CLI_ROUND)} processes ({', '.join(verbs)}), n <= 10"


def ops(workload, seed, part=0):
    """The op sequence of one process of a workload; op ids count from 0.

    ``products`` runs one finite sequence per process, and a run starts
    processes (parts 0, 1, ...) until its time is up; the other workloads
    run one endless sequence in one process.
    """
    rng = random.Random(f"{workload}:{seed}" if part == 0 else f"{workload}:{seed}:{part}")
    if workload == "classes":
        stream = matroid_ops(CLASSES_ROUND, rng)
    elif workload == "products":
        stream = product_ops(rng)
    elif workload == "cli-cold":
        stream = cli_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op_id, op in enumerate(stream):
        op["id"] = op_id
        yield op
