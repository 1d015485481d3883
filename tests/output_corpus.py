"""The "same outputs" corpus: seeded basis lists whose public outputs are
hashed into one sha256, so a change meant to keep every output can be
checked against one fixed value.

Each case is (n, r, basis list).  Its outputs are the result of
`from_bases` (or its error type and message); for a matroid, `classify`,
`beta`, the sorted bases and circuits, `sc`'s text and methods (or its
error), and the dual's `classify` and `beta`.  Sets are sorted, so the hash
does not depend on hash randomization.

The cases:
- every family matroid of `family_corpus(8)`, its bases sorted, each tuple
  reversed, and relabelled by a seeded permutation;
- Fano, non-Pappus and Vamos, from their non-bases;
- seeded random r-set families with n <= 7, some dense (more than half the
  r-sets), some with one entry corrupted (0, n + 1, True, a float, a
  repeated element, or the list emptied);
- seeded near-uniform families with n <= 10: all r-sets but a few, shuffled,
  some with every tuple reversed;
- seeded direct sums of two or three small family matroids, relabelled.

`test_output_corpus.py` pins the hash; re-record it only on an intended
change of output, as for `cli_stdout.json`.  To print it:

    PYTHONPATH=src python tests/output_corpus.py
"""

import hashlib
import json
import random
from functools import reduce
from itertools import combinations

from conftest import FANO_LINES, NON_PAPPUS_LINES, VAMOS_CIRCUIT_HYPERPLANES, family_corpus
from schubmat import (
    beta, circuits, classify, direct_sum, dual, from_bases, minimal, panhandle, sc, uniform)
from schubmat.errors import SchubmatError

SEED = 20261021


def canonical(value):
    """value as JSON-ready data: a record as its fields, a set sorted."""
    if hasattr(value, "_asdict"):
        return {key: canonical(v) for key, v in value._asdict().items()}
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def error(exc: SchubmatError) -> list:
    return [type(exc).__name__, str(exc)]


def outputs(n: int, r: int, bases: list) -> list:
    """The public outputs of one case."""
    try:
        m = from_bases(n, r, bases)
    except SchubmatError as exc:
        return error(exc)
    try:
        result = sc(m)
        orbit = [result.chow_class.text(), list(result.methods)]
    except SchubmatError as exc:
        orbit = error(exc)
    d = dual(m)
    return [repr(m), canonical(classify(m)), beta(m), canonical(m.bases), canonical(circuits(m)),
            orbit, canonical(classify(d)), beta(d)]


def relabel(bases, perm) -> list[tuple]:
    return [tuple(perm[e - 1] for e in b) for b in bases]


def corrupt(rng: random.Random, n: int, r: int, bases: list[tuple]) -> list:
    """bases with one entry spoiled, or emptied."""
    kind = rng.randrange(6)
    if kind == 5:
        return []
    i = rng.randrange(len(bases))
    b = list(bases[i])
    if b:
        b[rng.randrange(len(b))] = [0, n + 1, True, 1.0, b[0]][kind]
    else:
        b = [n + 1]
    return bases[:i] + [tuple(b)] + bases[i + 1:]


def cases():
    rng = random.Random(SEED)
    for *_, m in family_corpus(8):
        perm = rng.sample(range(1, m.n + 1), m.n)
        yield m.n, m.r, relabel((b[::-1] for b in sorted(m.bases)), perm)
    named = ((7, 3, FANO_LINES), (9, 3, NON_PAPPUS_LINES), (8, 4, VAMOS_CIRCUIT_HYPERPLANES))
    for n, r, lines in named:
        yield n, r, [b for b in combinations(range(1, n + 1), r) if set(b) not in lines]
    for _ in range(1000):
        n = rng.randrange(8)
        r = rng.randrange(n + 1)
        rsets = list(combinations(range(1, n + 1), r))
        bases = rng.sample(rsets, rng.randrange(1, len(rsets) + 1))
        if rng.random() < 0.3:
            bases = corrupt(rng, n, r, bases)
        yield n, r, bases
    for _ in range(200):
        n = rng.randrange(4, 11)
        r = rng.randrange(1, n)
        rsets = list(combinations(range(1, n + 1), r))
        drop = set(rng.sample(range(len(rsets)), rng.randrange(5)))
        bases = [b for i, b in enumerate(rsets) if i not in drop]
        rng.shuffle(bases)
        if rng.random() < 0.5:
            bases = [b[::-1] for b in bases]
        yield n, r, bases
    summands = [uniform(0, 1), uniform(1, 1), uniform(1, 2), uniform(2, 4), uniform(2, 5),
                minimal(2, 4), minimal(3, 5), panhandle(2, 3, 5)]
    for _ in range(100):
        m = reduce(direct_sum, rng.sample(summands, rng.randrange(2, 4)))
        perm = rng.sample(range(1, m.n + 1), m.n)
        yield m.n, m.r, relabel(sorted(m.bases), perm)


def corpus_hash() -> str:
    digest = hashlib.sha256()
    for n, r, bases in cases():
        line = [n, r, [list(b) for b in bases], outputs(n, r, bases)]
        digest.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(corpus_hash())
