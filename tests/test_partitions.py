"""Partition kernel tests, including brute-force tableau oracles."""

from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, strategies as st

from schubmat import complement_in_rectangle, hook, schur_at_ones, syt_count
from schubmat.errors import DoesNotFit, InvalidDimensions, NotAnInteger
from schubmat.partitions import conjugate, hook_complement, normalize, partitions_in_rectangle
from schubert_helpers import jumping_sequence


def all_partitions_of(m):
    def gen(total, max_part):
        if total == 0:
            yield ()
            return
        for first in range(min(total, max_part), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(m, m))


def brute_syt_count(lam):
    """Count standard tableaux by removing outer corners; no hook lengths."""
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = normalize(lam[:i] + (lam[i] - 1,) + lam[i + 1:])
            total += brute_syt_count(smaller)
    return total


def brute_ssyt_count(lam, k):
    """Enumerate semistandard fillings with entries <= k directly."""
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    entry = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, entry[(i, j - 1)])
        if i > 0:
            lo = max(lo, entry[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, k + 1):
            entry[(i, j)] = v
            total += fill(idx + 1)
        entry.pop((i, j), None)
        return total

    return fill(0)


def test_complement_examples():
    assert complement_in_rectangle((1,), (2, 2)) == (2, 1)
    assert complement_in_rectangle(hook(3, 7), (3, 4)) == (3, 3)
    assert complement_in_rectangle((), (2, 3)) == (3, 3)


def test_complement_rejects_oversized():
    with pytest.raises(DoesNotFit):
        complement_in_rectangle((3,), (2, 2))
    with pytest.raises(DoesNotFit):
        complement_in_rectangle((1, 1, 1), (2, 4))


def test_complement_involution_exhaustive():
    for rows, cols in iproduct(range(7), range(7)):
        rect = (rows, cols)
        for lam in partitions_in_rectangle(rect):
            comp = complement_in_rectangle(lam, rect)
            assert complement_in_rectangle(comp, rect) == lam
            assert sum(lam) + sum(comp) == rows * cols


def test_complement_checks_what_it_is_given():
    """The unchecked complement is read through the checks: a shape that is
    not weakly decreasing or has a negative part still raises, even where
    the flipped parts would be weakly decreasing, and trailing zeros are
    dropped."""
    for lam, rect in [((1, 2), (2, 3)), ((3, 0, 3), (3, 3)), ((-1,), (2, 3)), ((3, -1), (2, 3))]:
        with pytest.raises(ValueError):
            complement_in_rectangle(lam, rect)
    assert complement_in_rectangle((1, 0), (2, 3)) == (3, 2)
    assert complement_in_rectangle((), (3, 0)) == ()
    assert complement_in_rectangle((), (0, 3)) == ()


@pytest.mark.parametrize("lam", [(1.0,), (True,), (2, 1.0)], ids=["float", "bool", "float-part"])
def test_complement_rejects_non_int_parts(lam):
    """A float or bool part would share the cache entry of the int part
    equal to it, so it is rejected before the cache is read."""
    with pytest.raises(NotAnInteger):
        complement_in_rectangle(lam, (2, 2))
    comp = complement_in_rectangle(tuple(map(int, lam)), (2, 2))
    assert all(type(p) is int for p in comp)


@pytest.mark.parametrize(
    "call",
    [lambda: hook(True, 3), lambda: syt_count((True,)), lambda: schur_at_ones((1,), True),
     lambda: hook(2.0, 5), lambda: syt_count((2.0, 1)), lambda: schur_at_ones((1,), 2.5),
     lambda: hook_complement(2, 5.0)],
    ids=["hook-bool", "syt-bool", "schur-bool", "hook-float", "syt-float", "schur-float",
         "hook-complement-float"],
)
def test_partition_functions_reject_non_int_arguments(call):
    with pytest.raises(NotAnInteger):
        call()


def test_conjugate_counts_the_columns_exhaustive():
    for rows, cols in iproduct(range(7), range(7)):
        for lam in partitions_in_rectangle((rows, cols)):
            columns = tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))
            assert conjugate(lam) == conjugate(lam + (0,)) == columns, lam
            assert conjugate(columns) == lam


def test_partitions_of_a_weight_are_the_filtered_list():
    for rows, cols in iproduct(range(6), range(6)):
        rect = (rows, cols)
        every = partitions_in_rectangle(rect)
        assert len(every) == len(set(every))
        for weight in range(-1, rows * cols + 2):
            assert partitions_in_rectangle(rect, weight) == tuple(
                lam for lam in every if sum(lam) == weight
            ), (rect, weight)


def test_hook_examples():
    assert hook(3, 7) == (4, 1, 1)
    assert hook(1, 2) == (1,)
    assert hook(2, 4) == (2, 1)
    assert complement_in_rectangle(hook(2, 4), (2, 2)) == (1,)


def test_hook_rejects_bad_dimensions():
    with pytest.raises(InvalidDimensions):
        hook(0, 3)
    with pytest.raises(InvalidDimensions):
        hook(3, 3)


def test_jumping_sequence_examples():
    assert jumping_sequence((), (2, 2)) == (3, 4)
    assert jumping_sequence((2, 2), (2, 2)) == (1, 2)
    assert jumping_sequence((3, 3), (3, 4)) == (2, 3, 7)


def test_jumping_sequence_strictly_increasing_and_injective():
    for rows, cols in iproduct(range(1, 6), range(1, 6)):
        rect = (rows, cols)
        n = rows + cols
        seen = {}
        for lam in partitions_in_rectangle(rect):
            seq = jumping_sequence(lam, rect)
            assert all(1 <= j <= n for j in seq)
            assert all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))
            assert seq not in seen
            seen[seq] = lam


def test_syt_count_examples():
    assert syt_count(hook(3, 7)) == 10
    assert syt_count((1,)) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 1, 0)) == 2


@pytest.mark.parametrize("lam", [(1, 2), (1, 3), (2, -1), (-1,), (2, 0, 1)])
def test_shape_functions_reject_non_partitions(lam):
    """A shape that is not weakly decreasing or has a negative part is not
    a partition: it raises as normalize does, not as a failed invariant
    and not with a count."""
    with pytest.raises(ValueError):
        syt_count(lam)
    with pytest.raises(ValueError):
        schur_at_ones(lam, 3)


def test_syt_count_against_brute_force():
    for m in range(9):
        for lam in all_partitions_of(m):
            assert syt_count(lam) == brute_syt_count(lam), lam


def test_syt_rsk_identity():
    for m in range(1, 9):
        assert sum(syt_count(lam) ** 2 for lam in all_partitions_of(m)) == factorial(m)


def test_schur_at_ones_examples():
    assert schur_at_ones((), 0) == 1
    assert schur_at_ones((2, 1), 1) == 0
    assert schur_at_ones((2, 1), 2) == 2
    assert schur_at_ones((1, 0), 1) == 1


def test_schur_at_ones_against_brute_force():
    for m in range(7):
        for lam in all_partitions_of(m):
            for k in range(5):
                assert schur_at_ones(lam, k) == brute_ssyt_count(lam, k), (lam, k)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=6))
def test_complement_involution_random(parts):
    lam = tuple(sorted(parts, reverse=True))
    rect = (max(len(lam), 1) + 1, (lam[0] if lam else 1) + 1)
    comp = complement_in_rectangle(lam, rect)
    assert complement_in_rectangle(comp, rect) == lam


def test_normalize_strips_zeros_and_rejects_garbage():
    assert normalize((3, 2, 0, 0)) == (3, 2)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))
