"""Matroid construction, structure queries, beta invariant, classification."""

import ast
import json
import random
import re
from enum import IntEnum
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from schubmat import (
    beta,
    circuits,
    classify,
    direct_sum,
    dual,
    ehrhart_report,
    from_bases,
    from_rational_matrix,
    minimal,
    minor,
    panhandle,
    restriction,
    schubert_matroid,
    uniform,
)
from schubmat import matroids, sc, verify_volume_relation
from schubmat.matroids import lattice_path_matroid
from schubmat.orbit import sc_uniform
from schubmat.partitions import hook
from schubmat.errors import (
    BadStepString,
    DependentContraction,
    ElementOutOfRange,
    EmptyBases,
    EmptyMatroid,
    ExchangeAxiomViolated,
    InvalidDimensions,
    MalformedBasis,
    NotAnInteger,
    OverlappingSets,
    PathsCross,
    RankDeficient,
    SchubmatError,
    WrongBasisSize,
    require_int,
)
from schubmat.matroids import Matroid, validate_exchange
from conftest import beta_via_tutte, family_corpus, matroid_from_nonbases
import frozenset_oracle as oracle


def relabel(m: Matroid, perm: dict) -> Matroid:
    return from_bases(m.n, m.r, [tuple(sorted(perm[e] for e in b)) for b in m.bases])


class Label(int):
    """An int subclass, accepted as a ground-set element like a plain int."""


def test_from_bases_examples():
    u24 = from_bases(4, 2, combinations(range(1, 5), 2))
    assert len(u24.bases) == 6
    assert from_bases(4, 2, [(Label(1), 2), *combinations(range(1, 5), 2)]) == u24
    t24 = from_bases(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert len(t24.bases) == 5
    with pytest.raises(ExchangeAxiomViolated):
        from_bases(4, 2, [(1, 2), (3, 4)])


def test_from_bases_validation_errors():
    with pytest.raises(EmptyBases):
        from_bases(3, 2, [])
    with pytest.raises(WrongBasisSize):
        from_bases(3, 2, [(1,)])
    # a repeated element is not dropped: (1, 1, 2) is not the basis (1, 2)
    with pytest.raises(WrongBasisSize, match=r"basis \(1, 1, 2\) is not a set of 2 elements"):
        from_bases(3, 2, [(1, 1, 2), (1, 3), (2, 3)])
    with pytest.raises(WrongBasisSize, match=r"basis \(1, 1\) is not a set of 2 elements"):
        from_bases(3, 2, [(1, 1), (1, 3), (2, 3)])
    from schubmat.errors import ElementOutOfRange
    with pytest.raises(ElementOutOfRange):
        from_bases(3, 2, [(1, 5)])


def test_lattice_path_examples():
    u37 = lattice_path_matroid("NNNEEEE", "EEEENNN")
    assert u37 == uniform(3, 7)
    assert len(u37.bases) == 35
    # lower path with north steps at {2,3,7}: the minimal matroid T_{3,7}
    lower = "ENNEEEN"
    t37 = lattice_path_matroid("NNNEEEE", lower)
    assert len(t37.bases) == 3 * 4 + 1
    assert t37 == minimal(3, 7)
    pan = lattice_path_matroid("NNEEE", "EENEN")
    assert len(pan.bases) == 9
    assert frozenset({(4, 5)}) == frozenset(
        set(combinations(range(1, 6), 2)) - pan.bases
    )
    assert pan == panhandle(2, 3, 5)


def test_lattice_path_validates_against_path_enumeration():
    # bases of M[P,Q] are exactly the label sets of vertical steps of monotone
    # paths between Q and P; check the interval characterization against it
    def paths(n, r):
        for ups in combinations(range(n), r):
            yield ["N" if i in set(ups) else "E" for i in range(n)]

    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        all_paths = [p for p in paths(n, r)]
        upper = rng.choice(all_paths)
        def height(path):
            return [path[: i + 1].count("N") for i in range(n)]
        lowers = [p for p in all_paths if all(
            hu >= hl for hu, hl in zip(height(upper), height(p)))]
        lower = rng.choice(lowers)
        m = lattice_path_matroid("".join(upper), "".join(lower))
        expected = {
            tuple(i + 1 for i in range(n) if p[i] == "N")
            for p in all_paths
            if all(hu >= hp >= hl for hu, hp, hl in zip(height(upper), height(p), height(lower)))
        }
        assert m.bases == frozenset(expected)


def test_lattice_path_matches_path_enumeration_on_every_pair_up_to_7():
    # every pair of N/E strings of one length n <= 7 with one north count:
    # PathsCross exactly when some prefix of the lower path has more N steps
    # than the same prefix of the upper path, else the bases are the north
    # labels of the paths between the two
    def heights(path):
        return [path[: i + 1].count("N") for i in range(len(path))]

    for n in range(8):
        for r in range(n + 1):
            paths = ["".join("N" if i in ups else "E" for i in range(n))
                     for ups in combinations(range(n), r)]
            for upper in paths:
                for lower in paths:
                    hu, hl = heights(upper), heights(lower)
                    if any(u < l for u, l in zip(hu, hl)):
                        with pytest.raises(PathsCross):
                            lattice_path_matroid(upper, lower)
                        continue
                    expected = {
                        tuple(i + 1 for i in range(n) if path[i] == "N")
                        for path in paths
                        if all(u >= h >= l for u, h, l in zip(hu, heights(path), hl))
                    }
                    assert lattice_path_matroid(upper, lower).bases == frozenset(expected)


def test_path_families_count_their_bases_past_7():
    # past the exhaustive bound above: T_{r,n} has r(n-r)+1 bases, U_{r,n}
    # C(n, r), and Pan_{r,s,n} C(s, r) + (n-s) C(s, r-1), the bases inside
    # [s] and those with their largest element past s
    for r, n in ((8, 20), (1, 9), (3, 12), (6, 14), (11, 12)):
        assert len(minimal(r, n).bases) == r * (n - r) + 1, (r, n)
    for r, n in ((0, 9), (2, 9), (4, 12), (5, 11), (12, 12)):
        assert len(uniform(r, n).bases) == comb(n, r), (r, n)
    for r, s, n in ((3, 5, 10), (4, 7, 12), (2, 8, 9)):
        assert len(panhandle(r, s, n).bases) == comb(s, r) + (n - s) * comb(s, r - 1), (r, s, n)


def test_lattice_path_rejects_crossing():
    with pytest.raises(PathsCross):
        lattice_path_matroid("EENN", "NNEE")


@pytest.mark.parametrize(
    "upper, lower",
    [("NX", "NE"), ("NE", "NE "), ("NE", "NEE"), ("NE", "EE"), ("NNE", "NEE")],
    ids=["bad-upper-step", "bad-lower-step", "lengths-differ", "north-counts-differ",
         "north-counts-differ-same-length"],
)
def test_lattice_path_rejects_bad_step_strings(upper, lower):
    with pytest.raises(BadStepString):
        lattice_path_matroid(upper, lower)


def test_schubert_matroid_examples():
    assert schubert_matroid(7, {5, 6, 7}) == uniform(3, 7)
    assert schubert_matroid(7, {2, 3, 7}) == minimal(3, 7)
    assert schubert_matroid(5, {3, 5}) == panhandle(2, 3, 5)


def test_panhandle_degenerate_cases():
    assert panhandle(3, 3, 7) == minimal(3, 7)
    assert panhandle(3, 6, 7) == uniform(3, 7)


def test_is_independent_means_inside_some_basis(fano):
    loop = from_bases(1, 0, [()])
    sums = [direct_sum(uniform(2, 4), minimal(2, 4)), direct_sum(loop, uniform(1, 2))]
    for m in [m for *_, m in family_corpus(7)] + [fano] + sums:
        bases = [set(b) for b in m.bases]
        for k in range(m.n + 1):
            for s in combinations(range(1, m.n + 1), k):
                assert m.is_independent(s) == any(set(s) <= b for b in bases), (m, s)


def test_from_rational_matrix_minimal_realization():
    entries = [
        [1, 0, 0, 1, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 1],
        [0, 0, 1, 1, 1, 1, 1],
    ]
    m = from_rational_matrix(entries, 3)
    assert len(m.bases) == 13
    expected = {(1, 2, 3)} | {
        tuple(sorted(pair + (c,)))
        for pair in combinations((1, 2, 3), 2)
        for c in (4, 5, 6, 7)
    }
    assert m.bases == frozenset(expected)


def test_from_rational_matrix_free_and_generic():
    free = from_rational_matrix([[1, 0], [0, 1]], 2)
    assert free.bases == frozenset({(1, 2)})
    rng = random.Random(11)
    generic = from_rational_matrix(
        [[Fraction(rng.randint(1, 97)) for _ in range(4)] for _ in range(2)], 2
    )
    validate_exchange(generic)
    with pytest.raises(RankDeficient):
        from_rational_matrix([[1, 2], [2, 4]], 2)
    # the row count is a count, checked before the matrix is read
    with pytest.raises(InvalidDimensions, match="row count -1 is negative"):
        from_rational_matrix([[1, 2]], -1)


def test_dual():
    assert dual(uniform(2, 4)) == uniform(2, 4)
    assert dual(uniform(1, 3)) == uniform(2, 3)


def test_dual_involution_on_corpus(fano):
    for _, _, _, m in family_corpus(6):
        assert dual(dual(m)) == m
    assert dual(dual(fano)) == fano


def test_circuits_of_dual_are_cocircuits(fano):
    # a cocircuit is the complement of a hyperplane: minimal set meeting every basis
    m = fano
    cocircuits = circuits(dual(m))
    for c in cocircuits:
        assert all(set(b) & c for b in m.bases)
        assert all(
            any(not (set(b) & (c - {e})) for b in m.bases) for e in c
        )


def test_minor_examples():
    assert minor(uniform(2, 4), delete={4}) == uniform(2, 3)
    t37 = from_rational_matrix(
        [[1, 0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1, 1]], 3
    )
    assert minor(t37, delete={7}) == from_rational_matrix(
        [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1]], 3
    )
    assert minor(uniform(2, 3), contract={1}) == uniform(1, 2)


def test_minor_errors():
    with pytest.raises(OverlappingSets):
        minor(uniform(2, 4), delete={1}, contract={1})
    t24 = from_bases(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    with pytest.raises(DependentContraction):
        minor(t24, contract={3, 4})


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda m: restriction(m, {1, 2, 9}), ElementOutOfRange),
        (lambda m: minor(m, delete={9}), ElementOutOfRange),
        (lambda m: minor(m, delete={True}), NotAnInteger),
        (lambda m: minor(m, contract={0}), ElementOutOfRange),
        (lambda m: restriction(m, {1, 2.0}), NotAnInteger),
        (lambda m: m.rank_of({9}), ElementOutOfRange),
        (lambda m: m.rank_of({True, 2}), NotAnInteger),
        (lambda m: m.is_independent({0}), ElementOutOfRange),
        (lambda m: m.is_independent({9, 1}), ElementOutOfRange),
    ],
    ids=["restrict-to-9", "delete-9", "delete-True", "contract-0", "restrict-to-2.0",
         "rank-of-9", "rank-of-True", "independent-0", "independent-9"],
)
def test_minor_and_restriction_check_their_elements(build, error):
    with pytest.raises(error):
        build(uniform(2, 4))


@pytest.mark.parametrize("which", ["delete", "contract"])
@pytest.mark.parametrize("elements", [[1, True], [True, 1], [1, 1.0], [1.0, 1]],
                         ids=["1-True", "True-1", "1-1.0", "1.0-1"])
def test_minor_checks_each_element_as_given(which, elements):
    """Each element goes through the gate before the set is masked, so a
    bool or float beside the int it equals raises in either order, rather
    than collapse into it."""
    with pytest.raises(NotAnInteger):
        minor(uniform(2, 4), **{which: elements})


def test_bases_view_is_memoized():
    """The bases view is computed once per instance, and once per (n, r)
    for U(r, n), and kept by _memo in the instance's cache, which every
    instance of U(r, n) shares."""
    matroids._uniform.cache_clear()
    m = uniform(2, 4)
    assert "_element_bases" not in m._cache
    view = m.bases
    assert m.bases is view and m._cache["_element_bases"] is view
    assert view == frozenset(combinations(range(1, 5), 2))
    assert uniform(2, 4).bases is view
    t = minimal(2, 4)
    assert "_element_bases" not in t._cache
    view = t.bases
    assert t.bases is view and t._cache["_element_bases"] is view
    assert "_element_bases" not in minimal(2, 4)._cache


def test_restriction_takes_any_iterable_of_elements():
    two_pts = direct_sum(uniform(1, 2), uniform(1, 3))
    assert restriction(two_pts, (e for e in (3, 4, 5))) == uniform(1, 3)
    assert restriction(two_pts, [Label(1), Label(2)]) == uniform(1, 2)
    assert minor(two_pts, delete=iter([5]), contract=[Label(1)]) == direct_sum(
        uniform(0, 1), uniform(1, 2))


def test_circuits_examples():
    assert circuits(uniform(2, 4)) == frozenset(
        frozenset(c) for c in combinations(range(1, 5), 3)
    )
    t24 = from_bases(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert circuits(t24) == frozenset(
        {frozenset({3, 4}), frozenset({1, 2, 3}), frozenset({1, 2, 4})}
    )
    free = from_bases(3, 3, [(1, 2, 3)])
    assert circuits(free) == frozenset()


def test_classify_examples(fano):
    c = classify(fano)
    assert c.is_sparse_paving and c.is_paving
    assert c.kappa == 1
    assert c.nonbasis_count == 7
    t25 = minimal(2, 5)
    c = classify(t25)
    assert c.is_paving and not c.is_sparse_paving and c.is_minimal
    two_pts = direct_sum(uniform(1, 2), uniform(1, 2))
    c = classify(two_pts)
    assert c.kappa == 2 and c.components == ((1, 2), (3, 4))


def test_classify_uniform_schubert():
    for n in range(1, 9):
        for r in range(1, n + 1):
            c = classify(schubert_matroid(n, range(n - r + 1, n + 1)))
            assert c.is_uniform


def test_sparse_paving_matches_symmetric_difference_criterion():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(4, 8)
        r = rng.randint(2, n - 2)
        all_sets = list(combinations(range(1, n + 1), r))
        rng.shuffle(all_sets)
        nonbases = []
        for cand in all_sets[: rng.randint(0, 6)]:
            if all(len(set(cand) ^ set(nb)) >= 4 for nb in nonbases):
                nonbases.append(cand)
        if len(nonbases) == len(all_sets):
            continue
        m = matroid_from_nonbases(n, r, nonbases)
        assert classify(m).is_sparse_paving
    # and a negative case: adjacent non-bases break sparse paving
    m = matroid_from_nonbases(6, 2, [(4, 5), (4, 6), (5, 6)])
    assert not classify(m).is_sparse_paving


def test_beta_examples(fano):
    assert beta(uniform(2, 5)) == 3
    assert beta(minimal(3, 7)) == 1
    assert beta(direct_sum(uniform(1, 2), uniform(1, 2))) == 0
    assert beta(fano) == comb(5, 2) - 7


def test_beta_closed_forms():
    for n in range(2, 10):
        for r in range(1, n):
            assert beta(uniform(r, n)) == comb(n - 2, r - 1)
            assert beta(minimal(r, n)) == 1


def test_beta_base_cases():
    assert beta(from_bases(1, 1, [(1,)])) == 1
    assert beta(Matroid(1, 0, [()])) == 0


def test_beta_agrees_with_tutte_oracle(fano, vamos):
    for _, _, _, m in family_corpus(7):
        assert beta(m) == beta_via_tutte(m), m
    assert beta(fano) == beta_via_tutte(fano)
    assert beta(vamos) == beta_via_tutte(vamos)


def test_beta_invariant_under_element_choice():
    # deletion-contraction gives the same value whichever eligible element is used
    def beta_choice(m, pick_last):
        if m.n == 1:
            return 1 if m.r == 1 else 0
        if m.loops() or m.coloops():
            return 0
        i = m.n if pick_last else 1
        return beta_choice(minor(m, contract=[i]), pick_last) + beta_choice(
            minor(m, delete=[i]), pick_last
        )

    for _, _, _, m in family_corpus(6):
        assert beta_choice(m, False) == beta_choice(m, True)


def test_direct_sum():
    free2 = direct_sum(from_bases(1, 1, [(1,)]), from_bases(1, 1, [(1,)]))
    assert free2.bases == frozenset({(1, 2)})
    big = direct_sum(uniform(2, 4), uniform(2, 5))
    assert (big.n, big.r, len(big.bases)) == (9, 4, 60)
    validate_exchange(big)
    with_loop = direct_sum(uniform(2, 4), Matroid(1, 0, [()]))
    assert with_loop.loops() == frozenset({5})


def test_kappa_additive_over_direct_sums():
    rng = random.Random(5)
    corpus = [m for _, _, _, m in family_corpus(5)]
    for _ in range(20):
        m1, m2 = rng.choice(corpus), rng.choice(corpus)
        assert (
            classify(direct_sum(m1, m2)).kappa
            == classify(m1).kappa + classify(m2).kappa
        )


def test_restriction_relabels():
    two_pts = direct_sum(uniform(1, 2), uniform(1, 3))
    assert restriction(two_pts, {3, 4, 5}) == uniform(1, 3)


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_beta_relabeling_invariance(perm_list):
    perm = {i + 1: v for i, v in enumerate(perm_list)}
    m = minimal(3, 7)
    assert beta(relabel(m, perm)) == beta(m)


def test_derived_matroids_pass_exchange_validation(fano, vamos, non_pappus):
    for m in (dual(fano), minor(vamos, delete={8}), direct_sum(fano, uniform(1, 2))):
        validate_exchange(m)
    validate_exchange(dual(non_pappus))


def test_json_round_trip(fano):
    assert Matroid.from_json_dict(fano.to_json_dict()) == fano


# ---------------------------------------------------------------------------
# the bitmask core against the frozenset oracle


def assert_matches_oracle(n, r, bases):
    """from_bases verdict, classify, circuits and beta agree with tests/frozenset_oracle.py."""
    bases = [tuple(b) for b in bases]
    if oracle.exchange_witness(bases) is not None:
        with pytest.raises(ExchangeAxiomViolated) as err:
            from_bases(n, r, bases)
        b1, b2, x = err.value.b1, err.value.b2, err.value.x
        sets = {frozenset(b) for b in bases}
        assert b1 in sets and b2 in sets and x in b1 - b2
        assert not any(b1 - {x} | {y} in sets for y in b2 - b1)
        return
    m = from_bases(n, r, bases)
    c = classify(m)
    assert c.components == oracle.connected_components(n, r, bases)
    assert c.kappa == len(c.components)
    assert c.is_paving == oracle.is_paving(n, r, bases)
    assert c.is_sparse_paving == oracle.is_sparse_paving(n, r, bases)
    assert circuits(m) == oracle.circuits(n, r, bases)
    assert beta(m) == oracle.beta(n, r, bases)


def near_valid_families(m):
    """The bases of m with one basis removed or one other r-set added, every way."""
    bases = sorted(m.bases)
    removals = [[b for b in bases if b != gone] for gone in bases] if len(bases) > 1 else []
    additions = [bases + [s] for s in combinations(range(1, m.n + 1), m.r) if s not in m.bases]
    return removals + additions


def no_exchange_connected() -> Matroid:
    """A family of 3-subsets of [6] that breaks the exchange axiom although
    the fundamental graph of each of its members is connected."""
    gone = {(1, 2, 4), (1, 2, 5), (1, 3, 6), (3, 4, 5), (3, 5, 6)}
    return Matroid._from_masks(
        6, 3, [matroids._subset_mask(6, b) for b in combinations(range(1, 7), 3) if b not in gone])


def test_matroid_layer_matches_oracle_on_corpus(fano, non_pappus, vamos):
    rng = random.Random(41)
    corpus = [m for _, _, _, m in family_corpus(7)] + [fano, non_pappus, vamos]
    corpus.append(direct_sum(uniform(2, 4), minimal(2, 4)))
    # sums split at one basis: with loops, with coloops, a paving sum, a dual
    # paving sum, a non-matroid times a matroid, and a family whose basis
    # graph splits although it is not the product of its projections
    corpus += [direct_sum(uniform(0, 2), uniform(2, 4)), direct_sum(uniform(1, 3), uniform(1, 1)),
               direct_sum(direct_sum(uniform(1, 1), minimal(2, 4)), uniform(0, 1)),
               direct_sum(uniform(1, 2), uniform(1, 1)), direct_sum(uniform(2, 3), uniform(2, 3)),
               direct_sum(Matroid._from_masks(4, 2, [0b0011, 0b1100]), uniform(1, 2)),
               direct_sum(no_exchange_connected(), uniform(1, 2)),
               Matroid._from_masks(4, 2, [0b0101, 0b1001, 0b0110])]
    for m in corpus:
        perm = list(range(1, m.n + 1))
        rng.shuffle(perm)
        relabelled = [tuple(sorted(perm[e - 1] for e in b)) for b in m.bases]
        near_valid = near_valid_families(m)
        for bases in (sorted(m.bases), relabelled, *rng.sample(near_valid, min(2, len(near_valid)))):
            assert_matches_oracle(m.n, m.r, bases)


def assert_table_matches_oracle(n, r, bases):
    """The exchange table of the family, as {S: cl(S)}, is the oracle's; returned."""
    closures = oracle.hyperplanes(n, r, bases)
    masks = [matroids._subset_mask(n, b) for b in bases]
    table = matroids._exchange_table(Matroid._from_masks(n, r, masks))
    ground = (1 << n) - 1
    assert closures == {
        frozenset(matroids._elements(s)): frozenset(matroids._elements(ground ^ fs))
        for s, fs in table.items()
    }
    return closures


def test_exchange_table_hyperplanes_on_near_valid_families():
    """The table's hyperplanes match their definition, no family member lies
    in one of at most r elements, and each size class (below, at and above r)
    occurs in valid and in invalid families."""
    seen = set()
    for _, _, _, m in family_corpus(5):
        for bases in near_valid_families(m):
            assert_matches_oracle(m.n, m.r, bases)
            members = {frozenset(b) for b in bases}
            closures = assert_table_matches_oracle(m.n, m.r, bases)
            valid = oracle.exchange_witness(bases) is None
            for hyperplane in closures.values():
                size = (len(hyperplane) > m.r) - (len(hyperplane) < m.r)
                seen.add((size, valid))
                if size <= 0:
                    assert not any(b <= hyperplane for b in members)
    assert seen == {(size, valid) for size in (-1, 0, 1) for valid in (False, True)}


def test_exchange_table_from_either_side_matches_the_oracle():
    """The table starts empty and takes the bases when they do not outnumber
    the non-bases, else starts from U(r, n)'s table and gives up the
    non-bases.  Families of just below, at and just above C(n, r) / 2
    members, valid and invalid, give the oracle's table on both sides, as do
    r = 0, r = n and n = 0; a dependent (r-1)-set is never a key, so a
    non-paving matroid built from its non-bases is classified as such."""
    rng = random.Random(26)
    families = [(0, 0, [()]), (3, 0, [()]), (1, 1, [(1,)]), (3, 3, [(1, 2, 3)])]
    for n, r in [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (7, 2), (7, 3)]:
        every = list(combinations(range(1, n + 1), r))
        sizes = [k for k in range(1, len(every) + 1) if abs(2 * k - len(every)) <= 2]
        steps = ["".join("N" if i in north else "E" for i in range(n))
                 for north in combinations(range(n), r)]
        for upper in steps:
            for lower in steps:
                try:
                    m = lattice_path_matroid(upper, lower)
                except PathsCross:
                    continue
                if len(m.bases) in sizes:
                    perm = rng.sample(range(1, n + 1), n)
                    families.append((n, r, [tuple(sorted(perm[e - 1] for e in b)) for b in m.bases]))
        families += [(n, r, rng.sample(every, k)) for k in sizes for _ in range(3)]
    pan = panhandle(3, 5, 8)  # 40 of the 56 3-sets, and not paving
    families.append((8, 3, sorted(pan.bases)))
    seen = set()
    for n, r, bases in families:
        assert_table_matches_oracle(n, r, bases)
        assert_matches_oracle(n, r, bases)
        seen.add((r > 0 and 2 * len(bases) > comb(n, r), oracle.exchange_witness(bases) is None))
    assert seen == {(side, valid) for side in (False, True) for valid in (False, True)}
    assert 2 * len(pan.bases) > comb(8, 3) and not classify(pan).is_paving


def test_the_dependent_hyperplanes_are_the_oracles(fano, non_pappus, vamos):
    """For every connected family, valid or not, the dependent hyperplanes
    are the oracle's hyperplanes of at least r elements: on
    `family_corpus(8)`, Fano, Vamos, non-Pappus, the rank-3 paving matroid
    on [6] with the 4-point line {1, 2, 3, 4}, families one basis away from
    a corpus matroid, and seeded random families.  A connected sparse
    paving matroid's are its non-bases, `nonbasis_count` of them, and
    U(r, n)'s are none."""
    rng = random.Random(34)
    corpus = [m for _, _, _, m in family_corpus(8)] + [fano, non_pappus, vamos]
    line = [b for b in combinations(range(1, 7), 3) if not set(b) <= {1, 2, 3, 4}]
    families = [(m.n, m.r, sorted(m.bases)) for m in corpus] + [(6, 3, line)]
    families += [(m.n, m.r, bases) for _, _, _, m in family_corpus(5)
                 for bases in near_valid_families(m)]
    for n, r in [(5, 2), (6, 3), (7, 3), (7, 4), (8, 3)]:
        every = list(combinations(range(1, n + 1), r))
        families += [(n, r, rng.sample(every, rng.randint(1, len(every)))) for _ in range(30)]
        for _ in range(30):  # a stable set of the Johnson graph: a sparse paving matroid
            nonbases = []
            for s in rng.sample(every, rng.randint(1, 8)):
                if all(len(set(s) & set(t)) < r - 1 for t in nonbases):
                    nonbases.append(s)
            families.append((n, r, [b for b in every if b not in nonbases]))
    seen = set()
    for n, r, bases in families:
        m = Matroid._from_masks(n, r, [matroids._subset_mask(n, b) for b in bases])
        if matroids._factors(m):
            continue
        assert {frozenset(matroids._elements(h)) for h in matroids._dependent_hyperplanes(m)} == {
            h for h in oracle.hyperplanes(n, r, bases).values() if len(h) >= r}
        valid = oracle.exchange_witness(bases) is None
        seen.add(valid)
        if valid and oracle.is_sparse_paving(n, r, bases):
            nonbases = matroids._uniform(n, r)._masks - m._masks
            assert matroids._dependent_hyperplanes(m) == nonbases
            assert len(nonbases) == classify(m).nonbasis_count
    assert seen == {False, True}
    for n in range(9):
        for r in range(n + 1):
            assert matroids._dependent_hyperplanes(uniform(r, n)) == frozenset()
    m = from_bases(6, 3, line)
    assert matroids._dependent_hyperplanes(m) == {0b1111}
    assert classify(m).is_paving and not classify(m).is_sparse_paving


def test_the_shared_uniform_table_is_never_changed():
    """U(r, n)'s r-sets and table are built once per (n, r), in the cache of
    its canonical instance, and shared by every table built from the
    non-bases, which copies it.  U(r, n), a sparse paving matroid, a
    non-matroid and a non-paving panhandle (whose table empties some F(S))
    of one (n, r), built in either order from a cleared cache, each get the
    oracle's table, and only U(r, n) itself holds the shared one; after
    validation (with a witness), classification, beta, the binding flats
    and the Ehrhart counts have read them, the shared r-sets, the r-set
    index (`_rset_index`, built once) and the table are still U(r, n)'s."""
    for n, r, s in [(6, 3, 4), (7, 4, 5), (8, 3, 5)]:
        ground = (1 << n) - 1
        index = {b: matroids._subset_mask(n, b) for b in combinations(range(1, n + 1), r)}
        uniform_table = {
            t: ground ^ t
            for t in (matroids._subset_mask(n, b) for b in combinations(range(1, n + 1), r - 1))}
        pan = panhandle(r, s, n)
        invalid = next(bases for bases in near_valid_families(pan)
                       if oracle.exchange_witness(bases) is not None)
        sparse = matroid_from_nonbases(n, r, [range(1, r + 1), range(n - r + 1, n + 1)])
        families = [sorted(uniform(r, n).bases), sorted(sparse.bases), invalid, sorted(pan.bases)]
        assert all(2 * len(bases) > comb(n, r) for bases in families)
        assert not classify(pan).is_paving
        for order in (families, families[::-1]):
            matroids._uniform.cache_clear()
            matroids._rset_index.cache_clear()
            for bases in order:
                assert_table_matches_oracle(n, r, bases)
                m = Matroid._from_masks(n, r, [matroids._subset_mask(n, b) for b in bases])
                shared = matroids._uniform(n, r)
                if len(bases) == comb(n, r):
                    assert m._cache is shared._cache
                else:
                    assert matroids._exchange_table(m) is not matroids._exchange_table(shared)
                if oracle.exchange_witness(bases) is not None:
                    with pytest.raises(ExchangeAxiomViolated):
                        validate_exchange(m)
                    continue
                validate_exchange(m)
                checked = from_bases(n, r, bases)
                assert classify(m) == classify(checked)
                assert beta(m) == oracle.beta(n, r, bases)
                assert matroids._binding_constraints(m) == matroids._binding_constraints(checked)
                assert ehrhart_report(m) == ehrhart_report(checked)
            assert matroids._uniform.cache_info().misses == 1
            assert matroids._rset_index.cache_info().misses == 1
            shared = matroids._uniform(n, r)
            assert shared._masks == frozenset(index.values())
            assert matroids._rset_index(n, r) == index
            assert matroids._exchange_table(shared) == uniform_table


@st.composite
def r_subset_families(draw):
    """A few r-subsets of [n], n <= 7, or all r-subsets but a few: valid and invalid."""
    n = draw(st.integers(0, 7))
    r = draw(st.integers(0, n))
    all_sets = list(combinations(range(1, n + 1), r))
    picked = draw(st.lists(st.sampled_from(all_sets), min_size=1, max_size=6, unique=True))
    if len(picked) < len(all_sets) and draw(st.booleans()):
        picked = [s for s in all_sets if s not in picked]
    return n, r, picked


@settings(max_examples=300, deadline=None)
@given(r_subset_families())
def test_matroid_layer_matches_oracle_on_random_families(family):
    assert_matches_oracle(*family)


SUMMANDS = [m for _, _, _, m in family_corpus(4)] + [uniform(0, 1), uniform(1, 1), uniform(0, 2)]


@st.composite
def relabelled_sums(draw):
    """The bases of a direct sum of 2-3 family matroids, loops and coloops
    among them, on at most 8 elements, relabelled at random."""
    parts = draw(st.lists(st.sampled_from(SUMMANDS), min_size=2, max_size=3)
                 .filter(lambda ms: sum(m.n for m in ms) <= 8))
    m = parts[0]
    for part in parts[1:]:
        m = direct_sum(m, part)
    perm = draw(st.permutations(range(1, m.n + 1)))
    return m.n, m.r, [tuple(sorted(perm[e - 1] for e in b)) for b in m.bases]


@settings(max_examples=150, deadline=None)
@given(relabelled_sums())
def test_matroid_layer_matches_oracle_on_relabelled_sums(family):
    assert_matches_oracle(*family)


def test_classification_and_beta_computed_once_per_instance(monkeypatch):
    """Each derived fact is computed once per instance, and once per (n, r)
    for U(r, n), whose instances share one cache."""
    matroids._uniform.cache_clear()
    m = uniform(2, 5)
    assert classify(m) is classify(m)
    components, full_beta = [], []
    real_components, real_beta = matroids._split, matroids._activity_count

    def spy_components(mat):
        components.append(mat)
        return real_components(mat)

    def spy_beta(mat):
        if mat.n == 5:
            full_beta.append(mat)
        return real_beta(mat)

    monkeypatch.setattr(matroids, "_split", spy_components)
    monkeypatch.setattr(matroids, "_activity_count", spy_beta)
    matroids._uniform.cache_clear()
    m = uniform(2, 5)
    verify_volume_relation(m)
    assert components == [m] and len(full_beta) == 1
    again = uniform(2, 5)
    verify_volume_relation(again)
    assert again is m and components == [m] and len(full_beta) == 1
    # every cache given to a matroid, by any route, records each (name,
    # value) stored; an instance of U(r, n) keeps the one its canonical
    # instance got
    caches = []

    class RecordingCache(dict):
        def __setitem__(self, name, value):
            self.stored.append((name, value))
            super().__setitem__(name, value)

    slot = Matroid.__dict__["_cache"]

    class RecordingSlot:
        def __get__(self, mat, owner=None):
            return self if mat is None else slot.__get__(mat, owner)

        def __set__(self, mat, cache):
            if type(cache) is dict:
                cache = RecordingCache(cache)
                cache.stored = []
                caches.append(cache)
            slot.__set__(mat, cache)

    monkeypatch.setattr(Matroid, "_cache", RecordingSlot())
    memoized = {"validate_exchange", "_exchange_table", "_dependent_hyperplanes", "classify",
                "beta", "_binding_constraints", "_plan", "_factors"}
    # beta of a disconnected matroid is 0 from its factors, and the sum
    # reads its factors' tables, with no exchange table, dependent
    # hyperplanes, flats or counter plan of its own; the trusted sum is not
    # checked, and U(r, n)'s cache holds nothing but memoized facts
    for build, expected in ((lambda: uniform(2, 5), memoized),
                            (lambda: direct_sum(uniform(1, 2), minimal(2, 4)),
                             {"classify", "beta", "_factors"})):
        matroids._uniform.cache_clear()
        del caches[:]
        m = build()
        verify_volume_relation(m)
        verify_volume_relation(build())
        for cache in caches:
            names = [name for name, _ in cache.stored]
            assert set(names) <= memoized
            assert len(names) == len(set(names))  # no value is stored twice
        assert set(m._cache) == expected
    # a checked sum is split before its own exchange table is built
    minors = []
    monkeypatch.setattr(matroids, "minor", lambda *args, **kw: minors.append(args))
    m = from_bases(6, 3, direct_sum(uniform(1, 2), minimal(2, 4)).bases)
    sc(m)
    assert "_exchange_table" not in m._cache and minors == []


def test_sc_skips_beta_on_disconnected_matroids(monkeypatch):
    """sc takes beta of a sum from matroids.beta, which answers 0 from the
    factors: only the connected factors have their bases counted, once per
    (n, r) for the uniform ones."""
    matroids._uniform.cache_clear()
    seen = []
    real_count = matroids._activity_count

    def spy(mat):
        seen.append(mat)
        return real_count(mat)

    monkeypatch.setattr(matroids, "_activity_count", spy)
    m = direct_sum(uniform(2, 4), uniform(2, 5))
    assert sc(m).beta_value == 0
    assert seen == [uniform(2, 4), uniform(2, 5)]
    assert sc(direct_sum(uniform(2, 5), uniform(2, 4))).beta_value == 0
    assert seen == [uniform(2, 4), uniform(2, 5)]


def test_every_instance_of_a_uniform_matroid_shares_one_cache(monkeypatch):
    """U(r, n) built by `uniform`, from shuffled, list-typed or duplicated
    bases, as a dual, or as the factor of a sum holds the canonical
    instance's masks and cache, so beta is counted once per (n, r)."""
    matroids._uniform.cache_clear()
    counted = []
    real_count = matroids._activity_count

    def spy(mat):
        counted.append((mat.n, mat.r))
        return real_count(mat)

    monkeypatch.setattr(matroids, "_activity_count", spy)
    rng = random.Random(30)
    for r, n in [(2, 4), (3, 6), (1, 3), (2, 5), (3, 5)]:
        u = uniform(r, n)
        every = list(combinations(range(1, n + 1), r))
        perm = rng.sample(range(1, n + 1), n)
        summed = from_bases(n + 2, r + 1, [  # U(1, 2) + U(r, n) on a shuffled ground set
            tuple(sorted(perm[e - 1] for e in b) + [n + j]) for b in every for j in (1, 2)])
        instances = [
            u,
            from_bases(n, r, rng.sample(every, len(every))),
            from_bases(n, r, [list(b) for b in every]),
            from_bases(n, r, every + every[:2]),
            Matroid(n, r, reversed(every)),
            dual(uniform(n - r, n)),
            *(f for _, f in matroids._factors(summed) if f.n == n),
            *(f for c, f in matroids._factors(direct_sum(u, minimal(2, 4))) if c == (1 << n) - 1),
        ]
        assert len(instances) == 8
        assert all(m._cache is u._cache and m._masks is u._masks for m in instances)
        assert {beta(m) for m in instances} == {comb(n - 2, r - 1)}
    assert counted == [(4, 2), (6, 3), (3, 1), (5, 2), (5, 3)]


def test_every_route_to_a_uniform_matroid_holds_the_canonical_masks_and_cache():
    """For every (n, r) with n <= 7, r = 0, r = n and n = 0 among them:
    `uniform`, `dual` and `_from_masks` give U(r, n)'s canonical instance
    itself; the checked constructor on every r-set (shuffled, list-typed,
    with duplicates, or reversed) gives a new object holding its masks and
    cache; and every factor of a relabelled sum of U(r, n) and U(1, 2)
    holds the canonical masks and cache of its own (n, r): it is U(r, n)
    itself when U(r, n) is connected, and otherwise one of its loops or
    coloops."""
    matroids._uniform.cache_clear()
    rng = random.Random(32)
    for n in range(8):
        for r in range(n + 1):
            u = uniform(r, n)
            assert u is matroids._uniform(n, r)
            every = list(combinations(range(1, n + 1), r))
            checked = [from_bases(n, r, rng.sample(every, len(every))),
                       from_bases(n, r, [list(b) for b in every]),
                       from_bases(n, r, every + every[:2]),
                       Matroid(n, r, reversed(every))]
            for m in checked:
                assert m is not u and m._masks is u._masks and m._cache is u._cache
            assert dual(uniform(n - r, n)) is u
            assert Matroid._from_masks(n, r, list(u._masks)) is u
            perm = rng.sample(range(1, n + 3), n + 2)
            summed = from_bases(n + 2, r + 1, [
                tuple(sorted(perm[e - 1] for e in b)) for b in direct_sum(u, uniform(1, 2)).bases])
            factors = [f for _, f in matroids._factors(summed)] or [summed]  # n = 0: U(1, 2)
            for f in factors:
                canonical = matroids._uniform(f.n, f.r)
                assert f._masks is canonical._masks and f._cache is canonical._cache, (n, r)
            assert any(f is u for f in factors) == (n == 1 or 0 < r < n), (n, r)


def test_uniform_builds_no_basis_list(monkeypatch):
    """`uniform` takes the canonical instance: it neither enumerates the
    r-sets as a lattice path matroid nor parses them."""
    called = []
    for name in ("_path_matroid", "_parse"):
        real = getattr(matroids, name)
        monkeypatch.setattr(matroids, name,
                            lambda *args, real=real, name=name: called.append(name) or real(*args))
    matroids._uniform.cache_clear()
    for n in range(9):
        for r in range(n + 1):
            assert uniform(r, n) is matroids._uniform(n, r)
    assert called == []
    minimal(2, 4)  # the spies sit on the path of every other family
    assert called == ["_path_matroid", "_parse"]


def test_the_dependent_hyperplanes_are_derived_once_per_uniform_matroid():
    """`_dependent_hyperplanes`, the hyperplanes of at least r elements that
    validation, classification and the binding flats read, is computed once
    per (n, r) across `uniform` and three checked builds of U(r, n), each
    validated and classified, and U(r, n) has none."""
    writes = []

    class Recording(dict):
        def __setitem__(self, name, value):
            writes.append(name)
            super().__setitem__(name, value)

    try:
        for n, r in [(5, 2), (6, 3), (7, 4)]:
            matroids._uniform.cache_clear()
            canonical = matroids._uniform(n, r)
            canonical._cache = Recording(canonical._cache)  # every later instance adopts it
            del writes[:]
            every = list(combinations(range(1, n + 1), r))
            for m in (uniform(r, n), from_bases(n, r, every), from_bases(n, r, every[::-1]),
                      from_bases(n, r, [list(b) for b in every])):
                assert classify(m).is_sparse_paving and matroids._binding_constraints(m) == []
            assert writes.count("_dependent_hyperplanes") == 1
            assert canonical._cache["_dependent_hyperplanes"] == frozenset()
    finally:  # no later test adopts a recording cache
        matroids._uniform.cache_clear()


@pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (6, 3), (3, 1)])
def test_as_many_masks_as_r_sets_that_are_not_the_r_sets_keep_their_own_cache(n, r):
    """A trusted family of C(n, r) masks, one with r + 1 bits or one with a
    bit above n in place of an r-set, is not U(r, n): it gets a cache of
    its own, its table reads its r-set members alone, and the shared cache
    is left as it was."""
    matroids._uniform.cache_clear()
    u = uniform(r, n)
    shared = dict(u._cache)
    rsets = sorted(u._masks)
    for odd in (rsets[0] | 1 << r, (1 << (r - 1)) - 1 | 1 << n):
        masks = rsets[:-1] + [odd]
        m = Matroid._from_masks(n, r, masks)
        assert m._cache is not u._cache and m._cache == {} and m._masks == frozenset(masks)
        assert m != u
        assert matroids._exchange_table(m) == matroids._exchange_table(
            Matroid._from_masks(n, r, rsets[:-1]))
        assert "_exchange_table" in m._cache
    assert u._cache.keys() == shared.keys() and all(u._cache[k] is v for k, v in shared.items())


def test_a_sums_uniform_factor_is_the_canonical_instance():
    """A part whose projections are every r_c-set of the part is taken as
    U(r_c, |c|)'s canonical instance itself.  Any other part (minimal,
    sparse paving, panhandle, a loop beside a basis that misses it, or
    C(|c|, r_c) projections that are not all r_c-sets) is an instance of
    its own, holding its projections relabelled, and a family that is not
    the product of its factors raises the witness of its own table."""
    matroids._uniform.cache_clear()
    rng = random.Random(31)
    perm = rng.sample(range(1, 12), 11)
    shuffled = from_bases(11, 5, [tuple(perm[e - 1] for e in b)
                                  for b in direct_sum(uniform(2, 5), uniform(3, 6)).bases])
    sums = [direct_sum(uniform(2, 4), uniform(2, 5)), direct_sum(minimal(2, 5), uniform(1, 3)),
            direct_sum(matroid_from_nonbases(7, 3, [{1, 2, 3}, {4, 5, 6}]), uniform(1, 2)),
            direct_sum(panhandle(2, 3, 6), uniform(2, 4)), shuffled,
            direct_sum(direct_sum(uniform(0, 1), uniform(1, 1)), uniform(2, 4)),
            Matroid._from_masks(6, 2, [3, 6, 9, 12, 34, 36]),
            Matroid._from_masks(5, 2, [3, 5, 6, 12, 17, 24])]
    kinds = set()
    for m in sums:
        factors = matroids._factors(m)
        assert len(factors) >= 2
        for part, f in factors:
            elements = matroids._elements(part)
            position = {e: i for i, e in enumerate(elements, 1)}
            projections = {tuple(position[e] for e in b if e in position) for b in m.bases}
            canonical = matroids._uniform(f.n, f.r)
            if projections == set(combinations(range(1, f.n + 1), f.r)):
                assert f is canonical, (m, part)
                kinds.add("uniform")
            else:
                assert f is not canonical and f._cache is not canonical._cache, (m, part)
                assert f.bases == projections, (m, part)
                kinds.add(len(projections) == comb(f.n, f.r))
    assert kinds == {"uniform", True, False}
    for n, masks, witness in [(6, [3, 6, 9, 12, 34, 36], "x=2 between bases [1, 2] and [3, 6]"),
                              (5, [3, 5, 6, 12, 17, 24], "x=1 between bases [1, 2] and [4, 5]")]:
        with pytest.raises(ExchangeAxiomViolated, match=re.escape(witness)):
            from_bases(n, 2, [matroids._elements(b) for b in masks])


def test_a_non_uniform_matroid_keeps_out_of_the_shared_cache():
    """A matroid of U(r, n)'s (n, r) that is not U(r, n) reads only the
    exchange table (which it copies) from the shared cache, and writes
    nothing to it; a dense checked build reads the r-set index, which the
    cache does not hold."""
    log = []

    class Recording(dict):
        def get(self, name, default=None):
            log.append(("read", name))
            return super().get(name, default)

        def __getitem__(self, name):
            log.append(("read", name))
            return super().__getitem__(name)

        def __setitem__(self, name, value):
            log.append(("write", name))
            super().__setitem__(name, value)

    try:
        for n, r in [(6, 3), (7, 3), (8, 4)]:
            matroids._uniform.cache_clear()
            canonical = matroids._uniform(n, r)
            canonical._cache = Recording(canonical._cache)  # every later instance adopts it
            u = uniform(r, n)
            assert u._cache is canonical._cache
            matroids._exchange_table(u)
            facts = dict(u._cache)
            del log[:]
            looked_up = matroids._rset_index.cache_info().hits
            sparse = matroid_from_nonbases(n, r, [range(1, r + 1), range(n - r + 1, n + 1)])
            assert matroids._rset_index.cache_info().hits == looked_up + 1
            sparse_masks = Matroid._from_masks(n, r, sparse._masks)
            others = [sparse, sparse_masks, minimal(r, n), panhandle(r, n - 2, n)]
            for m in others:
                validate_exchange(m)
                classify(m), beta(m), m.bases, matroids._binding_constraints(m), ehrhart_report(m)
                assert m._cache is not u._cache
            assert beta(sparse) == comb(n - 2, r - 1) - 2
            assert set(log) == {("read", "_exchange_table")}
            assert u._cache.keys() == facts.keys()
            assert all(u._cache[k] is v for k, v in facts.items())
    finally:  # no later test adopts a recording cache
        matroids._uniform.cache_clear()


def test_the_exchange_check_runs_once_per_uniform_cache(monkeypatch):
    """`validate_exchange` is a memoized fact.  Its body, which reads
    `_factors` first, runs once for U(r, n) across `uniform` called twice, a
    checked shuffled list of every r-set and a checked relabelled sum with
    U(r, n) as a factor, all of which share the canonical cache."""
    checked = []
    real_factors = matroids._factors

    def spy(m):
        checked.append(m)
        return real_factors(m)

    monkeypatch.setattr(matroids, "_factors", spy)
    rng = random.Random(33)
    for n, r in [(4, 2), (5, 2), (6, 3), (7, 4)]:
        matroids._uniform.cache_clear()
        canonical = matroids._uniform(n, r)
        every = list(combinations(range(1, n + 1), r))
        rng.shuffle(every)
        whole = direct_sum(minimal(2, 4), canonical)
        perm = rng.sample(range(1, whole.n + 1), whole.n)
        relabelled = [tuple(perm[e - 1] for e in b) for b in whole.bases]
        del checked[:]
        built = [uniform(r, n), uniform(r, n), from_bases(n, r, every)]
        summed = from_bases(whole.n, whole.r, relabelled)
        assert built[0] is built[1] is canonical
        assert all(m._cache is canonical._cache for m in built)
        assert canonical in [f for _, f in real_factors(summed)]
        assert [m for m in checked if m._cache is canonical._cache] == [canonical]
        assert canonical._cache["validate_exchange"] is True


@pytest.mark.parametrize("build, product", [
    (lambda: Matroid._from_masks(6, 2, [3, 6, 9, 12, 34, 36]), False),
    (lambda: Matroid._from_masks(5, 2, [3, 5, 6, 12, 17, 24]), False),
    (lambda: Matroid._from_masks(4, 2, [3, 12]), False),
    # the product of its factors, one failing beside U(1, 2): checked whole
    (lambda: direct_sum(Matroid._from_masks(4, 2, [3, 5, 9, 10]), uniform(1, 2)), True),
], ids=["two-triangles", "pentagon", "two-pairs", "sum-with-a-failing-factor"])
def test_a_failing_family_raises_the_same_witness_every_time(build, product):
    """A failed check keeps nothing: a second call, and a second checked
    build of the same bases, raise the first one's witness."""
    m = build()
    factors = matroids._factors(m)
    assert (bool(factors) and prod(len(f._masks) for _, f in factors) == len(m._masks)) == product
    with pytest.raises(ExchangeAxiomViolated) as first:
        validate_exchange(m)
    assert "validate_exchange" not in m._cache
    for _, f in factors:
        assert f._cache.get("validate_exchange", True) is True
    with pytest.raises(ExchangeAxiomViolated) as second:
        validate_exchange(m)
    assert str(second.value) == str(first.value)
    bases = sorted(m.bases)
    for _ in range(2):
        with pytest.raises(ExchangeAxiomViolated) as again:
            from_bases(m.n, m.r, bases)
        assert str(again.value) == str(first.value)


MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def cache_stores(tree):
    """(enclosing module-level function or method, line) of every store
    into a `_cache`: an item assigned or deleted, or a mutating method
    called."""
    tops = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    tops += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    for top in tops:
        for node in ast.walk(top):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if (isinstance(part, ast.Subscript) and isinstance(part.value, ast.Attribute)
                            and part.value.attr == "_cache"):
                        yield top.name, node.lineno
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "_cache"):
                yield top.name, node.lineno


def test_only_memo_stores_into_a_matroid_cache():
    """In matroids.py the one store into a `_cache` is `_memo`'s; the
    constructors only set a new cache to {} or to a trusted instance's."""
    tree = ast.parse(Path(matroids.__file__).read_text())
    stores = list(cache_stores(tree))
    assert [name for name, _ in stores] == ["_memo"]
    # the scan sees a store by any of these routes
    for line in ("m._cache[name] = 1", "m._cache['k'] += 1", "del m._cache['k']",
                 "a = m._cache[k] = 1", "m._cache.update(k=1)", "m._cache.setdefault('k', 1)"):
        assert [name for name, _ in cache_stores(ast.parse(f"def f(m):\n    {line}\n"))] == ["f"]


@pytest.mark.parametrize(
    "r, n, kappa, beta_value, table, method",
    [
        (0, 0, 0, 0, [], None),
        (0, 1, 1, 0, [], ["Degenerate-Point"]),
        (1, 1, 1, 1, [(0, 1)], ["Degenerate-Point"]),
        (0, 3, 3, 0, [], ["Degenerate-Point"] * 3),
        (3, 3, 3, 0, [(3, 4), (5, 2), (6, 1)], ["Degenerate-Point"] * 3),
        (2, 2, 2, 0, [(1, 2), (2, 1)], ["Degenerate-Point"] * 2),
    ],
)
def test_uniform_matroids_at_the_edges_share_one_cache(r, n, kappa, beta_value, table, method):
    """r = 0, r = n and n = 0: every instance of U(r, n) shares the
    canonical cache and reads the classification, beta, table, factors and
    class of a fresh build."""
    matroids._uniform.cache_clear()
    instances = [uniform(r, n), from_bases(n, r, [tuple(range(1, r + 1))]), dual(uniform(n - r, n))]
    for m in instances:
        assert m._cache is instances[0]._cache
        c = classify(m)
        assert (c.kappa, c.loops, c.coloops, c.is_uniform) == (
            kappa, frozenset(range(1, n + 1)) if r == 0 else frozenset(),
            frozenset(range(1, n + 1)) if r == n and n else frozenset(), True)
        assert beta(m) == beta_value
        assert sorted(matroids._exchange_table(m).items()) == table
        assert [(c, f.n, f.r) for c, f in matroids._factors(m)] == (
            [(1 << i, 1, int(r > 0)) for i in range(n)] if n > 1 else [])
        if method is None:
            with pytest.raises(EmptyMatroid):
                sc(m)
        else:
            assert sc(m).to_json_dict() == {
                "r": r, "n": n, "terms": [{"partition": [], "coeff": "1"}], "method": method,
                "kappa": kappa, "k": None, "beta": str(beta_value)}


@pytest.mark.parametrize(
    "n, r, bases, error",
    [
        (-1, 0, [()], InvalidDimensions),
        (3, -1, [()], InvalidDimensions),
        (2, 3, [(1, 2, 3)], InvalidDimensions),
        (3, 1, [(True,)], NotAnInteger),
        (3, 1, [(1.0,)], NotAnInteger),
        (3, 1, [("1",)], NotAnInteger),
        (3.0, 1, [(1,)], NotAnInteger),
        (3, True, [(1,)], NotAnInteger),
        (3, 1, [5], MalformedBasis),
        (3, 1, 5, MalformedBasis),
        (3, 1, [(1,), (0,)], ElementOutOfRange),
        (3, 2, [(1, 2), (2, 4)], ElementOutOfRange),
        (3, 2, [(1, 2), (-1, 3)], ElementOutOfRange),
        (3, 1, [(1,), (10**30,)], ElementOutOfRange),
        (10**12, 1, [(1,), (0,)], ElementOutOfRange),
        (3, 2, [(1, 2), (3, 3)], WrongBasisSize),
        (3, 2, [(1, 2), (1, 2, 3)], WrongBasisSize),
        (3, 1, [(1,), (True,)], NotAnInteger),
    ],
    ids=["n<0", "r<0", "r>n", "bool-element", "float-element", "str-element",
         "float-n", "bool-r", "number-basis", "number-basis-list", "element-0",
         "element-n+1", "negative-element", "huge-element", "huge-n", "repeated-element",
         "long-basis", "bool-after-valid-basis"],
)
def test_from_bases_rejects_malformed_input(n, r, bases, error):
    # a huge element raises ElementOutOfRange, not the OverflowError of
    # taking its shift, and a huge n builds no table of its bits
    with pytest.raises(error):
        from_bases(n, r, bases)


class Element(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3
    FOUR = 4


def test_from_bases_takes_int_subclasses():
    bases = [(Element.ONE, Element.TWO), (1, Element.THREE), (2, 3), (Element.ONE, 4), (2, 4)]
    m = from_bases(4, 2, bases)
    assert m == from_bases(4, 2, [tuple(map(int, b)) for b in bases])
    assert m._masks == {0b0011, 0b0101, 0b0110, 0b1001, 0b1010}


def intake_outcome(build):
    """The masks that build() returns, or the type and message of its error."""
    try:
        return build()
    except SchubmatError as exc:
        return type(exc), str(exc)


ELEMENTS = st.one_of(
    st.integers(-1, 7), st.sampled_from([True, False, 1.0, "2", 10**30, *Element]))


@st.composite
def basis_lists(draw):
    """(n, r, bases): r-sets of [n], one malformed basis put in every other time."""
    n = draw(st.integers(0, 6))
    r = draw(st.integers(0, n))
    r_sets = st.sets(st.integers(1, max(n, 1)), min_size=r, max_size=r).map(tuple)
    bases = draw(st.lists(r_sets, max_size=8))
    if draw(st.booleans()):
        faulty = draw(st.lists(ELEMENTS, max_size=n + 1).map(tuple))
        bases.insert(draw(st.integers(0, len(bases))), faulty)
    return n, r, bases


@settings(max_examples=300, deadline=None)
@given(basis_lists())
def test_bulk_intake_matches_the_rescan(case):
    """The constructor's masks, or its error, are `_rescan`'s basis-by-basis
    ones, on valid and malformed basis lists (the exchange check is left out)."""
    n, r, bases = case
    with patch.object(matroids, "validate_exchange", lambda m: None):
        bulk = intake_outcome(lambda: Matroid(n, r, bases)._masks)
    rescan = intake_outcome(lambda: frozenset(matroids._rescan(n, r, bases)))
    if rescan == frozenset():
        rescan = EmptyBases, "a matroid needs at least one basis"
    assert bulk == rescan


@pytest.mark.parametrize(
    "text",
    ['{"n": 3, "r": 1, "bases": [[2.7]]}', '{"n": 3, "r": 1, "bases": [[true]]}',
     '{"n": 3.0, "r": 1, "bases": [[1]]}', '{"n": 3, "r": "1", "bases": [[1]]}'],
    ids=["float-element", "true-element", "float-n", "string-r"],
)
def test_json_input_is_not_coerced(text):
    with pytest.raises(NotAnInteger):
        Matroid.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# family constructors: parameters outside their range raise, never coerce


@pytest.mark.parametrize(
    "build, args, error",
    [
        (uniform, (-2, 5), InvalidDimensions),
        (uniform, (6, 5), InvalidDimensions),
        (uniform, (0, -1), InvalidDimensions),
        (minimal, (0, 5), InvalidDimensions),
        (minimal, (5, 5), InvalidDimensions),
        (minimal, (-2, 5), InvalidDimensions),
        (minimal, (1, 1), InvalidDimensions),
        (panhandle, (2, 5, 5), InvalidDimensions),
        (panhandle, (3, 2, 6), InvalidDimensions),
        (panhandle, (0, 2, 5), InvalidDimensions),
        (panhandle, (2, -3, 5), InvalidDimensions),
        (schubert_matroid, (4, [2, 2, 4]), ElementOutOfRange),
        (schubert_matroid, (4, [4, 1, 4]), ElementOutOfRange),
        (uniform, (True, 3), NotAnInteger),
        (uniform, (2.0, 5), NotAnInteger),
        (uniform, (2, 5.0), NotAnInteger),
        (minimal, (True, 3), NotAnInteger),
        (panhandle, (2, 3.0, 5), NotAnInteger),
        (panhandle, (True, 2, 5), NotAnInteger),
        (schubert_matroid, (4, [True, 3]), NotAnInteger),
        (schubert_matroid, (4, [2.0, 4]), NotAnInteger),
        (schubert_matroid, (4.0, [2, 4]), NotAnInteger),
    ],
    ids=["U(-2,5)", "U(6,5)", "U(0,-1)", "T(0,5)", "T(5,5)", "T(-2,5)", "T(1,1)",
         "Pan(2,5,5)", "Pan(3,2,6)", "Pan(0,2,5)", "Pan(2,-3,5)", "SM(4;2,2,4)",
         "SM(4;4,1,4)", "U(True,3)", "U(2.0,5)", "U(2,5.0)", "T(True,3)", "Pan(2,3.0,5)",
         "Pan(True,2,5)", "SM(4;True,3)", "SM(4;2.0,4)", "SM(4.0;2,4)"],
)
def test_family_constructors_reject_parameters_out_of_range(build, args, error):
    with pytest.raises(error):
        build(*args)


# every entry point that takes the pair (r, n) checks it with one gate, in
# one order: the rank's type, then n's, then the range low <= r <= n - low
DIMENSION_ENTRIES = [
    (lambda r, n: Matroid(n, r, [()]), 0),
    (uniform, 0),
    (minimal, 1),
    (lambda r, n: panhandle(r, r, n), 1),
    (hook, 1),
    (sc_uniform, 1),
]


def test_every_dimension_entry_point_goes_through_one_gate():
    """The six entry points raise the same error with the same message on
    the same faulty pair."""
    for build, low in DIMENSION_ENTRIES:
        with pytest.raises(NotAnInteger, match=r"^rank 2\.0 is not an int$"):
            build(2.0, True)
        with pytest.raises(NotAnInteger, match=r"^ground-set size '5' is not an int$"):
            build(2, "5")
        top = "n-1" if low else "n"
        for r in (low - 1, 6 - low):
            with pytest.raises(InvalidDimensions, match=f"^need {low} <= r <= {top}, got r={r}, n=5$"):
                build(r, 5)


def test_faults_are_reported_in_gate_order():
    """An input with two faults raises the one its gate checks first."""
    with pytest.raises(InvalidDimensions, match="r=0"):
        panhandle(0, 2.0, 5)
    with pytest.raises(ElementOutOfRange, match=r"^element 5 not inside \[4\]$"):
        schubert_matroid(4, [5, True])
    with pytest.raises(ElementOutOfRange, match=r"^element 0 not inside \[4\]$"):
        schubert_matroid(4, [2, 0])
    with pytest.raises(NotAnInteger, match="^rank True"):
        Matroid(3.0, True, [(1,)])


def test_schubert_matroid_takes_a_count_of_elements():
    for n, error in [(-1, InvalidDimensions), (-3, InvalidDimensions), (True, NotAnInteger)]:
        with pytest.raises(error):
            schubert_matroid(n, [])
    assert schubert_matroid(0, []) == uniform(0, 0)


def test_family_constructors_at_the_ends_of_their_ranges():
    assert uniform(0, 1) == from_bases(1, 0, [()])
    assert uniform(1, 1) == from_bases(1, 1, [(1,)])
    assert uniform(0, 0) == from_bases(0, 0, [()])
    assert minimal(1, 2) == uniform(1, 2)
    for r, n in [(1, 3), (2, 5), (4, 6)]:
        assert panhandle(r, r, n) == minimal(r, n)
        assert panhandle(r, n - 1, n) == uniform(r, n)
    assert schubert_matroid(4, (4, 2)) == schubert_matroid(4, [2, 4])


# ---------------------------------------------------------------------------
# beta as a basis-activity count against Crapo's subset sum


def random_sparse_paving(r, n, k, rng):
    """k non-bases, pairwise meeting in at most r - 2 elements."""
    nonbases = []
    while len(nonbases) < k:
        cand = frozenset(rng.sample(range(1, n + 1), r))
        if all(len(cand & b) <= r - 2 for b in nonbases):
            nonbases.append(cand)
    return matroid_from_nonbases(n, r, nonbases)


def test_beta_matches_crapo_subset_sum(fano, vamos):
    corpus = [m for _, _, _, m in family_corpus(8)] + [fano, vamos]
    corpus += [dual(m) for m in corpus]
    loop, coloop = uniform(0, 1), uniform(1, 1)
    corpus += [loop, coloop, direct_sum(loop, coloop), direct_sum(coloop, loop)]
    for m in (uniform(2, 4), minimal(2, 5), fano):
        corpus += [direct_sum(m, loop), direct_sum(loop, m), direct_sum(m, coloop),
                   direct_sum(coloop, m), direct_sum(direct_sum(coloop, m), loop)]
    sp = random_sparse_paving(4, 10, 3, random.Random(10))
    assert classify(sp).is_sparse_paving and classify(sp).nonbasis_count == 3
    corpus += [uniform(5, 10), minimal(5, 10), panhandle(3, 5, 8), sp]
    for m in corpus:
        assert beta(m) == oracle.beta(m.n, m.r, m.bases), m
    assert beta(sp) == comb(8, 3) - 3


# ---------------------------------------------------------------------------
# from_bases: the bulk parse gives the outcome of a basis-by-basis parse


def per_basis_from_bases(n, r, bases):
    """from_bases checked one basis at a time, in order: the type of each
    element, then the size, then the range of the basis."""
    require_int(n, "ground-set size")
    require_int(r, "rank")
    if not 0 <= r <= n:
        raise InvalidDimensions(f"need 0 <= r <= n, got r={r}, n={n}")
    try:
        bases = [tuple(b) for b in bases]
    except TypeError as exc:
        raise MalformedBasis(f"bases must be collections of elements: {exc}") from None
    sets = set()
    for b in bases:
        for e in b:
            require_int(e, "basis element")
        if len(b) != r or len(set(b)) != r:
            raise WrongBasisSize(f"basis {b} is not a set of {r} elements")
        if b and (min(b) < 1 or max(b) > n):
            raise ElementOutOfRange(f"basis {tuple(sorted(b))} not inside [{n}]")
        sets.add(tuple(sorted(b)))
    if not sets:
        raise EmptyBases("a matroid needs at least one basis")
    m = Matroid._from_masks(n, r, (matroids._subset_mask(n, b) for b in sets))
    validate_exchange(m)
    return m


def outcome(build, n, r, bases):
    """("ok", matroid) or (error class name, message)."""
    try:
        return "ok", build(n, r, bases)
    except SchubmatError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "n, r, bases, expected",
    [
        (3, 2, [(1, 2), (1,), (True, 2)], ("WrongBasisSize", "basis (1,) is not a set of 2 elements")),
        (3, 2, [(1, 2), (1, 2, 3), (0, 1)],
         ("WrongBasisSize", "basis (1, 2, 3) is not a set of 2 elements")),
        (3, 2, [(1, 2), (1,), (1, 4)], ("WrongBasisSize", "basis (1,) is not a set of 2 elements")),
        (3, 2, [(1, 2), (True, 2), (1,)], ("NotAnInteger", "basis element True is not an int")),
        (3, 2, [(2, 0), (1,)], ("ElementOutOfRange", "basis (0, 2) not inside [3]")),
        (3, 2, [(1, 2), (4, 1), (True,)], ("ElementOutOfRange", "basis (1, 4) not inside [3]")),
        (3, 2, [(1, 2), (0, 1, 2)], ("WrongBasisSize", "basis (0, 1, 2) is not a set of 2 elements")),
        (3, 2, [(2, 1.0, 5)], ("NotAnInteger", "basis element 1.0 is not an int")),
        (3, 2, [(1, 3), (2, 2), (1, 2)], ("WrongBasisSize", "basis (2, 2) is not a set of 2 elements")),
        (3, 2, [(1, 2), (2, 2), (1, 5)], ("WrongBasisSize", "basis (2, 2) is not a set of 2 elements")),
        (3, 2, [(1, 5), (2, 2)], ("ElementOutOfRange", "basis (1, 5) not inside [3]")),
        (3, 2, [(4, 4)], ("WrongBasisSize", "basis (4, 4) is not a set of 2 elements")),
        (4, 3, [(1, 2, 3), (3, 1, 3)],
         ("WrongBasisSize", "basis (3, 1, 3) is not a set of 3 elements")),
        (3, 2, [(1, 2), (0, 1)], ("ElementOutOfRange", "basis (0, 1) not inside [3]")),
        (3, 2, [(1, 2), (4, 1)], ("ElementOutOfRange", "basis (1, 4) not inside [3]")),
        (3, 2, [], ("EmptyBases", "a matroid needs at least one basis")),
        (3, 0, [(1,)], ("WrongBasisSize", "basis (1,) is not a set of 0 elements")),
        # dense lists, more bases than non-bases: read through U(r, n)'s index
        (4, 2, [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (2, 4)],
         ("WrongBasisSize", "basis (2, 2) is not a set of 2 elements")),
        (4, 2, [(1, 2), (1, 3), (0, 1), (1, 4), (2, 3)], ("ElementOutOfRange", "basis (0, 1) not inside [4]")),
        (4, 2, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 3)], ("ElementOutOfRange", "basis (2, 5) not inside [4]")),
        (4, 2, [(1, 2), (1, 3), (True, 4), (2, 3), (2, 4)],
         ("NotAnInteger", "basis element True is not an int")),
        (4, 2, [(1, 2), (2, 1), (1, 3), (1, 4), (5, 2)], ("ElementOutOfRange", "basis (2, 5) not inside [4]")),
        (3, 3, [(1, 2, 4)], ("ElementOutOfRange", "basis (1, 2, 4) not inside [3]")),
        (3, 3, [(1, 2, 2)], ("WrongBasisSize", "basis (1, 2, 2) is not a set of 3 elements")),
    ],
    ids=["size-then-bool", "size-then-zero", "size-then-n+1", "bool-then-size",
         "zero-then-size", "n+1-then-bool", "size-before-range", "type-before-size",
         "repeat-in-range", "repeat-then-n+1", "n+1-then-repeat", "repeat-out-of-range",
         "repeat-rank-3", "zero-only", "n+1-only", "empty-list",
         "r=0-nonempty-basis", "dense-repeat", "dense-zero", "dense-n+1", "dense-bool",
         "dense-unsorted-then-n+1", "dense-r=n-n+1", "dense-r=n-repeat"],
)
def test_from_bases_raises_the_first_fault_of_the_basis_list(n, r, bases, expected):
    assert outcome(from_bases, n, r, bases) == expected
    assert outcome(per_basis_from_bases, n, r, bases) == expected


def test_from_bases_accepts_what_a_per_basis_parse_accepts():
    u23 = Matroid(3, 2, [(1, 2), (1, 3), (2, 3)])
    u24 = Matroid._from_masks(4, 2, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100])
    sp24 = Matroid._from_masks(4, 2, [0b0011, 0b0101, 0b1001, 0b0110, 0b1010])
    cases = [  # (n, r, a function returning fresh bases, expected matroid)
        (3, 2, lambda: [(1, 2), (2, 1), (1, 2), (1, 3), (2, 3)], u23),  # duplicate bases
        (3, 0, lambda: [()], Matroid(3, 0, [()])),
        (3, 0, lambda: [(), []], Matroid(3, 0, [()])),
        (0, 0, lambda: [()], Matroid(0, 0, [()])),
        (3, 2, lambda: [(Label(1), Label(2)), (1, 3), (2, 3)], u23),  # int subclass
        (3, 2, lambda: [(Label(1), Label(2)), (Label(1), Label(3)), (Label(3), Label(2))], u23),
        (3, 2, lambda: [[1, 2], iter((1, 3)), (e for e in (3, 2))], u23),  # lists, iterators
        (3, 2, lambda: (b for b in [(1, 2), (1, 3), (2, 3)]), u23),  # a generator of bases
        (3, 2, lambda: [{1, 2}, frozenset({1, 3}), (2, 3)], u23),
        # dense lists, more bases than non-bases: read through U(r, n)'s index
        (4, 2, lambda: [(1, 2), (1, 3), (4, 1), (2, 3), (2, 4), (3, 4)], u24),  # unsorted
        (4, 2, lambda: [(1, 2), (1, 3), (Label(1), 4), (2, 3), (2, 4), (3, 4)], u24),  # int subclass
        (4, 2, lambda: [*combinations(range(1, 5), 2), (1, 2), (3, 4)], u24),  # duplicate bases
        (4, 2, lambda: [list(b) for b in combinations(range(1, 5), 2)], u24),
        (4, 2, lambda: [(2, 1), (1, 3), (1, 4), (2, 3), (2, 4)], sp24),  # unsorted
        (3, 3, lambda: [(3, 1, 2)], Matroid(3, 3, [(1, 2, 3)])),
    ]
    for n, r, bases, expected in cases:
        assert outcome(from_bases, n, r, bases()) == ("ok", expected)
        assert outcome(per_basis_from_bases, n, r, bases()) == ("ok", expected)


@st.composite
def faulty_basis_lists(draw):
    """A few bases over [n], n <= 5, with occasional wrong sizes, repeated
    elements, elements 0 or n + 1, bools, floats and int subclasses."""
    n = draw(st.integers(0, 5))
    r = draw(st.integers(0, n))
    element = st.one_of(
        st.integers(1, n) if n else st.just(1),
        st.sampled_from([0, n + 1, -1, True, False, 1.0]),
        st.integers(1, max(n, 1)).map(Label),
    )
    plain = st.lists(st.integers(1, n), min_size=r, max_size=r, unique=True) if n else st.just([])
    basis = st.one_of(plain, plain, plain, st.lists(element, min_size=max(r - 1, 0), max_size=r + 1))
    return n, r, draw(st.lists(basis.map(tuple), min_size=0, max_size=5))


@settings(max_examples=400, deadline=None)
@given(faulty_basis_lists())
def test_from_bases_matches_per_basis_parse_on_faulty_lists(case):
    n, r, bases = case
    assert outcome(from_bases, n, r, bases) == outcome(per_basis_from_bases, n, r, bases)


FAULTS = ["reversed", "repeat", "zero", "n+1", "True", "int subclass", "float", "long", "short"]


@st.composite
def dense_basis_lists(draw):
    """More than half of the r-sets of [n], n <= 6, as sorted tuples in any
    order, with at most one entry corrupted: reversed, a repeated element,
    element 0 or n + 1, True, an int subclass, a float, or one element too
    many or too few."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    every = list(combinations(range(1, n + 1), r))
    bases = draw(st.permutations(every))[:draw(st.integers(len(every) // 2 + 1, len(every)))]
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS)))
    if fault is not None:
        i, j = draw(st.integers(0, len(bases) - 1)), draw(st.integers(0, r - 1))
        b = list(bases[i])
        if fault == "reversed":
            b.reverse()
        elif fault == "long":
            b.append(draw(st.integers(1, n)))
        elif fault == "short":
            del b[j]
        else:
            b[j] = {"repeat": b[j - 1], "zero": 0, "n+1": n + 1, "True": True,
                    "int subclass": Label(b[j]), "float": float(b[j])}[fault]
        bases[i] = tuple(b)
    return n, r, bases


@settings(max_examples=400, deadline=None)
@given(dense_basis_lists())
def test_from_bases_matches_per_basis_parse_on_dense_lists(case):
    """A dense list is read through U(r, n)'s index; any entry the index
    misses falls back to the bulk pass and the rescan, which give the
    per-basis outcome."""
    n, r, bases = case
    assert 2 * len(bases) > comb(n, r)
    assert outcome(from_bases, n, r, bases) == outcome(per_basis_from_bases, n, r, bases)


@pytest.mark.parametrize(
    "n, r, bases, message",
    [
        (5, 2, [(2, 3), (5, 1), (4, 1)], "no exchange for x=2 between bases [2, 3] and [1, 4]"),
        (6, 3, [(1, 4, 5), (3, 5, 6), (3, 4, 6), (1, 3, 4)],
         "no exchange for x=4 between bases [1, 3, 4] and [3, 5, 6]"),
        (6, 3, [(1, 3, 6), (2, 5, 6), (3, 4, 6), (3, 5, 6)],
         "no exchange for x=3 between bases [1, 3, 6] and [2, 5, 6]"),
    ],
)
def test_exchange_witness_does_not_depend_on_basis_order(n, r, bases, message):
    """The witness is the least violation, so every order of one family
    raises the same message, as does the per-basis parse."""
    outcomes = {outcome(from_bases, n, r, list(order)) for order in permutations(bases)}
    assert outcomes == {("ExchangeAxiomViolated", message)}
    assert outcome(per_basis_from_bases, n, r, bases) == ("ExchangeAxiomViolated", message)


def test_exchange_witness_is_the_least_violation():
    """Against every (b1, b2, x) that violates the axiom, on random r-set
    families: the least by b1, then b2, then x, sets compared as bitmasks,
    from the checked constructor and from `validate_exchange` alike."""
    rng = random.Random(13)
    checked = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        r = rng.randint(1, n - 1)
        sets = {frozenset(b) for b in rng.sample(list(combinations(range(1, n + 1), r)),
                                                 rng.randint(2, min(6, comb(n, r))))}
        violations = [(matroids._subset_mask(n, b1), matroids._subset_mask(n, b2), x)
                      for b1 in sets for b2 in sets for x in b1 - b2
                      if not any(b1 - {x} | {y} in sets for y in b2 - b1)]
        if not violations:
            continue
        b1, b2, x = min(violations)
        least = (frozenset(matroids._elements(b1)), frozenset(matroids._elements(b2)), x)
        with pytest.raises(ExchangeAxiomViolated) as err:
            from_bases(n, r, [tuple(b) for b in sets])
        assert (err.value.b1, err.value.b2, err.value.x) == least
        masks = [matroids._subset_mask(n, b) for b in sets]
        with pytest.raises(ExchangeAxiomViolated) as err:
            validate_exchange(Matroid._from_masks(n, r, masks))
        assert (err.value.b1, err.value.b2, err.value.x) == least
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# Matroid(n, r, bases) is the checked constructor; Matroid._from_masks trusts


@pytest.mark.parametrize(
    "n, r, bases, error",
    [
        (3, 2, [(1, 1)], WrongBasisSize),
        (4, 2, [(1, 2), (3, 4)], ExchangeAxiomViolated),
        (2, 1, [(5,)], ElementOutOfRange),
    ],
    ids=["repeated-element", "no-exchange", "out-of-range"],
)
def test_matroid_constructor_checks_its_input(n, r, bases, error):
    with pytest.raises(error):
        Matroid(n, r, bases)


def test_matroid_constructor_is_from_bases_on_the_family_corpus():
    for _, r, n, m in family_corpus(7):
        bases = sorted(m.bases)
        assert Matroid(n, r, bases) == from_bases(n, r, bases) == m


@settings(max_examples=200, deadline=None)
@given(st.one_of(faulty_basis_lists(), r_subset_families()))
def test_matroid_constructor_fails_as_from_bases_does(case):
    n, r, bases = case
    assert outcome(Matroid, n, r, bases) == outcome(from_bases, n, r, bases)


def test_derived_matroids_satisfy_the_exchange_axiom(fano, vamos):
    """dual, minor, restriction and direct_sum build through the trusted
    constructor; what they derive from a matroid is a matroid.  A sum is
    checked through its factors, with no exchange table of its own."""
    corpus = [m for _, _, _, m in family_corpus(6)] + [fano, vamos]
    for prev, m in zip(corpus[-1:] + corpus, corpus):
        contracted = min(min(b) for b in m.bases)  # an element of some basis
        pair = direct_sum(m, prev)
        derived = [dual(m), minor(m, delete={m.n}), minor(m, contract={contracted}), pair]
        derived += [restriction(m, part) for part in classify(m).components]
        for d in derived:
            validate_exchange(d)
            assert Matroid(d.n, d.r, d.bases) == d
        assert "_exchange_table" not in pair._cache
