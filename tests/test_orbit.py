"""Orbit-class engine: Klyachko, minimal lemma, sparse paving, direct sums."""

import json
import random
from functools import reduce
from itertools import combinations
from math import comb

import pytest

from schubmat import (
    Ambient,
    beta,
    classify,
    direct_sum,
    dual,
    from_bases,
    minimal,
    panhandle,
    sc,
    sc_direct_sum,
    sc_minimal,
    sc_sparse_paving,
    sc_uniform,
    uniform,
    sigma,
    verify_volume_relation,
)
from schubmat.errors import (
    BetaMismatch,
    EmptyMatroid,
    InvalidDimensions,
    NotAnInteger,
    NotConnected,
    NotSparsePaving,
    UnsupportedMatroid,
)
from schubmat import cli, matroids, orbit
from schubmat.orbit import METHOD_MINIMAL, METHOD_POINT, METHOD_SPARSE_PAVING
from schubmat.partitions import conjugate, hook_complement
from conftest import family_corpus, matroid_from_nonbases
from test_polytope import sums_corpus


def test_sc_uniform_examples():
    assert sc_uniform(2, 4).terms == {(1,): 2}
    assert sc_uniform(2, 5).terms == {(2,): 3, (1, 1): 1}
    assert sc_uniform(3, 7).coefficient((3, 3)) == 10  # = beta(U_{3,7})


def test_sc_uniform_rejects_degenerate():
    with pytest.raises(InvalidDimensions):
        sc_uniform(0, 3)
    with pytest.raises(InvalidDimensions):
        sc_uniform(3, 3)


def test_sc_uniform_checks_types_before_its_cache():
    """The cache is typed: 2.0 and True equal cached ints, yet reach the gate."""
    assert sc_uniform(2, 4).terms == {(1,): 2}
    assert sc_uniform(1, 4).terms == {(): 1}
    for r, n in [(2.0, 4), (2, 4.0), (True, 4), ("a", 4), (2, None)]:
        with pytest.raises(NotAnInteger):
            sc_uniform(r, n)


def test_sc_uniform_hook_complement_is_beta():
    for n in range(2, 9):
        for r in range(1, n):
            assert sc_uniform(r, n).coefficient(hook_complement(r, n)) == comb(
                n - 2, r - 1
            )


def test_sc_minimal_examples():
    assert sc_minimal(2, 5).terms == {(2,): 1}
    assert sc_minimal(3, 7).terms == {(3, 3): 1}
    assert sc_minimal(1, 2).terms == {(): 1}


def test_sc_sparse_paving_golden(fano, vamos):
    assert sc_sparse_paving(fano).terms == {
        (4, 2): 6, (4, 1, 1): 3, (3, 3): 3, (3, 2, 1): 8, (2, 2, 2): 1,
    }
    assert sc_sparse_paving(vamos).terms == {
        (4, 4, 1): 4, (4, 3, 2): 20, (4, 3, 1, 1): 12, (4, 2, 2, 1): 12,
        (3, 3, 3): 15, (3, 3, 2, 1): 20, (3, 2, 2, 2): 4,
    }
    assert sc_sparse_paving(panhandle(2, 3, 5)).terms == {(1, 1): 1, (2,): 2}


def test_sc_sparse_paving_errors():
    with pytest.raises(NotSparsePaving):
        sc_sparse_paving(minimal(2, 5))
    with pytest.raises(NotConnected):
        sc_sparse_paving(matroid_from_nonbases(4, 2, [{1, 2}, {3, 4}]))


def test_sc_direct_sum_golden_example():
    combined = sc_direct_sum([sc_uniform(2, 4), sc_uniform(2, 5)])
    assert combined.ambient == Ambient(4, 9)
    assert combined.terms == {
        (4, 3, 3, 3): 2, (4, 4, 3, 2): 8, (4, 4, 4, 1): 6, (5, 3, 3, 2): 8,
        (5, 4, 2, 2): 8, (5, 4, 3, 1): 14, (5, 4, 4): 6, (5, 5, 2, 1): 8,
        (5, 5, 3): 6,
    }


def test_sc_direct_sum_disconnected_hook_vanishes():
    combined = sc_direct_sum([sc_uniform(1, 2), sc_uniform(1, 2)])
    assert combined.coefficient(hook_complement(2, 4)) == 0


def test_sc_direct_sum_single_part_and_associativity():
    single = sc_direct_sum([sc_uniform(2, 5)])
    assert single.terms == sc_uniform(2, 5).terms
    parts = [sc_uniform(1, 2), sc_uniform(2, 4), sc_uniform(2, 5)]
    left = sc_direct_sum([sc_direct_sum(parts[:2]), parts[2]])
    right = sc_direct_sum([parts[0], sc_direct_sum(parts[1:])])
    assert left.terms == right.terms


def test_dispatcher_t24_both_branches_agree():
    t24 = matroid_from_nonbases(4, 2, [{3, 4}])
    result = sc(t24)
    assert result.methods == (METHOD_SPARSE_PAVING,)
    assert result.k_used == 1
    assert result.chow_class.terms == sc_minimal(2, 4).terms == {(1,): 1}


def test_dispatcher_non_pappus(non_pappus):
    result = sc(non_pappus)
    assert result.chow_class.terms == {
        (6, 4): 15, (6, 3, 1): 15, (6, 2, 2): 6, (5, 5): 13,
        (5, 4, 1): 24, (5, 3, 2): 15, (4, 4, 2): 6, (4, 3, 3): 3,
    }
    assert result.k_used == 8
    assert result.beta_value == 13


def test_dispatcher_unsupported():
    with pytest.raises(UnsupportedMatroid) as err:
        sc(panhandle(2, 3, 6))
    assert err.value.component.n == 6
    c = classify(panhandle(2, 3, 6))
    assert not c.is_sparse_paving and not c.is_minimal and c.kappa == 1


def test_dispatcher_degenerate_points():
    from schubmat.matroids import Matroid

    loop = Matroid(1, 0, [()])
    coloop = from_bases(1, 1, [(1,)])
    for point in (loop, coloop):
        result = sc(point)
        assert result.methods == (METHOD_POINT,)
        assert result.chow_class.terms == {(): 1}
        assert result.k_used is None
    with_loop = direct_sum(uniform(2, 4), loop)
    result = sc(with_loop)
    assert result.methods == (METHOD_SPARSE_PAVING, METHOD_POINT)
    assert result.k_used is None
    # the loop widens the rectangle: 2 sigma_(1) box-shifts to 2 sigma_(2,1)
    assert result.chow_class.ambient == Ambient(2, 5)
    assert result.chow_class.terms == {(2, 1): 2}


def test_empty_matroid_is_a_domain_error():
    with pytest.raises(EmptyMatroid):
        sc(from_bases(0, 0, [()]))
    with pytest.raises(EmptyMatroid):
        sc_direct_sum([])


def test_dispatcher_mixed_components():
    m = direct_sum(minimal(2, 5), uniform(2, 4))
    result = sc(m)
    assert result.methods == (METHOD_MINIMAL, METHOD_SPARSE_PAVING)
    assert result.k_used is None
    # k is the sparse paving count: a connected minimal matroid has none
    assert sc(minimal(2, 5)).methods == (METHOD_MINIMAL,) and sc(minimal(2, 5)).k_used is None
    assert result.chow_class.terms == sc_direct_sum(
        [sc_minimal(2, 5), sc_uniform(2, 4)]
    ).terms


def test_homogeneity_and_hook_coefficient_on_corpus(fano):
    corpus = [m for _, _, _, m in family_corpus(7)] + [fano]
    for m in corpus:
        try:
            result = sc(m)
        except UnsupportedMatroid:
            continue
        summary = result.matroid_summary
        expected = m.r * (m.n - m.r) - (m.n - summary.kappa)
        assert all(sum(lam) == expected for lam in result.chow_class.terms)
        hc = hook_complement(m.r, m.n) if 1 <= m.r < m.n else ()
        coeff = result.chow_class.coefficient(hc) if sum(hc) == expected else 0
        assert coeff == result.beta_value == beta(m)
        assert all(c >= 0 for c in result.chow_class.terms.values())


def test_sc_relabeling_invariance(fano):
    rng = random.Random(23)
    perm = list(range(1, 8))
    rng.shuffle(perm)
    mapping = {i + 1: perm[i] for i in range(7)}
    relabeled = from_bases(
        7, 3, [tuple(sorted(mapping[e] for e in b)) for b in fano.bases]
    )
    assert sc(relabeled).chow_class.terms == sc(fano).chow_class.terms


def test_verify_volume_relation_examples(fano):
    v = verify_volume_relation(minimal(3, 7))
    assert v.degree == v.volume == 10 and v.ok
    v = verify_volume_relation(uniform(2, 4))
    assert v.degree == v.volume == 4 and v.ok
    assert verify_volume_relation(fano).ok


def test_verdict_fails_on_any_failed_check(monkeypatch, capsys):
    # a wrong beta fails d_hc=beta while degree=volume holds: the verdict
    # and `schubmat verify` both fail, by the one rule
    monkeypatch.setattr(orbit, "beta", lambda m: 2)
    verdict = verify_volume_relation(minimal(2, 5))
    assert verdict.checks == (("degree=volume", 3, 3, True), ("d_hc=beta", 1, 2, False))
    assert verdict.ok is False
    assert cli.main(["verify", "--minimal", "2,5"]) == 1
    assert capsys.readouterr().err == "SchubmatError\nverification failed\n"


def test_verify_volume_relation_propagates_errors():
    from schubmat.errors import DeskScaleExceeded

    with pytest.raises(UnsupportedMatroid):
        verify_volume_relation(panhandle(2, 3, 6))
    with pytest.raises(DeskScaleExceeded):
        verify_volume_relation(uniform(3, 9))


def test_verify_volume_relation_corpus_small():
    for _, _, n, m in family_corpus(6):
        try:
            assert verify_volume_relation(m).ok
        except UnsupportedMatroid:
            continue


def test_duality_conjugates_coefficients(fano, vamos):
    # d_lambda(M) = d_lambda'(M*): G(r,n) and G(n-r,n) swap the rectangle's sides
    cases = [
        uniform(2, 5), uniform(3, 7), uniform(1, 4),
        minimal(2, 5), minimal(3, 7), minimal(2, 6),
        fano, vamos, matroid_from_nonbases(6, 3, [{1, 2, 3}, {4, 5, 6}]),
        panhandle(2, 3, 5),
        direct_sum(uniform(2, 4), uniform(2, 5)),
        direct_sum(minimal(2, 5), uniform(1, 3)),
        direct_sum(fano, uniform(1, 2)),
    ]
    for m in cases:
        primal, codual = sc(m).chow_class, sc(dual(m)).chow_class
        assert codual.ambient == Ambient(m.n - m.r, m.n)
        assert codual.terms == {conjugate(lam): c for lam, c in primal.terms.items()}, m


# sc reads each class from a cache keyed by its components' profiles


def uncached_class(m):
    """The fold of m's component formulas through the public formulas, not
    through sc's cache; None when a component has no formula."""
    parts = []
    for _, f in matroids._factors(m) or [(None, m)]:
        if f.n == 1:
            parts.append(sigma(Ambient(f.r, 1), ()))
        elif classify(f).is_sparse_paving:
            parts.append(sc_sparse_paving(f))
        elif classify(f).is_minimal:
            parts.append(sc_minimal(f.r, f.n))
        else:
            return None
    return sc_direct_sum(parts)


def profile(f):
    """What a connected f's class depends on, read without the engine."""
    if f.n == 1:
        return ("point", f.r)
    if classify(f).is_sparse_paving:
        return ("sparse paving", f.r, f.n, classify(f).nonbasis_count)
    return ("minimal", f.r, f.n)


def flipped(m):
    """The sum of m's factors in the reverse order."""
    return reduce(direct_sum, [f for _, f in matroids._factors(m)][::-1])


def relabelled(m, seed):
    perm = random.Random(seed).sample(range(1, m.n + 1), m.n)
    return from_bases(m.n, m.r, [tuple(perm[e - 1] for e in b) for b in m.bases])


def profile_corpus(fano, vamos):
    sums = sums_corpus()
    return [m for *_, m in family_corpus(9)] + [fano, vamos] + sums + [flipped(m) for m in sums]


def test_the_profile_cache_changes_no_class(fano, vamos):
    """Cold and warm, sc gives the uncached fold of the component formulas,
    and a sum's class does not depend on the order of its factors."""
    orbit._profile_class.cache_clear()
    for m in profile_corpus(fano, vamos):
        expected = uncached_class(m)
        if expected is None:
            with pytest.raises(UnsupportedMatroid):
                sc(m)
            continue
        assert sc(m).chow_class == expected == sc(m).chow_class, m
    for m in sums_corpus():
        assert sc(flipped(m)).chow_class == sc(m).chow_class, m


def test_one_fold_per_distinct_profile_sequence(monkeypatch, fano):
    """Instances with the same component profiles in ground-set order read
    one class: the fold runs once per distinct sequence."""
    orbit._profile_class.cache_clear()
    folds = []
    real_fold = orbit.sc_direct_sum
    monkeypatch.setattr(orbit, "sc_direct_sum", lambda parts: folds.append(parts) or real_fold(parts))
    loop, coloop = uniform(0, 1), uniform(1, 1)
    corpus = [uniform(2, 5), relabelled(uniform(2, 5), 1), fano, relabelled(fano, 2),
              relabelled(fano, 3), minimal(2, 5), minimal(2, 5), loop, coloop,
              matroid_from_nonbases(4, 2, [{3, 4}]), minimal(2, 4),
              direct_sum(uniform(2, 4), uniform(2, 5)), direct_sum(uniform(2, 5), uniform(2, 4)),
              relabelled(direct_sum(uniform(2, 4), uniform(2, 5)), 4),
              direct_sum(uniform(2, 4), loop), direct_sum(loop, uniform(2, 4)),
              direct_sum(minimal(2, 4), coloop)]
    sequences = set()
    for m in corpus + corpus[::-1]:
        sc(m)
        sequences.add(tuple(map(profile, [f for _, f in matroids._factors(m)] or [m])))
    assert len(folds) == len(sequences) == orbit._profile_class.cache_info().currsize == 11


def test_a_cached_profile_still_checks_each_instance(monkeypatch, fano):
    """A new instance of a cached sparse paving profile has its beta counted
    from its own bases, and every instance is checked against beta on every
    call, before the cache is read."""
    sc(fano)
    counted = []
    real_count = matroids._activity_count
    monkeypatch.setattr(matroids, "_activity_count", lambda m: counted.append(m) or real_count(m))
    second = relabelled(fano, 5)
    assert sc(second).chow_class is sc(fano).chow_class
    assert len(counted) == 1 and counted[0] is second
    monkeypatch.setattr(orbit, "beta", lambda m: 999)
    for m in (fano, second, relabelled(fano, 6)):
        with pytest.raises(BetaMismatch):
            sc(m)
    with pytest.raises(NotSparsePaving):
        sc_sparse_paving(minimal(2, 5))


def test_no_cached_class_is_changed_by_its_callers(fano, vamos, tmp_path, capsys):
    """ChowClass.terms is a dict that every caller of a cached class shares:
    the corpus and the CLI verbs run in process leave each class as built,
    and a class printed before and after the verbs reads the same."""
    orbit._profile_class.cache_clear()
    corpus = profile_corpus(fano, vamos)
    built = {}
    for m in corpus:
        try:
            c = sc(m).chow_class
        except UnsupportedMatroid:
            continue
        built[id(c)] = (c, c.ambient, dict(c.terms))
    assert len(built) == orbit._profile_class.cache_info().currsize
    uniform_classes = [(sc_uniform(r, n), dict(sc_uniform(r, n).terms))
                       for n in range(2, 10) for r in range(1, n)]
    sp = tmp_path / "sp.json"
    sp.write_text(json.dumps(matroid_from_nonbases(6, 3, [{1, 2, 3}, {4, 5, 6}]).to_json_dict()))
    classes = (["class", "--uniform", "2,5", "--uniform", "3,6"],
               ["class", "--uniform", "3,6", "--uniform", "2,5", "--format", "json"],
               ["class", "--minimal", "3,6", "--uniform", "2,4"],
               ["class", "--matroid", str(sp), "--uniform", "1,3"])
    verifies = (["verify", "--uniform", "2,4", "--uniform", "1,3"],
                ["verify", "--matroid", str(sp)], ["verify", "--minimal", "3,6"])
    printed = []
    for argvs in (classes, verifies, classes):
        for argv in argvs:
            assert cli.main(argv) == 0, argv
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[2]
    for m in corpus:
        try:
            sc(m)
        except UnsupportedMatroid:
            continue
    for c, ambient, terms in built.values():
        assert c.ambient == ambient and c.terms == terms
    for c, terms in uniform_classes:
        assert c.terms == terms
