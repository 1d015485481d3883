"""Volume oracle tests: vertices, lattice point counts, Ehrhart interpolation."""

import random
from functools import reduce
from itertools import combinations, product as iproduct
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from schubmat import (
    direct_sum,
    ehrhart_report,
    from_bases,
    from_rational_matrix,
    lattice_points,
    minimal,
    normalized_volume,
    panhandle,
    uniform,
)
from schubmat.errors import DeskScaleExceeded, InvalidDimensions, NotAnInteger, RankDeficient
from schubmat.matroids import Matroid, _factors, _split, classify
from schubmat.polytope import _binding_constraints
from conftest import FANO_LINES, VAMOS_CIRCUIT_HYPERPLANES, family_corpus, matroid_from_nonbases
import lattice_oracle
from polytope_helpers import polytope_vertices

LOOP = from_bases(1, 0, [()])
COLOOP = from_bases(1, 1, [(1,)])


def in_dilate(m, y, t: int) -> bool:
    """Brute-force membership of y in t*P(M): every one of the 2^n rank constraints."""
    if sum(y) != t * m.r or any(v < 0 for v in y):
        return False
    ground = list(range(1, m.n + 1))
    for k in range(1, m.n + 1):
        for subset in combinations(ground, k):
            if sum(y[e - 1] for e in subset) > t * m.rank_of(subset):
                return False
    return True


def brute_lattice_points(m, t):
    """All-subsets membership test over the full integer box; n kept tiny."""
    return sum(
        in_dilate(m, y, t) for y in iproduct(range(t + 1), repeat=m.n)
    )


def test_vertices_examples():
    assert polytope_vertices(uniform(1, 2)) == {(1, 0), (0, 1)}
    verts = polytope_vertices(uniform(2, 4))
    assert len(verts) == 6 and all(sum(v) == 2 for v in verts)
    t24 = from_bases(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert len(polytope_vertices(t24)) == 5


def test_lattice_point_examples():
    assert lattice_points(uniform(2, 4), 0) == 1
    assert lattice_points(uniform(2, 4), 1) == 6
    assert lattice_points(uniform(2, 4), 2) == 19


def relabel(m, image):
    """The copy of m with element e renamed image[e - 1]."""
    return from_bases(m.n, m.r, [[image[e - 1] for e in b] for b in m.bases])


def test_lattice_points_against_brute_force():
    t24 = from_bases(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    # element 2 is a loop, element 3 a coloop: both sit inside the ground set
    with_loop = from_bases(5, 2, [(1, 3), (1, 4), (1, 5), (3, 4), (3, 5), (4, 5)])
    with_coloop = from_bases(5, 3, [(1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5),
                                    (3, 4, 5)])
    small = [uniform(2, 4), uniform(1, 3), t24, minimal(2, 5), minimal(3, 6),
             direct_sum(uniform(1, 2), uniform(1, 3)),
             matroid_from_nonbases(6, 3, [{1, 2, 3}, {4, 5, 6}]),
             with_loop, with_coloop,
             relabel(minimal(2, 5), [3, 5, 1, 4, 2]),
             relabel(minimal(3, 6), [6, 2, 4, 1, 5, 3]),
             # shuffled sums: the components interleave in the labels
             relabel(direct_sum(uniform(1, 3), uniform(1, 2)), [2, 5, 1, 4, 3]),
             relabel(direct_sum(minimal(2, 4), uniform(1, 2)), [6, 1, 4, 2, 5, 3]),
             relabel(reduce(direct_sum, [uniform(1, 2), uniform(1, 2), uniform(1, 2)]),
                     [4, 1, 6, 3, 5, 2]),
             relabel(reduce(direct_sum, [uniform(1, 3), LOOP, COLOOP]), [3, 5, 1, 2, 4])]
    assert with_loop.loops() == {2} and with_coloop.coloops() == {3}
    for m in small:
        for t in range(4):
            assert lattice_points(m, t) == brute_lattice_points(m, t), (m, t)


def connected_rational_matroids(count, seed=0):
    """count connected matroids of small integer matrices, n = 6..9 and
    r = 2..4; the zero entries make many of them not paving."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n, r = rng.randint(6, 9), rng.randint(2, 4)
        entries = [[rng.choice([-1, 0, 0, 1, 2]) for _ in range(n)] for _ in range(r)]
        try:
            m = from_rational_matrix(entries, r)
        except RankDeficient:
            continue
        if classify(m).kappa == 1:
            found.append(m)
    return found


def test_binding_flats_match_the_oracle(fano, vamos):
    """The flats from the exchange table's hyperplanes against the
    brute-force rank table's closed sets."""
    with_loop = direct_sum(uniform(2, 4), from_bases(1, 0, [()]))
    # sparse paving, rank 4: four circuit-hyperplanes, each two meeting in at most 2
    sparse = matroid_from_nonbases(8, 4, [{1, 2, 3, 4}, {5, 6, 7, 8}, {1, 2, 5, 6}, {3, 4, 7, 8}])
    cases = ([m for *_, m in family_corpus(6)]
             + [fano, vamos, with_loop, uniform(0, 3), uniform(3, 3), minimal(3, 6),
                panhandle(3, 4, 7), uniform(4, 8), sparse]
             + connected_rational_matroids(50))
    for m in cases:
        flats = _binding_constraints(m)
        assert set(flats) == set(lattice_oracle.binding_flats(m, lattice_oracle.rank_table(m))), m
        ground = (1 << m.n) - 1
        for s, rk in flats:
            assert s & ~ground == 0 and s != ground and rk < m.r, (m, s)
            assert rk == m.rank_of([e for e in range(1, m.n + 1) if s >> (e - 1) & 1]), (m, s)


def test_volume_examples():
    assert normalized_volume(minimal(2, 5)) == 3
    assert normalized_volume(uniform(2, 4)) == 4
    assert normalized_volume(uniform(1, 2)) == 1


def test_minimal_matroid_pyramid_volume():
    for n in range(3, 8):
        for r in range(2, n):
            assert normalized_volume(minimal(r, n)) == comb(n - 2, r - 1), (r, n)


def test_hypersimplex_duality():
    for n in range(2, 8):
        for r in range(1, n):
            assert normalized_volume(uniform(r, n)) == normalized_volume(
                uniform(n - r, n)
            )


def test_sparse_paving_volume_additivity(fano):
    cases = [
        (fano, 7),
        (matroid_from_nonbases(6, 3, [{1, 2, 3}, {4, 5, 6}]), 2),
        (matroid_from_nonbases(5, 2, [{4, 5}]), 1),
    ]
    for m, k in cases:
        assert normalized_volume(uniform(m.r, m.n)) == normalized_volume(
            m
        ) + k * normalized_volume(minimal(m.r, m.n))


def test_ehrhart_report_shape():
    report = ehrhart_report(uniform(2, 4))
    assert report.dim == 3
    assert report.counts == (1, 6, 19, 44)
    assert report.counts[0] == 1
    assert all(a < b for a, b in zip(report.counts, report.counts[1:]))
    # the fitted polynomial reproduces the counts
    for t, c in enumerate(report.counts):
        assert sum(coef * t**k for k, coef in enumerate(report.ehrhart)) == c
    assert report.normalized_volume == 4


def test_disconnected_volume():
    m = direct_sum(uniform(1, 2), uniform(1, 2))
    report = ehrhart_report(m)
    assert report.dim == 2
    assert report.normalized_volume == 2  # product of two unit segments, 2! * 1


def test_extra_point_guard_on_corpus():
    # ehrhart_report itself fits at t=0..d and verifies t=d+1; run it broadly
    for _, _, n, m in family_corpus(6):
        ehrhart_report(m)


def test_desk_scale_limit():
    with pytest.raises(DeskScaleExceeded):
        normalized_volume(uniform(3, 9))
    with pytest.raises(DeskScaleExceeded):
        lattice_points(uniform(3, 9), 1)
    # the limit is configurable
    assert lattice_points(uniform(1, 9), 1, limit=9) == 9


@pytest.mark.parametrize(
    "t, error",
    [(True, NotAnInteger), (2.0, NotAnInteger), ("1", NotAnInteger), (-1, InvalidDimensions)],
    ids=["bool", "float", "string", "negative"],
)
def test_lattice_points_takes_a_dilation_count(t, error):
    with pytest.raises(error):
        lattice_points(uniform(2, 4), t)


def test_desk_scale_limit_is_an_int():
    m = uniform(2, 4)
    for limit in (8.5, 8.0, True):
        with pytest.raises(NotAnInteger):
            lattice_points(m, 1, limit)
        with pytest.raises(NotAnInteger):
            ehrhart_report(m, limit)
    with pytest.raises(DeskScaleExceeded):
        lattice_points(m, 1, -1)
    with pytest.raises(DeskScaleExceeded):
        ehrhart_report(m, -1)
    assert lattice_points(m, 1, 4) == 6


def test_no_flats_past_the_desk_scale():
    m = uniform(3, 9)
    with pytest.raises(DeskScaleExceeded):
        lattice_points(m, 1)
    with pytest.raises(DeskScaleExceeded):
        ehrhart_report(m)
    assert "_binding_constraints" not in m._cache
    lattice_points(m, 1, limit=9)
    assert "_binding_constraints" in m._cache


def sums_corpus():
    """Direct sums of 2 and 3 components, with and without a loop or a coloop."""
    return [
        direct_sum(uniform(2, 4), uniform(1, 3)),
        direct_sum(uniform(2, 5), uniform(1, 3)),
        direct_sum(minimal(2, 5), uniform(1, 2)),
        direct_sum(uniform(2, 4), uniform(2, 4)),
        reduce(direct_sum, [uniform(1, 2), uniform(1, 3), uniform(2, 3)]),
        reduce(direct_sum, [uniform(1, 2), minimal(2, 4), uniform(1, 2)]),
        direct_sum(uniform(2, 4), LOOP),
        reduce(direct_sum, [minimal(2, 5), COLOOP, LOOP]),
        reduce(direct_sum, [COLOOP, uniform(2, 4), LOOP, uniform(1, 2)]),
    ]


def test_counter_matches_oracle_on_corpus():
    """The frontier counter against the earlier DFS counter, canonical labels."""
    for name, r, n, m in family_corpus(7):
        dim = m.n - classify(m).kappa
        for t in range(dim + 2):
            assert lattice_points(m, t) == lattice_oracle.lattice_points(m, t), (name, r, n, t)


def test_a_sum_is_counted_through_its_factors():
    for m in sums_corpus():
        for t in range(4):
            assert lattice_points(m, t) == prod(lattice_points(f, t) for _, f in _factors(m)), (m, t)
        ehrhart_report(m)
        # the sum builds no table of its own: only its factors are counted
        assert not {"_binding_constraints", "_plan"} & m._cache.keys()
    # the gate reads the whole ground set, not the largest factor
    pair = direct_sum(uniform(2, 5), uniform(2, 5))
    with pytest.raises(DeskScaleExceeded):
        ehrhart_report(pair)
    with pytest.raises(DeskScaleExceeded):
        lattice_points(pair, 1)
    # a product of two 4-dimensional hypersimplices of volume 11
    assert ehrhart_report(pair, 10).normalized_volume == comb(8, 4) * 11 * 11


def test_a_sum_reads_its_loops_and_coloops_off_its_factors():
    """classify's loops and coloops, read off the one-element factors, are
    the ones the bases give; every factor is recorded as connected, as a
    fresh copy of it splits into one part."""
    more = [direct_sum(LOOP, LOOP), direct_sum(COLOOP, COLOOP), direct_sum(LOOP, COLOOP),
            reduce(direct_sum, [uniform(1, 3), COLOOP, COLOOP, LOOP]),
            direct_sum(minimal(3, 6), COLOOP), direct_sum(LOOP, uniform(2, 5))]
    for m in sums_corpus() + more + [LOOP, COLOOP, uniform(0, 0), uniform(2, 4)]:
        facts = classify(m)
        assert (facts.loops, facts.coloops) == (m.loops(), m.coloops()), m
        for _, f in _factors(m):
            fresh = Matroid._from_masks(f.n, f.r, f._masks)
            assert f._cache["_factors"] == _factors(fresh) == ()
            assert _split(fresh) == [fresh._ground()]


RELABEL_CORPUS = (
    [m for *_, m in family_corpus(8)]
    + [matroid_from_nonbases(7, 3, FANO_LINES), matroid_from_nonbases(8, 4, VAMOS_CIRCUIT_HYPERPLANES)]
    + sums_corpus()
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ehrhart_report_is_invariant_under_relabelling(data):
    m = data.draw(st.sampled_from(RELABEL_CORPUS))
    image = data.draw(st.permutations(range(1, m.n + 1)))
    assert ehrhart_report(relabel(m, image)) == ehrhart_report(m)


def test_relabelled_inputs_that_used_to_be_slow():
    # orders in which the earlier counter took tens of seconds
    for image in ([4, 7, 2, 6, 8, 1, 5, 3], [6, 4, 5, 2, 3, 7, 8, 1]):
        report = ehrhart_report(relabel(minimal(4, 8), image))
        assert report == ehrhart_report(minimal(4, 8))
        assert report.normalized_volume == comb(6, 3)
    pair = direct_sum(uniform(2, 4), uniform(2, 4))
    report = ehrhart_report(relabel(pair, [1, 6, 8, 3, 2, 7, 5, 4]))
    assert report == ehrhart_report(pair)
    # a product of two 3-dimensional hypersimplices of volume 4
    assert report.normalized_volume == comb(6, 3) * 4 * 4
