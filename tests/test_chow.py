"""Schubert-calculus kernel tests: Pieri, LR products, pairing, box shift."""

import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schubmat import (
    Ambient,
    ChowClass,
    chow,
    classify,
    partitions,
    direct_sum,
    lr_coefficient,
    orbit,
    pieri,
    product,
    sc,
    sc_direct_sum,
    sc_minimal,
    sc_sparse_paving,
    sc_uniform,
    sigma,
    sigma1_power_degree,
    syt_count,
)
from schubmat.errors import AmbientMismatch, DoesNotFit, InvalidDimensions, NotAnInteger
from schubmat.partitions import (
    _syt_count,
    complement_in_rectangle,
    conjugate,
    contains,
    normalize,
    partitions_in_rectangle,
    size,
)
import lr_oracle
from conftest import family_corpus, matroid_from_nonbases
from schubert_helpers import box_shift, degree_pairing


def jacobi_trudi_lr(mu, nu, lam):
    """Independent LR oracle: s_nu = det(h_{nu_i - i + j}), expanded via the
    Pieri reference in tests/lr_oracle.py.

    Works in a rectangle large enough that nothing truncates.
    """
    rows = max(len(lam), 1)
    cols = max(size(mu) + size(nu), 1)
    ambient = Ambient(rows, rows + cols)
    k = len(nu)
    total = 0
    for perm in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        degrees = [nu[i] - (i + 1) + (perm[i] + 1) for i in range(k)]
        if any(d < 0 for d in degrees):
            continue
        term = sigma(ambient, mu).terms
        for d in degrees:
            term = lr_oracle.pieri_terms(term, d, ambient.rect)
        total += sign * term.get(normalize(lam), 0)
    return total


G24 = Ambient(2, 4)
G36 = Ambient(3, 6)


def test_pieri_examples():
    assert pieri(sigma(G24, (1,)), 1).terms == {(2,): 1, (1, 1): 1}
    assert pieri(sigma(G24, (2,)), 1).terms == {(2, 1): 1}
    # adding b boxes to the empty shape with at most one per column gives the
    # single row (b); (1,1) would stack two boxes in one column
    assert pieri(sigma(G24, ()), 2).terms == {(2,): 1}


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: sigma1_power_degree(sc_uniform(2, 5), 4.0), NotAnInteger),
        (lambda: sigma1_power_degree(sc_uniform(2, 5), True), NotAnInteger),
        (lambda: sigma1_power_degree(sc_uniform(2, 5), -1), InvalidDimensions),
        (lambda: pieri(sigma(G24, (1,)), True), NotAnInteger),
        (lambda: pieri(sigma(G24, (1,)), 1.0), NotAnInteger),
        (lambda: pieri(sigma(G24, (1,)), -1), InvalidDimensions),
    ],
    ids=["degree-float", "degree-bool", "degree-negative", "pieri-bool", "pieri-float",
         "pieri-negative"],
)
def test_degree_arguments_are_checked(call, error):
    with pytest.raises(error):
        call()


def test_lr_coefficient_examples():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((2, 1), (), (2, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


@pytest.mark.parametrize("mu", [(True,), (1.0,)], ids=["bool", "float"])
def test_lr_coefficient_rejects_non_int_parts(mu):
    """Checked before normalizing or reading the LR cache, where (True,)
    and (1.0,) would share the entry of (1,)."""
    chow._lr_terms.cache_clear()
    with pytest.raises(NotAnInteger):
        lr_coefficient(mu, (1,), (2,))
    assert chow._lr_terms.cache_info().currsize == 0
    with pytest.raises(NotAnInteger):
        lr_coefficient((1,), (1,), (2.0,))


def test_lr_symmetry_small():
    def partitions_of(m):
        def gen(total, max_part):
            if total == 0:
                yield ()
                return
            for first in range(min(total, max_part), 0, -1):
                for rest in gen(total - first, first):
                    yield (first,) + rest

        return list(gen(m, m)) if m else [()]

    for total in range(9):
        for lam in partitions_of(total):
            for a in range(total + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(total - a):
                        assert lr_coefficient(mu, nu, lam) == lr_coefficient(nu, mu, lam)


def test_lr_against_jacobi_trudi():
    cases = [
        ((2, 1), (2, 1), (3, 2, 1)),
        ((2, 1), (2, 1), (4, 2)),
        ((3, 1), (2, 2), (4, 3, 1)),
        ((2, 2), (2, 1), (3, 3, 1)),
        ((1,), (3, 2), (4, 2)),
        ((), (3, 1), (3, 1)),
        ((2,), (2, 2, 1), (3, 3, 1)),
    ]
    for mu, nu, lam in cases:
        assert lr_coefficient(mu, nu, lam) == jacobi_trudi_lr(mu, nu, lam), (mu, nu, lam)


def test_lr_against_jacobi_trudi_random_sample():
    rng = random.Random(11)
    nonzero = 0
    for _ in range(60):
        mu = rng.choice(partitions_in_rectangle((3, 4), rng.randint(0, 5)))
        nu = rng.choice(partitions_in_rectangle((3, 3), rng.randint(1, 4)))
        rows = len(mu) + len(nu)
        candidates = [lam for lam in partitions_in_rectangle((rows, size(mu) + size(nu)),
                                                             size(mu) + size(nu))
                      if contains(lam, mu) and contains(lam, nu)]
        lam = rng.choice(candidates)
        value = lr_coefficient(mu, nu, lam)
        assert value == jacobi_trudi_lr(mu, nu, lam), (mu, nu, lam)
        nonzero += value > 0
    assert nonzero >= 30


def record_strip_searches(patch):
    """Wrap chow._strip_search, which is not cached itself, and return the
    list each search appends its (outer, content, rectangle) to.  patch is
    a pytest MonkeyPatch; every search asserts that the content is the
    smaller partition and has no more rows than columns."""
    searched = []
    search = chow._strip_search

    def recording(mu, nu, rect):
        assert size(nu) <= size(mu) and (not nu or len(nu) <= nu[0]), (mu, nu)
        searched.append((mu, nu, rect))
        return search(mu, nu, rect)

    patch.setattr(chow, "_strip_search", recording)
    return searched


@pytest.mark.parametrize("rect", [(5, 2), (7, 2), (8, 2), (6, 3), (4, 4), (5, 4)],
                         ids=lambda r: f"{r[0]}x{r[1]}")
def test_lr_terms_match_oracle_on_every_pair(monkeypatch, rect):
    """Every pair of the rectangle, each key's own path run past the cache
    (a key that is not its own orientation still reads its orientation
    through the cache, cleared first); the smaller partition is the content,
    and a content with more rows than columns is searched in the transposed
    rectangle, so no search places a content with more rows than columns."""
    chow._lr_terms.cache_clear()
    searched = record_strip_searches(monkeypatch)
    shapes = partitions_in_rectangle(rect)
    for mu in shapes:
        for nu in shapes:
            terms = chow._lr_terms.__wrapped__(mu, nu, rect)
            assert len(dict(terms)) == len(terms)
            assert dict(terms) == lr_oracle.product_terms({mu: 1}, {nu: 1}, *rect), (mu, nu)
    boxes = {box for _, _, box in searched}
    assert rect in boxes and rect[::-1] in boxes


@st.composite
def pairs_in_rectangles(draw):
    rect = (draw(st.integers(min_value=1, max_value=5)), draw(st.integers(min_value=1, max_value=5)))
    shapes = st.sampled_from(partitions_in_rectangle(rect))
    return draw(shapes), draw(shapes), rect


@settings(max_examples=120, deadline=None)
@given(pairs_in_rectangles())
def test_conjugate_pair_reads_the_search_of_the_pair(pair):
    """c^lam_{mu,nu} = c^lam'_{mu',nu'}: the terms of the conjugate pair in
    the transposed rectangle are the conjugated terms of the pair, and the
    two share one strip search."""
    mu, nu, rect = pair
    chow._lr_terms.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        searched = record_strip_searches(patch)
        terms = dict(chow._lr_terms(mu, nu, rect))
        transposed = chow._lr_terms(conjugate(mu), conjugate(nu), rect[::-1])
    assert terms == lr_oracle.product_terms({mu: 1}, {nu: 1}, *rect), (mu, nu, rect)
    assert dict(transposed) == {conjugate(lam): c for lam, c in terms.items()}
    assert len(dict(transposed)) == len(transposed)
    assert len(searched) == 1


def reference_orientation(mu, nu, rect):
    """The documented rule, on all four orientations: the content is no
    larger than the outer partition and has no more rows than columns, then
    the fewest labels, then the least (outer, content, rectangle,
    transposed) tuple."""
    flipped = rect[::-1]
    candidates = [(mu, nu, rect, False), (nu, mu, rect, False),
                  (conjugate(mu), conjugate(nu), flipped, True),
                  (conjugate(nu), conjugate(mu), flipped, True)]
    valid = [o for o in candidates
             if size(o[1]) <= size(o[0]) and len(o[1]) <= (o[1][0] if o[1] else 0)]
    return min(valid, key=lambda o: (len(o[1]), o))


def test_search_orientation_follows_the_four_candidate_rule():
    """Every pair in every rectangle up to 4 x 4, empty partitions and
    rectangles included: the orientation is the reference's, and the four
    orientations of a pair search one key.  Both sides of the shortcut are
    reached: pairs with a strictly smaller content with fewer rows than
    columns, and ties (equal sizes, an empty or a square content such as
    (2, 2)) that the full rule decides."""
    shortcut = ties = 0
    for rows in range(5):
        for cols in range(5):
            rect = (rows, cols)
            shapes = partitions_in_rectangle(rect)
            for mu in shapes:
                for nu in shapes:
                    got = chow._search_orientation(mu, nu, rect)
                    assert got == reference_orientation(mu, nu, rect), (mu, nu, rect)
                    mu_t, nu_t = conjugate(mu), conjugate(nu)
                    keys = {chow._search_orientation(*o)[:3] for o in
                            [(mu, nu, rect), (nu, mu, rect),
                             (mu_t, nu_t, rect[::-1]), (nu_t, mu_t, rect[::-1])]}
                    assert keys == {got[:3]}, (mu, nu, rect)
                    content = got[1]
                    if size(content) < size(got[0]) and content and len(content) < content[0]:
                        shortcut += 1
                    elif size(mu) == size(nu) or len(content) == (content[0] if content else 0):
                        ties += 1
    assert shortcut > 0 and ties > 0
    # a square content: the conjugate pair (2, 2, 1), (2, 2) is the least tuple
    assert chow._search_orientation((3, 2), (2, 2), (4, 4)) == ((2, 2, 1), (2, 2), (4, 4), True)
    # equal sizes: (3,) has one label, (2, 1) two
    assert chow._search_orientation((2, 1), (3,), (3, 3)) == ((2, 1), (3,), (3, 3), False)
    assert chow._search_orientation((3,), (2, 1), (3, 3)) == ((2, 1), (3,), (3, 3), False)


def test_search_orientation_reads_conjugates_only_for_a_tie():
    """A strictly smaller content with fewer rows than columns is the only
    orientation allowed, and is returned with no conjugate read; a square
    content or equal sizes read the conjugates to apply the full rule."""
    partitions._conjugates.clear()
    assert chow._search_orientation((3, 1), (2,), (2, 3)) == ((3, 1), (2,), (2, 3), False)
    assert chow._search_orientation((2,), (3, 2), (2, 3)) == ((3, 2), (2,), (2, 3), False)
    assert not partitions._conjugates
    chow._search_orientation((3, 2), (2, 2), (4, 4))
    assert partitions._conjugates[(2, 2)] == (2, 2)
    partitions._conjugates.clear()
    chow._search_orientation((2, 1), (3,), (3, 3))
    assert partitions._conjugates[(3,)] == (1, 1, 1)


def test_product_matches_oracle_on_every_pair_in_small_rectangles():
    for rows in range(1, 5):
        for cols in range(1, 5):
            ambient = Ambient(rows, rows + cols)
            shapes = partitions_in_rectangle(ambient.rect)
            for mu in shapes:
                for nu in shapes:
                    expected = lr_oracle.product_terms({mu: 1}, {nu: 1}, rows, cols)
                    got = product(sigma(ambient, mu), sigma(ambient, nu)).terms
                    assert got == expected, (rows, cols, mu, nu)


@st.composite
def class_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    r = draw(st.integers(min_value=0, max_value=n))
    ambient = Ambient(r, n)
    shapes = st.sampled_from(partitions_in_rectangle(ambient.rect))
    coeffs = st.integers(min_value=-5, max_value=5)

    def one_class():
        return ChowClass(ambient, draw(st.dictionaries(shapes, coeffs, max_size=3)))

    return one_class(), one_class()


@settings(max_examples=150, deadline=None)
@given(class_pairs())
def test_product_matches_oracle_on_random_classes(pair):
    a, b = pair
    rows, cols = a.ambient.rect
    assert product(a, b).terms == lr_oracle.product_terms(a.terms, b.terms, rows, cols)


def test_product_golden_example_g49():
    g49 = Ambient(4, 9)
    a = sigma(g49, (4, 3), 2)
    b = sigma(g49, (4, 2), 3) + sigma(g49, (3, 3))
    expected = {
        (4, 3, 3, 3): 2, (4, 4, 3, 2): 8, (4, 4, 4, 1): 6, (5, 3, 3, 2): 8,
        (5, 4, 2, 2): 8, (5, 4, 3, 1): 14, (5, 4, 4): 6, (5, 5, 2, 1): 8,
        (5, 5, 3): 6,
    }
    assert product(a, b).terms == expected


def test_product_single_terms_and_pieri_agree_exhaustively():
    """The LR product with a one-row cycle against the Pieri reference."""
    for lam in partitions_in_rectangle(G36.rect):
        for b in range(1, 4):
            assert product(sigma(G36, lam), sigma(G36, (b,))).terms == lr_oracle.pieri_terms(
                {lam: 1}, b, G36.rect
            )


def test_pieri_matches_the_reference_exhaustively():
    """pieri against the Pieri reference for every cycle of every G(r,n)
    with n <= 7, r = 0 and r = n included, and every row length up to one
    past the rectangle; and on classes of several terms.  b = 0 returns
    the class itself."""
    for n in range(8):
        for r in range(n + 1):
            ambient = Ambient(r, n)
            rect = ambient.rect
            for lam in partitions_in_rectangle(rect):
                cls = sigma(ambient, lam, 2)
                assert pieri(cls, 0) is cls
                for b in range(1, rect[1] + 2):
                    assert pieri(cls, b).terms == lr_oracle.pieri_terms({lam: 2}, b, rect), (
                        ambient, lam, b)
    for cls in [sc_uniform(3, 7), sc_uniform(2, 6) + sc_minimal(2, 6).scaled(-3)]:
        for b in range(1, 5):
            assert pieri(cls, b).terms == lr_oracle.pieri_terms(cls.terms, b, cls.ambient.rect)


def test_complementary_dimension_formula_exhaustive():
    for r in range(1, 5):
        for c in range(1, 5):
            ambient = Ambient(r, r + c)
            full = (c,) * r
            for lam in partitions_in_rectangle(ambient.rect):
                for mu in partitions_in_rectangle(ambient.rect, r * c - size(lam)):
                    deg = product(sigma(ambient, lam), sigma(ambient, mu)).coefficient(full)
                    expected = 1 if mu == complement_in_rectangle(lam, ambient.rect) else 0
                    assert deg == expected


def test_product_commutative_associative_random():
    rng = random.Random(7)
    pool = partitions_in_rectangle(G36.rect)

    def random_class():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(pool)] = rng.randint(-3, 3)
        return ChowClass(G36, terms)

    for _ in range(40):
        a, b, c = random_class(), random_class(), random_class()
        assert product(a, b).terms == product(b, a).terms
        assert product(product(a, b), c).terms == product(a, product(b, c)).terms


def test_product_rejects_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        product(sigma(G24, (1,)), sigma(G36, (1,)))


def test_sigma1_powers_count_standard_tableaux():
    for lam in partitions_in_rectangle(G36.rect):
        power = {(): 1}
        for _ in range(size(lam)):
            power = lr_oracle.pieri_terms(power, 1, G36.rect)
        assert power.get(lam, 0) == syt_count(lam), lam


def test_degree_pairing():
    zero = ChowClass(G24, {})
    assert degree_pairing(zero, (1,)) == 0
    full = sigma(G24, (2, 2))
    assert degree_pairing(full, (2, 2)) == 1
    with pytest.raises(DoesNotFit):
        degree_pairing(full, (3,))


def test_sigma1_power_degree_examples():
    u24 = sigma(G24, (1,), 2)
    assert sigma1_power_degree(u24, 3) == 4
    g12 = Ambient(1, 2)
    assert sigma1_power_degree(sigma(g12, ()), 1) == 1
    g37 = Ambient(3, 7)
    assert sigma1_power_degree(sigma(g37, (3, 3)), 6) == 10


def sigma1_power_degree_by_pieri(c: ChowClass, s: int) -> int:
    """The former definition: multiply by sigma_(1) s times with the Pieri
    reference, read off the rectangle."""
    rows, cols = c.ambient.rect
    terms = c.terms
    for _ in range(s):
        terms = lr_oracle.pieri_terms(terms, 1, (rows, cols))
    return terms.get((cols,) * rows, 0)


FOLDS = [
    [sc_uniform(2, 4), sc_uniform(2, 5)],
    [sc_uniform(2, 5), sc_minimal(2, 4), sc_uniform(1, 3)],
    [sc_minimal(3, 6), sc_uniform(2, 5) + sc_minimal(2, 5).scaled(-2)],
]


def test_sigma1_power_degree_matches_iterated_pieri():
    for ambient in (Ambient(3, 7), Ambient(4, 8)):
        rows, cols = ambient.rect
        for lam in partitions_in_rectangle(ambient.rect):
            cls = sigma(ambient, lam, 3)
            for s in range(max(0, rows * cols - size(lam) - 1), rows * cols - size(lam) + 2):
                assert sigma1_power_degree(cls, s) == sigma1_power_degree_by_pieri(cls, s)
    for parts in FOLDS:
        cls = sc_direct_sum(parts)
        rows, cols = cls.ambient.rect
        degree = rows * cols - size(next(iter(cls.terms)))
        assert sigma1_power_degree(cls, degree) == sigma1_power_degree_by_pieri(cls, degree) > 0


def test_box_shift_golden_example():
    g49 = Ambient(4, 9)
    shifted = box_shift(sigma(G24, (1,), 2), g49, 3)
    assert shifted.terms == {(4, 3): 2}
    g25 = Ambient(2, 5)
    cls = sigma(g25, (2,), 3) + sigma(g25, (1, 1))
    assert box_shift(cls, g49, 2).terms == {(4, 2): 3, (3, 3): 1}


def test_box_shift_zero_padding_single_row():
    g11 = Ambient(1, 1)
    out = box_shift(sigma(g11, ()), Ambient(2, 5), 3)
    assert out.terms == {(3,): 1}


def test_box_shift_errors():
    with pytest.raises(DoesNotFit):
        box_shift(sigma(G24, (2, 2)), Ambient(2, 5), 2)
    with pytest.raises(AmbientMismatch):
        box_shift(sigma(G36, (1,)), G24, 0)


def direct_sum_by_complements(a: ChowClass, b: ChowClass) -> dict:
    """The paper's direct-sum formula: the fold of a and b has coefficient
    sum a_mu b_nu c^kappa_{mu^c, nu^c} at sigma_{kappa^c}, each complement
    taken in its own rectangle, with c from the tableau oracle."""
    rect_a, rect_b = a.ambient.rect, b.ambient.rect
    rect = (rect_a[0] + rect_b[0], rect_a[1] + rect_b[1])

    def complements(terms, rect):
        return {complement_in_rectangle(lam, rect): c for lam, c in terms.items()}

    kappas = lr_oracle.product_terms(complements(a.terms, rect_a), complements(b.terms, rect_b),
                                     *rect)
    return complements(kappas, rect)


# r = 0 and r = n included; every ordered pair is folded
DIRECT_SUM_AMBIENTS = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (1, 4), (3, 4), (2, 5),
                       (3, 5), (3, 6), (2, 6), (4, 6)]


@pytest.mark.parametrize("left", DIRECT_SUM_AMBIENTS, ids=lambda a: f"G{a[0]}{a[1]}")
def test_fold_matches_direct_sum_formula_on_basis_pairs(left):
    a_ambient = Ambient(*left)
    for right in DIRECT_SUM_AMBIENTS:
        b_ambient = Ambient(*right)
        for mu in partitions_in_rectangle(a_ambient.rect):
            for nu in partitions_in_rectangle(b_ambient.rect):
                a, b = sigma(a_ambient, mu), sigma(b_ambient, nu)
                assert sc_direct_sum([a, b]).terms == direct_sum_by_complements(a, b), (
                    left, right, mu, nu)


def test_fold_matches_direct_sum_formula_on_matroid_classes():
    sparse_paving = sc_sparse_paving(matroid_from_nonbases(6, 3, [{1, 2, 3}, {1, 4, 5}]))
    classes = [
        sc_uniform(2, 4),
        sc_uniform(3, 6),
        sc_minimal(2, 5),
        sc_minimal(3, 6),
        sparse_paving,
        sc_uniform(2, 5) + sc_minimal(2, 5).scaled(-2),
        sc_uniform(3, 6) + sparse_paving.scaled(3),
    ]
    for a in classes:
        for b in classes:
            expected = direct_sum_by_complements(a, b)
            assert expected
            assert sc_direct_sum([a, b]).terms == expected, (a.text(), b.text())


# Folded ambients of the benchmark's products workload: the box-shifted
# cycles fill tall rectangles, where rows that get no cell of a label and
# the capacity prune of the LR search both occur
TALL_FOLDS = [((2, 5), (3, 7)), ((5, 7), (6, 8)), ((3, 5), (5, 8))]


@pytest.mark.parametrize("left, right", TALL_FOLDS, ids=lambda a: f"G{a[0]}{a[1]}")
def test_box_shifted_products_match_oracle_in_tall_rectangles(left, right):
    a_ambient, b_ambient = Ambient(*left), Ambient(*right)
    target = Ambient(left[0] + right[0], left[1] + right[1])
    rows, cols = target.rect
    for mu in partitions_in_rectangle(a_ambient.rect, (left[0] - 1) * (left[1] - left[0] - 1)):
        a = box_shift(sigma(a_ambient, mu), target, b_ambient.rect[1])
        for nu in partitions_in_rectangle(b_ambient.rect, (right[0] - 1) * (right[1] - right[0] - 1)):
            b = box_shift(sigma(b_ambient, nu), target, a_ambient.rect[1])
            expected = lr_oracle.product_terms(a.terms, b.terms, rows, cols)
            assert expected
            assert product(a, b).terms == expected, (mu, nu)


def degree_by_hooks(c: ChowClass, s: int) -> int:
    """deg(c * sigma_1^s) by the hook-length formula, with nothing cached."""
    rows, cols = c.ambient.rect
    return sum(coeff * _syt_count.__wrapped__(complement_in_rectangle(lam, c.ambient.rect))
               for lam, coeff in c.terms.items() if size(lam) + s == rows * cols)


def full_support_class(r, n, rng):
    """Coefficients 1..3 on every partition of weight (r-1)(n-r-1), as the
    benchmark's folds draw them."""
    ambient = Ambient(r, n)
    return ChowClass(ambient, {lam: rng.randint(1, 3) for lam in
                               partitions_in_rectangle(ambient.rect, (r - 1) * (n - r - 1))})


def folded_by_box_shift(a: ChowClass, b: ChowClass) -> ChowClass:
    """The fold on the box-shift side: both classes embedded in the joint
    ambient and multiplied there."""
    target = Ambient(a.ambient.r + b.ambient.r, a.ambient.n + b.ambient.n)
    return product(box_shift(a, target, b.ambient.rect[1]),
                   box_shift(b, target, a.ambient.rect[1]))


@pytest.mark.parametrize("left", DIRECT_SUM_AMBIENTS, ids=lambda a: f"G{a[0]}{a[1]}")
def test_fold_matches_box_shifted_product_on_basis_pairs(left):
    a_ambient = Ambient(*left)
    for right in DIRECT_SUM_AMBIENTS:
        b_ambient = Ambient(*right)
        for mu in partitions_in_rectangle(a_ambient.rect):
            for nu in partitions_in_rectangle(b_ambient.rect):
                a, b = sigma(a_ambient, mu), sigma(b_ambient, nu)
                assert sc_direct_sum([a, b]) == folded_by_box_shift(a, b), (left, right, mu, nu)


def test_fold_matches_box_shifted_product_on_tall_folds():
    rng = random.Random(5)
    for left, right in TALL_FOLDS:
        a, b = full_support_class(*left, rng), full_support_class(*right, rng)
        assert sc_direct_sum([a, b]) == folded_by_box_shift(a, b), (left, right)
        assert sc_direct_sum([b, a]) == folded_by_box_shift(b, a), (right, left)


def test_a_fold_that_cancels_keeps_no_zero_term():
    """Each term of a meets sigma_(1) of G(1,3) in a (4, 3, 2) term, with
    coefficients +1 and -1, so the fold's sum at (4, 3, 2) is 0 and the
    class built from the pairs holds no such term."""
    b = sigma(Ambient(1, 3), (1,))
    assert chow.fold(sigma(Ambient(2, 4), (2,)), b).terms[(4, 3, 2)] == 1
    assert chow.fold(sigma(Ambient(2, 4), (1, 1)), b).terms[(4, 3, 2)] == 1
    folded = chow.fold(ChowClass(Ambient(2, 4), {(2,): 1, (1, 1): -1}), b)
    assert folded.terms == {(4, 4, 1): 1, (3, 3, 3): -1}


def test_folds_of_different_ambients_share_lr_searches(monkeypatch):
    """A fold keys its LR terms by the complement pair alone.  The partitions
    of 6 in 3 x 4 and in 4 x 3 (the complements of G(3,7) and G(4,7)) have
    (3,3), (3,2,1) and (2,2,2) in common; each meets the 3 complements of
    G(2,8), so the second fold finds 9 of its 15 pairs already searched and
    runs 6 searches, and the swapped fold runs none.  The one LR cache then
    holds 33 keys: the 21 pairs the folds asked for and 12 orientations
    searched in their place."""
    rng = random.Random(8)
    u = full_support_class(2, 8, rng)
    first, second = full_support_class(3, 7, rng), full_support_class(4, 7, rng)
    chow._lr_terms.cache_clear()
    searched = record_strip_searches(monkeypatch)
    sc_direct_sum([first, u])
    assert len(searched) == 15
    sc_direct_sum([second, u])
    assert len(searched) == 21
    sc_direct_sum([u, second])
    assert len(searched) == 21
    assert chow._lr_terms.cache_info().currsize == 33


def test_folds_of_dual_ambients_share_strip_searches(monkeypatch):
    """G(3,5) and G(5,8) are the duals of G(2,5) and G(3,8), so the
    complements of their classes, and the pairs a fold searches, are the
    conjugates of the first fold's.  Conjugate pairs read one search: the
    first fold's 12 pairs run 11 searches, since one of its pairs is the
    conjugate of another, and the dual fold's 12 pairs run none.  The dual
    class is the conjugate of the first fold's (the class of M* is the
    class of M with every partition conjugated)."""
    rng = random.Random(8)
    first = [full_support_class(2, 5, rng), full_support_class(3, 8, rng)]
    dual = [ChowClass(Ambient(c.ambient.n - c.ambient.r, c.ambient.n),
                      {conjugate(lam): v for lam, v in c.terms.items()}) for c in first]
    chow._lr_terms.cache_clear()
    searched = record_strip_searches(monkeypatch)
    folded = sc_direct_sum(first)
    assert len(searched) == len(set(searched)) == 11
    folded_dual = sc_direct_sum(dual)
    assert len(searched) == 11
    assert folded_dual.terms == {conjugate(lam): v for lam, v in folded.terms.items()}


def test_fold_degree_computes_no_complement():
    """fold stores each output's complement both ways, so the degree of the
    fold's output finds every complement it keys its counts by already
    stored."""
    rng = random.Random(3)
    for left, right in TALL_FOLDS + [((3, 7), (2, 8))]:
        partitions._complements.clear()
        folded = sc_direct_sum([full_support_class(*left, rng), full_support_class(*right, rng)])
        stored = len(partitions._complements)
        rows, cols = folded.ambient.rect
        assert sigma1_power_degree(folded, rows * cols - size(next(iter(folded.terms)))) > 0
        assert len(partitions._complements) == stored, (left, right)


def test_folds_of_different_ambients_share_degree_counts():
    """sigma1_power_degree counts the standard fillings of each term's
    complement under a key that holds the shape alone.  The complements of
    the terms of G(3,7)+G(2,8) in 5 x 10 and of G(4,7)+G(2,8) in 6 x 9 are
    the outputs of the folds' LR searches, 9 of whose pairs the two folds
    share; 46 of the second fold's 56 shapes were counted for the first."""
    rng = random.Random(8)
    u = full_support_class(2, 8, rng)
    first, second = full_support_class(3, 7, rng), full_support_class(4, 7, rng)

    def degree(folded):
        rows, cols = folded.ambient.rect
        return sigma1_power_degree(folded, rows * cols - size(next(iter(folded.terms))))

    _syt_count.cache_clear()
    assert degree(sc_direct_sum([first, u])) > 0
    info = _syt_count.cache_info()
    assert (info.misses, info.hits) == (51, 0)
    assert degree(sc_direct_sum([second, u])) > 0
    info = _syt_count.cache_info()
    assert (info.misses, info.hits) == (61, 46)
    assert degree(sc_direct_sum([u, second])) > 0
    assert _syt_count.cache_info().misses == 61


def test_fold_degree_is_binomial_convolution():
    rng = random.Random(3)
    workload_sized = [[full_support_class(*ambient, rng) for ambient in pair]
                      for pair in TALL_FOLDS[:2]]
    for parts in FOLDS + workload_sized:
        acc = parts[0]
        for nxt in parts[1:]:
            folded = sc_direct_sum([acc, nxt])
            rows, cols = folded.ambient.rect
            top = rows * cols - size(next(iter(folded.terms)))
            for s in range(top - 1, top + 2):
                expected = sum(comb(s, s1) * degree_by_hooks(acc, s1) * degree_by_hooks(nxt, s - s1)
                               for s1 in range(s + 1))
                _syt_count.cache_clear()
                assert sigma1_power_degree(folded, s) == expected
                missed = _syt_count.cache_info()
                assert missed.hits == 0 and missed.misses == (len(folded.terms) if s == top else 0)
                assert sigma1_power_degree(folded, s) == expected
                assert _syt_count.cache_info().hits == missed.misses
            assert expected == 0 and degree_by_hooks(folded, top) > 0
            acc = folded


def test_chow_class_json_round_trip():
    cls = sigma(G36, (2, 1), 5) + sigma(G36, (3,), -2)
    data = cls.to_json_dict()
    assert ChowClass.from_json_dict(data) == cls
    assert data["terms"] == sorted(data["terms"], key=lambda t: t["partition"])


@pytest.mark.parametrize("coeff", [True, 2.5, "3"], ids=["bool", "float", "str"])
def test_chow_class_rejects_non_int_coefficient(coeff):
    with pytest.raises(NotAnInteger):
        ChowClass(G24, {(1,): coeff})


@pytest.mark.parametrize("factor", [True, 1.5], ids=["bool", "float"])
def test_scaled_rejects_non_int_factor(factor):
    """A bool or a float factor is not coerced to an int."""
    with pytest.raises(NotAnInteger, match=f"factor {factor!r} is not an int"):
        sigma(G24, (1,)).scaled(factor)


@pytest.mark.parametrize("lam", [(1.0,), (True,), (2, 1.0)], ids=["float", "bool", "float-part"])
def test_chow_class_rejects_non_int_partition_part(lam):
    """A float or bool part would share the kernel's cache entries of the
    int partition equal to it, so the class is never built."""
    with pytest.raises(NotAnInteger):
        ChowClass(G24, {lam: 1})
    with pytest.raises(NotAnInteger):
        sigma(G24, lam)


@pytest.mark.parametrize(
    "data",
    [
        {"r": 2, "n": 4.9, "terms": []},
        {"r": True, "n": 4, "terms": []},
        {"r": 2, "n": 4, "terms": [{"partition": [1.5], "coeff": "1"}]},
        {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": 2.7}]},
        {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": True}]},
        {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": "2.7"}]},
        {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": " 2"}]},
    ],
    ids=["float-n", "bool-r", "float-part", "float-coeff", "bool-coeff", "float-string-coeff",
         "padded-string-coeff"],
)
def test_chow_class_json_is_not_coerced(data):
    with pytest.raises(NotAnInteger):
        ChowClass.from_json_dict(data)


def test_chow_class_json_accepts_int_and_decimal_string_coefficients():
    data = {"r": 2, "n": 4, "terms": [{"partition": [1], "coeff": "-12"},
                                      {"partition": [2], "coeff": 5}]}
    assert ChowClass.from_json_dict(data).terms == {(1,): -12, (2,): 5}


def test_text_format():
    g25 = Ambient(2, 5)
    cls = sigma(g25, (2,), 3) + sigma(g25, (1, 1))
    assert cls.text() == "3 s[2] + 1 s[1,1]"
    assert ChowClass(g25, {}).text() == "0"


def assert_validated_form(c: ChowClass):
    """c is what the validating constructor makes of c's own terms: normal
    partitions inside the rectangle and non-zero int coefficients."""
    assert c == ChowClass(c.ambient, dict(c.terms)), c
    assert all(type(v) is int and v for v in c.terms.values()), c


def test_classes_built_by_the_library_are_in_validated_form(monkeypatch, fano, vamos):
    """product, fold, sc_sparse_paving and sc_uniform build their classes
    without re-validating the terms; every class they return on the fold and
    product corpus of this file, on the sparse paving and uniform members of
    the family corpus, and every class sc returns on it, is in validated
    form.  sc reads its classes from the formula table's cached builder, so
    the spied sc_sparse_paving and the uncached sc_uniform are called
    directly."""
    seen = {"product": 0, "fold": 0, "sc_sparse_paving": 0}
    spied = {"product": chow, "fold": chow, "sc_sparse_paving": orbit}

    def recording(name, fn):
        def wrapped(*args):
            result = fn(*args)
            assert_validated_form(result)
            seen[name] += 1
            return result
        return wrapped

    for name, module in spied.items():
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    for parts in FOLDS:
        orbit.sc_direct_sum(parts)
    for left in DIRECT_SUM_AMBIENTS:
        for right in DIRECT_SUM_AMBIENTS:
            a_ambient, b_ambient = Ambient(*left), Ambient(*right)
            orbit.sc_direct_sum([
                ChowClass(a_ambient, {mu: 1 + i % 3 - (i % 2) * 3 for i, mu in
                                      enumerate(partitions_in_rectangle(a_ambient.rect))}),
                ChowClass(b_ambient, {nu: 2 - i % 4 for i, nu in
                                      enumerate(partitions_in_rectangle(b_ambient.rect))}),
            ])
    rng = random.Random(12)
    for left, right in TALL_FOLDS:
        a_ambient, b_ambient = Ambient(*left), Ambient(*right)
        target = Ambient(left[0] + right[0], left[1] + right[1])
        shapes_a = partitions_in_rectangle(a_ambient.rect)
        shapes_b = partitions_in_rectangle(b_ambient.rect)
        for _ in range(5):
            a = ChowClass(a_ambient, {mu: rng.randint(-3, 3) for mu in rng.sample(shapes_a, 4)})
            b = ChowClass(b_ambient, {nu: rng.randint(-3, 3) for nu in rng.sample(shapes_b, 4)})
            chow.product(box_shift(a, target, b_ambient.rect[1]),
                         box_shift(b, target, a_ambient.rect[1]))
    # sigma_1 (sigma_2 - sigma_11) = sigma_21 - sigma_21 in G(2,4): the zero class
    g24 = Ambient(2, 4)
    assert chow.product(sigma(g24, (1,)), sigma(g24, (2,)) + sigma(g24, (1, 1), -1)).is_zero()
    matroids = [m for kind, _, _, m in family_corpus(7) if not kind.startswith("Pan")]
    matroids += [fano, vamos, matroid_from_nonbases(6, 3, [{1, 2, 3}, {1, 4, 5}])]
    for m in matroids:
        assert_validated_form(sc(m).chow_class)
        if classify(m).is_sparse_paving:
            orbit.sc_sparse_paving(m)
    for m1, m2 in zip(matroids[::3], matroids[1::3]):
        assert_validated_form(sc(direct_sum(m1, m2)).chow_class)
    for r, n in {(m.r, m.n) for m in matroids if 1 <= m.r < m.n}:
        assert_validated_form(orbit.sc_uniform.__wrapped__(r, n))
    assert min(seen.values()) > 0, seen
