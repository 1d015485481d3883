"""Acceptance suite: one test per criterion, exact-integer equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import random
from itertools import combinations
from math import comb, factorial

import pytest

from schubmat import (
    Ambient,
    ChowClass,
    beta,
    classify,
    complement_in_rectangle,
    direct_sum,
    minimal,
    normalized_volume,
    panhandle,
    product,
    sc,
    sc_direct_sum,
    sc_minimal,
    sc_uniform,
    schur_at_ones,
    sigma,
    sigma1_power_degree,
    syt_count,
    uniform,
    verify_volume_relation,
)
from schubmat.errors import UnsupportedMatroid
from schubmat.partitions import hook_complement, partitions_in_rectangle, size
import lr_oracle
from conftest import beta_via_tutte, family_corpus, matroid_from_nonbases

GOLDEN_SUM_U24_U25 = {
    (4, 3, 3, 3): 2, (4, 4, 3, 2): 8, (4, 4, 4, 1): 6, (5, 3, 3, 2): 8,
    (5, 4, 2, 2): 8, (5, 4, 3, 1): 14, (5, 4, 4): 6, (5, 5, 2, 1): 8,
    (5, 5, 3): 6,
}

GOLDEN_FANO = {(4, 2): 6, (4, 1, 1): 3, (3, 3): 3, (3, 2, 1): 8, (2, 2, 2): 1}

GOLDEN_NON_PAPPUS = {
    (6, 4): 15, (6, 3, 1): 15, (6, 2, 2): 6, (5, 5): 13,
    (5, 4, 1): 24, (5, 3, 2): 15, (4, 4, 2): 6, (4, 3, 3): 3,
}

GOLDEN_VAMOS = {
    (4, 4, 1): 4, (4, 3, 2): 20, (4, 3, 1, 1): 12, (4, 2, 2, 1): 12,
    (3, 3, 3): 15, (3, 3, 2, 1): 20, (3, 2, 2, 2): 4,
}


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {name}"


def supported_corpus(max_n):
    """Corpus matroids whose orbit class the dispatcher can compute."""
    out = []
    for label, r, n, m in family_corpus(max_n):
        try:
            out.append((f"{label}_{r}_{n}", m, sc(m)))
        except UnsupportedMatroid:
            continue
    return out


def test_criterion_1_direct_sum_golden():
    ok = sc_uniform(2, 4).terms == {(1,): 2}
    ok = ok and sc_uniform(2, 5).terms == {(2,): 3, (1, 1): 1}
    combined = sc_direct_sum([sc_uniform(2, 4), sc_uniform(2, 5)])
    ok = ok and combined.terms == GOLDEN_SUM_U24_U25
    report(1, "golden classes, direct sum of U_{2,4} and U_{2,5}", ok)


def test_criterion_2_golden_classes(fano, non_pappus, vamos):
    ok = sc(fano).chow_class.terms == GOLDEN_FANO
    ok = ok and sc(non_pappus).chow_class.terms == GOLDEN_NON_PAPPUS
    ok = ok and sc(vamos).chow_class.terms == GOLDEN_VAMOS
    ok = ok and sc(minimal(2, 5)).chow_class.terms == {(2,): 1}
    ok = ok and sc(panhandle(2, 3, 5)).chow_class.terms == {(1, 1): 1, (2,): 2}
    report(2, "golden classes Fano / non-Pappus / Vamos / T_{2,5} / Pan_{2,3,5}", ok)


def test_criterion_3_hook_coefficient_is_beta(fano, non_pappus, vamos):
    corpus = supported_corpus(8)
    corpus += [(name, m, sc(m)) for name, m in
               [("fano", fano), ("non_pappus", non_pappus), ("vamos", vamos)]]
    ok = True
    for name, m, result in corpus:
        hc = hook_complement(m.r, m.n)
        b = beta(m)
        ok = ok and result.chow_class.coefficient(hc) == b == beta_via_tutte(m)
        if not ok:
            print(f"  mismatch at {name}")
            break
    report(3, "d_hc = beta = Tutte oracle across the golden corpus", ok)


def test_criterion_4_beta_closed_forms():
    ok = True
    for n in range(2, 10):
        for r in range(1, n):
            ok = ok and beta(uniform(r, n)) == comb(n - 2, r - 1)
            ok = ok and beta(minimal(r, n)) == 1
    ok = ok and beta(direct_sum(uniform(1, 2), uniform(1, 2))) == 0
    ok = ok and beta(direct_sum(uniform(2, 4), uniform(2, 5))) == 0
    ok = ok and beta(matroid_from_nonbases(4, 2, [{1, 2}, {3, 4}])) == 0
    report(4, "beta closed forms for n <= 9 and beta = 0 when disconnected", ok)


def test_criterion_5_degree_equals_volume(fano):
    ok = True
    for name, m, result in supported_corpus(7):
        s = m.n - result.matroid_summary.kappa
        lhs = sigma1_power_degree(result.chow_class, s)
        rhs = normalized_volume(m)
        ok = ok and lhs == rhs
        if not ok:
            print(f"  degree/volume mismatch at {name}: {lhs} != {rhs}")
            break
    ok = ok and verify_volume_relation(fano).ok
    for n in range(3, 8):
        for r in range(2, n):
            ok = ok and normalized_volume(minimal(r, n)) == comb(n - 2, r - 1)
    report(5, "deg(Sc(M) sigma_1^s) = Vol(P(M)) on the n <= 7 corpus", ok)


def test_criterion_6_subdivision_additivity(fano):
    sparse = [fano]
    for _, r, n, m in family_corpus(7):
        c = classify(m)
        if c.kappa == 1 and c.is_sparse_paving and 1 <= m.r < m.n:
            sparse.append(m)
    ok = True
    for m in sparse:
        r, n = m.r, m.n
        k = comb(n, r) - len(m.bases)
        ok = ok and normalized_volume(uniform(r, n)) == normalized_volume(
            m
        ) + k * normalized_volume(minimal(r, n))
        u, mm, t = sc_uniform(r, n), sc(m).chow_class, sc_minimal(r, n)
        for lam in partitions_in_rectangle((r, n - r), (r - 1) * (n - r - 1)):
            ok = ok and u.coefficient(lam) == mm.coefficient(lam) + k * t.coefficient(lam)
    report(6, "Vol and d_lambda additive over the sparse paving subdivision", ok)


def test_criterion_7_kernel_properties():
    g36 = Ambient(3, 6)
    ok = True
    # the LR product on single rows agrees with the Pieri reference, exhaustively
    for lam in partitions_in_rectangle(g36.rect):
        for b in range(1, 4):
            ok = ok and product(sigma(g36, lam), sigma(g36, (b,))).terms == (
                lr_oracle.pieri_terms({lam: 1}, b, g36.rect))
    # commutativity and associativity on 200 random triples
    rng = random.Random(99)
    pool = partitions_in_rectangle(g36.rect)

    def rand_class():
        return ChowClass(
            g36, {rng.choice(pool): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        )

    for _ in range(200):
        a, b, c = rand_class(), rand_class(), rand_class()
        ok = ok and product(a, b).terms == product(b, a).terms
        ok = ok and product(product(a, b), c).terms == product(a, product(b, c)).terms
    # sigma_1 powers count standard tableaux, exhaustively in G(3,6)
    for lam in partitions_in_rectangle(g36.rect):
        power = {(): 1}
        for _ in range(size(lam)):
            power = lr_oracle.pieri_terms(power, 1, g36.rect)
        ok = ok and power.get(lam, 0) == syt_count(lam)
    # complement involution, exhaustively for rectangles up to 6x6
    for rows in range(7):
        for cols in range(7):
            for lam in partitions_in_rectangle((rows, cols)):
                comp = complement_in_rectangle(lam, (rows, cols))
                ok = ok and complement_in_rectangle(comp, (rows, cols)) == lam
                ok = ok and size(lam) + size(comp) == rows * cols
    # counting formulas against brute force
    def partitions_of(m):
        def gen(total, max_part):
            if total == 0:
                yield ()
                return
            for first in range(min(total, max_part), 0, -1):
                for rest in gen(total - first, first):
                    yield (first,) + rest
        return list(gen(m, m))

    def brute_syt(lam):
        if not lam:
            return 1
        total = 0
        for i in range(len(lam)):
            if i == len(lam) - 1 or lam[i] > lam[i + 1]:
                total += brute_syt(tuple(p for p in lam[:i] + (lam[i] - 1,) + lam[i + 1:] if p))
        return total

    def brute_ssyt(lam, k):
        cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
        entry = {}

        def fill(idx):
            if idx == len(cells):
                return 1
            i, j = cells[idx]
            lo = max(
                1,
                entry[(i, j - 1)] if j > 0 else 1,
                entry[(i - 1, j)] + 1 if i > 0 else 1,
            )
            total = 0
            for v in range(lo, k + 1):
                entry[(i, j)] = v
                total += fill(idx + 1)
            entry.pop((i, j), None)
            return total

        return fill(0)

    for m in range(9):
        for lam in partitions_of(m):
            ok = ok and syt_count(lam) == brute_syt(lam)
    for m in range(1, 9):
        ok = ok and sum(syt_count(lam) ** 2 for lam in partitions_of(m)) == factorial(m)
    for m in range(7):
        for lam in partitions_of(m):
            for k in range(5):
                ok = ok and schur_at_ones(lam, k) == brute_ssyt(lam, k)
    report(7, "Schubert kernel properties (Pieri/LR/degree/counting)", ok)


def test_criterion_8_nonnegativity_sweep():
    rng = random.Random(2024)
    ok = True
    samples = 0
    while samples < 500:
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        all_sets = list(combinations(range(1, n + 1), r))
        rng.shuffle(all_sets)
        nonbases = []
        for cand in all_sets[: rng.randint(0, 8)]:
            if all(len(set(cand) ^ set(nb)) >= 4 for nb in nonbases):
                nonbases.append(cand)
        if len(nonbases) == len(all_sets):
            continue
        m = matroid_from_nonbases(n, r, nonbases)
        samples += 1
        result = sc(m)
        ok = ok and all(c >= 0 for c in result.chow_class.terms.values())
        summary = result.matroid_summary
        if summary.kappa == 1:
            u = sc_uniform(r, n)
            hc = hook_complement(r, n)
            for lam in partitions_in_rectangle((r, n - r), (r - 1) * (n - r - 1)):
                if lam == hc:
                    continue
                ok = ok and result.chow_class.coefficient(lam) == u.coefficient(lam)
        if not ok:
            print(f"  failure at sample {samples}: n={n}, r={r}, nonbases={nonbases}")
            break
    report(8, "non-negativity sweep over 500 random sparse paving matroids", ok)


def test_criterion_9_error_contract(capsys):
    from schubmat.cli import main

    ok = True
    for m in (panhandle(2, 3, 6), panhandle(3, 4, 7)):
        c = classify(m)
        assert c.kappa == 1 and not c.is_sparse_paving and not c.is_minimal
        with pytest.raises(UnsupportedMatroid):
            sc(m)
    code = main(["class", "--panhandle", "2,3,6"])
    captured = capsys.readouterr()
    ok = ok and code == 1 and captured.err.splitlines()[0] == "UnsupportedMatroid"
    with capsys.disabled():
        report(9, "unsupported connected matroids fail loudly, exit status 1", ok)
