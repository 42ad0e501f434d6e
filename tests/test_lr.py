from functools import cache

import pytest

from gltcomb.lr import B_matrix, lr_coeff, lr_product, schur_polynomial, schur_product_oracle
from gltcomb.matrices import BipartitionMatrix
from gltcomb.partitions import Bipartition, Partition, bipartitions_up_to, partitions_of, partitions_up_to

import reference

P = Partition.of


def B_entry(lam, mu):
    """The reference for B_matrix, one entry at a time: the sum over kappa of
    lr(black lam; black mu, kappa) * lr(white lam; white mu, kappa), with the
    tests' own per-cell LR count."""
    d_black = lam.black.size - mu.black.size
    d_white = lam.white.size - mu.white.size
    if d_black != d_white or d_black < 0:
        return 0
    return sum(
        reference.lr_coeff(lam.black, mu.black, kappa) * reference.lr_coeff(lam.white, mu.white, kappa)
        for kappa in partitions_of(d_black)
    )


def test_pieri_row():
    # multiplying by a single row adds a horizontal strip
    assert lr_coeff(P(3, 1), P(2, 1), P(1)) == 1
    assert lr_coeff(P(2, 2), P(2, 1), P(1)) == 1
    assert lr_coeff(P(2, 1, 1), P(2, 1), P(1)) == 1
    assert lr_coeff(P(4), P(2, 1), P(1)) == 0


def test_classic_multiplicity_two():
    # s_{21} * s_{21} contains s_{321} with multiplicity 2
    assert lr_coeff(P(3, 2, 1), P(2, 1), P(2, 1)) == 2
    assert lr_coeff(P(4, 2), P(2, 1), P(2, 1)) == 1
    assert lr_coeff(P(2, 2, 1, 1), P(2, 1), P(2, 1)) == 1


def test_grading_and_containment():
    assert lr_coeff(P(2), P(2, 1), P(1)) == 0
    assert lr_coeff(P(1, 1, 1, 1), P(2, 1), P(1)) == 0


# (lam, mu, kappa, c): tableaux with many labels and rows.
LARGE_TRIPLES = [
    (P(6, 5, 4, 3, 2, 1), P(4, 3, 2, 1), P(4, 3, 2, 1, 1), 24),
    (P(9, 7, 5, 3, 1), P(6, 4, 2), P(5, 3, 3, 1, 1), 6),
]


def test_lr_product_and_coeff_match_per_cell_reference():
    triples = 0
    for mu in partitions_up_to(8):
        for kappa in partitions_up_to(8 - mu.size):
            terms = lr_product(mu, kappa)
            assert list(terms) == sorted(terms, reverse=True)
            assert all(terms.values())
            for lam in partitions_of(mu.size + kappa.size):
                triples += 1
                want = reference.lr_coeff(lam, mu, kappa)
                assert terms.get(lam, 0) == lr_coeff(lam, mu, kappa) == want, (lam, mu, kappa)
    assert triples == 6830
    for lam, mu, kappa, c in LARGE_TRIPLES:
        assert lr_product(mu, kappa)[lam] == lr_coeff(lam, mu, kappa) == reference.lr_coeff(lam, mu, kappa) == c


def test_schur_polynomial_branching_matches_tableau_reference():
    for nu in partitions_up_to(7):
        for nvars in range(9):
            assert schur_polynomial(nu, nvars) == reference.schur_polynomial(nu, nvars), (nu, nvars)


def test_schur_polynomial_dimensions():
    # number of SSYT with entries in {1..n}: s_(1,1)(x1..x3) has C(3,2) terms
    poly = schur_polynomial(P(1, 1), 3)
    assert sum(poly.values()) == 3
    poly = schur_polynomial(P(2), 3)
    assert sum(poly.values()) == 6


def test_oracle_agreement_small():
    for mu in partitions_up_to(3):
        for kappa in partitions_up_to(3):
            total = mu.size + kappa.size
            expansion = schur_product_oracle(mu, kappa, max(total, 1))
            for lam in partitions_up_to(total):
                if lam.size == total:
                    assert lr_coeff(lam, mu, kappa) == expansion.get(lam, 0)


def test_oracle_needs_only_length_many_variables():
    for mu in partitions_up_to(5):
        for kappa in partitions_up_to(5 - mu.size):
            few = max(mu.length + kappa.length, 1)
            many = max(mu.size + kappa.size, 1)
            assert schur_product_oracle(mu, kappa, few) == schur_product_oracle(mu, kappa, many)


def test_oracle_rejects_too_few_variables():
    with pytest.raises(ValueError):
        schur_product_oracle(P(2, 1), P(1), 2)


def test_oracle_expansion_example():
    expansion = schur_product_oracle(P(1), P(1), 2)
    assert expansion == {P(2): 1, P(1, 1): 1}


def test_symmetry():
    for mu in partitions_up_to(3):
        for kappa in partitions_up_to(3):
            for lam in partitions_up_to(mu.size + kappa.size):
                assert lr_coeff(lam, mu, kappa) == lr_coeff(lam, kappa, mu)


def test_b_entry():
    one = Bipartition.of((1,), (1,))
    vac = Bipartition.of((), ())
    assert B_entry(one, vac) == 1
    assert B_entry(one, one) == 1
    assert B_entry(vac, one) == 0
    # unequal black/white deficits force zero
    assert B_entry(Bipartition.of((2,), (1,)), Bipartition.of((1,), (1,))) == 0
    lam = Bipartition.of((2, 1), (2, 1))
    assert B_entry(lam, one) == 2


def test_b_matrix_unitriangular():
    b = B_matrix(4)
    assert b.is_unitriangular()
    for lam, mu, v in b.items():
        assert v > 0
        assert lam.size - mu.size == (lam.black.size - mu.black.size) * 2


@pytest.mark.parametrize("n", range(7))
def test_b_matrix_matches_b_entry_over_all_pairs(n):
    # the all-pairs loop B_matrix replaced, kept as the reference
    index = bipartitions_up_to(n)
    reference = BipartitionMatrix(n)
    for lam in index:
        for mu in index:
            v = B_entry(lam, mu)
            if v:
                reference.set(lam, mu, v)
    generated = B_matrix(n)
    assert generated.rows == reference.rows
    assert generated.to_json() == reference.to_json()


def test_b_matrix_multiplies_coefficients_above_one():
    # LR coefficients above 1 first meet on both sides at n = 12
    n = 12
    mu = Bipartition.of((2, 1), (2, 1))
    lam = Bipartition.of((3, 2, 1), (3, 2, 1))
    b = B_matrix(n)
    assert b.get(lam, mu) == B_entry(lam, mu) == 2 * 2 + 1 + 1
    column = {row: v for row, col, v in b.items() if col == mu}
    reference = {row: B_entry(row, mu) for row in bipartitions_up_to(n)}
    assert column == {row: v for row, v in reference.items() if v}


@cache
def _kostka(shape, alpha):
    """The coefficient of x^alpha in s_shape, for a partition alpha; it does
    not depend on variables beyond the parts of alpha.  Read from the tests'
    own tableau enumeration, so this oracle shares no Schur polynomial with
    schur_product_oracle."""
    return reference.schur_polynomial(shape, len(alpha)).get(alpha, 0)


def _compositions_below(alpha, total):
    """The compositions beta <= alpha, entry by entry, with sum total."""
    if not alpha:
        if total == 0:
            yield ()
        return
    for first in range(min(alpha[0], total) + 1):
        for rest in _compositions_below(alpha[1:], total - first):
            yield (first,) + rest


def _content(beta):
    """A composition sorted into a partition: the coefficient of x^beta in a
    symmetric polynomial is that of x^_content(beta)."""
    return tuple(sorted((b for b in beta if b), reverse=True))


@cache
def _product_coefficient(mu, kappa, alpha):
    """The coefficient of x^alpha in s_mu * s_kappa for a partition alpha:
    the sum of K(mu, beta) K(kappa, alpha - beta) over beta <= alpha."""
    return sum(_kostka(mu, _content(beta)) * _kostka(kappa, _content(a - b for a, b in zip(alpha, beta)))
               for beta in _compositions_below(alpha, mu.size))


def _leading_monomial_oracle(mu, kappa, nvars):
    """The expansion schur_product_oracle replaced: in nvars variables,
    subtract coeff * s_lead for the leading monomial x^lead of s_mu * s_kappa
    until nothing is left.

    Every polynomial here is symmetric, so the leading monomial is always a
    partition and the loop needs coefficients at partition exponents with at
    most nvars parts only; the product's are memoised, which keeps three
    variable counts per pair cheap."""
    dominant = [p.rows for p in partitions_of(mu.size + kappa.size) if p.length <= nvars]
    product = {a: c for a in dominant if (c := _product_coefficient(mu, kappa, a))}
    result = {}
    while product:
        lead = max(product)
        coeff = product[lead]
        shape = Partition(lead)
        result[shape] = coeff
        for alpha in dominant:
            acc = product.get(alpha, 0) - coeff * _kostka(shape, alpha)
            if acc:
                product[alpha] = acc
            else:
                product.pop(alpha, None)
    return result


def test_brauer_oracle_matches_leading_monomial_expansion():
    for mu in partitions_up_to(8):
        for kappa in partitions_up_to(8 - mu.size):
            low = mu.length + kappa.length
            for nvars in range(low, low + 3):
                got = schur_product_oracle(mu, kappa, nvars)
                want = _leading_monomial_oracle(mu, kappa, nvars)
                # same terms, largest shape first
                assert list(got.items()) == list(want.items()), (mu, kappa, nvars)
