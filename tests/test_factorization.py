import math
import random

import pytest

from oracles import (
    CATALAN,
    NARAYANA_ROWS,
    brute_pair_sum,
    compose,
    inverse,
    itertools_pair_counts,
)
from rectchar.factorization import (
    _pair_cycle_counts,
    catalan_pair_count,
    factorization_poly,
    factorization_poly_for,
    narayana_refinement,
    sss_identity_check,
    theorem1_check,
)
from rectchar.characters import normalized_character
from rectchar.partitions import partitions_of, rectangle
from rectchar.permutations import canonical_permutation
from rectchar.polynomials import MultivarPoly


def test_known_polynomials():
    pq = MultivarPoly(2, {(1, 1): 1})
    assert factorization_poly((1,)) == pq
    assert factorization_poly((2,)) == MultivarPoly(2, {(2, 1): -1, (1, 2): 1})
    assert factorization_poly((3,)) == MultivarPoly(
        2, {(3, 1): 1, (2, 2): -3, (1, 3): 1, (1, 1): 1}
    )


def test_pair_sum_against_brute_enumeration():
    # brute oracle scans all of S_k x S_k, so keep k small
    for k in range(1, 6):
        for mu in partitions_of(k):
            counts = brute_pair_sum(mu)
            expected_terms = {}
            for (a, b), count in counts.items():
                expected_terms[(a, b)] = (
                    expected_terms.get((a, b), 0) + (-1) ** (k + b) * count
                )
            assert factorization_poly(mu) == MultivarPoly(2, expected_terms), mu


def test_pair_counts_against_itertools_oracle():
    for k in range(8):
        for mu in partitions_of(k):
            w = canonical_permutation(mu)
            assert _pair_cycle_counts(w) == itertools_pair_counts(w), mu
    rng = random.Random(8)
    for mu in rng.sample(list(partitions_of(8)), 4):
        g = tuple(rng.sample(range(1, 9), 8))
        w = compose(compose(g, canonical_permutation(mu)), inverse(g))
        assert _pair_cycle_counts(w) == itertools_pair_counts(w), (mu, w)


def test_pair_count_invariants():
    assert _pair_cycle_counts(()) == [[1]]
    assert _pair_cycle_counts((1,)) == [[0, 0], [0, 1]]
    for k in range(1, 9):
        for mu in partitions_of(k):
            ell = len(mu)
            counts = _pair_cycle_counts(canonical_permutation(mu))
            assert sum(map(sum, counts)) == math.factorial(k)
            assert counts[k][ell] == 1
            for a, row in enumerate(counts):
                for b, count in enumerate(row):
                    if (a + b - k - ell) % 2:
                        assert count == 0, (mu, a, b)


def test_representative_independence():
    rng = random.Random(7)
    for k in range(2, 7):
        for mu in partitions_of(k):
            w = canonical_permutation(mu)
            g = tuple(rng.sample(range(1, k + 1), k))
            conjugated = compose(compose(g, w), inverse(g))
            assert factorization_poly_for(conjugated) == factorization_poly(mu)


def test_extreme_monomials():
    for k in range(1, 7):
        for mu in partitions_of(k):
            ell = len(mu)
            poly = factorization_poly(mu)
            assert poly.total_degree() == k + ell
            assert poly.coefficient((k, ell)) == (-1) ** (k + ell)
            assert poly.coefficient((ell, k)) == 1


def test_theorem_on_small_grid():
    for p in range(1, 4):
        for q in range(1, 4):
            for k in range(1, min(5, p * q) + 1):
                for mu in partitions_of(k):
                    assert theorem1_check(p, q, mu)


def test_theorem_single_evaluations():
    assert factorization_poly((2,)).evaluate((2, 2)) == 0
    assert factorization_poly((2,)).evaluate((3, 2)) == normalized_character(
        rectangle(3, 2), (2,)
    )


def test_oversized_mu_rejected():
    with pytest.raises(ValueError):
        theorem1_check(2, 2, (5,))
    with pytest.raises(ValueError):
        sss_identity_check(3, 2, 2, (2,))  # mu does not sum to k


def test_enumeration_cap():
    with pytest.raises(ValueError):
        factorization_poly((11,))


def test_sss_identity_small_grid():
    for k in range(1, 5):
        for mu in partitions_of(k):
            for p in range(1, 4):
                for q in range(1, 4):
                    assert sss_identity_check(k, p, q, mu)


def test_catalan_pair_counts():
    for k in range(1, 10):
        assert catalan_pair_count(k) == CATALAN[k]


def test_narayana_refinement_matches_table():
    for k, row in NARAYANA_ROWS.items():
        refinement = narayana_refinement(k)
        assert refinement == {i + 1: row[i] for i in range(k) if row[i]}
        assert sum(refinement.values()) == CATALAN[k]


def test_factorization_poly_takes_any_iterable():
    expected = factorization_poly((2, 1))
    size = factorization_poly.cache_info().currsize
    assert factorization_poly([2, 1]) == expected
    assert factorization_poly(part for part in (2, 1)) == expected
    # trailing zeros do not add cache keys
    assert factorization_poly((2, 1, 0, 0)) == expected
    assert factorization_poly.cache_info().currsize == size
