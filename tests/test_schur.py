from fractions import Fraction

import pytest

from oracles import brute_ssyt_count
from rectchar.partitions import conjugate, partitions_in_box, partitions_of
from rectchar.schur import lemma_check, schur_principal


def test_principal_specialization_counts_tableaux():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for p in range(1, 5):
                assert schur_principal(lam, p) == brute_ssyt_count(lam, p), (lam, p)


def test_principal_known_values():
    assert schur_principal((1,), 7) == 7
    assert schur_principal((2, 1), 2) == 2
    assert schur_principal((1, 1, 1), 2) == 0


def test_negative_specialization_known_values():
    assert schur_principal((1,), -1) == -1
    assert schur_principal((2,), -1) == 0
    assert schur_principal((1, 1), -2) == 3


def test_negative_duality():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for q in range(1, 6):
                expected = (-1) ** n * schur_principal(conjugate(lam), q)
                assert schur_principal(lam, -q) == expected


def test_specializations_are_exact_rationals():
    value = schur_principal((2, 2), 3)
    assert isinstance(value, (int, Fraction))
    assert value == 6  # 3x3 pairs of weakly increasing columns... fixed by oracle
    assert schur_principal((2, 2), 3) == brute_ssyt_count((2, 2), 3)


def test_lemma_exhaustive_small_boxes():
    for p in range(1, 5):
        for q in range(1, 5):
            for lam in partitions_in_box(p, q):
                assert lemma_check(lam, p, q)


def test_lemma_trivial_cases():
    assert lemma_check((), 3, 2)
    assert lemma_check((1,), 1, 1)


def test_lemma_rejects_oversized_shape():
    with pytest.raises(ValueError):
        lemma_check((3,), 2, 2)
