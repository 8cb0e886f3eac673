import pytest

from oracles import brute_ssyt_count
from rectchar.partitions import conjugate, hook_product, partitions_in_box, partitions_of
from rectchar.schur import _content_product, lemma_check

# The principal specialization s_lam(1^a) is _content_product(lam, a) / H_lam;
# the tests multiply it through by the hook product H_lam.


def test_principal_specialization_counts_tableaux():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for p in range(1, 5):
                expected = brute_ssyt_count(lam, p) * hook_product(lam)
                assert _content_product(lam, p) == expected, (lam, p)


def test_principal_known_values():
    assert _content_product((1,), 7) == 7
    assert _content_product((2, 1), 2) == 2 * 3
    assert _content_product((1, 1, 1), 2) == 0


def test_negative_specialization_known_values():
    assert _content_product((1,), -1) == -1
    assert _content_product((2,), -1) == 0
    assert _content_product((1, 1), -2) == 3 * 2


def test_negative_duality():
    for n in range(0, 9):
        for lam in partitions_of(n):
            for q in range(1, 6):
                expected = (-1) ** n * _content_product(conjugate(lam), q)
                assert _content_product(lam, -q) == expected


def test_specializations_are_exact_rationals():
    # s_(2,2)(1^3) = 6 semistandard tableaux, H_(2,2) = 12
    value = _content_product((2, 2), 3)
    assert type(value) is int
    assert value == 6 * 12 == brute_ssyt_count((2, 2), 3) * hook_product((2, 2))


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
