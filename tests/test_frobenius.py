import math

import pytest

from rectchar import frobenius
from rectchar.characters import normalized_character
from rectchar.factorization import factorization_poly
from rectchar.frobenius import (
    _dimension_vars,
    _stack_roots,
    f_k_residue,
    f_k_special_value,
    flipped_polynomial,
    frobenius_normalized,
    integrality_witness,
    rational_x_inverse_coefficient,
)
from rectchar.partitions import partitions_of
from rectchar.polynomials import MultivarPoly
from rectchar.verify import REFERENCE_FLIPPED_TWO_RECT


def test_residue_extraction_examples():
    # [x^{-1}] of x(x-1)...(x-k+1) is 0: a polynomial has no residue
    assert rational_x_inverse_coefficient(list(range(4)), []) == 0
    # [x^{-1}] of 1/(x-a) is 1
    assert rational_x_inverse_coefficient([], [5]) == 1
    # x(x-2)/(x-1) = (x-1) - 1/(x-1)
    assert rational_x_inverse_coefficient([0, 2], [1]) == -1


def test_frobenius_known_values():
    assert frobenius_normalized((7,), 1) == 7
    assert frobenius_normalized((2, 2), 2) == 0
    assert frobenius_normalized((3, 3), 3) == normalized_character((3, 3), (3,))


def test_frobenius_matches_strip_route():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                assert frobenius_normalized(lam, k) == normalized_character(
                    lam, (k,)
                ), (lam, k)


def test_frobenius_rejects_bad_k():
    with pytest.raises(ValueError):
        frobenius_normalized((3, 1), 5)
    with pytest.raises(ValueError):
        frobenius_normalized((3, 1), 0)


def test_fk_reference_data():
    for k, expected in REFERENCE_FLIPPED_TWO_RECT.items():
        flipped = flipped_polynomial(f_k_residue(2, k), 2, k)
        assert flipped.terms == expected
    assert REFERENCE_FLIPPED_TWO_RECT[4][(1, 2, 0, 2)] == 14


def test_flip_checks_its_block_count():
    poly = MultivarPoly(4, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 2})
    assert flipped_polynomial(poly, 2, 1).terms == {(1, 0, 1, 0): 1, (0, 1, 0, 1): 2}
    # m = 1 would negate x1 alone of four variables; m = 3 would index past them
    for m in (1, 3, 0):
        message = f"^need m >= 1 and a polynomial in 2m variables, got m={m} and 4 variables$"
        with pytest.raises(ValueError, match=message):
            flipped_polynomial(poly, m, 1)


def test_flip_negates_the_q_variables():
    # q -> -q, times (-1)^k; flipping twice gives the polynomial back
    p = MultivarPoly(2, {(1, 0): 1})
    q = MultivarPoly(2, {(0, 1): 1})
    poly = p * p * q + q * q
    for k in (0, 1, 2, 3):
        flipped = flipped_polynomial(poly, 1, k)
        negated = -(p * p) * q + q * q
        assert flipped == (-negated if k % 2 else negated)
        assert flipped_polynomial(flipped, 1, k) == poly


def test_fk_one_rectangle_matches_pair_sum():
    for k in range(1, 7):
        assert f_k_residue(1, k) == factorization_poly((k,))


# stacks of rectangles as (ps, qs): ps[i] rows of length qs[i]
SHAPES = [
    ((2,), (3,)),
    ((1, 2), (4, 2)),
    ((2, 1), (3, 1)),
    ((3, 2), (4, 2)),
    ((1, 1, 1), (3, 2, 1)),
]


def test_fk_specializes_to_shapes():
    for ps, qs in SHAPES:
        lam = tuple(q for p, q in zip(ps, qs) for _ in range(p))
        for k in range(1, min(5, sum(lam)) + 1):
            poly = f_k_residue(len(ps), k)
            assert poly.evaluate(ps + qs) == frobenius_normalized(lam, k), (lam, k)


def test_fk_integer_coefficients():
    for m in (1, 2, 3):
        for k in range(1, 5):
            assert integrality_witness(m, k)


def test_special_value():
    for m in range(1, 5):
        for k in range(1, 7):
            assert f_k_special_value(m, k) == math.perm(k + m - 1, k)


def test_special_value_agrees_with_symbolic_evaluation():
    for m in range(1, 5):
        for k in range(1, 5):
            poly = f_k_residue(m, k)
            value = poly.evaluate((1,) * m + (-1,) * m) * (-1) ** k
            assert value == f_k_special_value(m, k)


def test_stack_roots_commute_with_evaluation():
    # the integer roots are the symbolic roots evaluated at the same point
    points = list(SHAPES)
    points += [((1,) * m, (-1,) * m) for m in range(1, 5)]
    for ps, qs in points:
        upper, lower = _stack_roots(*_dimension_vars(len(ps)))
        at = ps + qs
        assert _stack_roots(ps, qs) == (
            [a.evaluate(at) for a in upper],
            [b.evaluate(at) for b in lower],
        )


def test_character_values_are_ints():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                assert type(frobenius_normalized(lam, k)) is int, (lam, k)
    for m in range(1, 4):
        for k in range(1, 9):
            assert type(f_k_special_value(m, k)) is int, (m, k)


def test_non_integral_character_value_raises(monkeypatch):
    # a residue of 1 at k = 2 makes the value -1/2 (or 1/2): an error, never a
    # Fraction
    monkeypatch.setattr(frobenius, "rational_x_inverse_coefficient", lambda num, den: 1)
    with pytest.raises(ArithmeticError, match="non-integral: -1/2$"):
        frobenius_normalized((2,), 2)
    with pytest.raises(ArithmeticError, match="non-integral: -1/2$"):
        f_k_special_value(1, 2)
