from fractions import Fraction

import pytest

from oracles import CATALAN
from rectchar.series import (
    InsufficientDepthError,
    LaurentSeriesAtInfinity,
    PowerSeries,
    linear_product,
)


def reciprocal_linear(c, depth: int) -> LaurentSeriesAtInfinity:
    """1/(x - c) with `depth` terms: the constant 1, known down to x^(1 - depth),
    divided by x - c."""
    one = LaurentSeriesAtInfinity.constant(1).truncate(1 - depth)
    return one.divide_linear(c)


def test_reciprocal_of_x():
    series = reciprocal_linear(0, 5)
    assert series.coefficient(-1) == 1
    assert series.coefficient(-2) == 0
    assert series.coefficient(3) == 0


def test_reciprocal_geometric_tail():
    # 1/(x - a) = x^-1 + a x^-2 + a^2 x^-3 + ...
    series = reciprocal_linear(1, 3)
    assert [series.coefficient(-i) for i in (1, 2, 3)] == [1, 1, 1]
    series = reciprocal_linear(-3, 4)
    assert [series.coefficient(-i) for i in (1, 2, 3, 4)] == [1, -3, 9, -27]


def test_reciprocal_defining_property():
    # (x - a) * expansion = 1 up to the tracked depth
    for a in (0, 1, -2, 5):
        series = reciprocal_linear(a, 6)
        product = series.mul_linear(a)
        assert product.coefficient(0) == 1
        for i in (-1, -2, -3):
            assert product.coefficient(i) == 0


def test_coefficient_below_window_raises():
    series = reciprocal_linear(2, 3)
    assert series.coefficient(-3) == 4
    with pytest.raises(InsufficientDepthError):
        series.coefficient(-4)
    with pytest.raises(InsufficientDepthError):
        series.coefficient(-10)


def test_falling_factorial_has_no_residue():
    # a polynomial has zero coefficient on every negative power
    for k in (1, 3, 5):
        poly = linear_product(range(k), window=k + 2)
        truncated = poly.truncate(-2)
        assert truncated.coefficient(-1) == 0


def test_divide_linear_matches_long_division():
    # (x^2 + 1)/(x - 1): residue coefficient is 2
    numerator = LaurentSeriesAtInfinity(
        top=2, coeffs=[1, 0, 1], floor=None
    ).truncate(-3)
    quotient = numerator.divide_linear(1)
    assert quotient.coefficient(1) == 1
    assert quotient.coefficient(0) == 1
    assert quotient.coefficient(-1) == 2


def test_divide_then_multiply_round_trip():
    series = linear_product([2, -1, 3], window=6)
    round_trip = series.divide_linear(5).mul_linear(5)
    for i in range(series.top, series.bottom() - 1, -1):
        assert round_trip.coefficient(i) == series.coefficient(i)


def test_power_series_basics():
    f = PowerSeries([1, 2, 3], order=2)
    g = PowerSeries([0, 1], order=2)
    assert (f * g).coefficient(1) == 1
    assert (f * g).coefficient(2) == 2
    assert (f * 3).coefficient(2) == 9
    with pytest.raises(InsufficientDepthError):
        f.coefficient(3)


def test_power_series_reciprocal():
    f = PowerSeries([1, -1], order=6)  # 1 - x
    inv = f.reciprocal()
    assert [inv.coefficient(i) for i in range(5)] == [1, 1, 1, 1, 1]
    assert (f * inv).coefficient(0) == 1
    assert (f * inv).coefficient(3) == 0


def test_reciprocal_requires_unit_constant():
    with pytest.raises(ValueError):
        PowerSeries([0, 1], order=3).reciprocal()


def test_compositional_inverse_of_x_is_x():
    f = PowerSeries([0, 1, 0, 0], order=3)
    inv = f.compositional_inverse()
    assert [inv.coefficient(i) for i in range(4)] == [0, 1, 0, 0]


def test_compositional_inverse_catalan():
    # inverse of x - x^2 generates the Catalan numbers
    order = 9
    f = PowerSeries([0, 1, -1] + [0] * (order - 2), order=order)
    inv = f.compositional_inverse()
    for n in range(1, order + 1):
        assert inv.coefficient(n) == CATALAN[n - 1]


def test_compositional_inverse_round_trip():
    order = 7
    f = PowerSeries([0, 1, 3, -2, 1, 0, 5, -1], order=order)
    g = f.compositional_inverse()

    # compose f(g(x)) by Horner over truncated series
    composed = PowerSeries([0] * (order + 1), order=order)
    for coef in reversed(f.coeffs):
        step = (composed * g).coeffs
        composed = PowerSeries([step[0] + coef] + step[1:], order=order)
    assert composed.coefficient(0) == 0
    assert composed.coefficient(1) == 1
    for n in range(2, order + 1):
        assert composed.coefficient(n) == 0


def test_compositional_inverse_preconditions():
    with pytest.raises(ValueError):
        PowerSeries([1, 1], order=1).compositional_inverse()
    with pytest.raises(ValueError):
        PowerSeries([0, 2], order=1).compositional_inverse()


def test_fraction_coefficients_supported():
    f = PowerSeries([1, Fraction(1, 2)], order=4)
    sq = f * f
    assert sq.coefficient(1) == 1
    assert sq.coefficient(2) == Fraction(1, 4)
