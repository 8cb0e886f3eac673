from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import CATALAN, partial_fraction_residue
from rectchar.frobenius import rational_x_inverse_coefficient
from rectchar.series import InsufficientDepthError, PowerSeries, linear_product


def reciprocal_linear(c, depth: int) -> PowerSeries:
    """1/(1 - c*t) with `depth` coefficients: the constant 1 divided by 1 - c*t.
    In t = 1/x this is x/(x - c), so coefficient n is [x^-(n+1)] of 1/(x - c)."""
    return PowerSeries.one(depth - 1).divide_linear(c)


def test_reciprocal_of_x():
    series = reciprocal_linear(0, 5)
    assert series.coeffs == [1, 0, 0, 0, 0]
    assert series.coefficient(-1) == 0
    # the residue of 1/x is 1
    assert rational_x_inverse_coefficient([], [0]) == 1


def test_reciprocal_geometric_tail():
    # 1/(1 - a t) = 1 + a t + a^2 t^2 + ...
    series = reciprocal_linear(1, 3)
    assert [series.coefficient(n) for n in (0, 1, 2)] == [1, 1, 1]
    series = reciprocal_linear(-3, 4)
    assert [series.coefficient(n) for n in (0, 1, 2, 3)] == [1, -3, 9, -27]


def test_reciprocal_defining_property():
    # (1 - a t) * expansion = 1 up to the truncation order
    for a in (0, 1, -2, 5):
        product = reciprocal_linear(a, 6).mul_linear(a)
        assert product.coeffs == [1, 0, 0, 0, 0, 0]


def test_coefficient_below_window_raises():
    series = reciprocal_linear(2, 3)
    assert series.coefficient(2) == 4
    with pytest.raises(InsufficientDepthError):
        series.coefficient(3)
    with pytest.raises(InsufficientDepthError):
        series.coefficient(10)


def test_falling_factorial_has_no_residue():
    # a polynomial has zero coefficient on every negative power of x
    for k in (1, 3, 5):
        poly = linear_product(range(k), k + 2)
        assert poly.coefficient(k + 1) == 0
        assert rational_x_inverse_coefficient(range(k), []) == 0


def test_divide_linear_matches_long_division():
    # (x - 2)(x + 3)/(x - 1) = x + 2 - 4/(x - 1) = x + 2 - 4/x - 4/x^2 - ...
    quotient = linear_product([2, -3], 4).divide_linear(1)
    assert quotient.coeffs == [1, 2, -4, -4]
    assert rational_x_inverse_coefficient([2, -3], [1]) == -4


def test_divide_then_multiply_round_trip():
    series = linear_product([2, -1, 3], 6)
    round_trip = series.divide_linear(5).mul_linear(5)
    assert round_trip.coeffs == series.coeffs


@given(
    st.lists(st.integers(-6, 6), max_size=7),
    st.lists(st.integers(-6, 6), max_size=5, unique=True),
)
def test_residue_matches_partial_fractions(num_roots, den_roots):
    assert rational_x_inverse_coefficient(num_roots, den_roots) == (
        partial_fraction_residue(num_roots, den_roots)
    )


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
