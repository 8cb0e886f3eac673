import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rectchar.factorization import factorization_poly
from rectchar.interpolation import f_k_polynomial, f_mu_interpolate
from rectchar.polynomials import MultivarPoly, default_names

NVARS = 3


def poly_strategy(nvars=NVARS, max_terms=5, coef_bound=9, max_exp=3):
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    coefs = st.integers(-coef_bound, coef_bound)
    return st.dictionaries(exps, coefs, max_size=max_terms).map(
        lambda d: MultivarPoly(nvars, d)
    )


points = st.tuples(*([st.integers(-4, 4)] * NVARS))
# zero, negative and Fraction coordinates
rational_points = st.tuples(
    *([st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)] * NVARS)
)


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60)
def test_ring_laws(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == MultivarPoly.zero(NVARS)


@given(poly_strategy(), poly_strategy(), points)
@settings(max_examples=60)
def test_evaluation_is_ring_homomorphism(f, g, pt):
    assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
    assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


@given(poly_strategy(), st.lists(rational_points, max_size=6))
@settings(max_examples=100)
def test_evaluate_many_is_evaluate_per_point(f, pts):
    half = f / 2 + MultivarPoly(NVARS, {(1, 0, 2): Fraction(1, 3)})
    for poly in (f, half, MultivarPoly.zero(NVARS)):
        values = poly.evaluate_many(pts)
        expected = [poly.evaluate(pt) for pt in pts]
        assert [(type(v), v) for v in values] == [(type(v), v) for v in expected]


def test_evaluate_many_edge_cases():
    poly = MultivarPoly(2, {(2, 1): Fraction(1, 2), (0, 0): 3})
    assert poly.evaluate_many([]) == []
    # Fraction values that come out whole are ints, as from evaluate
    assert poly.evaluate_many([(2, 1), (1, 1)]) == [5, Fraction(7, 2)]
    assert type(poly.evaluate_many([(2, 1)])[0]) is int
    assert MultivarPoly.const(0, 4).evaluate_many([(), ()]) == [4, 4]
    for bad in ([(1, 2, 3)], [(1, 2), (1,)]):
        with pytest.raises(ValueError, match="^value count mismatch$"):
            poly.evaluate_many(bad)


def test_constructor_drops_zeros_and_normalizes_fractions():
    poly = MultivarPoly(2, {(1, 0): Fraction(4, 2), (0, 1): 0})
    assert poly.terms == {(1, 0): 2}
    assert isinstance(poly.terms[(1, 0)], int)


@pytest.mark.parametrize(
    "nvars, terms, message",
    [
        (1, {(1.5,): 1}, "^bad exponent tuple"),
        (1, {(1.0,): 1}, "^bad exponent tuple"),
        (1, {(True,): 1}, "^bad exponent tuple"),
        (2, {(1, -1): 1}, "^bad exponent tuple"),
        (1, {(1,): 2.5}, "^coefficients must be ints or Fractions"),
        (1, {(1,): 2.0}, "^coefficients must be ints or Fractions"),
        (1, {(1,): True}, "^coefficients must be ints or Fractions"),
        (1, {(1,): False}, "^coefficients must be ints or Fractions"),
        (1, {(1,): "2"}, "^coefficients must be ints or Fractions"),
        (1, {(1,): None}, "^coefficients must be ints or Fractions"),
        (True, {(1,): 1}, "^nvars must be a nonnegative int"),
        (1.0, {(1,): 1}, "^nvars must be a nonnegative int"),
        (-1, None, "^nvars must be a nonnegative int"),
        ("1", None, "^nvars must be a nonnegative int"),
    ],
)
def test_constructor_refuses_inexact_input(nvars, terms, message):
    # a float exponent would evaluate to a float, a float coefficient would
    # be stored as it is, and a float nvars would break repr
    with pytest.raises(ValueError, match=message):
        MultivarPoly(nvars, terms)


def test_json_refuses_a_number_for_coef():
    # the schema writes each coef as a decimal string; a number, which int()
    # would truncate, is refused, and so is a string that is no integer
    for coef in (2.7, 2, True, None):
        with pytest.raises(ValueError, match="^coef must be a decimal string"):
            MultivarPoly.from_json_terms(1, [{"exp": [1], "coef": coef}])
    with pytest.raises(ValueError):
        MultivarPoly.from_json_terms(1, [{"exp": [1], "coef": "2.7"}])
    with pytest.raises(ValueError, match="^bad exponent tuple"):
        MultivarPoly.from_json_terms(1, [{"exp": [1.5], "coef": "2"}])


def test_scalar_arithmetic():
    p = MultivarPoly(2, {(1, 0): 1})
    q = MultivarPoly(2, {(0, 1): 1})
    poly = 2 * p - q + 1
    assert poly.evaluate((3, 4)) == 3
    assert (poly - 1).coefficient((0, 0)) == 0
    half = poly / 2
    assert half.evaluate((3, 4)) == Fraction(3, 2)


def test_degrees_and_homogeneous_part():
    p = MultivarPoly(2, {(1, 0): 1})
    q = MultivarPoly(2, {(0, 1): 1})
    poly = p * p * q + p * q + 3
    assert poly.total_degree() == 3
    assert poly.homogeneous_part(3) == p * p * q
    assert poly.homogeneous_part(2) == p * q
    assert poly.homogeneous_part(5) == MultivarPoly.zero(2)
    assert MultivarPoly.zero(2).total_degree() == -1


def test_canonical_string():
    p = MultivarPoly(2, {(1, 0): 1})
    q = MultivarPoly(2, {(0, 1): 1})
    poly = p * q * q - p * p * q
    assert poly.to_string(["p", "q"]) == "-p^2*q + p*q^2"
    assert MultivarPoly.zero(2).to_string(["p", "q"]) == "0"
    assert MultivarPoly.const(2, -7).to_string(["p", "q"]) == "-7"
    assert (p * q + 1).to_string(["p", "q"]) == "p*q + 1"


def test_canonical_order_degree_then_lex():
    terms = {(0, 2): 1, (2, 0): 1, (1, 1): 1, (1, 0): 1}
    poly = MultivarPoly(2, terms)
    assert poly.to_string(["p", "q"]) == "p^2 + p*q + q^2 + p"


def test_json_round_trip():
    poly = MultivarPoly(2, {(3, 1): -12345678901234567890, (0, 0): 7})
    terms = poly.to_json_terms()
    assert terms == [
        {"exp": [3, 1], "coef": "-12345678901234567890"},
        {"exp": [0, 0], "coef": "7"},
    ]
    assert MultivarPoly.from_json_terms(2, terms) == poly


def test_json_rejects_nonintegral():
    poly = MultivarPoly(1, {(1,): Fraction(1, 2)})
    assert not poly.is_integral()
    with pytest.raises(ValueError):
        poly.to_json_terms()


def test_coefficient_queries():
    p = MultivarPoly(2, {(1, 0): 1})
    poly = 5 * p * p + 3
    assert poly.coefficient((2, 0)) == 5
    assert poly.coefficient((1, 1)) == 0
    assert poly.coefficient((0, 0)) == 3
    assert poly.coefficient_sum() == 8
    assert poly != 3
    assert MultivarPoly.const(2, 9) == 9


def test_cached_polynomial_cannot_be_corrupted():
    before = f_k_polynomial(1, 2).canonical_terms()
    with pytest.raises(TypeError):
        f_k_polynomial(1, 2).terms[(9, 9)] = 5
    assert f_k_polynomial(1, 2).canonical_terms() == before
    assert (9, 9) not in f_k_polynomial(1, 2).terms


# each producer hands out one cached object per argument
@pytest.mark.parametrize(
    "producer, args",
    [(f_k_polynomial, (1, 2)), (factorization_poly, ((2,),)), (f_mu_interpolate, (1, (2,)))],
    ids=["f_k_polynomial", "factorization_poly", "f_mu_interpolate"],
)
def test_cached_polynomial_cannot_be_rebound(producer, args):
    before = producer(*args).canonical_terms()
    poly = producer(*args)
    for name, value in [("nvars", 5), ("terms", {(9, 9): 1}), ("extra", 1)]:
        with pytest.raises(AttributeError, match="^MultivarPoly is immutable"):
            setattr(poly, name, value)
    for name in ("nvars", "terms"):
        with pytest.raises(AttributeError, match="^MultivarPoly is immutable"):
            delattr(poly, name)
    assert copy.copy(poly) is poly
    again = producer(*args)
    assert again.nvars == 2
    assert again.canonical_terms() == before
    assert again.evaluate((3, 4)) == poly.evaluate((3, 4))


def test_default_names():
    assert default_names(1) == ["p", "q"]
    assert default_names(2) == ["a", "p", "b", "q"]
    assert default_names(3) == ["p1", "p2", "p3", "q1", "q2", "q3"]


def test_mismatched_arity_rejected():
    with pytest.raises(ValueError):
        MultivarPoly(2, {(1,): 1})
    f = MultivarPoly(2, {(1, 0): 1})
    g = MultivarPoly(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        _ = f + g
