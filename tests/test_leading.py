from fractions import Fraction

import pytest

from oracles import CATALAN, NARAYANA_ROWS, SCHROEDER, recursive_compositions
from rectchar.factorization import narayana_refinement
from rectchar.frobenius import f_k_residue, flipped_polynomial
from rectchar.interpolation import f_k_polynomial
from rectchar.leading import (
    _compositions,
    elizalde_formula,
    g_k_leading,
    g_k_via_lagrange,
    gk_generating_check,
    narayana_check,
    narayana_number,
    s_k_from_coefficient_sums,
    s_k_sequence,
)
from rectchar.polynomials import MultivarPoly


def test_gk_is_top_homogeneous_part():
    for m in (1, 2):
        for k in range(1, 5):
            fk = f_k_residue(m, k)
            gk = g_k_leading(m, k)
            assert gk == fk.homogeneous_part(k + 1)
            assert all(sum(e) == k + 1 for e in gk.terms)


def test_g1_smallest_case():
    assert g_k_leading(1, 1) == MultivarPoly(2, {(1, 1): 1})
    assert g_k_via_lagrange(1, 1) == g_k_leading(1, 1)


def test_two_routes_agree():
    for m in (1, 2, 3):
        for k in range(1, 5):
            assert g_k_leading(m, k) == g_k_via_lagrange(m, k), (m, k)


def test_generating_function_route():
    for m in (1, 2, 3):
        assert gk_generating_check(m, 4)


def test_generating_function_route_rejects_negative_kmax():
    # kmax = 0 compares only the constant slot
    assert gk_generating_check(1, 0)
    for kmax in (-1, -5):
        with pytest.raises(ValueError, match=f"^kmax must be nonnegative, got {kmax}$"):
            gk_generating_check(1, kmax)


@pytest.mark.parametrize("m", [0, -1])
def test_symbolic_routes_reject_empty_stacks(m):
    for route in (f_k_polynomial, g_k_via_lagrange, gk_generating_check):
        with pytest.raises(ValueError, match=f"need m >= 1 rectangles, got {m}"):
            route(m, 3)


def test_low_degree_tail_of_fk():
    # F_3 at m=2 is G_3 plus the degree-2 polynomial F_1
    tail = f_k_polynomial(2, 3) - g_k_leading(2, 3)
    assert tail == f_k_polynomial(2, 1)
    flipped_tail = flipped_polynomial(tail, 2, 3)
    assert flipped_tail.terms == {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}


def test_sk_one_rectangle_is_catalan():
    assert s_k_sequence(1, 10) == CATALAN[1:11]


def test_sk_two_rectangles_is_schroeder():
    assert s_k_sequence(2, 8) == SCHROEDER


def test_sk_routes_agree():
    for m in (1, 2, 3):
        assert s_k_sequence(m, 7) == s_k_from_coefficient_sums(m, 7)


def test_narayana_numbers():
    for k, row in NARAYANA_ROWS.items():
        assert [narayana_number(k, i) for i in range(1, k + 1)] == row
        assert sum(row) == CATALAN[k]
    assert narayana_number(4, 0) == 0
    assert narayana_number(4, 5) == 0


def test_narayana_check_and_refinement_bridge():
    assert narayana_check(8)
    for k in range(1, 7):
        flipped = flipped_polynomial(g_k_leading(1, k), 1, k)
        counts = narayana_refinement(k)
        assert flipped == MultivarPoly(
            2, {(k + 1 - i, i): c for i, c in counts.items()}
        )


def test_elizalde_formula_matches_leading_terms():
    # (4, 3) and (5, 2) put empty blocks between nonempty ones
    cases = [(m, k) for m in (1, 2, 3) for k in range(1, 5)] + [(4, 3), (5, 2)]
    for m, k in cases:
        assert elizalde_formula(m, k) == flipped_polynomial(
            g_k_leading(m, k), m, k
        ), (m, k)


def test_compositions_match_the_recursive_walk():
    for total in range(7):
        for parts in range(1, 7):
            assert list(_compositions(total, parts)) == list(
                recursive_compositions(total, parts)
            ), (total, parts)


def test_compositions_run_without_recursion():
    # the walk once recursed once per part, so elizalde at m = 600 (1200
    # parts) raised RecursionError; the first of 3000 parts comes at once
    assert next(_compositions(2, 3000)) == (0,) * 2999 + (2,)


def test_elizalde_known_coefficients():
    poly = elizalde_formula(2, 4)
    assert poly.coefficient((1, 2, 0, 2)) == 14
    assert poly.coefficient((2, 1, 1, 1)) == 12
    assert elizalde_formula(1, 2) == MultivarPoly(2, {(2, 1): 1, (1, 2): 1})


def test_flipped_coefficients_are_positive():
    for m in (1, 2):
        for k in range(1, 6):
            flipped = flipped_polynomial(g_k_leading(m, k), m, k)
            assert all(c > 0 for c in flipped.terms.values())
            assert flipped.coefficient_sum() == s_k_sequence(m, k)[-1]
