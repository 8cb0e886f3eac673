import pytest

from rectchar.factorization import factorization_poly
from rectchar.frobenius import MultiRectShape, f_k_polynomial
from rectchar.interpolation import (
    ConjectureReport,
    conjecture1_check,
    f_mu_interpolate,
    interpolation_grid,
    off_grid_fidelity,
)
from rectchar.characters import normalized_character
from rectchar.partitions import partitions_of


def test_grid_nodes_are_admissible():
    for m in (1, 2, 3):
        for k in (1, 3):
            axes = interpolation_grid(m, k)
            assert len(axes) == 2 * m
            assert all(len(axis) == k + 2 for axis in axes)
            # every q combination is strictly decreasing and the smallest
            # shape on the grid still has at least k cells
            q_axes = axes[m:]
            for i in range(m - 1):
                assert min(q_axes[i]) > max(q_axes[i + 1])
            min_n = sum(min(axes[i]) * min(q_axes[i]) for i in range(m))
            assert min_n >= k
            assert min(q_axes[-1]) >= 1


def test_single_cycle_matches_residue_route():
    for m in (1, 2):
        for k in (1, 2, 3):
            assert f_mu_interpolate(m, (k,)) == f_k_polynomial(m, k)


def test_one_rectangle_matches_pair_sum():
    for k in (1, 2, 3, 4):
        assert f_mu_interpolate(1, (k,)) == factorization_poly((k,))


def test_interpolant_degree_bound():
    # one extra degree per part: each part of size k contributes at most k+1
    for mu in [(2,), (1, 1), (2, 1)]:
        poly = f_mu_interpolate(2, mu)
        assert poly.total_degree() <= sum(mu) + len(mu)
    assert f_mu_interpolate(2, (3,)).total_degree() <= 4


def test_interpolant_reproduces_characters_off_grid():
    poly = f_mu_interpolate(2, (2, 1))
    # every shape here has at least one coordinate outside the grid bands
    for shape in [
        MultiRectShape((7, 2), (9, 2)),
        MultiRectShape((1, 6), (12, 4)),
        MultiRectShape((6, 6), (13, 6)),
    ]:
        point = shape.ps + shape.qs
        assert poly.evaluate(point) == normalized_character(
            shape.to_partition(), (2, 1)
        )


def test_off_grid_fidelity_is_deterministic():
    poly = f_mu_interpolate(2, (2,))
    assert off_grid_fidelity(2, (2,), poly, samples=10, seed=123)
    assert off_grid_fidelity(2, (2,), poly, samples=10, seed=123)


def test_negative_samples_rejected():
    with pytest.raises(ValueError, match="samples must be nonnegative, got -3"):
        off_grid_fidelity(1, (2,), samples=-3)


def test_node_budget_enforced():
    with pytest.raises(ValueError):
        f_mu_interpolate(2, (2,), max_nodes=3)


def test_conjecture_reports_pass_small_sweep():
    for k in range(1, 4):
        for mu in partitions_of(k):
            report = conjecture1_check(2, mu)
            assert isinstance(report, ConjectureReport)
            assert report.k == k
            assert report.integer_coefficients
            assert report.nonnegative
            assert report.sum_matches
            assert report.passed
            assert report.findings == ()


def test_conjecture_m1_values():
    report = conjecture1_check(1, (2, 1))
    assert report.expected_sum == 6
    assert report.coefficient_sum == 6
    assert report.passed


def test_report_dict_shape():
    report = conjecture1_check(2, (1, 1))
    data = report.to_dict()
    assert data["m"] == 2
    assert data["mu"] == "1,1"
    assert data["k"] == 2
    assert data["passed"] is True
    assert data["coefficient_sum"] == "6"
    coefs = {tuple(t["exp"]): int(t["coef"]) for t in data["flipped_terms"]}
    assert sum(coefs.values()) == 6


def test_invalid_arguments():
    with pytest.raises(ValueError):
        f_mu_interpolate(0, (1,))
    with pytest.raises(ValueError):
        f_mu_interpolate(1, ())
