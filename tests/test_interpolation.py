import itertools
import time

import pytest

from oracles import stanley_feray_f_mu
from rectchar import interpolation
from rectchar.factorization import factorization_poly
from rectchar.frobenius import f_k_polynomial
from rectchar.interpolation import (
    ConjectureReport,
    _guard_point,
    _interpolate,
    _lower_set,
    _lower_set_size,
    _shape_value,
    conjecture1_check,
    f_mu_interpolate,
    interpolation_grid,
    off_grid_fidelity,
)
from rectchar.characters import _sweep_depth, normalized_character
from rectchar.partitions import partitions_of


def test_grid_nodes_are_admissible():
    for m in (1, 2, 3):
        for k in (1, 3):
            axes = interpolation_grid(m, k)
            assert len(axes) == 2 * m
            assert all(len(axis) == k + 2 for axis in axes)
            # the Newton solve takes unit-spaced nodes
            assert all(axis == list(range(axis[0], axis[0] + k + 2)) for axis in axes)
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
    for ps, qs in [((7, 2), (9, 2)), ((1, 6), (12, 4)), ((6, 6), (13, 6))]:
        lam = tuple(q for p, q in zip(ps, qs) for _ in range(p))
        assert poly.evaluate(ps + qs) == normalized_character(lam, (2, 1))


def test_off_grid_fidelity_is_deterministic():
    poly = f_mu_interpolate(2, (2,))
    assert off_grid_fidelity(2, (2,), poly, samples=10, seed=123)
    assert off_grid_fidelity(2, (2,), poly, samples=10, seed=123)


def test_negative_samples_rejected():
    poly = f_mu_interpolate(1, (2,))
    with pytest.raises(ValueError, match="samples must be nonnegative, got -3"):
        off_grid_fidelity(1, (2,), poly, samples=-3)


def test_node_budget_enforced():
    with pytest.raises(ValueError):
        f_mu_interpolate(2, (2,), max_nodes=3)
    for budget in (0, -5):
        message = f"^max_nodes must be a positive integer, got {budget}$"
        with pytest.raises(ValueError, match=message):
            f_mu_interpolate(1, (1,), max_nodes=budget)


@pytest.mark.parametrize("m, k_cap", [(1, 5), (2, 4), (3, 3), (4, 2)])
def test_matches_stanley_feray_formula(m, k_cap):
    for k in range(1, k_cap + 1):
        for mu in partitions_of(k):
            assert dict(f_mu_interpolate(m, mu).terms) == stanley_feray_f_mu(m, mu)


# mu with trailing fixed points, interpolated on their swept part only
@pytest.mark.parametrize(
    "m, mu",
    [(2, (2, 1, 1, 1)), (2, (1,) * 5), (2, (3, 1, 1)), (3, (2, 1, 1)), (3, (1,) * 4)],
)
def test_fixed_points_match_stanley_feray_formula(m, mu):
    assert dict(f_mu_interpolate(m, mu).terms) == stanley_feray_f_mu(m, mu)


def test_lower_set_and_its_size():
    for m in range(1, 4):
        for k in range(1, 5):
            for total in (0, 1, k, k + 1, k + 2, 2 * k - 1, 2 * k, 2 * k + 3):
                box = itertools.product(range(k + 1), repeat=2 * m)
                expected = [
                    alpha
                    for alpha in box
                    if sum(alpha[:m]) <= k and sum(alpha[m:]) <= k and sum(alpha) <= total
                ]
                assert _lower_set(m, k, total) == expected
                assert _lower_set_size(m, k, total) == len(expected)


def _counted_points(monkeypatch) -> list:
    """The points at which _shape_value is called from now on."""
    shape_value = interpolation._shape_value
    points = []

    def counted(*args):
        points.append(args[-1])
        return shape_value(*args)

    monkeypatch.setattr(interpolation, "_shape_value", counted)
    return points


def test_node_count_is_the_lower_set(monkeypatch):
    # mu = (2,2), m = 2: alpha in N^4 with alpha_1 + alpha_2 <= 4,
    # alpha_3 + alpha_4 <= 4 and sum(alpha) <= 6
    _interpolate.cache_clear()
    points = _counted_points(monkeypatch)
    f_mu_interpolate(2, (2, 2), max_nodes=160)
    assert len(points) == 160 + 1  # and the guard point
    assert len(set(points)) == len(points)
    with pytest.raises(ValueError, match="^grid has 160 nodes, above the limit 159;"):
        f_mu_interpolate(2, (2, 2), max_nodes=159)


def test_trailing_fixed_points_take_no_nodes(monkeypatch):
    _interpolate.cache_clear()
    points = _counted_points(monkeypatch)
    # mu = (2,1,1) at m = 2 takes nu = (2)'s set, then the guard point
    f_mu_interpolate(2, (2, 1, 1))
    assert len(points) == len(_lower_set(2, 2, 3)) + 1 == 28
    points.clear()
    # mu = 1^k is the falling factorial (N)_k: only the guard point
    f_mu_interpolate(2, (1, 1, 1))
    assert points == [_guard_point(2, 3)]
    # the budget still counts mu's own set
    with pytest.raises(ValueError, match="^grid has 200 nodes, above the limit 199;"):
        f_mu_interpolate(2, (2, 1, 1), max_nodes=199)


def test_warm_call_evaluates_only_the_guard_point(monkeypatch):
    f_mu_interpolate(2, (2,))
    points = _counted_points(monkeypatch)
    # F_(2) is cached, so F_(2,1,1) = (N - 2)(N - 3) F_(2) takes no node
    poly = f_mu_interpolate(2, (2, 1, 1))
    assert points == [_guard_point(2, 4)]
    assert dict(poly.terms) == stanley_feray_f_mu(2, (2, 1, 1))
    # the budget and the guard are checked on every call, warm or cold
    with pytest.raises(ValueError, match="^grid has 200 nodes, above the limit 199;"):
        f_mu_interpolate(2, (2, 1, 1), max_nodes=199)
    assert points == [_guard_point(2, 4)]


def test_interpolation_cache_is_bounded():
    # each kept F_nu has at most DEFAULT_MAX_NODES terms
    maxsize = _interpolate.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 8
    _interpolate.cache_clear()
    for k in range(2, maxsize + 4):
        f_mu_interpolate(1, (k,))
    assert _interpolate.cache_info().currsize == maxsize


# the (m, mu) of the stack-interpolate benchmark workload
WORKLOAD_CASES = [(2, mu) for k in range(1, 5) for mu in partitions_of(k)] + [
    (3, mu) for k in range(1, 3) for mu in partitions_of(k)
]


@pytest.mark.parametrize("m, mu", WORKLOAD_CASES)
def test_node_kernel_matches_the_validated_route(m, mu):
    k = sum(mu)
    axes = interpolation_grid(m, k)
    swept = mu[: _sweep_depth(mu)]
    points = [
        tuple(axis[a] for axis, a in zip(axes, alpha))
        for alpha in _lower_set(m, k, k + len(mu))
    ]
    for point in points + [_guard_point(m, k)]:
        value = _shape_value(m, swept, k, point)
        lam = tuple(q for p, q in zip(point[:m], point[m:]) for _ in range(p))
        assert type(value) is int
        assert value == normalized_character(lam, mu)


def test_budget_is_checked_before_anything_is_built():
    start = time.perf_counter()
    # (m + 1)^2 nodes for mu = (1): p- and q-parts each one of m + 1 points
    with pytest.raises(
        ValueError,
        match="^grid has 100000000000000000020000000000000000001 nodes, "
        "above the limit 20000;",
    ):
        f_mu_interpolate(10**19, (1,))
    # |mu| huge with few parts: the closed form takes a few steps
    with pytest.raises(ValueError, match=r"^grid has \d+ nodes, above the limit 20000;"):
        f_mu_interpolate(3, (10**9,))
    # both m and |mu| huge: the count is reported by its size
    with pytest.raises(ValueError, match=r"^grid has over 2\^\d+ nodes, above"):
        f_mu_interpolate(10**9, (10**9,))
    with pytest.raises(ValueError, match=r"^grid has over 2\^\d+ nodes, above"):
        f_mu_interpolate(10**1000, (1000,))
    # an exact count too long for str()
    with pytest.raises(ValueError, match=r"^grid has over 2\^19337 nodes, above"):
        f_mu_interpolate(5792, (1,) * 4095)
    assert time.perf_counter() - start < 5.0


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
    # with m < 1 every drawn shape is empty, too small for mu, so the draw
    # loop would never end
    poly = f_mu_interpolate(1, (1,))
    for m, mu in [(0, (1,)), (-1, (1,)), (1, ())]:
        with pytest.raises(ValueError, match="^need m >= 1 and a nonempty mu$"):
            off_grid_fidelity(m, mu, poly, samples=1)
