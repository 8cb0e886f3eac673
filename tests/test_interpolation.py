import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from oracles import stanley_feray_f_mu
from rectchar import interpolation
from rectchar.factorization import factorization_poly
from rectchar.frobenius import f_k_residue, flipped_polynomial
from rectchar.interpolation import (
    ConjectureReport,
    _face,
    _face_nodes,
    _guard_point,
    _interpolate,
    _degree_set_size,
    _shape_value,
    conjecture1_check,
    f_k_polynomial,
    f_mu_interpolate,
    interpolation_grid,
    off_grid_fidelity,
)
from rectchar.characters import _sweep_depth, normalized_character
from rectchar.partitions import partitions_of
from rectchar.polynomials import MultivarPoly


def _blocks(m: int, point: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The nonempty (p_i, q_i) blocks of a stack, top to bottom."""
    return tuple((p, q) for p, q in zip(point[:m], point[m:]) if p and q)


def _stack(m: int, point: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of a stack, its empty blocks dropped."""
    return tuple(q for p, q in _blocks(m, point) for _ in range(p))


def test_grid_nodes_are_admissible():
    # the guard point, in closed form, is one past each axis's last node
    for m in range(1, 5):
        for k in range(1, 7):
            axes = interpolation_grid(m, k)
            assert _guard_point(m, k) == tuple(axis[-1] + 1 for axis in axes), (m, k)
    for m in (1, 2, 3):
        for k in (1, 3):
            axes = interpolation_grid(m, k)
            p_axes, q_axes = axes[:m], axes[m:]
            assert len(axes) == 2 * m
            # the Newton solve takes unit-spaced nodes
            assert all(axis == list(range(axis[0], axis[0] + k + 2)) for axis in axes)
            # every p-axis and the q_m band start at 0, so nodes may be
            # degenerate stacks
            assert all(axis[0] == 0 for axis in p_axes)
            assert q_axes[-1][0] == 0
            # the q bands are disjoint and strictly descending
            for i in range(m - 1):
                assert min(q_axes[i]) > max(q_axes[i + 1])
            # every node of the tensor grid, and the guard point, is a
            # partition once its empty blocks are dropped
            guard = _guard_point(m, k)
            for point in itertools.chain(itertools.product(*axes), [guard]):
                widths = [q for _, q in _blocks(m, point)]
                assert all(a > b for a, b in zip(widths, widths[1:])), point
            # the guard point is a stack of nonempty blocks with at least k cells
            assert len(_blocks(m, guard)) == m
            assert sum(p * q for p, q in zip(guard[:m], guard[m:])) >= k


def test_single_cycle_matches_residue_route():
    cases = [(m, k) for m in (1, 2) for k in (1, 2, 3)] + [(3, 3), (4, 2)]
    for m, k in cases:
        assert f_k_polynomial(m, k) == f_k_residue(m, k), (m, k)


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


def _bumped(poly: MultivarPoly, exps: tuple[int, ...], by: int) -> MultivarPoly:
    terms = dict(poly.terms)
    terms[exps] = terms.get(exps, 0) + by
    return MultivarPoly(poly.nvars, terms)


def test_off_grid_fidelity_rejects_a_wrong_coefficient():
    # every drawn point has positive coordinates, so a coefficient off by 1
    # shows at the first sample, whatever the chunking
    poly = f_mu_interpolate(2, (2, 2))
    exps = next(iter(poly.terms))
    wrong = _bumped(poly, exps, 1)
    for samples in (1, 32, 33, 70):
        for seed in (None, 0, 5, 441):
            assert off_grid_fidelity(2, (2, 2), poly, samples=samples, seed=seed)
            assert not off_grid_fidelity(2, (2, 2), wrong, samples=samples, seed=seed)


def test_off_grid_fidelity_reads_every_chunk(monkeypatch):
    # an error that shows only at p_1 = p_2 = k + 4, the top of the p draw:
    # with seed 11 the first such sample is the 50th, in the second chunk
    m, mu, k = 2, (2, 2), 4
    first = [ps for ps, _ in _audit_draws(m, k, 11, 70)].index((k + 4,) * m) + 1
    assert first == 50
    error = MultivarPoly.const(2 * m, 1)
    for v in range(m):
        x = MultivarPoly(2 * m, {tuple(int(i == v) for i in range(2 * m)): 1})
        for j in range(1, k + 4):
            error = error * (x - j)
    wrong = f_mu_interpolate(m, mu) + error
    counts = (1, 31, 32, 33, 49, 50, 64, 65, 70)
    chunked = [off_grid_fidelity(m, mu, wrong, samples=n, seed=11) for n in counts]
    assert chunked == [n < 50 for n in counts]
    # one sample at a time, as an unbatched loop would draw and compare
    monkeypatch.setattr(interpolation, "_AUDIT_CHUNK", 1)
    assert [off_grid_fidelity(m, mu, wrong, samples=n, seed=11) for n in counts] == chunked


def _audit_draws(m, k, seed, count, on_grid=None):
    """The first count (ps, qs) the audit keeps for this seed, drawn block by
    block as written out here: one integer below top_p * top_q per block,
    p - 1 and q - 1 its quotient and remainder by top_q, again when the
    widths repeat; the widths sorted descending; again below k cells or on
    the grid, looked up in the grid's axes.  Each draw on the grid is
    appended to on_grid."""
    rng = random.Random(seed)
    top_p, top_q = k + 4, m * (k + 3) + 6
    axes = [set(axis) for axis in interpolation_grid(m, k)]
    kept = []
    while len(kept) < count:
        draws = [rng.randrange(top_p * top_q) for _ in range(m)]
        if len({c % top_q for c in draws}) < m:
            continue
        ps = tuple(c // top_q + 1 for c in draws)
        qs = tuple(sorted((c % top_q + 1 for c in draws), reverse=True))
        if sum(map(operator.mul, ps, qs)) < k:
            continue
        if all(map(operator.contains, axes, ps + qs)):
            if on_grid is not None:
                on_grid.append(ps + qs)
            continue
        kept.append((ps, qs))
    return kept


def _audited_stacks(monkeypatch, m, mu, samples, seed):
    """The (ps, qs) of every stack off_grid_fidelity reads, in order."""
    kernel = interpolation._stack_character
    stacks = []

    def counted(mu, batch):
        batch = list(batch)
        stacks.extend(batch)
        return kernel(mu, batch)

    poly = f_mu_interpolate(m, mu)
    monkeypatch.setattr(interpolation, "_stack_character", counted)
    assert off_grid_fidelity(m, mu, poly, samples=samples, seed=seed)
    monkeypatch.setattr(interpolation, "_stack_character", kernel)
    return stacks


def test_audit_draws_the_shapes_a_grid_lookup_draws(monkeypatch):
    # the band test rejects the draws a lookup in the grid's axes rejects,
    # so each seed audits the same shapes; each of these seeds draws points
    # on the grid, which are drawn again
    for m, mu, seed in ((1, (2,), 5), (2, (2, 2), 7), (3, (3, 1), 12)):
        on_grid = []
        expected = _audit_draws(m, sum(mu), seed, 40, on_grid)
        assert on_grid, (m, mu)
        assert _audited_stacks(monkeypatch, m, mu, 40, seed) == expected, (m, mu)


def test_audit_draws_cover_the_box_off_the_grid(monkeypatch):
    # over a few seeds every p in 1..k + 4 and every width in 1..m(k + 3) + 6
    # is drawn, and no audited stack is on the grid or below k cells
    for m, mu in ((1, (2,)), (2, (2, 2)), (3, (2, 1))):
        k = sum(mu)
        axes = [set(axis) for axis in interpolation_grid(m, k)]
        ps_seen, qs_seen = set(), set()
        for seed in range(8):
            for ps, qs in _audited_stacks(monkeypatch, m, mu, 20, seed):
                assert sum(map(operator.mul, ps, qs)) >= k
                assert not all(map(operator.contains, axes, ps + qs))
                assert list(qs) == sorted(set(qs), reverse=True)
                ps_seen.update(ps)
                qs_seen.update(qs)
        assert ps_seen == set(range(1, k + 5)), (m, mu)
        assert qs_seen == set(range(1, m * (k + 3) + 7)), (m, mu)


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


def _allowed(alpha: tuple[int, ...], m: int, k: int, total: int) -> bool:
    """alpha = (a, b) is an exponent the Stanley-Feray formula allows within
    these bounds: |a| <= k, |b| <= k, |a| + |b| <= total, every q-colour
    a p-colour, and the top colour a q-colour."""
    a, b = alpha[:m], alpha[m:]
    used = [j for j in range(m) if a[j] or b[j]]
    return (
        sum(a) <= k
        and sum(b) <= k
        and sum(alpha) <= total
        and all(a[j] for j in range(m) if b[j])
        and (not used or b[used[-1]] > 0)
    )


def _steps_down(alpha: tuple[int, ...]):
    for i, e in enumerate(alpha):
        if e:
            yield alpha[:i] + (e - 1,) + alpha[i + 1 :]


def _full_support(terms: dict, s: int) -> dict:
    return {exps: c for exps, c in terms.items() if all(exps[:s])}


def _face_shift(s: int) -> tuple[int, ...]:
    """The exponent of p_1..p_s q_s, by which face nodes are shifted down."""
    return (1,) * s + (0,) * (s - 1) + (1,)


def _degree_set(m: int, k: int, total: int) -> list[tuple[int, ...]]:
    return [
        alpha
        for alpha in itertools.product(range(k + 1), repeat=2 * m)
        if sum(alpha[:m]) <= k and sum(alpha[m:]) <= k and sum(alpha) <= total
    ]


# (s, |nu|, len(nu)) for a face at s <= |nu| blocks
FACE_NODE_CASES = [
    (s, k, ell) for s in range(1, 4) for k in range(s, 5) for ell in range(1, k + 1)
]

DEGREE_SET_CASES = [
    (m, k, total)
    for m in range(1, 4)
    for k in range(1, 5)
    for total in sorted({0, 1, k, k + 1, k + 2, 2 * k - 1, 2 * k, 2 * k + 3})
]


def test_lower_set_and_its_size():
    for s, k, ell in FACE_NODE_CASES:
        total = k + ell
        # the divisors of the exponents the Stanley-Feray formula allows
        closure = {
            alpha
            for alpha in itertools.product(range(k + 1), repeat=2 * s)
            if _allowed(alpha, s, k, total)
        }
        frontier = list(closure)
        while frontier:
            for below in _steps_down(frontier.pop()):
                if below not in closure:
                    closure.add(below)
                    frontier.append(below)
        # the face nodes, shifted back, are those that hold p_1..p_s q_s,
        # in lexicographic order
        nodes = _face_nodes(s, k, ell)
        assert nodes == sorted(set(nodes)), (s, k, ell)
        shifted_back = {tuple(map(operator.add, beta, _face_shift(s))) for beta in nodes}
        full = {alpha for alpha in closure if all(alpha[:s]) and alpha[2 * s - 1]}
        assert shifted_back == full, (s, k, ell)
        # the budget counts the degree set, which holds them
        assert shifted_back <= set(_degree_set(s, k, total))
    for m, k, total in DEGREE_SET_CASES:
        assert _degree_set_size(m, k, total) == len(_degree_set(m, k, total)), (m, k, total)


def test_lower_set_is_lower():
    for s, k, ell in FACE_NODE_CASES:
        nodes = set(_face_nodes(s, k, ell))
        for beta in nodes:
            assert all(below in nodes for below in _steps_down(beta)), beta


@pytest.mark.parametrize("s, k_cap", [(1, 5), (2, 4), (3, 3)])
def test_lower_set_holds_the_stanley_feray_support(s, k_cap):
    # every term of F_nu that holds p_1..p_s, over p_1..p_s q_s, is a face node
    for k in range(s, k_cap + 1):
        for nu in partitions_of(k):
            nodes = set(_face_nodes(s, k, len(nu)))
            full = _full_support(stanley_feray_f_mu(s, nu), s)
            assert full and all(exps[2 * s - 1] for exps in full), (s, nu)
            shifted = {tuple(map(operator.sub, exps, _face_shift(s))) for exps in full}
            assert shifted <= nodes, (s, nu)


def _counted_points(monkeypatch) -> list:
    """The points at which _shape_value evaluates from now on, in order."""
    shape_value = interpolation._shape_value
    points = []

    def counted(m, mu, batch):
        points.extend(batch)
        return shape_value(m, mu, batch)

    monkeypatch.setattr(interpolation, "_shape_value", counted)
    return points


def _clear_caches() -> None:
    _face.cache_clear()


def test_node_count_is_the_lower_set(monkeypatch):
    # mu = (2,2), m = 2: the faces take 13 nodes at one block and 31 at two,
    # each a distinct shape; the budget counts the degree set, the 160 alpha
    # in N^4 with alpha_1 + alpha_2 <= 4, alpha_3 + alpha_4 <= 4 and
    # sum(alpha) <= 6
    _clear_caches()
    points = _counted_points(monkeypatch)
    f_mu_interpolate(2, (2, 2), max_nodes=160)
    assert len(points) == 13 + 31 + 1  # and the guard point
    assert len({_stack(len(point) // 2, point) for point in points}) == len(points)
    with pytest.raises(ValueError, match="^grid has 160 nodes, above the limit 159;"):
        f_mu_interpolate(2, (2, 2), max_nodes=159)


def test_kernel_runs_once_per_shape_of_at_least_k_cells(monkeypatch):
    # of F_(2,2)'s 44 face nodes at m = 2, the 5 below 4 cells take no
    # kernel read; each face reads its nodes in one call, and the guard
    # point in one more
    _clear_caches()
    kernel = interpolation._stack_character
    shapes = []
    calls = []

    def counted(mu, batch):
        batch = list(batch)
        calls.append(len(batch))
        shapes.extend(_stack(len(ps), ps + qs) for ps, qs in batch)
        return kernel(mu, batch)

    monkeypatch.setattr(interpolation, "_stack_character", counted)
    f_mu_interpolate(2, (2, 2))
    assert calls == [13 - 5, 31, 1]
    assert len(shapes) == 39 + 1  # and the guard point
    assert len(set(shapes)) == len(shapes)
    assert all(sum(lam) >= 4 for lam in shapes)


def test_trailing_fixed_points_take_no_nodes(monkeypatch):
    _clear_caches()
    points = _counted_points(monkeypatch)
    # mu = (2,1,1) at m = 2 takes nu = (2)'s faces, 3 nodes at one block and
    # 1 at two, then the guard point
    f_mu_interpolate(2, (2, 1, 1))
    assert len(points) == 3 + 1 + 1
    points.clear()
    # mu = 1^k is the falling factorial (N)_k: only the guard point
    f_mu_interpolate(2, (1, 1, 1))
    assert points == [_guard_point(2, 3)]
    # the budget still counts mu's own set
    with pytest.raises(ValueError, match="^grid has 200 nodes, above the limit 199;"):
        f_mu_interpolate(2, (2, 1, 1), max_nodes=199)


def test_faces_are_shared_across_m(monkeypatch):
    # F_(2) has no face above two blocks, so at m = 3 it takes no node
    _clear_caches()
    f_mu_interpolate(2, (2,))
    points = _counted_points(monkeypatch)
    f_mu_interpolate(3, (2,))
    assert points == [_guard_point(3, 2)]


# (s, nu) for nu without trailing 1s, |nu| capped where the oracle's
# |nu|! s^|nu| terms stay cheap
FACE_CASES = [
    (s, nu)
    for s, k_cap in ((1, 6), (2, 6), (3, 5), (4, 4))
    for k in range(2, k_cap + 1)
    for nu in partitions_of(k)
    if nu[-1] > 1
]


@pytest.mark.parametrize("s, nu", FACE_CASES)
def test_face_is_the_full_support_part(s, nu):
    oracle = _full_support(stanley_feray_f_mu(s, nu), s)
    if s > sum(nu):
        assert oracle == {}  # no such face: each block takes a cycle of s
        return
    face = _face(s, nu)
    assert dict(face.terms) == oracle
    # p_1..p_s q_s divides every term
    assert all(all(exps[:s]) and exps[2 * s - 1] for exps in face.terms)


@pytest.mark.parametrize("m", [2, 3])
def test_empty_block_drops_out(m):
    # F_mu at p_j = 0 is F_mu at the other m - 1 blocks, with no q_j left
    for k in range(1, 5):
        for mu in partitions_of(k):
            poly = f_mu_interpolate(m, mu)
            smaller = dict(f_mu_interpolate(m - 1, mu).terms)
            for j in range(m):
                kept = {e: c for e, c in poly.terms.items() if not e[j]}
                assert all(not e[m + j] for e in kept), (m, mu, j)
                assert {
                    e[:j] + e[j + 1 : m + j] + e[m + j + 1 :]: c for e, c in kept.items()
                } == smaller, (m, mu, j)


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def test_rational_data_gives_rational_coefficients(monkeypatch, fresh_caches):
    # integer node values whose interpolant has half-integer coefficients:
    # C(p_j, 2) q_j added for each block j
    shape_value = interpolation._shape_value

    def skewed(m, mu, points):
        extra = [sum(math.comb(p, 2) * q for p, q in zip(x[:m], x[m:])) for x in points]
        return list(map(operator.add, shape_value(m, mu, points), extra))

    monkeypatch.setattr(interpolation, "_shape_value", skewed)
    p, q = (MultivarPoly(2, {e: 1}) for e in ((1, 0), (0, 1)))
    poly = _interpolate(1, (2,))
    assert poly == f_k_residue(1, 2) + p * (p - 1) * q / 2
    assert {abs(c) for c in poly.terms.values() if type(c) is Fraction} == {Fraction(1, 2)}
    _assert_clean(poly)
    # rational node values at the top face, over a rational face below
    _clear_caches()

    def halved(m, mu, points):
        extra = [Fraction(math.prod(x[:m]) * x[-1], 2) if m == 2 else 0 for x in points]
        return list(map(operator.add, skewed(m, mu, points), extra))

    monkeypatch.setattr(interpolation, "_shape_value", halved)
    a, p, b, q = (MultivarPoly(4, {tuple(int(i == v) for i in range(4)): 1}) for v in range(4))
    expected = (
        f_k_residue(2, 2)
        + a * (a - 1) * b / 2
        + p * (p - 1) * q / 2
        + a * p * q / 2
    )
    poly = _interpolate(2, (2,))
    assert poly == expected
    _assert_clean(poly)


def _assert_clean(poly: MultivarPoly) -> None:
    """poly's terms equal those of its re-validated copy, term for term and
    coefficient type for type, with exponent tuples of ints."""
    copy = MultivarPoly(poly.nvars, dict(poly.terms))
    typed = {e: (type(c), c) for e, c in poly.terms.items()}
    assert typed == {e: (type(c), c) for e, c in copy.terms.items()}
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in typed)


def test_unvalidated_terms_are_clean():
    # the faces, the fill, the trailing-1 product and the flip build their
    # polynomials without the constructor's checks
    for m in range(1, 5):
        for k in range(1, 6):
            for mu in partitions_of(k):
                poly = f_mu_interpolate(m, mu)
                _assert_clean(poly)
                _assert_clean(flipped_polynomial(poly, m, k))


def test_rational_product_is_cleaned(monkeypatch):
    # a rational F_nu whose product with (N - 2) has integral Fraction
    # coefficients: they come out as ints, by the validating constructor
    p, q = (MultivarPoly(2, {e: 1}) for e in ((1, 0), (0, 1)))
    half = p * q / 2
    product = half * (p * q - 2)
    monkeypatch.setattr(interpolation, "_interpolate", lambda m, nu: half)
    monkeypatch.setattr(
        interpolation, "_shape_value", lambda m, mu, points: list(map(product.evaluate, points))
    )
    poly = f_mu_interpolate(1, (2, 1))
    assert poly == product and poly.coefficient((1, 1)) == -1
    _assert_clean(poly)


def test_many_blocks_take_no_recursion():
    # 1100 blocks, above the default recursion limit: F_(1) = N is one
    # trailing 1, with no face and one term per block
    m = 1100
    start = time.perf_counter()
    poly = f_mu_interpolate(m, (1,), max_nodes=10**7)
    assert time.perf_counter() - start < 1.0
    expected = {}
    for j in range(m):
        exps = [0] * (2 * m)
        exps[j] = exps[m + j] = 1
        expected[tuple(exps)] = 1
    assert dict(poly.terms) == expected


def test_warm_call_evaluates_only_the_guard_point(monkeypatch):
    f_mu_interpolate(2, (2,))
    points = _counted_points(monkeypatch)
    # F_(2)'s faces are cached, so F_(2,1,1) = (N - 2)(N - 3) F_(2) takes no
    # node
    poly = f_mu_interpolate(2, (2, 1, 1))
    assert points == [_guard_point(2, 4)]
    assert dict(poly.terms) == stanley_feray_f_mu(2, (2, 1, 1))
    # the budget and the guard are checked on every call, warm or cold
    with pytest.raises(ValueError, match="^grid has 200 nodes, above the limit 199;"):
        f_mu_interpolate(2, (2, 1, 1), max_nodes=199)
    assert points == [_guard_point(2, 4)]


def test_face_cache_is_bounded():
    maxsize = _face.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 64
    _face.cache_clear()
    # each nu without trailing 1s adds its one face at m = 1
    swept = [nu for k in range(2, 13) for nu in partitions_of(k) if nu[-1] > 1]
    assert len(swept) > maxsize
    for nu in swept:
        f_mu_interpolate(1, nu)
    assert _face.cache_info().currsize == maxsize


# the (m, mu) of the stack-interpolate benchmark workload
WORKLOAD_CASES = [(2, mu) for k in range(1, 5) for mu in partitions_of(k)] + [
    (3, mu) for k in range(1, 3) for mu in partitions_of(k)
]


def _cold_points(points: list, m: int, mu) -> list:
    """(point, shape) for each point a cold f_mu_interpolate(m, mu) evaluates,
    read into points by _counted_points: a face node of s blocks, at the
    character of mu's swept prefix, then the guard point, at mu's."""
    _clear_caches()
    points.clear()
    f_mu_interpolate(m, mu)
    assert points[-1] == _guard_point(m, sum(mu))
    swept = mu[: _sweep_depth(mu)]
    return [(point, swept) for point in points[:-1]] + [(points[-1], mu)]


@pytest.mark.parametrize("m, mu", WORKLOAD_CASES)
def test_node_kernel_matches_the_validated_route(m, mu, monkeypatch):
    for point, shape in _cold_points(_counted_points(monkeypatch), m, mu):
        blocks, k = len(point) // 2, sum(shape)
        [value] = _shape_value(blocks, shape, [point])
        lam = _stack(blocks, point)
        assert type(value) is int
        if sum(lam) < k:
            assert value == 0
        else:
            assert value == normalized_character(lam, shape)


def _evaluate(terms: dict[tuple[int, ...], int], point: tuple[int, ...]) -> int:
    return sum(c * math.prod(x**e for x, e in zip(point, exps)) for exps, c in terms.items())


@pytest.mark.parametrize("m, k_cap", [(1, 5), (2, 4), (3, 3)])
def test_degenerate_nodes_hold_the_character(m, k_cap, monkeypatch):
    # the Stanley-Feray oracle, which shares no code with the interpolation,
    # takes at every point a cold call evaluates, stacks below |mu| cells
    # included, the value of the stack's character, 0 below |mu| cells
    points = _counted_points(monkeypatch)
    oracles = {}
    below = 0
    for k in range(1, k_cap + 1):
        for mu in partitions_of(k):
            for point, shape in _cold_points(points, m, mu):
                blocks = len(point) // 2
                if (blocks, shape) not in oracles:
                    oracles[blocks, shape] = stanley_feray_f_mu(blocks, shape)
                lam = _stack(blocks, point)
                small = sum(lam) < sum(shape)
                below += small
                expected = 0 if small else normalized_character(lam, shape)
                assert _evaluate(oracles[blocks, shape], point) == expected, (m, mu, point)
    assert below


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
