"""Property test of the Python API's argument contract, for the entry points
of the character kernel and the interpolation.

Each function gets arguments drawn from edge values: integers weighted to
small values, with 0, -1..-3 and -2^63..-2^70 now and then, and shapes
given as lists or tuples, empty or with zeros, negatives, parts out of
order and, where they must be rejected at once or stay cheap, huge parts.
A valid argument list must return a value of the documented type, and an
invalid one must raise ValueError and nothing else.  Sizes are capped where
a large valid value is merely slow (interpolation_grid(2^63, 1) builds 2^64
lists); huge positive values are drawn only where they must be rejected at
once (a node budget the degree set exceeds) or are cheap (long rows).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rectchar import (
    ConjectureReport,
    MultivarPoly,
    conjecture1_check,
    f_mu_interpolate,
    interpolation_grid,
    mn_character,
    normalized_character,
    off_grid_fidelity,
)
from rectchar.interpolation import _degree_set_size

HUGE = st.integers(2**63, 2**70)


def mostly(common, rare):
    """Draw from common three times in four, else from rare."""
    return st.integers(0, 3).flatmap(lambda i: common if i else rare)


def ints(cap: int, huge: bool = False):
    """Integers 1..cap, or now and then 0, -1..-3 or -2^70..-2^63, and with
    huge also 2^63..2^70."""
    rare = st.integers(-3, 0) | HUGE.map(lambda x: -x)
    return mostly(st.integers(1, cap), rare | HUGE if huge else rare)


def shapes(cap: int, length: int, huge: bool = False, min_size: int = 0):
    """Partitions of at least min_size parts up to cap as lists or tuples, or
    now and then a list of parts in any order, maybe empty, with zeros,
    negatives and, with huge, huge parts."""
    valid = st.lists(st.integers(1, cap), min_size=min_size, max_size=length).map(
        lambda parts: sorted(parts, reverse=True)
    )
    piece = st.integers(-3, cap) | HUGE if huge else st.integers(-3, cap)
    drawn = mostly(valid, st.lists(piece, max_size=length))
    return st.tuples(drawn, st.booleans()).map(lambda d: tuple(d[0]) if d[1] else d[0])


def is_partition(parts) -> bool:
    """The parts, trailing zeros dropped, are positive and weakly decreasing."""
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return all(x > 0 for x in parts) and all(a >= b for a, b in zip(parts, parts[1:]))


def within_budget(m: int, mu, max_nodes: int) -> bool:
    """mu's degree set has at most max_nodes points.  From m or |mu| = 2^63 on
    it holds (m + 1)^2 or (|mu| + 1)(|mu| + 2)/2 > 2^125 points, above any
    drawn budget, and the closed form is not evaluated."""
    parts = [x for x in mu if x]
    k = sum(parts)
    if max(m, k) >= 2**63:
        return False
    return max_nodes >= 1 and _degree_set_size(m, k, k + len(parts)) <= max_nodes


def call(function, *args):
    """(True, value) or (False, None) when function raises ValueError."""
    try:
        return True, function(*args)
    except ValueError:
        return False, None


def grid_case(data):
    m, k = data.draw(ints(4), label="m"), data.draw(ints(6), label="k")
    ok, axes = call(interpolation_grid, m, k)
    assert ok == (m >= 1 and k >= 1)
    if ok:
        assert isinstance(axes, list) and len(axes) == 2 * m
        assert all(type(x) is int for axis in axes for x in axis)


def interpolate_case(data, function, kind):
    m = data.draw(ints(2, huge=True), label="m")
    mu = data.draw(shapes(3, 2, huge=True, min_size=1), label="mu")
    max_nodes = data.draw(st.just(20_000) | ints(400, huge=True), label="max_nodes")
    ok, value = call(function, m, mu, max_nodes)
    valid = m >= 1 and is_partition(mu) and any(mu)
    assert ok == (valid and within_budget(m, mu, max_nodes)), value
    if ok:
        assert isinstance(value, kind)


def fidelity_case(data):
    m = data.draw(ints(3), label="m")
    mu = data.draw(shapes(3, 2, min_size=1), label="mu")
    poly_mu = data.draw(st.sampled_from([(1,), (2,), (1, 1)]), label="poly_mu")
    poly = f_mu_interpolate(max(m, 1), poly_mu)
    samples = data.draw(ints(3) | st.just(0), label="samples")
    seed = data.draw(st.none() | st.integers(-(2**70), 2**70), label="seed")
    ok, value = call(off_grid_fidelity, m, mu, poly, samples, seed)
    assert ok == (m >= 1 and is_partition(mu) and any(mu) and samples >= 0)
    if ok:
        assert type(value) is bool
        if tuple(x for x in mu if x) == poly_mu:
            assert value


def normalized_case(data):
    lam = data.draw(shapes(6, 4, huge=True), label="lam")
    mu = data.draw(shapes(4, 3), label="mu")
    ok, value = call(normalized_character, lam, mu)
    valid = is_partition(lam) and is_partition(mu) and sum(mu) <= sum(lam)
    assert ok == valid
    if ok:
        assert type(value) is int


def composition(n: int, cuts: list[int]) -> list[int]:
    """n cut at the given points of 1..n-1 into positive parts, in order."""
    ends = sorted({c for c in cuts if 0 < c < n}) + [n]
    return [b - a for a, b in zip([0] + ends, ends)]


def mn_case(data):
    # a huge lam with a huge nu of its size is valid but slow: (2^63) has a
    # strip of 2^63 cells, so only nu draws huge parts, which never fit lam
    lam = data.draw(shapes(5, 4), label="lam")
    # most draws of nu cut |lam| into positive parts, in any order
    n = sum(lam) if is_partition(lam) else 3
    cuts = st.lists(st.integers(1, 20), max_size=3)
    junk = st.lists(st.integers(-3, 6) | HUGE, max_size=4)
    nu = data.draw(mostly(cuts.map(lambda c: composition(n, c)), junk), label="nu")
    nu = data.draw(st.permutations(nu), label="order")
    ok, value = call(mn_character, lam, nu)
    valid = is_partition(lam) and all(x > 0 for x in nu) and sum(nu) == sum(lam)
    assert ok == valid
    if ok:
        assert type(value) is int


CASES = {
    "interpolation_grid": grid_case,
    "f_mu_interpolate": lambda data: interpolate_case(data, f_mu_interpolate, MultivarPoly),
    "conjecture1_check": lambda data: interpolate_case(data, conjecture1_check, ConjectureReport),
    "off_grid_fidelity": fidelity_case,
    "normalized_character": normalized_case,
    "mn_character": mn_case,
}


@pytest.mark.parametrize("function", sorted(CASES))
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_valid_arguments_return_the_documented_type(function, data):
    CASES[function](data)
