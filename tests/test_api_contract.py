"""Property test of the Python API's argument contract, for the entry points
of the character kernel, the residue and leading-term routes, the
interpolation, the verify runner and the partition helpers that take sizes.

Each function gets arguments drawn from edge values: integers weighted to
small values, with 0, -1..-3 and -2^63..-2^70 now and then, and shapes
given as lists or tuples, empty or with zeros, negatives, parts out of
order and, where they must be rejected at once or stay cheap, huge parts;
sizes are now and then not integers at all (2.5, 2.0, Fraction(4, 2), "2",
None), which must be rejected, never truncated.
A valid argument list must return a value of the documented type, and an
invalid one must raise ValueError and nothing else.  Sizes are capped where
a large valid value is merely slow (interpolation_grid(2^63, 1) builds 2^64
lists); huge positive values are drawn only where they must be rejected at
once (a node budget the degree set exceeds) or are cheap (long rows).
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rectchar import (
    ConjectureReport,
    MultivarPoly,
    complement,
    conjecture1_check,
    elizalde_formula,
    f_k_polynomial,
    f_k_special_value,
    f_mu_interpolate,
    flipped_polynomial,
    g_k_leading,
    g_k_via_lagrange,
    gk_generating_check,
    integrality_witness,
    interpolation_grid,
    mn_character,
    narayana_check,
    normalized_character,
    off_grid_fidelity,
    partitions_in_box,
    partitions_of,
    rectangle,
    VerifyReport,
    run_criteria,
    s_k_from_coefficient_sums,
    s_k_sequence,
    sq_shape,
)
from rectchar.interpolation import _degree_set_size
from rectchar.verify import CRITERIA

HUGE = st.integers(2**63, 2**70)
NOT_INTEGERS = st.sampled_from([2.5, 2.0, Fraction(4, 2), "2", None])


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


def sizes(cap: int, huge: bool = False):
    """ints(cap, huge), or now and then a value that is not an integer."""
    return mostly(ints(cap, huge), NOT_INTEGERS)


def is_size(x) -> bool:
    return type(x) is int and x >= 0


def fits(parts, p, q) -> bool:
    """The parts, zeros dropped, fit in a p-by-q box."""
    parts = [x for x in parts if x]
    return len(parts) <= p and all(x <= q for x in parts)


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


def stack_case(data, function, kind):
    """function(m, k) for a stack of m rectangles at a k-cycle."""
    m, k = data.draw(ints(3), label="m"), data.draw(ints(4), label="k")
    ok, value = call(function, m, k)
    assert ok == (m >= 1 and k >= 1), value
    if ok:
        assert type(value) is kind


def kmax_case(data, function):
    """function(m, kmax), for k = 1..kmax; kmax = 0 asks for nothing."""
    m, kmax = data.draw(ints(3), label="m"), data.draw(ints(5), label="kmax")
    ok, value = call(function, m, kmax)
    assert ok == (m >= 1 and kmax >= 0), value
    if ok and function is gk_generating_check:
        assert value is True
    elif ok:
        assert type(value) is list and len(value) == kmax
        assert all(type(x) is int for x in value)


def narayana_case(data):
    kmax = data.draw(ints(6), label="kmax")
    ok, value = call(narayana_check, kmax)
    assert ok == (kmax >= 0), value
    if ok:
        assert value is True


def criteria_case(data):
    # the criteria that take a hundredth of a second, or numbers naming none;
    # numbers=None would run every criterion, which takes seconds
    rare = st.integers(-3, 0) | st.integers(len(CRITERIA) + 1, 20)
    rare = rare | HUGE | HUGE.map(lambda x: -x)
    chunk = mostly(st.sampled_from([9, 10]), rare)
    numbers = data.draw(st.lists(chunk, max_size=3), label="numbers")
    ok, value = call(run_criteria, numbers)
    # an empty list selects nothing and is refused; only None means all
    valid = bool(numbers) and all(1 <= x <= len(CRITERIA) for x in numbers)
    assert ok == valid, value
    if ok:
        assert type(value) is list and all(type(r) is VerifyReport for r in value)
        assert [r.number for r in value] == sorted(set(numbers))


def partitions_of_case(data):
    # a huge n is cheap: its partitions are generated one at a time
    n = data.draw(sizes(10, huge=True), label="n")
    ok, value = call(partitions_of, n)
    assert ok == is_size(n), value
    if ok:
        assert iter(value) is value
        for lam in islice(value, 30):
            assert type(lam) is tuple and all(type(x) is int for x in lam)
            assert is_partition(lam) and sum(lam) == n


def partitions_in_box_case(data):
    p = data.draw(sizes(4, huge=True), label="p")
    q = data.draw(sizes(4, huge=True), label="q")
    ok, value = call(partitions_in_box, p, q)
    assert ok == (is_size(p) and is_size(q)), value
    if ok:
        assert iter(value) is value
        for lam in islice(value, 30):
            assert type(lam) is tuple and all(type(x) is int for x in lam)
            assert is_partition(lam) and fits(lam, p, q)


def rectangle_case(data):
    # a huge p asks for a tuple of 2^63 parts, so only q is drawn huge
    p, q = data.draw(sizes(5), label="p"), data.draw(sizes(5, huge=True), label="q")
    ok, value = call(rectangle, p, q)
    assert ok == (is_size(p) and is_size(q)), value
    if ok:
        assert type(value) is tuple and value == ((q,) * p if q else ())


def complement_case(data, function):
    """function(lam, p, q) for lam in the p-by-q box; a huge p or q would
    build that many rows or cells, so neither is drawn huge."""
    lam = data.draw(shapes(4, 3), label="lam")
    p, q = data.draw(sizes(5), label="p"), data.draw(sizes(5), label="q")
    ok, value = call(function, lam, p, q)
    valid = is_partition(lam) and is_size(p) and is_size(q) and fits(lam, p, q)
    assert ok == valid, value
    if ok and function is complement:
        assert type(value) is tuple and is_partition(value)
        assert sum(value) == p * q - sum(lam)
    elif ok:
        assert type(value) is frozenset and len(value) == p * q + sum(lam)


def flip_case(data):
    blocks = data.draw(st.integers(1, 3), label="blocks")
    poly = f_k_polynomial(blocks, data.draw(st.integers(1, 3), label="poly_k"))
    m = data.draw(ints(4), label="m")
    k = data.draw(st.integers(-3, 4), label="k")
    ok, value = call(flipped_polynomial, poly, m, k)
    assert ok == (m == blocks), value
    if ok:
        assert type(value) is MultivarPoly and value.nvars == 2 * m
        assert flipped_polynomial(value, m, k) == poly


CASES = {
    "interpolation_grid": grid_case,
    "f_mu_interpolate": lambda data: interpolate_case(data, f_mu_interpolate, MultivarPoly),
    "conjecture1_check": lambda data: interpolate_case(data, conjecture1_check, ConjectureReport),
    "off_grid_fidelity": fidelity_case,
    "normalized_character": normalized_case,
    "mn_character": mn_case,
    "narayana_check": narayana_case,
    "run_criteria": criteria_case,
    "f_k_polynomial": lambda data: stack_case(data, f_k_polynomial, MultivarPoly),
    "f_k_special_value": lambda data: stack_case(data, f_k_special_value, int),
    "integrality_witness": lambda data: stack_case(data, integrality_witness, bool),
    "g_k_leading": lambda data: stack_case(data, g_k_leading, MultivarPoly),
    "g_k_via_lagrange": lambda data: stack_case(data, g_k_via_lagrange, MultivarPoly),
    "elizalde_formula": lambda data: stack_case(data, elizalde_formula, MultivarPoly),
    "gk_generating_check": lambda data: kmax_case(data, gk_generating_check),
    "s_k_sequence": lambda data: kmax_case(data, s_k_sequence),
    "s_k_from_coefficient_sums": lambda data: kmax_case(data, s_k_from_coefficient_sums),
    "flipped_polynomial": flip_case,
    "partitions_of": partitions_of_case,
    "partitions_in_box": partitions_in_box_case,
    "rectangle": rectangle_case,
    "complement": lambda data: complement_case(data, complement),
    "sq_shape": lambda data: complement_case(data, sq_shape),
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
