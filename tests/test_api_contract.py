"""Property test of the Python API's argument contract, for the entry points
of the character kernel, the pair-sum routes, the residue and leading-term
routes, the interpolation, the verify runner, the partition helpers, the
box lemma, canonical_permutation, default_names and narayana_number.

Each function gets arguments drawn from edge values: integers weighted to
small values, with 0, -1..-3 and -2^63..-2^70 now and then, and shapes
given as lists or tuples, empty or with zeros, negatives, parts out of
order and, where they must be rejected at once or stay cheap, huge parts;
sizes are now and then not integers at all (2.5, 2.0, Fraction(4, 2), "2",
None), which must be rejected, never truncated.  The helpers that take one
shape, a cell, a cell set or a partition string also get arguments of the
wrong kind (None, 5, lists where tuples are hashed, bytes).
A valid argument list must return a value of the documented type, and an
invalid one must raise ValueError and nothing else.  Sizes are capped where
a large valid value is merely slow (interpolation_grid(2^63, 1) builds 2^64
lists); huge positive values are drawn only where they must be rejected at
once (a node budget the degree set exceeds, a rectangle of more rows than a
tuple holds, a k above the enumeration cap) or are cheap (long rows).
"""

import math
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import cycle_type
from rectchar import (
    ConjectureReport,
    MultivarPoly,
    canonical_permutation,
    catalan_pair_count,
    cells,
    cellset_hooks,
    complement,
    conjecture1_check,
    conjugate,
    content,
    default_names,
    elizalde_formula,
    f_k_polynomial,
    f_k_special_value,
    f_mu_interpolate,
    factorization_poly,
    fits_in_box,
    flipped_polynomial,
    format_partition,
    frobenius_normalized,
    g_k_leading,
    g_k_via_lagrange,
    gk_generating_check,
    hook_lengths,
    hook_product,
    integrality_witness,
    interpolation_grid,
    lemma_check,
    mn_character,
    narayana_check,
    narayana_number,
    narayana_refinement,
    normalized_character,
    off_grid_fidelity,
    parse_partition,
    partitions_in_box,
    partitions_of,
    rectangle,
    VerifyReport,
    run_criteria,
    s_k_from_coefficient_sums,
    s_k_sequence,
    sq_shape,
    sss_identity_check,
    syt_count,
    theorem1_check,
)
from rectchar.factorization import _ENUMERATION_CAP
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
    """The parts are integers and, trailing zeros dropped, positive and
    weakly decreasing."""
    parts = list(parts)
    if any(type(x) is not int for x in parts):
        return False
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


def is_positive(x) -> bool:
    return type(x) is int and x >= 1


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
    m, k = data.draw(sizes(4), label="m"), data.draw(sizes(6), label="k")
    ok, axes = call(interpolation_grid, m, k)
    assert ok == (is_positive(m) and is_positive(k))
    if ok:
        assert isinstance(axes, list) and len(axes) == 2 * m
        assert all(type(x) is int for axis in axes for x in axis)


def interpolate_case(data, function, kind):
    m = data.draw(sizes(2, huge=True), label="m")
    mu = data.draw(shapes(3, 2, huge=True, min_size=1), label="mu")
    max_nodes = data.draw(st.just(20_000) | sizes(400, huge=True), label="max_nodes")
    ok, value = call(function, m, mu, max_nodes)
    valid = is_positive(m) and is_partition(mu) and any(mu) and type(max_nodes) is int
    assert ok == (valid and within_budget(m, mu, max_nodes)), value
    if ok:
        assert isinstance(value, kind)


def fidelity_case(data):
    m = data.draw(sizes(3), label="m")
    mu = data.draw(shapes(3, 2, min_size=1), label="mu")
    poly_mu = data.draw(st.sampled_from([(1,), (2,), (1, 1)]), label="poly_mu")
    poly = f_mu_interpolate(m if is_positive(m) else 1, poly_mu)
    samples = data.draw(sizes(3) | st.just(0), label="samples")
    seed = data.draw(st.none() | st.integers(-(2**70), 2**70), label="seed")
    ok, value = call(off_grid_fidelity, m, mu, poly, samples, seed)
    assert ok == (is_positive(m) and is_partition(mu) and any(mu) and is_size(samples))
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


def frobenius_case(data):
    # k is drawn small: a valid k builds k numerator roots, and a huge lam
    # would admit a huge one
    lam = data.draw(shapes(5, 4, huge=True), label="lam")
    k = data.draw(sizes(8), label="k")
    ok, value = call(frobenius_normalized, lam, k)
    valid = is_partition(lam) and type(k) is int and 1 <= k <= sum(lam)
    assert ok == valid, value
    if ok:
        assert type(value) is int and value == normalized_character(lam, (k,))


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
    m, k = data.draw(sizes(3), label="m"), data.draw(sizes(4), label="k")
    ok, value = call(function, m, k)
    assert ok == (is_positive(m) and is_positive(k)), value
    if ok:
        assert type(value) is kind


def kmax_case(data, function):
    """function(m, kmax), for k = 1..kmax; kmax = 0 asks for nothing."""
    m, kmax = data.draw(sizes(3), label="m"), data.draw(sizes(5), label="kmax")
    ok, value = call(function, m, kmax)
    assert ok == (is_positive(m) and is_size(kmax)), value
    if ok and function is gk_generating_check:
        assert value is True
    elif ok:
        assert type(value) is list and len(value) == kmax
        assert all(type(x) is int for x in value)


def narayana_case(data):
    kmax = data.draw(sizes(6), label="kmax")
    ok, value = call(narayana_check, kmax)
    assert ok == is_size(kmax), value
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
    # a huge p is past the longest tuple, so refused unless q = 0 leaves no
    # rows to build
    p = data.draw(sizes(5, huge=True), label="p")
    q = data.draw(sizes(5, huge=True), label="q")
    ok, value = call(rectangle, p, q)
    assert ok == (is_size(p) and is_size(q) and (q == 0 or p <= sys.maxsize)), value
    if ok:
        assert type(value) is tuple and value == ((q,) * p if q else ())


def fits_in_box_case(data):
    lam = data.draw(shapes(4, 3, huge=True), label="lam")
    p = data.draw(sizes(4, huge=True), label="p")
    q = data.draw(sizes(4, huge=True), label="q")
    ok, value = call(fits_in_box, lam, p, q)
    assert ok == (is_partition(lam) and is_size(p) and is_size(q)), value
    if ok:
        assert value is fits(lam, p, q)


def pair_shapes():
    """Cycle types whose valid draws have |mu| <= 9 (9! pairs take a tenth of
    a second), or now and then one of small parts above the cap, or one with
    a part that only equals an integer."""
    rare = st.sampled_from([(11,), [6, 5], (4, 4, 3), (2.0,), [2, Fraction(2, 2)]])
    return mostly(shapes(3, 3, huge=True), rare)


def within_cap(mu) -> bool:
    return sum(mu) <= _ENUMERATION_CAP


def factorization_case(data):
    mu = data.draw(pair_shapes(), label="mu")
    ok, value = call(factorization_poly, mu)
    assert ok == (is_partition(mu) and within_cap(mu)), value
    if ok:
        assert type(value) is MultivarPoly and value.nvars == 2


def theorem1_case(data):
    # a box of up to 4 x 4 holds some of the shapes above the cap
    p, q = data.draw(sizes(4), label="p"), data.draw(sizes(4), label="q")
    mu = data.draw(pair_shapes(), label="mu")
    ok, value = call(theorem1_check, p, q, mu)
    valid = is_size(p) and is_size(q) and is_partition(mu)
    assert ok == (valid and sum(mu) <= p * q and within_cap(mu)), value
    if ok:
        assert value is True


def sss_case(data):
    # both sides are polynomials in p and q, so any integers are valid there
    mu = data.draw(pair_shapes(), label="mu")
    k = data.draw(mostly(st.just(sum(mu)), sizes(9, huge=True)), label="k")
    p = data.draw(sizes(3, huge=True), label="p")
    q = data.draw(sizes(3, huge=True), label="q")
    ok, value = call(sss_identity_check, k, p, q, mu)
    valid = type(k) is int and type(p) is int and type(q) is int
    assert ok == (valid and is_partition(mu) and sum(mu) == k and within_cap(mu)), value
    if ok:
        assert value is True


def k_cycle_case(data, function, kind):
    """function(k), read off the pair-sum polynomial of the k-cycle."""
    k = data.draw(sizes(9, huge=True), label="k")
    ok, value = call(function, k)
    assert ok == (is_size(k) and k <= _ENUMERATION_CAP), value
    if ok and function is narayana_refinement:
        assert type(value) is dict
        assert all(type(i) is int and type(c) is int for i, c in value.items())
    elif ok:
        assert type(value) is int


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
    elif ok and function is lemma_check:
        assert value is True
    elif ok:
        assert type(value) is frozenset and len(value) == p * q + sum(lam)


def flip_case(data):
    blocks = data.draw(st.integers(1, 3), label="blocks")
    poly = f_k_polynomial(blocks, data.draw(st.integers(1, 3), label="poly_k"))
    m = data.draw(sizes(4), label="m")
    k = data.draw(mostly(st.integers(-3, 4), NOT_INTEGERS), label="k")
    ok, value = call(flipped_polynomial, poly, m, k)
    assert ok == (type(m) is int and m == blocks and type(k) is int), value
    if ok:
        assert type(value) is MultivarPoly and value.nvars == 2 * m
        assert flipped_polynomial(value, m, k) == poly


def is_shape(parts) -> bool:
    return isinstance(parts, (list, tuple)) and is_partition(parts)


NOT_SHAPES = st.sampled_from([None, 5, 2.5, "21", [2, None], (2, 1.5)])


def shape_case(data, function):
    """function(lam) for a shape of up to 4 parts up to 5, or now and then
    something that is not a sequence of integers; huge parts would build
    huge columns, hook lists or permutations, so only format_partition and
    cells, whose cells come one at a time, draw them."""
    huge = function in (format_partition, cells)
    lam = data.draw(mostly(shapes(5, 4, huge=huge), NOT_SHAPES), label="lam")
    ok, value = call(function, lam)
    assert ok == is_shape(lam), value
    if not ok:
        return
    parts = tuple(x for x in lam if x)
    if function is conjugate:
        assert type(value) is tuple and is_partition(value) and sum(value) == sum(parts)
        assert conjugate(value) == parts
    elif function is hook_lengths:
        assert type(value) is list and all(type(h) is int for h in value)
        assert len(value) == sum(parts) and math.prod(value) == hook_product(parts)
    elif function is hook_product:
        assert type(value) is int and value >= 1
    elif function is syt_count:
        assert type(value) is int and value * hook_product(parts) == math.factorial(sum(parts))
    elif function is cells:
        # distinct cells of the diagram, as many as it has up to 50
        assert iter(value) is value
        got = list(islice(value, 50))
        assert len(set(got)) == len(got) == min(50, sum(parts))
        assert all(is_cell(c) and c[0] <= len(parts) and c[1] <= parts[c[0] - 1] for c in got)
    elif function is canonical_permutation:
        assert type(value) is tuple and sorted(value) == list(range(1, sum(parts) + 1))
        assert cycle_type(value) == parts
    else:
        assert type(value) is str and parse_partition(value) == parts


def reads_as_partition(text) -> bool:
    """text is "-", blank, or comma-separated decimal integers, each maybe
    signed and padded with spaces, that form a partition."""
    if not isinstance(text, str):
        return False
    if text.strip() in ("-", ""):
        return True
    pieces = text.split(",")
    if not all(re.fullmatch(r" *-?[0-9]+ *", piece) for piece in pieces):
        return False
    return is_partition([int(piece) for piece in pieces])


def parse_case(data):
    serialized = shapes(12, 4).map(lambda parts: ",".join(map(str, parts)))
    junk = st.text(alphabet="0123456789,- x", max_size=10)
    wrong_kind = st.sampled_from([None, 5, b"2,1", ["2"]])
    text = data.draw(mostly(serialized, junk | wrong_kind), label="text")
    ok, value = call(parse_partition, text)
    assert ok == reads_as_partition(text), value
    if ok:
        assert type(value) is tuple and all(type(x) is int for x in value)
        assert is_partition(value) and parse_partition(format_partition(value)) == value


def is_cell(cell) -> bool:
    return (
        type(cell) is tuple
        and len(cell) == 2
        and all(type(x) is int and x >= 1 for x in cell)
    )


BAD_CELLS = st.sampled_from([(1,), (1, 2, 3), (1.5, 1), ("1", 1), (None, 2)])


def content_case(data):
    cell = data.draw(
        mostly(st.tuples(ints(5), ints(5)), BAD_CELLS | st.sampled_from([None, 5, [1, 2]])),
        label="cell",
    )
    ok, value = call(content, cell)
    assert ok == is_cell(cell), value
    if ok:
        assert type(value) is int and value == cell[1] - cell[0]


def is_cell_set(diagram) -> bool:
    """Valid cells whose rows are contiguous column intervals."""
    if not isinstance(diagram, (frozenset, list)) or not all(map(is_cell, diagram)):
        return False
    rows: dict[int, set[int]] = {}
    for i, j in diagram:
        rows.setdefault(i, set()).add(j)
    return all(max(js) - min(js) + 1 == len(js) for js in rows.values())


def cellset_case(data):
    cell = st.tuples(st.integers(-1, 4), st.integers(-1, 4))
    rare = st.lists(cell | BAD_CELLS, max_size=4) | st.sampled_from([None, 5, [[1, 1]]])
    diagram = data.draw(mostly(st.frozensets(cell, max_size=8), rare), label="diagram")
    ok, value = call(cellset_hooks, diagram)
    assert ok == is_cell_set(diagram), value
    if ok:
        assert type(value) is Counter
        assert all(type(h) is int and h >= 1 for h in value)
        assert sum(value.values()) == len(set(diagram))


def default_names_case(data):
    # a huge m is drawn only below 1: a valid one would name 2m variables
    m = data.draw(sizes(6), label="m")
    ok, value = call(default_names, m)
    assert ok == (type(m) is int and m >= 1), value
    if ok:
        assert type(value) is list and all(type(name) is str for name in value)
        assert len(set(value)) == len(value) == 2 * m


def narayana_number_case(data):
    # a huge i is cheap, the count being 0 above k; a huge k is not drawn,
    # as C(k, i) for i near k/2 is slow
    k = data.draw(sizes(8), label="k")
    i = data.draw(sizes(10, huge=True), label="i")
    ok, value = call(narayana_number, k, i)
    assert ok == (type(k) is int and k >= 1 and type(i) is int), value
    if ok:
        assert type(value) is int
        assert value == (math.comb(k, i) * math.comb(k, i - 1) // k if 1 <= i <= k else 0)


CASES = {
    "interpolation_grid": grid_case,
    "f_mu_interpolate": lambda data: interpolate_case(data, f_mu_interpolate, MultivarPoly),
    "conjecture1_check": lambda data: interpolate_case(data, conjecture1_check, ConjectureReport),
    "off_grid_fidelity": fidelity_case,
    "normalized_character": normalized_case,
    "frobenius_normalized": frobenius_case,
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
    "fits_in_box": fits_in_box_case,
    "factorization_poly": factorization_case,
    "theorem1_check": theorem1_case,
    "sss_identity_check": sss_case,
    "catalan_pair_count": lambda data: k_cycle_case(data, catalan_pair_count, int),
    "narayana_refinement": lambda data: k_cycle_case(data, narayana_refinement, dict),
    "complement": lambda data: complement_case(data, complement),
    "sq_shape": lambda data: complement_case(data, sq_shape),
    "lemma_check": lambda data: complement_case(data, lemma_check),
    "conjugate": lambda data: shape_case(data, conjugate),
    "hook_lengths": lambda data: shape_case(data, hook_lengths),
    "hook_product": lambda data: shape_case(data, hook_product),
    "syt_count": lambda data: shape_case(data, syt_count),
    "format_partition": lambda data: shape_case(data, format_partition),
    "cells": lambda data: shape_case(data, cells),
    "canonical_permutation": lambda data: shape_case(data, canonical_permutation),
    "default_names": default_names_case,
    "parse_partition": parse_case,
    "content": content_case,
    "cellset_hooks": cellset_case,
    "narayana_number": narayana_number_case,
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
