import math
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from oracles import (
    PARTITION_COUNTS,
    brute_syt_count,
    recursive_partitions_in_box,
    recursive_partitions_of,
    reference_conjugate,
)
from rectchar.partitions import (
    as_partition,
    cells,
    cellset_hooks,
    complement,
    conjugate,
    content,
    fits_in_box,
    format_partition,
    hook_lengths,
    hook_product,
    parse_partition,
    partitions_in_box,
    partitions_of,
    rectangle,
    sq_shape,
    syt_count,
)

partitions = st.integers(0, 9).flatmap(
    lambda n: st.sampled_from(sorted(partitions_of(n))) if n else st.just(())
)


def test_parse_and_format():
    assert parse_partition("4,3,1") == (4, 3, 1)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert format_partition((4, 3, 1)) == "4,3,1"
    assert format_partition(()) == "-"
    assert parse_partition("2,0") == (2,)  # trailing zeros are padding
    with pytest.raises(ValueError):
        parse_partition("1,3")
    with pytest.raises(ValueError):
        parse_partition("2,-1")
    with pytest.raises(ValueError):
        parse_partition("2,x")


def test_as_partition_validation():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition((2,) + (0,) * 50_000) == (2,)
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))


def test_as_partition_rejects_non_integer_parts():
    # parts used to go through int(), which truncated 2.7 to 2 and parsed '3'
    with pytest.raises(ValueError, match="2.7"):
        as_partition([2.7, 1.2])
    with pytest.raises(ValueError, match="'3'"):
        as_partition(["3", "1"])


@given(partitions)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


@given(partitions)
def test_conjugate_transposes_cells(lam):
    assert {(j, i) for (i, j) in cells(lam)} == set(cells(conjugate(lam)))


def test_hook_length_direct_count():
    # arm + leg + 1, counted straight off the diagram (cells are 1-indexed)
    # against hook_lengths, which lists the cells row by row
    for lam in [(4, 2, 1), (3, 3, 3), (5,), (2, 2, 1, 1)]:
        expected = []
        for (i, j) in cells(lam):
            arm = lam[i - 1] - j
            leg = sum(1 for r in range(i + 1, len(lam) + 1) if lam[r - 1] >= j)
            expected.append(arm + leg + 1)
        assert hook_lengths(lam) == expected


@given(partitions)
def test_hook_product_is_factorial_over_syt(lam):
    assert hook_product(lam) * syt_count(lam) == math.factorial(sum(lam))


@given(partitions)
def test_syt_count_against_brute_enumeration(lam):
    assert syt_count(lam) == brute_syt_count(lam)


def test_hook_kernels_against_reference_routes():
    for n in range(13):
        for lam in partitions_of(n):
            conj = reference_conjugate(lam)
            assert conjugate(lam) == conj
            expected = [
                lam[i - 1] - j + conj[j - 1] - i + 1 for (i, j) in cells(lam)
            ]
            assert hook_lengths(lam) == expected
            assert hook_product(lam) == math.prod(expected)
            assert syt_count(lam) == brute_syt_count(lam)


def test_tall_and_wide_shapes_stay_fast():
    # an O(length^2) formula for f^lam takes seconds on these shapes
    from rectchar.characters import normalized_character
    from rectchar.schur import lemma_check

    def within_budget(fn):
        start = time.monotonic()
        result = fn()
        assert time.monotonic() - start <= 1.0
        return result

    hook = (1000,) + (1,) * 1000
    assert within_budget(lambda: syt_count((1,) * 2000)) == 1
    assert within_budget(lambda: hook_product(hook)) == math.factorial(
        2000
    ) // math.comb(1999, 999)
    assert within_budget(lambda: normalized_character(hook, (3,))) == 1994004000
    assert within_budget(
        lambda: all(lemma_check(lam, 500, 1) for lam in partitions_in_box(500, 1))
    )


def test_syt_known_values():
    assert syt_count(()) == 1
    assert syt_count((3, 3)) == 5
    assert syt_count((4, 4, 4, 4)) == 24024


def test_content_and_cells():
    assert content((1, 1)) == 0
    assert content((3, 1)) == -2
    assert content((1, 4)) == 3
    assert sorted(cells((2, 1))) == [(1, 1), (1, 2), (2, 1)]


def test_complement_involution_and_size():
    for p in range(1, 5):
        for q in range(1, 5):
            for lam in partitions_in_box(p, q):
                tilde = complement(lam, p, q)
                assert fits_in_box(tilde, p, q)
                assert sum(lam) + sum(tilde) == p * q
                assert complement(tilde, p, q) == lam


def test_complement_rejects_oversized():
    with pytest.raises(ValueError):
        complement((3,), 2, 2)


def test_partitions_of_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(list(partitions_of(n))) == expected


def test_partitions_in_box_count_is_binomial():
    for p in range(1, 6):
        for q in range(1, 6):
            assert len(list(partitions_in_box(p, q))) == math.comb(p + q, p)


def test_partitions_in_box_rejects_negative_sides():
    # like rectangle, and at the call, before anything is iterated
    for p, q in [(-1, 2), (2, -1), (-1, -1)]:
        with pytest.raises(ValueError, match="^box sides must be nonnegative$"):
            partitions_in_box(p, q)
        with pytest.raises(ValueError):
            rectangle(p, q)
    assert list(partitions_in_box(0, 2)) == list(partitions_in_box(2, 0)) == [()]


def test_partitions_of_order_matches_recursive_route():
    for n in range(13):
        assert list(partitions_of(n)) == list(recursive_partitions_of(n)), n


def test_partitions_in_box_order_matches_recursive_route():
    for p in range(13):
        for q in range(13 - p):
            assert list(partitions_in_box(p, q)) == list(
                recursive_partitions_in_box(p, q)
            ), (p, q)


def test_partition_generators_handle_many_parts():
    # one part per level would pass the default recursion limit of 1000
    assert sum(1 for _ in partitions_in_box(1200, 1)) == 1201


@pytest.mark.parametrize("fn", [syt_count, hook_product])
def test_hook_functions_take_lists_and_generators(fn):
    expected = fn((3, 1))
    assert fn([3, 1]) == expected
    assert fn(part for part in (3, 1)) == expected


@pytest.mark.parametrize("fn", [syt_count, hook_product])
def test_hook_functions_keep_no_cache(fn):
    assert not hasattr(fn, "cache_info")


def test_rectangle():
    assert rectangle(3, 2) == (2, 2, 2)
    assert fits_in_box((2, 1), 2, 2)
    assert not fits_in_box((3,), 2, 2)


def test_box_sides_must_be_integers():
    # a side of 2.5 once passed as it was: len((1,)) <= 2.5 holds
    for p, q in [(2.5, 2), (2, 2.5), (2.0, 2), (2, "2"), (None, 2)]:
        with pytest.raises(ValueError, match="^sizes must be integers"):
            fits_in_box((1,), p, q)
    with pytest.raises(ValueError, match="^box sides must be nonnegative$"):
        fits_in_box((), -1, 2)
    with pytest.raises(ValueError, match="^parts must be positive"):
        fits_in_box((-1,), 2, 2)
    assert fits_in_box([1, 1, 0], 2, 1)


def test_rectangle_past_the_tuple_length_names_the_side():
    # (q,) * p raised OverflowError for p above sys.maxsize
    for p in (2**63, 2**70):
        with pytest.raises(ValueError, match="^rectangle side p = "):
            rectangle(p, 1)
    # no row holds a cell, so there is nothing to build
    assert rectangle(2**63, 0) == ()


def test_sq_shape_size_and_hooks():
    for p in range(1, 5):
        for q in range(1, 5):
            for lam in partitions_in_box(p, q):
                diagram = sq_shape(lam, p, q)
                assert len(diagram) == p * q + sum(lam)
                expected = cellset_hooks(frozenset(cells(rectangle(p, q))))
                for h in hook_lengths(lam):
                    expected[h] += 1
                assert cellset_hooks(diagram) == expected


def test_cellset_hooks_on_straight_shape():
    lam = (3, 2)
    straight = frozenset(cells(lam))
    assert cellset_hooks(straight) == Counter(hook_lengths(lam))
