import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_strip_removals, centralizer_order, character_by_power_sums
from rectchar.characters import (
    border_strip_removals,
    mn_character,
    normalized_character,
    rect_character_sum,
    rect_normalized_via_hooks,
)
from rectchar.partitions import partitions_of, rectangle, syt_count


def test_character_against_power_sum_oracle():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = character_by_power_sums(lam, mu)
                assert mn_character(lam, mu) == expected, (lam, mu)
                # fixed points first, longer cycles last
                assert mn_character(lam, mu[::-1]) == expected, (lam, mu)


def test_known_values():
    assert mn_character((3, 3), (3, 1, 1, 1)) == -1
    assert mn_character((2, 2), (2, 1, 1)) == 0
    assert mn_character((4,), (4,)) == 1
    assert mn_character((1, 1, 1, 1), (2, 1, 1)) == -1  # sign character at a transposition
    assert mn_character((), ()) == 1


def test_identity_column_is_syt_count():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == syt_count(lam)


def test_column_orthogonality():
    for n in range(1, 7):
        for nu in partitions_of(n):
            total = sum(mn_character(lam, nu) ** 2 for lam in partitions_of(n))
            assert total == centralizer_order(nu)


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cycle_order_invariance(n, rng):
    lam = rng.choice(sorted(partitions_of(n)))
    nu = list(rng.choice(sorted(partitions_of(n))))
    shuffled = nu[:]
    rng.shuffle(shuffled)
    assert mn_character(lam, tuple(shuffled)) == mn_character(lam, tuple(nu))


def test_deep_types_do_not_overflow_the_stack():
    # 1000 transpositions: the trivial and the sign character are both 1
    twos = (2,) * 1000
    assert mn_character((2000,), twos) == 1
    assert mn_character((1,) * 2000, twos) == 1


def test_type_must_match_size():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_non_integer_cycle_lengths_are_rejected():
    # int() used to read 2.5 as 2, which made (2.5, 2) a type of size 4
    with pytest.raises(ValueError, match="2.5"):
        mn_character((3, 1), (2.5, 2))


def test_strip_removals_against_brute_force():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for size in range(1, n + 1):
                expected = brute_strip_removals(lam, size)
                actual = {
                    (r.result, r.height) for r in border_strip_removals(lam, size)
                }
                assert actual == expected, (lam, size)


def test_strip_removal_fields():
    removals = border_strip_removals((3, 3, 1), 3)
    assert len(removals) == 1
    strip = removals[0]
    assert strip.source == (3, 3, 1)
    assert strip.size == 3
    assert strip.result == (2, 1, 1)
    assert strip.height == 1


def test_normalized_character_values():
    assert normalized_character((2, 2, 2), (2,)) == -6
    assert normalized_character((5,), (1,)) == 5
    # transpositions vanish on square shapes
    for side in range(2, 5):
        assert normalized_character(rectangle(side, side), (2,)) == 0


def test_normalized_character_rejects_oversized_mu():
    with pytest.raises(ValueError):
        normalized_character((2, 1), (4,))


def test_rect_character_sum_matches_direct_evaluation():
    for p in range(1, 5):
        for q in range(1, 5):
            for k in range(1, min(6, p * q) + 1):
                for mu in partitions_of(k):
                    direct = mn_character(rectangle(p, q), mu + (1,) * (p * q - k))
                    assert rect_character_sum(p, q, mu) == direct


def test_rect_normalized_via_hooks_matches_normalized():
    for p in range(1, 5):
        for q in range(1, 5):
            for k in range(1, min(6, p * q) + 1):
                for mu in partitions_of(k):
                    assert rect_normalized_via_hooks(p, q, mu) == normalized_character(
                        rectangle(p, q), mu
                    )


def test_concurrent_evaluation_matches_serial():
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        (lam, mu)
        for lam in partitions_of(8)
        for mu in partitions_of(8)
    ]
    serial = [mn_character(lam, mu) for lam, mu in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda job: mn_character(*job), jobs))
    assert threaded == serial
