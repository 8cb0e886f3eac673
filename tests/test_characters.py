import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_strip_removals,
    centralizer_order,
    character_by_power_sums,
    rect_character_sum,
    rect_normalized_via_hooks,
    reference_mn_character,
    reference_normalized_character,
)
from rectchar.characters import (
    _bead_move_ratio,
    _bead_moves,
    _beads,
    _runs,
    mn_character,
    normalized_character,
)
from rectchar.partitions import (
    as_partition,
    hook_product,
    partitions_of,
    rectangle,
    syt_count,
)


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


def _rows(beads):
    """The shape an ascending bead tuple stands for, empty rows cut off."""
    return as_partition(b - i for i, b in reversed(list(enumerate(beads))))


def test_strip_removals_against_brute_force():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for pad in (0, 1, 3):
                beads = _beads(lam + (0,) * pad)
                assert _rows(beads) == lam
                for size in range(1, n + 1):
                    moves = _bead_moves(beads, _runs(beads), size)
                    for result, _, bead in moves:
                        assert len(result) == len(beads)
                        assert list(result) == sorted(set(result))
                        assert set(beads) - set(result) == {bead}
                    actual = {(_rows(result), height) for result, height, _ in moves}
                    assert len(actual) == len(moves)
                    assert actual == brute_strip_removals(lam, size), (lam, pad, size)


def test_strip_removal_fields():
    # beads of (3,3,1) are 1, 4, 5: only 5 can move down by 3, past bead 4
    beads = _beads((3, 3, 1))
    assert beads == (1, 4, 5)
    assert _runs(beads) == [(1, 1, 0), (4, 5, 1)]
    assert _bead_moves(beads, _runs(beads), 3) == [((1, 2, 4), 1, 5)]
    # an empty row is the bead 0 and stays in the tuple
    assert _bead_moves((0, 3), [(0, 0, 0), (3, 3, 1)], 2) == [((0, 1), 0, 3)]


def test_bead_move_ratio_is_the_hook_product_ratio():
    for n in range(1, 13):
        for lam in partitions_of(n):
            for pad in (0, 2):
                beads = _beads(lam + (0,) * pad)
                runs = _runs(beads)
                for size in range(1, n + 1):
                    for result, _, bead in _bead_moves(beads, runs, size):
                        ratio = Fraction(*_bead_move_ratio(runs, bead, size))
                        expected = Fraction(hook_product(lam), hook_product(_rows(result)))
                        assert ratio == expected, (lam, pad, size, bead)


def test_sweep_matches_the_f_based_route():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu in partitions_of(k):
                    typ = mu + (1,) * (n - k)
                    assert mn_character(lam, typ) == reference_mn_character(lam, typ)
                    value = normalized_character(lam, mu)
                    expected = reference_normalized_character(lam, mu)
                    assert (type(value), value) == (type(expected), expected)


def test_tall_shape_sweep_stays_fast():
    # one ratio per strip, each costing a few factors per run of consecutive beads
    start = time.monotonic()
    value = normalized_character((1,) * 2000, (2,) * 1000)
    assert time.monotonic() - start <= 1.0
    assert value == math.factorial(2000)


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
