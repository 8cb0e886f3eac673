import itertools
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
from rectchar import characters
from rectchar.characters import (
    _bead_character,
    _bead_move_ratio,
    _beads,
    _free_moves,
    _runs,
    _stack_beads,
    _strip_sweep,
    _tail_character,
    mn_character,
    normalized_character,
)
from rectchar.partitions import (
    as_partition,
    cells,
    content,
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


def _bead_moves(beads, size):
    """(result, height, bead) for each move of _free_moves, with the bead
    tuple it leaves."""
    return [
        (beads[:pos] + (b - size,) + beads[pos:i] + beads[i + 1 :], i - pos, b)
        for pos, i, b in _free_moves(beads, _runs(beads), size)
    ]


def test_strip_removals_against_brute_force():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for pad in (0, 1, 3):
                beads = _beads(lam + (0,) * pad)
                assert _rows(beads) == lam
                for size in range(1, n + 1):
                    moves = _bead_moves(beads, size)
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
    assert _free_moves(beads, _runs(beads), 3) == [(1, 2, 5)]
    assert _bead_moves(beads, 3) == [((1, 2, 4), 1, 5)]
    # an empty row is the bead 0 and stays in the tuple
    assert _runs((0, 3)) == [(0, 0, 0), (3, 3, 1)]
    assert _bead_moves((0, 3), 2) == [((0, 1), 0, 3)]


def test_stack_beads_are_the_beads_of_its_rows():
    # blocks with no rows or no columns add nothing
    for ps in itertools.product(range(3), repeat=3):
        for qs in ((5, 3, 1), (4, 2, 0), (3, 2, 1), (0, 0, 0)):
            rows = tuple(q for p, q in zip(ps, qs) if q for _ in range(p))
            assert _stack_beads(ps, qs) == _beads(rows), (ps, qs)


def test_bead_move_ratio_is_the_hook_product_ratio():
    for n in range(1, 13):
        for lam in partitions_of(n):
            for pad in (0, 2):
                beads = _beads(lam + (0,) * pad)
                runs = _runs(beads)
                for size in range(1, n + 1):
                    for result, _, bead in _bead_moves(beads, size):
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


def test_transposition_is_the_content_sum():
    # the class sum of the transpositions acts on V^lam by the content sum
    for n in range(2, 11):
        for lam in partitions_of(n):
            expected = 2 * sum(content(c) for c in cells(lam))
            assert normalized_character(lam, (2,)) == expected, lam


def test_types_ending_in_two_match_the_oracle():
    # a last part of 2 is read off each parent's content sum, at every depth
    for mu in ((2,), (2, 2), (3, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2)):
        for n in range(sum(mu), 11):
            for lam in partitions_of(n):
                assert normalized_character(lam, mu) == reference_normalized_character(
                    lam, mu
                ), (lam, mu)


def test_two_first_is_swept_like_any_part():
    # (2, 3) ends in 3, so its 2 is an inner level and its 3 the last one
    for nu in ((2, 3), (2, 3, 1), (2, 1, 2), (1, 2), (2, 4, 2), (3, 2, 3)):
        for lam in partitions_of(sum(nu)):
            assert mn_character(lam, nu) == reference_mn_character(lam, nu), (lam, nu)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(characters, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(characters, name, counted)
    return calls


def test_last_level_is_not_expanded(monkeypatch):
    ratios = _count_calls(monkeypatch, "_bead_move_ratio")
    merges = _count_calls(monkeypatch, "_merged_level")
    lam = (5, 4, 4, 2, 1)
    # a tail of (2), (3), (4) or (2, 2) is read off lam's content power sums:
    # no strip is enumerated
    for tau in ((2,), (3,), (4,), (2, 2)):
        assert normalized_character(lam, tau) == reference_normalized_character(lam, tau)
        assert ratios == [] and merges == [], tau
    # a last part of 5 is swept: the single parent adds each strip's ratio
    # with no child bead tuple built
    assert normalized_character(lam, (5,)) == reference_normalized_character(lam, (5,))
    assert len(ratios) == len(_bead_moves(_beads(lam), 5)) > 0 and merges == []
    # two levels: the first is merged, the tail (2) is summed in place, so
    # the only ratios are those of the first level's strips
    del ratios[:]
    assert normalized_character(lam, (3, 2)) == reference_normalized_character(lam, (3, 2))
    assert len(merges) == 1
    assert len(ratios) == len(_bead_moves(_beads(lam), 3))


def _expanded_tail(beads, tau):
    """Ch_tau of the shape of beads by the strips removed level by level,
    each path carrying its bead-move ratios."""
    level = {beads: [1, 1, 1]}
    for part in tau:
        level = characters._merged_level(level, part)
    return sum(Fraction(count * num, den) for count, num, den in level.values())


def test_tails_match_the_expanded_sweep():
    # every shape of up to 12 cells, padded with up to two empty rows; below
    # |tau| cells the value is 0
    for n in range(13):
        for lam in partitions_of(n):
            for pad in (0, 1, 2) if lam else (1, 2):
                beads = _beads(lam + (0,) * pad)
                for tau in ((2,), (3,), (4,), (2, 2)):
                    value = _tail_character(beads, tau)
                    assert type(value) is int
                    assert value == _expanded_tail(beads, tau), (lam, pad, tau)
                    if n < sum(tau):
                        assert value == 0, (lam, pad, tau)


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


def test_normalized_character_is_an_int():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for k in range(1, n + 1):
                for mu in partitions_of(k):
                    assert type(normalized_character(lam, mu)) is int, (lam, mu)


def test_non_integral_normalized_character_raises(monkeypatch):
    # a sweep whose sum 1/2 does not divide: the value is an error, never a
    # Fraction; the kernel hands the sweep lam's bead tuple.  (3, 2) still
    # expands its first level, so it reaches the sweep and the remainder check
    sweeps = []

    def half(beads, parts):
        sweeps.append((beads, parts))
        return [[1, 1, 2]]

    monkeypatch.setattr(characters, "_strip_sweep", half)
    with pytest.raises(ArithmeticError, match="non-integral: 1/2$"):
        normalized_character((3, 2), (3, 2))
    assert sweeps == [((2, 4), (3, 2))]


def test_closed_form_prefixes_skip_the_sweep():
    # an empty prefix or a closed-form tail is read at once; it must equal
    # the value summed from the sweep's entries, for every k it allows
    for n in range(13):
        for lam in partitions_of(n):
            for pad in (0, 1, 2) if lam else (1, 2):
                beads = _beads(lam + (0,) * pad)
                for swept in ((), (2,), (3,), (4,), (2, 2)):
                    # the empty prefix sums to 1: (n)_k is the character at 1^k
                    entries = _strip_sweep(beads, swept) if swept else [[1, 1, 1]]
                    total = sum(Fraction(c * h, d) for c, h, d in entries)
                    for k in range(sum(swept), n + 1):
                        value = _bead_character(beads, swept, k)
                        assert type(value) is int
                        expected = total * math.perm(n - sum(swept), k - sum(swept))
                        assert value == expected, (lam, pad, swept, k)


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
