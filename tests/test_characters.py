import itertools
import math
import operator
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
    _bead_move_ratio,
    _block_sums,
    _blocks,
    _free_moves,
    _runs,
    _stack_beads,
    _stack_character,
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


def _beads(rows):
    """The bead tuple of rows, ascending: rows[i] + r - 1 - i over its r rows,
    empty rows included."""
    return tuple(part + i for i, part in enumerate(reversed(rows)))


def _rows(beads):
    """The shape an ascending bead tuple stands for, empty rows cut off."""
    return as_partition(b - i for i, b in reversed(list(enumerate(beads))))


def _swept(beads, swept, k):
    """The normalized character of the shape of beads at the swept prefix
    and k = |mu|, summed from the level _strip_sweep leaves after every
    swept part, tail included: the expanded bead route."""
    n = sum(beads) - len(beads) * (len(beads) - 1) // 2
    level = _strip_sweep(beads, swept, None)
    total = sum(Fraction(c * h, d) for c, h, d, _ in level.values())
    return total * math.perm(n - sum(swept), k - sum(swept))


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


def test_a_partition_is_the_stack_of_its_runs():
    # runs of equal parts, top first, with strictly decreasing widths
    assert _blocks(()) == ((), ())
    assert _blocks((3, 3, 1)) == ((2, 1), (3, 1))
    assert _blocks((1,) * 5) == ((5,), (1,))
    for n in range(13):
        for lam in partitions_of(n):
            ps, qs = _blocks(lam)
            assert tuple(q for p, q in zip(ps, qs) for _ in range(p)) == lam
            assert all(ps) and all(qs) and all(a > b for a, b in zip(qs, qs[1:]))
            assert _stack_beads(ps, qs) == _beads(lam), lam


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
    # every shape enters the kernel's one entry as its blocks, at every mu
    # with trailing 1s or without
    for n in range(1, 11):
        for lam in partitions_of(n):
            blocks = _blocks(lam)
            for k in range(n + 1):
                for mu in partitions_of(k):
                    typ = mu + (1,) * (n - k)
                    assert mn_character(lam, typ) == reference_mn_character(lam, typ)
                    value = normalized_character(lam, mu)
                    expected = reference_normalized_character(lam, mu)
                    assert (type(value), value) == (type(expected), expected)
                    assert [value] == _stack_character(mu, [blocks])


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
    # a last part of 5 is swept and merged like every other level: the
    # strips of one parent leave distinct shapes, so each takes one ratio
    assert normalized_character(lam, (5,)) == reference_normalized_character(lam, (5,))
    assert len(merges) == 1
    assert len(ratios) == len(_bead_moves(_beads(lam), 5)) > 0
    # two levels: the first is merged, the tail (2) is summed in place, so
    # the only ratios are those of the first level's strips
    del ratios[:], merges[:]
    assert normalized_character(lam, (3, 2)) == reference_normalized_character(lam, (3, 2))
    assert len(merges) == 1
    assert len(ratios) == len(_bead_moves(_beads(lam), 3))


def test_last_parts_of_five_or_more_match_the_oracle():
    # a last part of 5 or more is swept and merged; with two such parts the
    # last level merges the strips of several parents
    for mu in ((5,), (6,), (5, 5), (6, 5), (5, 5, 1)):
        for n in range(max(10, sum(mu)), 15):
            for lam in partitions_of(n):
                assert normalized_character(lam, mu) == reference_normalized_character(
                    lam, mu
                ), (lam, mu)


def _expanded_tail(beads, tau):
    """Ch_tau of the shape of beads by the strips removed level by level,
    each path carrying its bead-move ratios."""
    level = {beads: [1, 1, 1, None]}
    for part in tau:
        level = characters._merged_level(level, part)
    return sum(Fraction(count * num, den) for count, num, den, _ in level.values())


def test_tails_match_the_expanded_sweep():
    # every shape of up to 12 cells, padded with up to two empty rows; below
    # |tau| cells the value is 0
    for n in range(13):
        for lam in partitions_of(n):
            for pad in (0, 1, 2) if lam else (1, 2):
                beads = _beads(lam + (0,) * pad)
                for tau in ((2,), (3,), (4,), (2, 2)):
                    value = _tail_character(_bead_content_sums(beads), tau)
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
    # a sweep whose sum 2/4 does not divide: the value is an error, never a
    # Fraction; the kernel hands the sweep lam's bead tuple and content sums.
    # (3, 2) still expands its first level, so it reaches the sweep and the
    # remainder check; the tail (2) weights the shape (2) of beads (0, 3),
    # whose sums the level carries, by 2
    sweeps = []

    def quarter(beads, parts, sums):
        sweeps.append((beads, parts, sums))
        return {(0, 3): [1, 1, 4, _bead_content_sums((0, 3))[2:]]}

    monkeypatch.setattr(characters, "_strip_sweep", quarter)
    with pytest.raises(ArithmeticError, match="non-integral: 2/4$"):
        normalized_character((3, 2), (3, 2))
    assert sweeps == [((2, 4), (3,), _bead_content_sums((2, 4))[2:])]


def test_closed_form_prefixes_skip_the_sweep():
    # an empty prefix or a closed-form tail is read at once; it must equal
    # the value summed from the sweep's entries, for every k it allows
    for n in range(13):
        for lam in partitions_of(n):
            for pad in (0, 1, 2) if lam else (1, 2):
                beads = _beads(lam + (0,) * pad)
                for swept in ((), (2,), (3,), (4,), (2, 2)):
                    # the empty prefix sums to 1: (n)_k is the character at 1^k
                    for k in range(sum(swept), n + 1):
                        mu = swept + (1,) * (k - sum(swept))
                        [value] = _stack_character(mu, [_blocks(lam)])
                        assert type(value) is int
                        assert value == _swept(beads, swept, k), (lam, pad, swept, k)


def _stacks(m, p_max, q_max):
    """Every stack of m blocks of 0..p_max rows, widths strictly decreasing
    from at most q_max down to at least 0, as (ps, qs)."""
    for ps in itertools.product(range(p_max + 1), repeat=m):
        for qs in itertools.combinations(range(q_max, -1, -1), m):
            yield ps, qs


def _bead_content_sums(beads):
    """The five content sums of _block_sums summed bead by bead: r, n, and
    sum t, sum t(2x + 1), sum t^2 with t = x(x + 1) over x = b - r."""
    r = len(beads)
    xs = [b - r for b in beads]
    ts = [x * (x + 1) for x in xs]
    n = sum(beads) - r * (r - 1) // 2
    return r, n, sum(ts), sum(t * (2 * x + 1) for t, x in zip(ts, xs)), sum(t * t for t in ts)


def test_block_sums_are_the_bead_sums():
    # empty blocks included; the Faulhaber differences are polynomial
    # identities, so the widths below the rows above them need no case.
    # The sums carried down the sweep from the stack's are, at every shape
    # reached, those summed bead by bead.
    # Four blocks of up to 5 rows and widths up to 12 are 926,640 stacks, so
    # past 3 rows and width 8 they are sampled
    rng = random.Random(5)
    sampled = [
        (
            tuple(rng.randint(0, 5) for _ in range(4)),
            tuple(sorted(rng.sample(range(13), 4), reverse=True)),
        )
        for _ in range(4000)
    ]
    every = ((1, 5, 12), (2, 5, 12), (3, 5, 12), (4, 3, 8))
    for ps, qs in itertools.chain(*itertools.starmap(_stacks, every), sampled):
        beads = _stack_beads(ps, qs)
        expected = _bead_content_sums(beads)
        assert _block_sums(ps, qs) == expected, (ps, qs)
        if not any(p and q for p, q in zip(ps, qs)):
            assert beads == (), (ps, qs)
    # heads of one and two levels over the first thousand sampled stacks;
    # the sweep empties rows, which stay as low beads
    for ps, qs in sampled[:1000]:
        beads = _stack_beads(ps, qs)
        for head in ((1,), (2,), (3,), (5,), (3, 2), (2, 3), (1, 4)) if beads else ():
            level = _strip_sweep(beads, head, _block_sums(ps, qs)[2:])
            for nu, (*_, sums) in level.items():
                assert sums == _bead_content_sums(nu)[2:], (ps, qs, head, nu)


def test_block_reads_match_the_bead_route():
    for m, p_max, q_max in ((1, 5, 12), (2, 5, 12), (3, 2, 6), (4, 2, 6)):
        for ps, qs in _stacks(m, p_max, q_max):
            beads = _stack_beads(ps, qs)
            n = sum(map(operator.mul, ps, qs))
            for swept in ((), (2,), (3,), (4,), (2, 2)):
                k1 = sum(swept)
                for k in {k1, k1 + 1, n}:
                    if k1 <= k <= n:
                        [value] = _stack_character(swept + (1,) * (k - k1), [(ps, qs)])
                        assert type(value) is int
                        assert value == _swept(beads, swept, k), (ps, qs, swept, k)


def test_block_reads_match_the_reference():
    # random stacks of up to 10 cells, at every mu below: the closed-form
    # prefixes and heads swept over each tail, with trailing 1s up to every k
    # the prefix allows.  The stacks go in as one batch and as one-stack
    # batches, and an empty batch reads nothing
    rng = random.Random(3)
    stacks = []
    while len(stacks) < 40:
        m = rng.randint(1, 4)
        ps = tuple(rng.randint(0, 3) for _ in range(m))
        qs = tuple(sorted(rng.sample(range(7), m), reverse=True))
        rows = tuple(q for p, q in zip(ps, qs) for _ in range(p) if q)
        if sum(rows) <= 10:
            stacks.append((ps, qs, rows))
    tails = ((), (2,), (3,), (4,), (2, 2))
    swept = tails + tuple(head + tail for head in ((1,), (3,), (5,), (2, 3)) for tail in tails)
    for prefix in swept:
        for k in range(sum(prefix), 11):
            mu = prefix + (1,) * (k - sum(prefix))
            batch = [(ps, qs) for ps, qs, rows in stacks if sum(rows) >= k]
            expected = [
                reference_normalized_character(rows, mu)
                for _, _, rows in stacks
                if sum(rows) >= k
            ]
            assert _stack_character(mu, batch) == expected, mu
            assert [_stack_character(mu, [stack])[0] for stack in batch] == expected, mu
            assert _stack_character(mu, []) == [], mu


def test_other_prefixes_read_the_stack_beads(monkeypatch):
    # a prefix that is not a closed-form tail, such as (3, 2), has its head
    # (3) swept on the stack's beads, carrying its content sums to weight
    # by the tail (2); a tail is not swept
    calls = _count_calls(monkeypatch, "_strip_sweep")
    ps, qs = (2, 0, 3), (6, 4, 2)
    value = characters._stack_character((3, 2, 1, 1), [(ps, qs)])
    assert calls == [(_stack_beads(ps, qs), (3,), _block_sums(ps, qs)[2:])]
    assert value == [normalized_character((6, 6, 2, 2, 2), (3, 2, 1, 1))]
    calls.clear()
    # no tail below the head: nothing is carried
    characters._stack_character((5, 1, 1), [(ps, qs)])
    assert calls == [(_stack_beads(ps, qs), (5,), None)]
    calls.clear()
    for swept in ((), (2,), (3,), (4,), (2, 2)):
        characters._stack_character(swept + (1,) * (7 - sum(swept)), [(ps, qs)])
    assert calls == []
    # a batch sweeps each of its stacks at the one head
    stacks = [(ps, qs), ((1, 2), (4, 3)), ((3,), (3,))]
    values = characters._stack_character((3, 2), stacks)
    assert [beads for beads, _, _ in calls] == [_stack_beads(*stack) for stack in stacks]
    shapes = ((6, 6, 2, 2, 2), (4, 3, 3), (3, 3, 3))
    assert values == [normalized_character(lam, (3, 2)) for lam in shapes]


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
