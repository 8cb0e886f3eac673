import math
import random
import sys
from fractions import Fraction

import pytest

from oracles import (
    CATALAN,
    NARAYANA_ROWS,
    brute_pair_sum,
    compose,
    cycle_type,
    inverse,
    itertools_pair_counts,
)
from rectchar.factorization import (
    _ENUMERATION_CAP,
    _heap_schedule,
    _pair_cycle_counts,
    catalan_pair_count,
    factorization_poly,
    narayana_refinement,
    sss_identity_check,
    theorem1_check,
)
from rectchar.characters import normalized_character
from rectchar.partitions import partitions_of, rectangle
from rectchar.permutations import canonical_permutation
from rectchar.polynomials import MultivarPoly


def test_known_polynomials():
    pq = MultivarPoly(2, {(1, 1): 1})
    assert factorization_poly((1,)) == pq
    assert factorization_poly((2,)) == MultivarPoly(2, {(2, 1): -1, (1, 2): 1})
    assert factorization_poly((3,)) == MultivarPoly(
        2, {(3, 1): 1, (2, 2): -3, (1, 3): 1, (1, 1): 1}
    )


def test_pair_sum_against_brute_enumeration():
    # brute oracle scans all of S_k x S_k, so keep k small
    for k in range(1, 6):
        for mu in partitions_of(k):
            counts = brute_pair_sum(mu)
            expected_terms = {}
            for (a, b), count in counts.items():
                expected_terms[(a, b)] = (
                    expected_terms.get((a, b), 0) + (-1) ** (k + b) * count
                )
            assert factorization_poly(mu) == MultivarPoly(2, expected_terms), mu


def test_pair_counts_against_itertools_oracle():
    for k in range(8):
        for mu in partitions_of(k):
            w = canonical_permutation(mu)
            assert _pair_cycle_counts(w) == itertools_pair_counts(w), mu
    rng = random.Random(8)
    for mu in rng.sample(list(partitions_of(8)), 4):
        g = tuple(rng.sample(range(1, 9), 8))
        w = compose(compose(g, canonical_permutation(mu)), inverse(g))
        assert _pair_cycle_counts(w) == itertools_pair_counts(w), (mu, w)


def replay(k):
    """u after each step of the Heap schedule of k, from the identity, with
    the schedule's split bit and the cycle counts before and after the step
    recounted from scratch."""
    u = list(range(1, k + 1))
    for i, j, bit in zip(*_heap_schedule(k)):
        before = len(cycle_type(tuple(u)))
        u[i], u[j] = u[j], u[i]
        yield tuple(u), bit, len(cycle_type(tuple(u))) - before


def test_heap_schedule_visits_every_permutation_once():
    for k in range(8):
        seen = {tuple(range(1, k + 1))}
        steps = 0
        for u, _, _ in replay(k):
            seen.add(u)
            steps += 1
        assert steps == math.factorial(k) - 1, k
        assert len(seen) == math.factorial(k), k


def test_heap_schedule_bits_are_the_cycle_count_changes():
    for k in range(8):
        for step, (_, bit, change) in enumerate(replay(k)):
            assert change == (1 if bit else -1), (k, step)


def test_cold_schedules_in_any_order_match_the_oracle():
    # each mu of every k <= 7 in one shuffle, so a schedule reused for the
    # wrong k would show; the cache starts empty
    _heap_schedule.cache_clear()
    mus = [mu for k in range(8) for mu in partitions_of(k)]
    random.Random(25).shuffle(mus)
    for mu in mus:
        w = canonical_permutation(mu)
        assert _pair_cycle_counts(w) == itertools_pair_counts(w), mu


def test_heap_schedule_cache_is_bytes_and_one_key_per_k():
    _heap_schedule.cache_clear()
    for k in (3, 5, 3, 7, 5):
        for mu in partitions_of(k):
            _pair_cycle_counts(canonical_permutation(mu))
    assert _heap_schedule.cache_info().currsize == 3
    for k in (3, 5, 7):
        parts = _heap_schedule(k)
        assert [type(part) for part in parts] == [bytes] * 3
        assert {len(part) for part in parts} == {math.factorial(k) - 1}
    # a k above the cap is refused before any schedule is built
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        _pair_cycle_counts(tuple(range(1, _ENUMERATION_CAP + 2)))
    assert _heap_schedule.cache_info().currsize == 3
    # one key for each k = 0..8, however often each is asked for (k = 9
    # and 10 are left out for time)
    for k in list(range(_ENUMERATION_CAP - 1)) * 2:
        _pair_cycle_counts(tuple(range(1, k + 1)))
    assert _heap_schedule.cache_info().currsize == _ENUMERATION_CAP - 1


def test_pair_count_invariants():
    assert _pair_cycle_counts(()) == [[1]]
    assert _pair_cycle_counts((1,)) == [[0, 0], [0, 1]]
    for k in range(1, 9):
        for mu in partitions_of(k):
            ell = len(mu)
            counts = _pair_cycle_counts(canonical_permutation(mu))
            assert sum(map(sum, counts)) == math.factorial(k)
            assert counts[k][ell] == 1
            for a, row in enumerate(counts):
                for b, count in enumerate(row):
                    if (a + b - k - ell) % 2:
                        assert count == 0, (mu, a, b)


def test_representative_independence():
    rng = random.Random(7)
    for k in range(2, 7):
        for mu in partitions_of(k):
            w = canonical_permutation(mu)
            g = tuple(rng.sample(range(1, k + 1), k))
            conjugated = compose(compose(g, w), inverse(g))
            assert _pair_cycle_counts(conjugated) == _pair_cycle_counts(w), (mu, g)


def test_extreme_monomials():
    for k in range(1, 7):
        for mu in partitions_of(k):
            ell = len(mu)
            poly = factorization_poly(mu)
            assert poly.total_degree() == k + ell
            assert poly.coefficient((k, ell)) == (-1) ** (k + ell)
            assert poly.coefficient((ell, k)) == 1


def test_theorem_on_small_grid():
    for p in range(1, 4):
        for q in range(1, 4):
            for k in range(1, min(5, p * q) + 1):
                for mu in partitions_of(k):
                    assert theorem1_check(p, q, mu)


def test_theorem_single_evaluations():
    assert factorization_poly((2,)).evaluate((2, 2)) == 0
    assert factorization_poly((2,)).evaluate((3, 2)) == normalized_character(
        rectangle(3, 2), (2,)
    )


def test_a_box_is_read_as_one_block():
    # a column of 3 * 10^8 rows at a closed-form prefix is read off its one
    # block at once, never built as rows; the side p is refused past
    # sys.maxsize, as rectangle refuses it
    assert theorem1_check(3 * 10**8, 1, (2, 2))
    assert theorem1_check(sys.maxsize, 1, (2,))
    assert theorem1_check(sys.maxsize + 1, 0, ())
    with pytest.raises(ValueError, match="more rows than a tuple holds"):
        theorem1_check(sys.maxsize + 1, 1, (2,))
    with pytest.raises(ValueError, match="must be nonnegative"):
        theorem1_check(-1, -3, (2,))


def test_oversized_mu_rejected():
    with pytest.raises(ValueError):
        theorem1_check(2, 2, (5,))
    with pytest.raises(ValueError):
        sss_identity_check(3, 2, 2, (2,))  # mu does not sum to k


def test_sizes_must_be_integers():
    # a side of 2.5 reached Fraction, which raised TypeError
    with pytest.raises(ValueError, match="^sizes must be integers"):
        sss_identity_check(2, 2.5, 2, (2,))
    with pytest.raises(ValueError, match="^sizes must be integers"):
        sss_identity_check(2.0, 2, 2, (2,))
    # p * q with a string side repeated the string
    with pytest.raises(ValueError, match="^sizes must be integers"):
        theorem1_check(2, "2", (1,))
    # both sides are polynomials in p and q, so any integers are evaluated
    assert sss_identity_check(3, -2, 2**70, [2, 1])
    # a part equal to a cached integer key was once found under that key
    factorization_poly((2,))
    for mu in [(2.0,), (2, 1.0), [Fraction(2, 1)]]:
        with pytest.raises(ValueError, match="^parts must be integers"):
            factorization_poly(mu)
    with pytest.raises(ValueError, match="^sizes must be integers"):
        narayana_refinement(2.0)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        factorization_poly((11,))
    # the cap is checked before w_mu is built, so a huge k fails fast
    cap = "exceeds enumeration cap 10"
    with pytest.raises(ValueError, match=cap):
        factorization_poly((10**19,))
    with pytest.raises(ValueError, match=cap):
        narayana_refinement(10**19)


def test_sss_identity_small_grid():
    for k in range(1, 5):
        for mu in partitions_of(k):
            for p in range(1, 4):
                for q in range(1, 4):
                    assert sss_identity_check(k, p, q, mu)


def test_catalan_pair_counts():
    for k in range(1, 10):
        assert catalan_pair_count(k) == CATALAN[k]


def test_narayana_refinement_matches_table():
    for k, row in NARAYANA_ROWS.items():
        refinement = narayana_refinement(k)
        assert refinement == {i + 1: row[i] for i in range(k) if row[i]}
        assert sum(refinement.values()) == CATALAN[k]


def test_factorization_poly_takes_any_iterable():
    expected = factorization_poly((2, 1))
    size = factorization_poly.cache_info().currsize
    assert factorization_poly([2, 1]) == expected
    assert factorization_poly(part for part in (2, 1)) == expected
    # trailing zeros do not add cache keys
    assert factorization_poly((2, 1, 0, 0)) == expected
    assert factorization_poly.cache_info().currsize == size
