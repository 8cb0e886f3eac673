import itertools
import math

from hypothesis import given, strategies as st

from oracles import centralizer_order, compose, cycle_type, inverse
from rectchar.partitions import partitions_of
from rectchar.permutations import canonical_permutation

small_perms = st.integers(1, 6).flatmap(
    lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
)


def test_compose_convention():
    # (u*v)(i) = u(v(i)): transposition after a 3-cycle
    u = (2, 1, 3)  # (1 2)
    v = (2, 3, 1)  # (1 2 3)
    assert compose(u, v) == (1, 3, 2)  # (2 3)


@given(small_perms)
def test_inverse_round_trip(w):
    identity = tuple(range(1, len(w) + 1))
    assert compose(w, inverse(w)) == identity
    assert compose(inverse(w), w) == identity


@given(small_perms, small_perms.filter(lambda w: len(w) <= 5))
def test_compose_associative(u, w):
    if len(u) != len(w):
        return
    v = inverse(w)
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_canonical_permutation_round_trip():
    for k in range(1, 7):
        for mu in partitions_of(k):
            w = canonical_permutation(mu)
            assert cycle_type(w) == mu


def test_class_size_times_centralizer_is_factorial():
    # each class size k!/z_mu is an integer, and the classes fill S_k
    for k in range(1, 8):
        sizes = []
        for mu in partitions_of(k):
            size, rest = divmod(math.factorial(k), centralizer_order(mu))
            assert rest == 0
            sizes.append(size)
        assert sum(sizes) == math.factorial(k)


def test_class_sizes_partition_the_group():
    for k in range(1, 7):
        by_type = {}
        for w in itertools.permutations(range(1, k + 1)):
            by_type[cycle_type(w)] = by_type.get(cycle_type(w), 0) + 1
        for mu, count in by_type.items():
            assert math.factorial(k) // centralizer_order(mu) == count
