"""Two-factor permutation enumeration behind the rectangular character formula.

The central object: for a cycle type mu of k, sum (-1)^k p^cycles(u) (-q)^cycles(v)
over all k! pairs with u v = w_mu.  The result is a polynomial in (p, q) that
evaluates to the normalized character of any p-by-q box at (mu, 1-tail).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _permutations

from .characters import mn_character, normalized_character
from .partitions import (
    Partition,
    _partition_cache,
    as_partition,
    hook_product,
    partitions_of,
    rectangle,
)
from .permutations import Permutation, canonical_permutation
from .polynomials import MultivarPoly
from .schur import schur_principal

#: largest k whose k! pairs are enumerated; k! grows fast enough that
#: anything beyond this is a caller mistake rather than a workload
_ENUMERATION_CAP = 10


def _pair_cycle_counts(w: Permutation) -> list[list[int]]:
    """counts[a][b] = number of u with u v = w, cycles(u) = a, cycles(v) = b."""
    k = len(w)
    if k > _ENUMERATION_CAP:
        raise ValueError(f"k={k} exceeds enumeration cap {_ENUMERATION_CAP}")
    w0 = tuple(x - 1 for x in w)
    counts = [[0] * (k + 1) for _ in range(k + 1)]
    rng = range(k)
    for u in _permutations(rng):
        inv = [0] * k
        for i in rng:
            inv[u[i]] = i
        v = [inv[w0[i]] for i in rng]
        # cycles(u) = cycles(inv); walk both with bitmask visited sets
        seen = 0
        a = 0
        for i in rng:
            if not (seen >> i) & 1:
                a += 1
                j = i
                while not (seen >> j) & 1:
                    seen |= 1 << j
                    j = inv[j]
        seen = 0
        b = 0
        for i in rng:
            if not (seen >> i) & 1:
                b += 1
                j = i
                while not (seen >> j) & 1:
                    seen |= 1 << j
                    j = v[j]
        counts[a][b] += 1
    return counts


def factorization_poly_for(w: Permutation) -> MultivarPoly:
    """The pair-sum polynomial in (p, q) for an explicit representative w."""
    k = len(w)
    counts = _pair_cycle_counts(w)
    terms: dict[tuple[int, ...], int] = {}
    for a in range(k + 1):
        row = counts[a]
        for b in range(k + 1):
            if row[b]:
                sign = -1 if (k + b) % 2 else 1
                terms[(a, b)] = sign * row[b]
    return MultivarPoly(2, terms)


@_partition_cache
def factorization_poly(mu: Partition) -> MultivarPoly:
    """Sum of (-1)^k p^cycles(u) (-q)^cycles(v) over pairs u v = w_mu."""
    mu = as_partition(mu)
    return factorization_poly_for(canonical_permutation(mu))


def theorem1_check(p: int, q: int, mu: Partition) -> bool:
    """Normalized box character equals the pair-sum polynomial at (p, q)."""
    mu = as_partition(mu)
    if sum(mu) > p * q:
        raise ValueError(f"|mu| = {sum(mu)} exceeds box size {p * q}")
    lhs = normalized_character(rectangle(p, q), mu)
    rhs = factorization_poly(mu).evaluate((p, q))
    return lhs == rhs


def sss_identity_check(k: int, p: int, q: int, mu: Partition) -> bool:
    """Shape-sum route equals the pair-sum route.

    Left side: (-1)^k sum over lam of k of hook_product(lam)
    * schur_principal(lam, p) * schur_principal(lam, -q) * chi^lam(mu).
    Right side: factorization_poly(mu) at (p, q).
    """
    mu = as_partition(mu)
    if sum(mu) != k:
        raise ValueError(f"mu = {mu} is not a partition of {k}")
    sign = -1 if k % 2 else 1
    lhs = sign * sum(
        Fraction(hook_product(lam))
        * schur_principal(lam, p)
        * schur_principal(lam, -q)
        * mn_character(lam, mu)
        for lam in partitions_of(k)
    )
    rhs = factorization_poly(mu).evaluate((p, q))
    return lhs == rhs


def catalan_pair_count(k: int) -> int:
    """Pairs u v = (1 2 ... k) whose cycle counts sum to k + 1."""
    counts = _pair_cycle_counts(canonical_permutation((k,)))
    return sum(
        counts[a][b]
        for a in range(k + 1)
        for b in range(k + 1)
        if a + b == k + 1
    )


def narayana_refinement(k: int) -> dict[int, int]:
    """For each i, pairs u v = (1 2 ... k) with cycles(u) = i, cycles(v) = k+1-i."""
    counts = _pair_cycle_counts(canonical_permutation((k,)))
    out: dict[int, int] = {}
    for i in range(1, k + 1):
        c = counts[i][k + 1 - i]
        if c:
            out[i] = c
    return out
