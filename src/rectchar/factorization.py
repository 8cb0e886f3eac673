"""Two-factor permutation enumeration behind the rectangular character formula.

The central object: for a cycle type mu of k, sum (-1)^k p^cycles(u) (-q)^cycles(v)
over all k! pairs with u v = w_mu.  The result is a polynomial in (p, q) that
evaluates to the normalized character of any p-by-q box at (mu, 1-tail).

The pairs are counted by enumerating every u in S_k in Heap's order, where
consecutive permutations differ by one transposition.  Right-multiplying a
permutation by a transposition (i j) splits a cycle (+1) when i and j lie on
the same cycle and merges two (-1) otherwise, so both cycle counts follow
along with one short walk each instead of a rebuild per permutation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps

from .characters import _mn_character, normalized_character
from .partitions import (
    Partition,
    _hook_product,
    as_partition,
    partitions_of,
    rectangle,
)
from .permutations import Permutation, canonical_permutation
from .polynomials import MultivarPoly
from .schur import _content_product

#: largest k whose k! pairs are enumerated; k! grows fast enough that
#: anything beyond this is a caller mistake rather than a workload
_ENUMERATION_CAP = 10


def _pair_cycle_counts(w: Permutation) -> list[list[int]]:
    """counts[a][b] = number of u with u v = w, cycles(u) = a, cycles(v) = b.

    Visits all k! permutations u in Heap's order, keeping u and
    x = w^-1 u (which has the cycle count of v = u^-1 w) as 0-based lists.
    Each Heap step swaps positions i and j of both, i.e. right-multiplies
    them by the transposition (i j); that changes a cycle count by +1 when
    i and j share a cycle (a split) and by -1 when they do not (a merge),
    decided by walking from i until the walk meets j or returns to i.
    """
    k = len(w)
    if k > _ENUMERATION_CAP:
        raise ValueError(f"k={k} exceeds enumeration cap {_ENUMERATION_CAP}")
    stride = k + 1
    u = list(range(k))
    x = [0] * k
    for i, image in enumerate(w):
        x[image - 1] = i
    b = 0
    seen = [False] * k
    for i in range(k):
        if not seen[i]:
            b += 1
            while not seen[i]:
                seen[i] = True
                i = x[i]
    # flat tally: cell a * stride + b counts pairs with cycles (a, b)
    tally = [0] * (stride * stride)
    idx = k * stride + b
    tally[idx] = 1
    level = [0] * k
    i = 1
    while i < k:
        c = level[i]
        if c < i:
            j = c if i & 1 else 0
            t = u[i]
            while t != j and t != i:
                t = u[t]
            idx += stride if t == j else -stride
            t = x[i]
            while t != j and t != i:
                t = x[t]
            idx += 1 if t == j else -1
            u[i], u[j] = u[j], u[i]
            x[i], x[j] = x[j], x[i]
            tally[idx] += 1
            level[i] = c + 1
            i = 1
        else:
            level[i] = 0
            i += 1
    return [tally[a * stride : (a + 1) * stride] for a in range(stride)]


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


def _partition_cache(fn):
    """lru_cache for factorization_poly, whose partition may be any iterable.

    A tuple without trailing zeros goes to the cache as given, the fast path
    for hot loops; anything else is normalized by as_partition first, so a
    list or a generator can be passed without being hashed, and padding with
    zeros adds no key.  The cache stays reachable as cache_info()
    and cache_clear() on the returned function.
    """
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def wrapper(lam):
        if type(lam) is not tuple or (lam and lam[-1] == 0):
            lam = as_partition(lam)
        return cached(lam)

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper


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
    * schur_principal(lam, p) * schur_principal(lam, -q) * chi^lam(mu).  With
    schur_principal(lam, a) = content_product(lam, a) / hook_product(lam), each
    term is summed as content_product(lam, p) * content_product(lam, -q)
    * chi^lam(mu) / hook_product(lam), one hook product per shape.
    Right side: factorization_poly(mu) at (p, q).
    """
    mu = as_partition(mu)
    if sum(mu) != k:
        raise ValueError(f"mu = {mu} is not a partition of {k}")
    sign = -1 if k % 2 else 1
    lhs = sign * sum(
        Fraction(
            _content_product(lam, p) * _content_product(lam, -q) * _mn_character(lam, mu),
            _hook_product(lam),
        )
        for lam in partitions_of(k)
    )
    rhs = factorization_poly(mu).evaluate((p, q))
    return lhs == rhs


def catalan_pair_count(k: int) -> int:
    """Pairs u v = (1 2 ... k) whose cycle counts sum to k + 1."""
    return sum(narayana_refinement(k).values())


def narayana_refinement(k: int) -> dict[int, int]:
    """For each i, pairs u v = (1 2 ... k) with cycles(u) = i, cycles(v) = k+1-i.

    Read off the cached pair-sum polynomial of the k-cycle: each count is the
    absolute value of its p^i q^(k+1-i) coefficient, whose sign is (-1)^(i+1).
    """
    poly = factorization_poly((k,))
    out: dict[int, int] = {}
    for i in range(1, k + 1):
        c = abs(poly.coefficient((i, k + 1 - i)))
        if c:
            out[i] = c
    return out
