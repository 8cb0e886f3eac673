"""Two-factor permutation enumeration behind the rectangular character formula.

The central object: for a cycle type mu of k, sum (-1)^k p^cycles(u) (-q)^cycles(v)
over all k! pairs with u v = w_mu.  The result is a polynomial in (p, q) that
evaluates to the normalized character of any p-by-q box at (mu, 1-tail).

The pairs are counted by enumerating every u in S_k in Heap's order, where
consecutive permutations differ by one transposition.  Right-multiplying a
permutation by a transposition (i j) splits a cycle (+1) when i and j lie on
the same cycle and merges two (-1) otherwise, so both cycle counts follow
along with one short walk each instead of a rebuild per permutation.  Which
positions each step swaps, and whether the swap splits or merges a cycle of
u, are the same for every mu of k: they are built once per k, as the Heap
schedule, and each mu replays it, walking only x = w^-1 u.

Each pair-sum check is written once: Theorem 1 at a box (_theorem1_sides,
behind theorem1_check and the CLI) and the shape sum (sss_identity_check,
in integers), both reading the cached enumerator _pair_sum after validation.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .characters import _blocks, _stack_character
from .partitions import (
    Partition,
    _box,
    _hook_product,
    _size,
    _syt_count,
    as_partition,
    partitions_of,
)
from .permutations import Permutation, canonical_permutation
from .polynomials import MultivarPoly
from .schur import _content_product

#: largest k whose k! pairs are enumerated; k! grows fast enough that
#: anything beyond this is a caller mistake rather than a workload
_ENUMERATION_CAP = 10


@lru_cache(maxsize=None)
def _heap_schedule(k: int) -> tuple[bytes, bytes, bytes]:
    """Heap's order on S_k as three byte strings of k! - 1 steps each: the
    positions i and j that each step swaps, and 1 where the swap splits a
    cycle of u (0 where it merges two), u starting at the identity.

    Heap's recursion, on positions 0..n-1, is P(n) = P(n-1), (n-1, j_0),
    P(n-1), ..., (n-1, j_(n-2)), P(n-1), with j_c = c when n - 1 is odd and 0
    otherwise, so the positions are byte joins; only the bits walk u.  Called
    with k up to the enumeration cap, so the cache holds at most one schedule
    per k, 3 bytes a step (about 11 MB at k = 10).
    """
    first = second = b""
    for i in range(1, k):
        # P(i + 1): i + 1 copies of P(i), split by the swaps (i, j_c)
        first = bytes([i]).join([first] * (i + 1))
        if i & 1:
            second = b"".join([second + bytes([c]) for c in range(i)]) + second
        else:
            second = b"\0".join([second] * (i + 1))
    u = list(range(k))
    bits = bytearray()
    add = bits.append
    for i, j in zip(first, second):
        t = u[i]
        while t != j and t != i:
            t = u[t]
        add(t == j)
        u[i], u[j] = u[j], u[i]
    return first, second, bytes(bits)


def _pair_cycle_counts(w: Permutation) -> list[list[int]]:
    """counts[a][b] = number of u with u v = w, cycles(u) = a, cycles(v) = b.

    Visits all k! permutations u in Heap's order by replaying the cached
    schedule of k, which gives each step's swap (i j) and whether it splits
    or merges a cycle of u.  Alongside, x = w^-1 u (which has the cycle
    count of v = u^-1 w) is kept as a 0-based list: each step swaps its
    positions i and j, i.e. right-multiplies it by (i j), which changes its
    cycle count by +1 when i and j share a cycle (a split) and by -1 when
    they do not (a merge), decided by walking from i until the walk meets j
    or returns to i.
    """
    k = len(w)
    if k > _ENUMERATION_CAP:
        raise ValueError(f"k={k} exceeds enumeration cap {_ENUMERATION_CAP}")
    stride = k + 1
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
    # flat tally: cell a * stride + b counts pairs with cycles (a, b); a step
    # moves the cell by +-1 for x (the walk picks split or merge) and by
    # +-stride for u (its bit picks the entry of either)
    tally = [0] * (stride * stride)
    idx = k * stride + b
    tally[idx] = 1
    merge = (-stride - 1, stride - 1)
    split = (-stride + 1, stride + 1)
    for i, j, u_splits in zip(*_heap_schedule(k)):
        t = x[i]
        while t != j and t != i:
            t = x[t]
        idx += split[u_splits] if t == j else merge[u_splits]
        x[i], x[j] = x[j], x[i]
        tally[idx] += 1
    return [tally[a * stride : (a + 1) * stride] for a in range(stride)]


@lru_cache(maxsize=None)
def _pair_sum(mu: Partition) -> MultivarPoly:
    """Sum of (-1)^k p^cycles(u) (-q)^cycles(v) over pairs u v = w_mu, for a
    validated mu; one entry per cycle type, since callers validate first."""
    k = sum(mu)
    if k > _ENUMERATION_CAP:  # before w_mu is built: k may be huge
        raise ValueError(f"k={k} exceeds enumeration cap {_ENUMERATION_CAP}")
    counts = _pair_cycle_counts(canonical_permutation(mu))
    terms: dict[tuple[int, ...], int] = {}
    for a in range(k + 1):
        row = counts[a]
        for b in range(k + 1):
            if row[b]:
                sign = -1 if (k + b) % 2 else 1
                terms[(a, b)] = sign * row[b]
    return MultivarPoly(2, terms)


def factorization_poly(mu: Partition) -> MultivarPoly:
    """Sum of (-1)^k p^cycles(u) (-q)^cycles(v) over pairs u v = w_mu, for
    any iterable mu: validated before the cache lookup, so padding zeros add
    no key and a part 2.0 is refused, not found under the key of 2."""
    return _pair_sum(as_partition(mu))


def _theorem1_sides(p: int, q: int, mu: Partition) -> tuple[int, int]:
    """(normalized character of the p-by-q box at mu, pair sum at (p, q)).
    The pair sum goes first, so the enumeration cap refuses mu before the box
    is read; the box goes to the character kernel as one block, not as rows."""
    p, q = _box(p, q)
    mu = as_partition(mu)
    k = sum(mu)
    if k > p * q:
        raise ValueError(f"|mu| = {k} exceeds |lam| = {p * q}")
    rhs = _pair_sum(mu).evaluate((p, q))
    return _stack_character(mu, [((p,), (q,))])[0], rhs


def theorem1_check(p: int, q: int, mu: Partition) -> bool:
    """Normalized box character equals the pair-sum polynomial at (p, q)."""
    lhs, rhs = _theorem1_sides(p, q, mu)
    return lhs == rhs


@lru_cache(maxsize=64)
def _character_table(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """(lam, chi^lam(mu) * f^lam) for every lam of |mu| where the character is
    nonzero, f^lam = |mu|!/H_lam, for a trusted mu; one table serves every
    box (p, q)."""
    shapes = list(partitions_of(sum(mu)))
    # at k = n the kernel reads chi^lam(mu) * H_lam, one batch for every lam
    values = _stack_character(mu, map(_blocks, shapes))
    rows = ((lam, value // _hook_product(lam)) for lam, value in zip(shapes, values))
    return tuple((lam, chi * _syt_count(lam)) for lam, chi in rows if chi)


def sss_identity_check(k: int, p: int, q: int, mu: Partition) -> bool:
    """Shape-sum route equals the pair-sum route.

    Left side: (-1)^k sum over lam of k of H_lam s_lam(1^p) s_lam(1^-q)
    chi^lam(mu), with the principal specialization
    s_lam(1^a) = content_product(lam, a) / H_lam (H the hook product).
    Right side: the pair sum of mu at (p, q).  Both are compared times k!, in
    integers: each term is content_product(lam, p) * content_product(lam, -q)
    * chi^lam(mu) * f^lam, over mu's cached character table.  Both sides are
    polynomials in p and q, so any integers may be given; the right side goes
    first, so the enumeration cap refuses mu before its table is built.
    """
    k, p, q = _size(k), _size(p), _size(q)
    mu = as_partition(mu)
    if sum(mu) != k:
        raise ValueError(f"mu = {mu} is not a partition of {k}")
    rhs = _pair_sum(mu).evaluate((p, q))
    sign = -1 if k % 2 else 1
    lhs = sign * sum(
        _content_product(lam, p) * _content_product(lam, -q) * chi_f
        for lam, chi_f in _character_table(mu)
    )
    return lhs == math.factorial(k) * rhs


def catalan_pair_count(k: int) -> int:
    """Pairs u v = (1 2 ... k) whose cycle counts sum to k + 1."""
    return sum(narayana_refinement(k).values())


def narayana_refinement(k: int) -> dict[int, int]:
    """For each i, pairs u v = (1 2 ... k) with cycles(u) = i, cycles(v) = k+1-i.

    Read off the cached pair-sum polynomial of the k-cycle: each count is the
    absolute value of its p^i q^(k+1-i) coefficient, whose sign is (-1)^(i+1).
    """
    k = _size(k)
    poly = factorization_poly((k,))
    out: dict[int, int] = {}
    for i in range(1, k + 1):
        c = abs(poly.coefficient((i, k + 1 - i)))
        if c:
            out[i] = c
    return out
