"""Irreducible symmetric group characters via border-strip removal.

The recursion peels one cycle length at a time off the evaluation type, in
the order given, and sums signed border-strip removals of that length.  When
only fixed points remain the value is the standard-tableaux count of the
remaining shape, which turns long 1-tails into a single hook-formula call.
Types that would recurse deeper than _CHI_DEPTH levels are evaluated bottom-up
in slices of that many levels, so no valid input overflows the stack.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .partitions import (
    Partition,
    as_partition,
    complement,
    hook_product,
    partitions_of,
    rectangle,
    syt_count,
)


@dataclass(frozen=True)
class BorderStripRemoval:
    """One way to strip a border strip (rim hook) off a partition."""

    source: Partition
    size: int
    result: Partition
    height: int  # rows spanned minus one


def border_strip_removals(lam: Partition, size: int) -> list[BorderStripRemoval]:
    """All removals of a connected border strip of the given size from lam.

    Beta-number formulation: with r rows, the set B = {lam_i + r - i} encodes
    lam; removing a size-s strip is moving one element b of B down to b - s,
    allowed when b - s is nonnegative and not already in B.  The strip height
    is the number of elements of B strictly between b - s and b.
    """
    lam = as_partition(lam)
    if size <= 0:
        raise ValueError("strip size must be positive")
    r = len(lam)
    betas = [lam[i] + r - 1 - i for i in range(r)]
    beta_set = set(betas)
    out: list[BorderStripRemoval] = []
    for b in betas:
        nb = b - size
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in betas if nb < x < b)
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        result = as_partition(new_betas[i] - (r - 1 - i) for i in range(r))
        out.append(BorderStripRemoval(lam, size, result, height))
    return out


#: most levels of _chi recursion one call may start; each level costs about
#: two interpreter frames, so this stays well inside the default limit of 1000
_CHI_DEPTH = 200


@cache
def _chi(lam: Partition, nu: tuple[int, ...]) -> int:
    if not lam:
        return 1
    # all remaining parts are fixed points: hook length formula finishes it
    if nu and nu[0] == 1 and len(set(nu)) == 1:
        return syt_count(lam)
    total = 0
    for removal in border_strip_removals(lam, nu[0]):
        term = _chi(removal.result, nu[1:])
        total += -term if removal.height % 2 else term
    return total


def _fill_chi_cache(lam: Partition, nu: tuple[int, ...], depth: int) -> None:
    """Evaluate _chi bottom-up at every _CHI_DEPTH-th level of the recursion
    from (lam, nu), so that each later call finds cached values at most
    _CHI_DEPTH levels down.  depth is the number of levels that recurse: the
    parts of nu before its trailing run of fixed points."""
    level = {lam}
    slices = []
    for j in range(depth):
        if j and j % _CHI_DEPTH == 0:
            slices.append((j, level))
        level = {
            removal.result
            for shape in level
            for removal in border_strip_removals(shape, nu[j])
        }
    for j, shapes in reversed(slices):
        for shape in shapes:
            _chi(shape, nu[j:])


def mn_character(lam: Partition, nu: Sequence[int]) -> int:
    """Character value of shape lam at a permutation of cycle type nu.

    nu may be given in any order (the result does not depend on it); parts
    are consumed left to right.
    """
    lam = as_partition(lam)
    nu = tuple(int(x) for x in nu)
    if any(x <= 0 for x in nu):
        raise ValueError(f"cycle lengths must be positive: {nu}")
    if sum(nu) != sum(lam):
        raise ValueError(f"type {nu} does not have size |{lam}| = {sum(lam)}")
    if len(nu) > _CHI_DEPTH:
        depth = len(nu)
        while depth and nu[depth - 1] == 1:
            depth -= 1
        if depth > _CHI_DEPTH:
            _fill_chi_cache(lam, nu, depth)
    return _chi(lam, nu)


def normalized_character(lam: Partition, mu: Partition) -> Fraction | int:
    """(n)_k * chi(mu padded with fixed points) / chi(identity), exact.

    lam has n squares, mu is the nontrivial part of the cycle type with
    |mu| = k <= n; the type used is (mu, 1^(n-k)).
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = sum(lam)
    k = sum(mu)
    if k > n:
        raise ValueError(f"|mu| = {k} exceeds |lam| = {n}")
    chi = mn_character(lam, mu + (1,) * (n - k))
    value = Fraction(math.perm(n, k) * chi, syt_count(lam))
    return int(value) if value.denominator == 1 else value


def rect_character_sum(p: int, q: int, mu: Partition) -> int:
    """Character of the p-by-q box at (mu, 1-tail), summed shape by shape.

    Peeling the nontrivial cycles first leaves some rotated lam in the box
    corner with weight chi(lam, mu); the fixed points then fill the box
    complement in syt_count(complement) ways.  Equals the direct evaluation
    mn_character(rectangle, (mu, 1^(pq-k))).
    """
    mu = as_partition(mu)
    k = sum(mu)
    if k > p * q:
        raise ValueError(f"|mu| = {k} exceeds box size {p * q}")
    return sum(
        mn_character(lam, mu) * syt_count(complement(lam, p, q))
        for lam in partitions_of(k, max_part=q, max_parts=p)
    )


def rect_normalized_via_hooks(p: int, q: int, mu: Partition) -> Fraction | int:
    """Normalized box character as a hook-product weighted shape sum.

    Same peeling as rect_character_sum, but normalized: the value equals
    hook_product(box) times the sum over shapes of chi(lam, mu) divided by
    hook_product(box complement of lam).
    """
    mu = as_partition(mu)
    k = sum(mu)
    if k > p * q:
        raise ValueError(f"|mu| = {k} exceeds box size {p * q}")
    total = sum(
        Fraction(mn_character(lam, mu), hook_product(complement(lam, p, q)))
        for lam in partitions_of(k, max_part=q, max_parts=p)
    )
    value = hook_product(rectangle(p, q)) * total
    return int(value) if value.denominator == 1 else value
