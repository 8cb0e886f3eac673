"""Irreducible symmetric group characters via border-strip removal.

mn_character evaluates one character in two sweeps over the parts of the
evaluation type, in the order given.  The down sweep removes border strips of
each part's length from every shape reached so far, level by level, and
stops at the trailing run of fixed points.  The up sweep gives each bottom
shape its standard-tableaux count, which turns a long 1-tail into a single
hook-formula call, then sums signed strip removals back up to the top shape.
Each distinct shape of a level is evaluated once per call; nothing is kept
between calls and no recursion depth grows with the input.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .partitions import (
    Partition,
    _complement,
    _hook_product,
    _integers,
    _syt_count,
    as_partition,
    partitions_of,
    rectangle,
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

    Beta-number formulation: with r rows, the set B = {lam_i + r - 1 - i}
    encodes lam; removing a size-s strip is moving one element b = B_i down to
    b - s, allowed when b - s is nonnegative and not already in B.  The strip
    height is the number of elements B_{i+1..j} strictly between b - s and b.
    In the result, rows i+1..j each lose one cell and move up one row, row j
    becomes b - s - (r - 1 - j), and rows left empty at the bottom are cut off.
    """
    lam = as_partition(lam)
    if size <= 0:
        raise ValueError("strip size must be positive")
    return [
        BorderStripRemoval(lam, size, result, height)
        for result, height in _strips(lam, size)
    ]


def _strips(lam: Partition, size: int) -> list[tuple[Partition, int]]:
    """(result, height) of each border strip removal, for a trusted lam and
    a positive size."""
    r = len(lam)
    betas = [lam[i] + r - 1 - i for i in range(r)]
    beta_set = set(betas)
    out: list[tuple[Partition, int]] = []
    for i, b in enumerate(betas):
        nb = b - size
        if nb < 0 or nb in beta_set:
            continue
        j = i
        while j + 1 < r and betas[j + 1] > nb:
            j += 1
        rows = (
            lam[:i]
            + tuple(x - 1 for x in lam[i + 1 : j + 1])
            + (nb - (r - 1 - j),)
            + lam[j + 1 :]
        )
        end = len(rows)
        while end and not rows[end - 1]:
            end -= 1
        out.append((rows[:end], j - i))
    return out


def mn_character(lam: Partition, nu: Sequence[int]) -> int:
    """Character value of shape lam at a permutation of cycle type nu.

    nu may be given in any order (the result does not depend on it); parts
    are consumed left to right.
    """
    lam = as_partition(lam)
    nu = _integers(nu)
    if any(x <= 0 for x in nu):
        raise ValueError(f"cycle lengths must be positive: {nu}")
    if sum(nu) != sum(lam):
        raise ValueError(f"type {nu} does not have size |{lam}| = {sum(lam)}")
    return _mn_character(lam, nu)


def _mn_character(lam: Partition, nu: tuple[int, ...]) -> int:
    """mn_character for a trusted lam and positive parts nu of size |lam|."""
    depth = len(nu)
    while depth and nu[depth - 1] == 1:
        depth -= 1
    # down: levels[j] maps each shape left after j parts to its removals
    levels = []
    shapes = {lam}
    for part in nu[:depth]:
        removals = {shape: _strips(shape, part) for shape in shapes}
        levels.append(removals)
        shapes = {result for strips in removals.values() for result, _ in strips}
    # up: only fixed points remain below the last level
    values = {shape: _syt_count(shape) for shape in shapes}
    for removals in reversed(levels):
        values = {
            shape: sum(
                -values[result] if height % 2 else values[result]
                for result, height in strips
            )
            for shape, strips in removals.items()
        }
    return values[lam]


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
    chi = _mn_character(lam, mu + (1,) * (n - k))
    value = Fraction(math.perm(n, k) * chi, _syt_count(lam))
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
        _mn_character(lam, mu) * _syt_count(_complement(lam, p, q))
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
        Fraction(_mn_character(lam, mu), _hook_product(_complement(lam, p, q)))
        for lam in partitions_of(k, max_part=q, max_parts=p)
    )
    value = _hook_product(rectangle(p, q)) * total
    return int(value) if value.denominator == 1 else value
