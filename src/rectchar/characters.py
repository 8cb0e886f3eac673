"""Irreducible symmetric group characters via border-strip removal.

One down sweep over the parts of the evaluation type, in the order given,
stopping at its trailing run of fixed points, computes the normalized
character.  Each level removes border strips of one part's length from every
shape reached so far and carries, per shape nu, the signed number of removal
paths c(nu) from the top shape lam, in integers; shapes whose count cancels
are dropped.  Each shape also carries H_lam / H_nu (H the hook product),
built from one exact ratio per strip: removing a strip moves one beta-number
bead, and the ratio is read off the runs of consecutive beads, one per block
of equal rows.  The fixed points left then contribute f^nu = (n - k')!/H_nu
each, k' being the size of the swept parts, so no bottom shape's hook
product is computed:

    (n)_k chi / f^lam = (n - k')_(k - k') * sum c(nu) H_lam/H_nu.

At k = n the left side is chi * H_lam, so the character itself is that value
divided by H_lam.  Nothing is kept between calls and no recursion depth
grows with the input.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import groupby

from .partitions import Partition, _hook_product, _integers, as_partition


def _strips(lam: Partition, size: int) -> list[tuple[Partition, int, int]]:
    """(result, height, bead) of each border strip removal, for a trusted lam
    and a positive size.  With r rows the beads B = {lam_i + r - 1 - i} encode
    lam; a size-s strip moves one bead b = B_i down to b - s, allowed when
    b - s is nonnegative and not in B.  The height (rows spanned minus one)
    counts the beads B_{i+1..j} between b - s and b: rows i+1..j each lose one
    cell and move up a row, row j becomes b - s - (r - 1 - j), and rows left
    empty at the bottom are cut off."""
    r = len(lam)
    betas = [lam[i] + r - 1 - i for i in range(r)]
    beta_set = set(betas)
    out: list[tuple[Partition, int, int]] = []
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
        out.append((rows[:end], j - i, b))
    return out


def _bead_move_ratio(lam: Partition, bead: int, size: int) -> tuple[int, int]:
    """(num, den), not reduced, with num/den = H_lam / H_result for the strip
    removal of lam that moves bead down by size.

    With one bead y = lam_i + r - 1 - i per row, H_lam = prod(y!) over
    prod(y - z) for beads y > z, so moving bead b to x = b - size gives
    H_before / H_after = b!/x! * prod over y != b of |x - y| / |b - y|.  A
    block of equal rows is a run of consecutive beads y = low..top, and its
    share telescopes to at most size factors on each side: below x it is
    prod t/(t + size) over t = x - top..x - low, above b it is
    prod (t + size)/t over t = y - b for its beads y > b.  Fewer than size
    beads lie between x and b.
    """
    x = bead - size
    num, den = math.prod(range(x + 1, bead + 1)), 1
    rest = len(lam)
    for row, block in groupby(lam):
        top = row + rest - 1
        rest -= len(list(block))
        low = row + rest
        if low < x:
            u, v = x - top, x - low
            num *= math.prod(range(u, min(u + size, v + 1)))
            den *= math.prod(range(max(v + 1, u + size), v + size + 1))
            continue
        if top > bead:
            u, v = max(low - bead, 1), top - bead
            num *= math.prod(range(max(v + 1, u + size), v + size + 1))
            den *= math.prod(range(u, min(u + size, v + 1)))
        if low < bead:  # (y - x)/(b - y) for y = low..min(top, b - 1)
            high = min(top, bead - 1)
            num *= math.prod(range(low - x, high - x + 1))
            den *= math.prod(range(bead - high, bead - low + 1))
    return num, den


def _strip_sweep(lam: Partition, parts: Sequence[int]) -> list[list[int]]:
    """[c, num, den] for each shape nu left after removing strips of the given
    sizes from lam, in order: c is the signed number of removal paths
    lam -> nu, and num/den is H_lam / H_nu.

    The counts go down level by level in integers; a shape whose count
    cancels to 0 is dropped and not expanded.  H_lam / H_nu is the product of
    the bead-move ratios along the first path that reaches nu; every path
    gives the same.
    """
    level = {lam: [1, 1, 1]}
    for part in parts:
        below: dict[Partition, list[int]] = {}
        for shape, (count, num, den) in level.items():
            for result, height, bead in _strips(shape, part):
                step = -count if height % 2 else count
                if result in below:
                    below[result][0] += step
                else:
                    up, down = _bead_move_ratio(shape, bead, part)
                    below[result] = [step, num * up, den * down]
        level = {shape: entry for shape, entry in below.items() if entry[0]}
    return list(level.values())


def _sweep_depth(nu: Sequence[int]) -> int:
    """Number of leading parts of nu before its trailing run of fixed points."""
    depth = len(nu)
    while depth and nu[depth - 1] == 1:
        depth -= 1
    return depth


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
    """mn_character for a trusted lam and positive parts nu of size |lam|: the
    normalized character at k = n, which is chi * H_lam, divided by H_lam."""
    theta = _normalized_character(lam, nu[: _sweep_depth(nu)], sum(lam))
    return theta // _hook_product(lam)


def normalized_character(lam: Partition, mu: Partition) -> Fraction | int:
    """(n)_k * chi(mu padded with fixed points) / chi(identity), exact.

    lam has n squares, mu is the nontrivial part of the cycle type with
    |mu| = k <= n; the type used is (mu, 1^(n-k)).  With k' the size of mu
    without its trailing 1s, chi(identity) = n!/H_lam turns this into
    (n - k')_(k - k') times the sweep's sum of c(nu) H_lam/H_nu.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = sum(lam)
    k = sum(mu)
    if k > n:
        raise ValueError(f"|mu| = {k} exceeds |lam| = {n}")
    return _normalized_character(lam, mu[: _sweep_depth(mu)], k)


def _normalized_character(lam: Partition, swept: Sequence[int], k: int) -> Fraction | int:
    """normalized_character for a trusted lam, the swept prefix of mu (mu
    without its trailing 1s) and k = |mu| <= |lam|; an int unless the value
    is not one."""
    n, k1 = sum(lam), sum(swept)
    entries = _strip_sweep(lam, swept)
    den = math.lcm(*(d for _, _, d in entries))
    num = sum(c * h * (den // d) for c, h, d in entries) * math.perm(n - k1, k - k1)
    value, rest = divmod(num, den)
    return Fraction(num, den) if rest else value
