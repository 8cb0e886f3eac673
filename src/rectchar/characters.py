"""Irreducible symmetric group characters via border-strip removal.

One down sweep over the parts of the evaluation type, in the order given,
stopping at its trailing run of fixed points, computes the normalized
character.  The sweep works on beads: a shape lam with r rows is its bead
tuple, the r numbers lam_i + r - 1 - i in ascending order, and r stays
fixed, so rows emptied on the way stay as the beads 0, 1, ..., and a bead
tuple names one shape.  Removing a border strip of size s moves one
bead b down to a free place x = b - s, with one slice and insert; the
strip's height is the number of beads between x and b.

Each level removes strips of one part's length from every shape reached so
far and carries, per shape nu, the signed number of removal paths c(nu)
from the top shape lam, in integers; shapes whose count cancels are
dropped.  Each shape also carries H_lam / H_nu (H the hook product), built
from one exact ratio per strip, read off the runs of consecutive beads of
the shape it is removed from; the runs are found once per shape and serve
all of its strips.  The fixed points left then contribute
f^nu = (n - k')!/H_nu each, k' being the size of the swept parts, so no
bottom shape's hook product is computed:

    (n)_k chi / f^lam = (n - k')_(k - k') * sum c(nu) H_lam/H_nu.

The last level is summed without being expanded into shapes where it need
not be.  For a last part of 2 each parent's strips sum to its content
sum: the signed H_nu / H_xi over the shapes xi left by nu's strips of size 2
is Ch_(2)(nu) = 2 * (sum of the contents of nu), since the class sum of
the transpositions acts on the irreducible module by it (Jucys 1974;
Okounkov & Vershik, Selecta Math. 1996).  A single parent's strips leave
distinct shapes, so each adds its own signed ratio with no merge.

At k = n the left side is chi * H_lam, so the character itself is that value
divided by H_lam.  Nothing is kept between calls and no recursion depth
grows with the input.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence

from .partitions import Partition, _hook_product, _integers, as_partition

Beads = tuple[int, ...]
Runs = list[tuple[int, int, int]]


def _beads(lam: Partition) -> Beads:
    """The bead tuple of lam, ascending: lam_i + r - 1 - i over its r rows."""
    return tuple(part + i for i, part in enumerate(reversed(lam)))


def _runs(beads: Beads) -> Runs:
    """(low, top, index of low) for each maximal run low..top of consecutive
    beads, in ascending order, for a nonempty bead tuple."""
    runs = []
    start = 0
    for i in range(1, len(beads)):
        if beads[i] != beads[i - 1] + 1:
            runs.append((beads[start], beads[i - 1], start))
            start = i
    runs.append((beads[start], beads[-1], start))
    return runs


def _free_moves(beads: Beads, runs: Runs, size: int) -> list[tuple[int, int, int]]:
    """(pos, i, bead) for each removal of a border strip of the given positive
    size, for a bead tuple and its runs: bead = beads[i] moves to x = bead -
    size when x is nonnegative and free, and x would sit at index pos, so
    the strip's height is i - pos.  In a run low..top only the beads below
    low + size can move, as the others land on the run itself."""
    out = []
    for low, top, start in runs:
        for b in range(max(low, size), min(top, low + size - 1) + 1):
            x = b - size
            pos = bisect_left(beads, x)
            if beads[pos] != x:
                out.append((pos, start + b - low, b))
    return out


def _bead_move_ratio(runs: Runs, bead: int, size: int) -> tuple[int, int]:
    """(num, den), not reduced, with num/den = H_before / H_after for the move
    of bead down by size, given the runs of the bead tuple before it.

    With beads y, H = prod(y!) over prod(y - z) for beads y > z, so moving
    bead b to x = b - size gives H_before / H_after = b!/x! * prod over
    y != b of |x - y| / |b - y|.  A run of consecutive beads y = low..top
    telescopes to at most size factors on each side: below x its share is
    prod t/(t + size) over t = u..v = x - top..x - low, which for a run
    longer than size is prod(u..u + size - 1) / prod(v + 1..v + size); above
    b it is prod (t + size)/t over t = y - b for its beads y > b, likewise.
    Fewer than size beads lie between x and b.
    """
    x = bead - size
    num, den = math.prod(range(x + 1, bead + 1)), 1
    for low, top, _ in runs:
        if top < x:
            u, v = x - top, x - low
            if v - u < size:
                num *= math.prod(range(u, v + 1))
                den *= math.prod(range(u + size, v + size + 1))
            else:
                num *= math.prod(range(u, u + size))
                den *= math.prod(range(v + 1, v + size + 1))
            continue
        if top > bead:
            u, v = low - bead if low > bead else 1, top - bead
            if v - u < size:
                num *= math.prod(range(u + size, v + size + 1))
                den *= math.prod(range(u, v + 1))
            else:
                num *= math.prod(range(v + 1, v + size + 1))
                den *= math.prod(range(u, u + size))
        if low < bead:  # (y - x)/(b - y) for y = low..min(top, b - 1)
            high = top if top < bead else bead - 1
            num *= math.prod(range(low - x, high - x + 1))
            den *= math.prod(range(bead - high, bead - low + 1))
    return num, den


def _twice_content_sum(beads: Beads) -> int:
    """Ch_(2)(nu) = 2 * (sum of the contents of nu's cells), for nu's bead
    tuple of r beads: with b = nu_i + r - i, (b - r)(b - r + 1) sums to
    Ch_(2)(nu) + sum of i(i - 1) over i = 1..r, the latter (r - 1)r(r + 1)/3.
    Padding nu with empty rows leaves the value as it is."""
    r = len(beads)
    return sum((b - r) * (b - r + 1) for b in beads) - (r - 1) * r * (r + 1) // 3


def _merged_level(level: dict[Beads, list[int]], part: int) -> dict[Beads, list[int]]:
    """The next level of the sweep: every strip of the given size removed
    from every shape of level, by slice and insert, and the paths to one
    shape merged by its bead tuple.  A shape whose count cancels to 0 is
    dropped and not expanded; H_lam / H_nu is the product of the bead-move
    ratios along the first path that reaches nu, as every path gives the
    same."""
    below: dict[Beads, list[int]] = {}
    for beads, (count, num, den) in level.items():
        runs = _runs(beads)
        for pos, i, bead in _free_moves(beads, runs, part):
            result = beads[:pos] + (bead - part,) + beads[pos:i] + beads[i + 1 :]
            step = -count if (i - pos) % 2 else count
            if result in below:
                below[result][0] += step
            else:
                up, down = _bead_move_ratio(runs, bead, part)
                below[result] = [step, num * up, den * down]
    return {beads: entry for beads, entry in below.items() if entry[0]}


def _strip_sweep(lam: Partition, parts: Sequence[int]) -> list[list[int]]:
    """Weighted entries [w, num, den] whose sum of w * num/den is the sum,
    over the shapes nu left after removing strips of the given sizes from
    lam in order, of c(nu) H_lam / H_nu, c(nu) being the signed number of
    removal paths lam -> nu.

    Every level but the last goes down in integers on bead tuples, merged
    by shape (_merged_level).  The last level is not expanded into shapes
    where it need not be:

    - a last part of 2 weights each parent nu by Ch_(2)(nu), the signed sum
      of H_nu / H_xi over the shapes xi that nu's strips of size 2 leave,
      which is twice nu's content sum (Jucys; Okounkov & Vershik);
    - a single parent gives one entry per strip, its signed move ratio,
      since the strips of one shape leave distinct shapes;
    - otherwise the last level is merged like the others, one entry per
      shape with w = c(nu).
    """
    if not parts:
        return [[1, 1, 1]]
    level = {_beads(lam): [1, 1, 1]}
    for part in parts[:-1]:
        level = _merged_level(level, part)
    last = parts[-1]
    if last == 2:
        return [
            [count * _twice_content_sum(beads), num, den]
            for beads, (count, num, den) in level.items()
        ]
    if len(level) == 1:
        [(beads, (count, num, den))] = level.items()
        runs = _runs(beads)
        out = []
        for pos, i, bead in _free_moves(beads, runs, last):
            up, down = _bead_move_ratio(runs, bead, last)
            out.append([-count if (i - pos) % 2 else count, num * up, den * down])
        return out
    return list(_merged_level(level, last).values())


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


def normalized_character(lam: Partition, mu: Partition) -> int:
    """(n)_k * chi(mu padded with fixed points) / chi(identity), exact.

    lam has n squares, mu is the nontrivial part of the cycle type with
    |mu| = k <= n; the type used is (mu, 1^(n-k)).  With k' the size of mu
    without its trailing 1s, chi(identity) = n!/H_lam turns this into
    (n - k')_(k - k') times the sweep's sum of c(nu) H_lam/H_nu.  The value
    is an integer (central character values are algebraic integers), so a
    remainder raises ArithmeticError.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    n = sum(lam)
    k = sum(mu)
    if k > n:
        raise ValueError(f"|mu| = {k} exceeds |lam| = {n}")
    return _normalized_character(lam, mu[: _sweep_depth(mu)], k)


def _normalized_character(lam: Partition, swept: Sequence[int], k: int) -> int:
    """normalized_character for a trusted lam, the swept prefix of mu (mu
    without its trailing 1s) and k = |mu| <= |lam|."""
    n, k1 = sum(lam), sum(swept)
    entries = _strip_sweep(lam, swept)
    den = math.lcm(*(d for _, _, d in entries))
    num = sum(c * h * (den // d) for c, h, d in entries) * math.perm(n - k1, k - k1)
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(
            f"normalized character of {lam} at {tuple(swept)}, k={k}, came out "
            f"non-integral: {num}/{den}"
        )
    return value
