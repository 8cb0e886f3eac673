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

The last levels are summed without being expanded into shapes where they
need not be.  When the swept parts end in (2), (3), (4) or (2, 2), the
sweep stops above that tail tau and weights each shape nu it reached by
Ch_tau(nu), the normalized character of nu at tau, which is a polynomial
in n = |nu| and the power sums p_e of nu's contents: Ch_(2) = 2 p_1,
Ch_(3) = 3 p_2 - 3 C(n, 2), Ch_(4) = 4 p_3 - 4 (2n - 3) p_1 (Corteel,
Goupil & Schaeffer, Adv. Math. 2004, from the Jucys-Murphy elements), and
Ch_(2,2) = Ch_(2)^2 - 4 Ch_(3) - 2n(n - 1) (Ivanov & Kerov's product
Ch_(2) Ch_(2)).  Each row's contents are consecutive integers, so a bead
adds a difference of two Faulhaber sums and an empty row adds 0.  From
p_4 on the power sums bring in classes of several cycles, so a last part
of 5 or more is swept; a single parent's strips leave distinct shapes, so
each adds its own signed ratio with no merge.

A swept prefix that is empty or is itself such a tail, as every prefix of
a mu of size at most 4 is, needs no sweep: the kernel returns Ch_tau(lam)
(1 for the empty prefix) times (n - k')_(k - k') at once, with no entry
list, lcm or division.

The kernel takes a bead tuple, so a stack of rectangles comes in as its
blocks' runs of consecutive beads and is never expanded into rows.

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


def _stack_beads(ps: Sequence[int], qs: Sequence[int]) -> Beads:
    """The bead tuple of the stack of ps[i] rows of length qs[i], top block
    first and widths strictly decreasing: each block with rows and columns
    gives as many consecutive beads, from its width plus the rows below it."""
    beads: list[int] = []
    for p, q in zip(reversed(ps), reversed(qs)):
        if p and q:
            low = q + len(beads)
            beads += range(low, low + p)
    return tuple(beads)


def _rows(beads: Beads) -> Partition:
    """The shape of a bead tuple, its empty rows cut off."""
    return tuple(b - i for i, b in reversed(list(enumerate(beads))) if b > i)


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


def _tail(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The longest tail of parts that _tail_character reads in closed form:
    (2, 2), (2), (3) or (4), else ()."""
    if parts[-2:] == (2, 2):
        return (2, 2)
    return parts[-1:] if parts[-1:] in ((2,), (3,), (4,)) else ()


def _tail_character(beads: Beads, tail: tuple[int, ...]) -> int:
    """Ch_tail(nu) = (n)_|tail| chi^nu(tail, 1^(n - |tail|)) / chi^nu(1), for
    nu of size n given by its bead tuple and tail one of (2), (3), (4) and
    (2, 2); 0 when n < |tail|.

    With p_e = sum of c^e over the contents c of nu's cells (Corteel, Goupil
    & Schaeffer, Adv. Math. 2004, from the Jucys-Murphy elements; Ivanov &
    Kerov for the product Ch_(2) Ch_(2)):

        Ch_(2)   = 2 p_1
        Ch_(3)   = 3 p_2 - 3 C(n, 2)
        Ch_(4)   = 4 p_3 - 4 (2n - 3) p_1
        Ch_(2,2) = Ch_(2)^2 - 4 Ch_(3) - 2 n (n - 1)

    The row of bead b at index j of r beads has the contents j + 1 - r ..
    x = b - r, so with S_e(x) = 1^e + .. + x^e, extended as a polynomial to
    x < 0, p_e is the sum of S_e(b - r) less the sum of S_e(j - r), which is
    a polynomial in r.  Writing t = x(x + 1) = 2 S_1(x), 6 S_2(x) is
    t(2x + 1) and 4 S_3(x) is t^2.
    """
    r = len(beads)
    ts = [(b - r) * (b - r + 1) for b in beads]
    twice_p1 = sum(ts) - (r - 1) * r * (r + 1) // 3
    if tail == (2,):
        return twice_p1
    n = sum(beads) - r * (r - 1) // 2
    if tail == (4,):
        four_p3 = sum(t * t for t in ts) - (r - 1) * r * (r + 1) * (3 * r * r - 2) // 15
        return four_p3 - 2 * (2 * n - 3) * twice_p1
    six_p2 = sum(t * (2 * b - 2 * r + 1) for t, b in zip(ts, beads))
    six_p2 += (r - 1) * r * r * (r + 1) // 2
    ch3 = (six_p2 - 3 * n * (n - 1)) // 2
    if tail == (3,):
        return ch3
    return twice_p1 * twice_p1 - 4 * ch3 - 2 * n * (n - 1)


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


def _strip_sweep(beads: Beads, parts: tuple[int, ...]) -> list[list[int]]:
    """Weighted entries [w, num, den] whose sum of w * num/den is the sum,
    over the shapes nu left after removing strips of the given sizes from
    the shape lam of the bead tuple in order, of c(nu) H_lam / H_nu, c(nu)
    being the signed number of removal paths lam -> nu.

    The levels go down in integers on bead tuples, merged by shape
    (_merged_level), but the last ones are not expanded into shapes where
    they need not be:

    - when parts end in a tail tau of (2), (3), (4) or (2, 2), the sweep
      stops above it and weights each shape nu by Ch_tau(nu), the signed
      sum of H_nu / H_xi over the removal paths nu -> xi of tau, read off
      nu's content power sums (_tail_character).  For a last part of 5 or
      more those sums bring in classes of several cycles, so such parts are
      swept;
    - a single parent gives one entry per strip, its signed move ratio,
      since the strips of one shape leave distinct shapes;
    - otherwise the last level is merged like the others, one entry per
      shape with w = c(nu).
    parts must not be empty or a tail itself: _bead_character reads those
    in closed form without a sweep.
    """
    tail = _tail(parts)
    level = {beads: [1, 1, 1]}
    for part in parts[: len(parts) - (len(tail) or 1)]:
        level = _merged_level(level, part)
    if tail:
        return [
            [count * _tail_character(beads, tail), num, den]
            for beads, (count, num, den) in level.items()
        ]
    last = parts[-1]
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
    theta = _bead_character(_beads(lam), nu[: _sweep_depth(nu)], sum(lam))
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
    return _bead_character(_beads(lam), mu[: _sweep_depth(mu)], k)


def _bead_character(beads: Beads, swept: tuple[int, ...], k: int) -> int:
    """normalized_character for the shape lam of a bead tuple (empty rows
    allowed), the swept prefix of mu (mu without its trailing 1s) and
    k = |mu| <= |lam|.  Stacked rectangles come here as their beads, a
    block of p rows giving p consecutive beads, never as rows.

    An empty prefix or one that is itself a closed-form tail, (2), (3), (4)
    or (2, 2), is Ch_swept(lam) (1 for the empty one) times
    (n - |swept|)_(k - |swept|), with no sweep, lcm or division; any other
    prefix goes through _strip_sweep's entries."""
    r = len(beads)
    n, k1 = sum(beads) - r * (r - 1) // 2, sum(swept)
    if swept == _tail(swept):
        value = _tail_character(beads, swept) if swept else 1
        return value * math.perm(n - k1, k - k1)
    entries = _strip_sweep(beads, swept)
    den = math.lcm(*(d for _, _, d in entries))
    num = sum(c * h * (den // d) for c, h, d in entries) * math.perm(n - k1, k - k1)
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(
            f"normalized character of {_rows(beads)} at {swept}, k={k}, came out "
            f"non-integral: {num}/{den}"
        )
    return value
