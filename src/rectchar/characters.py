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
need not be.  When the swept parts end in (2), (3), (4) or (2, 2), only
the head above that tail tau is swept, and each shape nu reached is
weighted by Ch_tau(nu), the normalized character of nu at tau, a polynomial
in n = |nu| and the power sums p_e of nu's contents: Ch_(2) = 2 p_1,
Ch_(3) = 3 p_2 - 3 C(n, 2), Ch_(4) = 4 p_3 - 4 (2n - 3) p_1 (Corteel,
Goupil & Schaeffer, Adv. Math. 2004, from the Jucys-Murphy elements), and
Ch_(2,2) = Ch_(2)^2 - 4 Ch_(3) - 2n(n - 1) (Ivanov & Kerov's product
Ch_(2) Ch_(2)).  These closed forms are written once (_tail_character),
and a stack's content sums are read off its blocks (_block_sums): each
block adds a difference of two Faulhaber sums.  A swept shape's sums are
carried down the sweep from the stack's: a border strip has consecutive
contents, so moving bead b down to x changes each sum by one difference of
its summand (_moved_sums), in O(1) per strip.  From p_4 on the power sums
bring in classes of several cycles, so a last part of 5 or more is swept
and merged like every other level.

The kernel has one entry, _stack_character, which takes mu as its callers
have it and a batch of stacks, and decides mu's trailing 1s, tail, swept
head and falling factorial once for the whole batch; every shape enters it
as its blocks, a partition as its runs of equal parts (_blocks), so no
shape is expanded into rows.  A swept prefix that is empty or is itself
such a tail, as every prefix of a mu of size at most 4 is, is read at once,
in O(m) for m blocks: Ch_tau (1 for the empty prefix) of the stack's
content sums times (n - k')_(k - k').  Any other prefix has its head swept
on each stack's bead tuple (_strip_sweep, which only sweeps), the level
entries carrying the content sums when a tail weights them.

At k = n the left side is chi * H_lam, so the character itself is that value
divided by H_lam.  Nothing is kept between calls and no recursion depth
grows with the input.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .partitions import Partition, _hook_product, _integers, as_partition

Beads = tuple[int, ...]
Runs = list[tuple[int, int, int]]
Sums = tuple[int, int, int, int, int]
Carried = tuple[int, int, int]
Stack = tuple[Sequence[int], Sequence[int]]


def _blocks(lam: Partition) -> tuple[Partition, Partition]:
    """lam as a stack (ps, qs): its runs of equal parts, top first, each a
    block of ps[i] rows of width qs[i]."""
    ps: list[int] = []
    qs: list[int] = []
    for part in lam:
        if qs and qs[-1] == part:
            ps[-1] += 1
        else:
            ps.append(1)
            qs.append(part)
    return tuple(ps), tuple(qs)


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


def _block_sums(ps: Sequence[int], qs: Sequence[int]) -> Sums:
    """The content sums (r, n, sum t, sum t(2x + 1), sum t^2) of the stack's
    r rows and n cells, in O(m), t = x(x + 1) over x = b - r for each bead b
    of its bead tuple, the row of bead b having the contents up to x.

    Below the rows of the blocks above it, a block of p rows and width q
    gives the beads whose x = b - r run over u..v = q - above - p ..
    q - above - 1, so its share of each sum is G(v) - G(u - 1), G being the
    sum of the summand over 0..v:

        G1(v) = v(v + 1)(v + 2)/3
        G2(v) = v(v + 1)^2 (v + 2)/2
        G3(v) = v(v + 1)(v + 2)(3v^2 + 6v + 1)/15

    These are polynomial identities, so negative v need no case of their
    own."""
    above = n = s1 = s2 = s3 = 0
    for p, q in zip(ps, qs):
        if q:
            v = q - above - 1
            lo = v - p  # u - 1
            w, z = v * (v + 1) * (v + 2), lo * (lo + 1) * (lo + 2)
            s1 += (w - z) // 3
            s2 += (w * (v + 1) - z * (lo + 1)) // 2
            s3 += (w * (3 * v * (v + 2) + 1) - z * (3 * lo * (lo + 2) + 1)) // 15
            above += p
            n += p * q
    return above, n, s1, s2, s3


def _moved_sums(sums: Carried, y: int, z: int) -> Carried:
    """The last three content sums of _block_sums, (sum t, sum t(2x + 1),
    sum t^2), after one bead moves from x = y to x = z, r being fixed: a
    border strip's contents are consecutive, so each sum changes by one
    difference of its summand, t = x(x + 1)."""
    s1, s2, s3 = sums
    ty, tz = y * (y + 1), z * (z + 1)
    return s1 + tz - ty, s2 + tz * (2 * z + 1) - ty * (2 * y + 1), s3 + tz * tz - ty * ty


def _tail_character(sums: Sums, tail: tuple[int, ...]) -> int:
    """Ch_tail(nu) = (n)_|tail| chi^nu(tail, 1^(n - |tail|)) / chi^nu(1), for
    nu of size n given by its content sums (_block_sums) and tail
    one of (), (2), (3), (4) and (2, 2); 0 when n < |tail|.

    With p_e = sum of c^e over the contents c of nu's cells (Corteel, Goupil
    & Schaeffer, Adv. Math. 2004, from the Jucys-Murphy elements; Ivanov &
    Kerov for the product Ch_(2) Ch_(2)):

        Ch_()    = 1
        Ch_(2)   = 2 p_1
        Ch_(3)   = 3 p_2 - 3 C(n, 2)
        Ch_(4)   = 4 p_3 - 4 (2n - 3) p_1
        Ch_(2,2) = Ch_(2)^2 - 4 Ch_(3) - 2 n (n - 1)

    The row of bead b at index j of r beads has the contents j + 1 - r ..
    x = b - r, so with S_e(x) = 1^e + .. + x^e, extended as a polynomial to
    x < 0, p_e is the sum of S_e(b - r) less the sum of S_e(j - r), which is
    a polynomial in r.  Writing t = x(x + 1) = 2 S_1(x), 6 S_2(x) is
    t(2x + 1) and 4 S_3(x) is t^2, whose sums over the beads are given.
    """
    if not tail:
        return 1
    r, n, s1, six_s2, s3 = sums
    twice_p1 = s1 - (r - 1) * r * (r + 1) // 3
    if tail == (2,):
        return twice_p1
    if tail == (4,):
        four_p3 = s3 - (r - 1) * r * (r + 1) * (3 * r * r - 2) // 15
        return four_p3 - 2 * (2 * n - 3) * twice_p1
    six_p2 = six_s2 + (r - 1) * r * r * (r + 1) // 2
    ch3 = (six_p2 - 3 * n * (n - 1)) // 2
    if tail == (3,):
        return ch3
    return twice_p1 * twice_p1 - 4 * ch3 - 2 * n * (n - 1)


def _merged_level(level: dict[Beads, list], part: int) -> dict[Beads, list]:
    """The next level of the sweep: every strip of the given size removed
    from every shape of level, by slice and insert, and the paths to one
    shape merged by its bead tuple.  A shape whose count cancels to 0 is
    dropped and not expanded; H_lam / H_nu is the product of the bead-move
    ratios along the first path that reaches nu, as every path gives the
    same, and so are its content sums, when they are carried."""
    below: dict[Beads, list] = {}
    for beads, (count, num, den, sums) in level.items():
        runs = _runs(beads)
        r = len(beads)
        for pos, i, bead in _free_moves(beads, runs, part):
            result = beads[:pos] + (bead - part,) + beads[pos:i] + beads[i + 1 :]
            step = -count if (i - pos) % 2 else count
            if result in below:
                below[result][0] += step
            else:
                up, down = _bead_move_ratio(runs, bead, part)
                x = bead - r  # the top content of the bead's row
                moved = None if sums is None else _moved_sums(sums, x, x - part)
                below[result] = [step, num * up, den * down, moved]
    return {beads: entry for beads, entry in below.items() if entry[0]}


def _strip_sweep(
    beads: Beads, parts: tuple[int, ...], sums: Carried | None
) -> dict[Beads, list]:
    """The level left after removing strips of the given sizes, in order,
    from the shape lam of the bead tuple: {beads of nu: [c(nu), num, den,
    sums of nu]}, c(nu) the signed number of removal paths lam -> nu and
    num/den = H_lam / H_nu.  Every level goes down in integers on bead
    tuples, merged by shape (_merged_level).  sums are lam's last three
    content sums of _block_sums, carried to each nu (_moved_sums), or None,
    which is carried as it is; no parts leave lam itself, [1, 1, 1, sums]."""
    level = {beads: [1, 1, 1, sums]}
    for part in parts:
        level = _merged_level(level, part)
    return level


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
    # the normalized character at k = n is chi * H_lam
    return _stack_character(nu, [_blocks(lam)])[0] // _hook_product(lam)


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
    k = sum(mu)
    if k > sum(lam):
        raise ValueError(f"|mu| = {k} exceeds |lam| = {sum(lam)}")
    return _stack_character(mu, [_blocks(lam)])[0]


def _stack_character(mu: tuple[int, ...], stacks: Iterable[Stack]) -> list[int]:
    """The kernel's one entry: normalized_character at positive parts mu, in
    the order given, of each stack (ps, qs) of the batch, in order, the stack
    of ps[i] rows of length qs[i], top block first and widths strictly
    decreasing, of n >= k = |mu| cells.

    Only mu's swept prefix (mu without its trailing 1s) of size k' is
    summed, times (n - k')_(k - k'); the prefix, its tail tau and its head
    are found once for the batch.  A prefix that is empty or a closed-form
    tail is read off each stack's blocks' content sums in O(m).  Any other
    has its head swept on each stack's bead tuple, and each shape nu reached
    is weighted by Ch_tau of the content sums carried down to it."""
    k = sum(mu)
    swept = mu[: _sweep_depth(mu)]
    tail = _tail(swept)
    k1 = sum(swept)
    fixed = k - k1
    if swept == tail:
        return [
            _tail_character(sums, tail) * math.perm(sums[1] - k1, fixed)
            for sums in itertools.starmap(_block_sums, stacks)
        ]
    head = swept[: len(swept) - len(tail)]
    values = []
    for ps, qs in stacks:
        beads = _stack_beads(ps, qs)
        n = sum(map(operator.mul, ps, qs))
        level = _strip_sweep(beads, head, _block_sums(ps, qs)[2:] if tail else None)
        den = math.lcm(*(entry[2] for entry in level.values()))
        # every shape reached has r = len(beads) rows and n - |head| cells
        left = (len(beads), n - sum(head))
        num = 0
        for c, h, d, sums in level.values():
            if tail:
                c *= _tail_character(left + sums, tail)
            num += c * h * (den // d)
        num *= math.perm(n - k1, fixed)
        value, rest = divmod(num, den)
        if rest:
            raise ArithmeticError(
                f"normalized character of the stack {ps} x {qs} at {swept}, k={k}, "
                f"came out non-integral: {num}/{den}"
            )
        values.append(value)
    return values
