"""Independent reference implementations used as oracles by the test suite.

Everything here deliberately avoids the algorithms used by the package:
tableau counts come from direct enumeration, characters from the power-sum
expansion against the Vandermonde determinant, and factorization sums from
raw pair enumeration.  Slow is fine; these run on small inputs only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

#: C_0..C_12, frozen from the convolution recurrence (computed once by hand
#: plus the recurrence; used to pin sequences, not to define them).
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]

#: Big Schroeder numbers r_1..r_8.
SCHROEDER = [2, 6, 22, 90, 394, 1806, 8558, 41586]

#: Narayana triangle rows 1..6, N(k, 1..k).
NARAYANA_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 3, 1],
    4: [1, 6, 6, 1],
    5: [1, 10, 20, 10, 1],
    6: [1, 15, 50, 50, 15, 1],
}

#: Partition counts p(0)..p(10).
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def reference_conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths by counting, column by column, the rows that reach it."""
    if not lam:
        return ()
    return tuple(sum(1 for row_len in lam if row_len >= j) for j in range(1, lam[0] + 1))


@lru_cache(maxsize=None)
def brute_syt_count(lam: tuple[int, ...]) -> int:
    """Standard tableaux counted by removing one outer corner at a time."""
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] > below:
            rest = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
            rest = tuple(part for part in rest if part)
            total += brute_syt_count(rest)
    return total


def brute_ssyt_count(lam: tuple[int, ...], p: int) -> int:
    """Semistandard tableaux with entries <= p, by row-wise backtracking."""
    if not lam:
        return 1
    if p <= 0:
        return 0

    def extend(row_idx: int, above: tuple[int, ...]) -> int:
        if row_idx == len(lam):
            return 1
        length = lam[row_idx]
        total = 0
        for row in itertools.combinations_with_replacement(range(1, p + 1), length):
            # rows weakly increase by construction; columns must strictly increase
            if all(row[j] > above[j] for j in range(length)):
                total += extend(row_idx + 1, row)
        return total

    return extend(0, (0,) * lam[0])


def perm_sign(w: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )
    return -1 if inversions % 2 else 1


def character_by_power_sums(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character value from the power-sum/Vandermonde coefficient identity.

    Expands the Vandermonde alternant times prod p_{mu_j} in len(lam)
    variables and reads off the coefficient of x^(lam + staircase).  Fully
    independent of any strip-removal recursion; exponential, so small n only.
    """
    ell = len(lam)
    if ell == 0:
        return 1 if sum(mu) == 0 else 0
    delta = tuple(range(ell - 1, -1, -1))
    poly: dict[tuple[int, ...], int] = {}
    for w in itertools.permutations(range(ell)):
        exps = tuple(delta[w[i]] for i in range(ell))
        poly[exps] = poly.get(exps, 0) + perm_sign(w)
    for r in mu:
        grown: dict[tuple[int, ...], int] = {}
        for exps, coef in poly.items():
            for i in range(ell):
                bumped = exps[:i] + (exps[i] + r,) + exps[i + 1:]
                grown[bumped] = grown.get(bumped, 0) + coef
        poly = grown
    target = tuple(lam[i] + delta[i] for i in range(ell))
    return poly.get(target, 0)


def brute_strip_removals(
    lam: tuple[int, ...], size: int
) -> set[tuple[tuple[int, ...], int]]:
    """All (result, height) pairs from deleting a connected rim of the given
    size with no 2x2 block, found by scanning candidate sub-partitions."""
    n = sum(lam)
    if size > n:
        return set()
    cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
    results = set()
    for nu in _partitions_upto(n - size, lam):
        skew = cells - {(i, j) for i, part in enumerate(nu) for j in range(part)}
        if len(skew) != size:
            continue
        if not _connected(skew):
            continue
        if any(
            {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew
            for (i, j) in skew
        ):
            continue
        height = len({i for i, _ in skew}) - 1
        results.add((nu, height))
    return results


@lru_cache(maxsize=None)
def _cached_strip_removals(lam: tuple[int, ...], size: int):
    return sorted(brute_strip_removals(lam, size))


def reference_mn_character(lam: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Character value by the f-based route (the reference route for
    mn_character): signed strip-removal path counts c(nu') down to the
    trailing fixed points of nu, then chi = sum c(nu') f^nu', with strips
    found by brute_strip_removals and f^nu' by brute_syt_count."""
    depth = len(nu)
    while depth and nu[depth - 1] == 1:
        depth -= 1
    level = {lam: 1}
    for part in nu[:depth]:
        below: dict[tuple[int, ...], int] = {}
        for shape, count in level.items():
            for result, height in _cached_strip_removals(shape, part):
                below[result] = below.get(result, 0) + (-count if height % 2 else count)
        level = below
    return sum(count * brute_syt_count(shape) for shape, count in level.items())


def reference_normalized_character(lam: tuple[int, ...], mu: tuple[int, ...]):
    """(n)_k chi(mu, 1^(n-k)) / f^lam from reference_mn_character and
    brute_syt_count (the reference route for normalized_character)."""
    n, k = sum(lam), sum(mu)
    chi = reference_mn_character(lam, mu + (1,) * (n - k))
    value = Fraction(math.perm(n, k) * chi, brute_syt_count(lam))
    return int(value) if value.denominator == 1 else value


def _direct_hook_product(lam: tuple[int, ...]) -> int:
    """Product over the cells of arm + leg + 1, legs read off reference_conjugate."""
    conj = reference_conjugate(lam)
    return math.prod(row - j + conj[j] - i - 1 for i, row in enumerate(lam) for j in range(row))


def _box_complement(lam: tuple[int, ...], p: int, q: int) -> tuple[int, ...]:
    """The cells of the p-by-q box outside lam, turned a half turn into a shape."""
    padded = lam + (0,) * (p - len(lam))
    return tuple(q - part for part in reversed(padded) if part < q)


def rect_character_sum(p: int, q: int, mu: tuple[int, ...]) -> int:
    """Character of the p-by-q box at (mu, 1^(pq-k)), summed shape by shape
    (a shape-peeling reference route for mn_character on boxes).

    Peeling the nontrivial cycles first leaves some lam of size k in the box
    corner with weight chi^lam(mu); the fixed points then fill the rest of the
    box in f^complement ways.  chi^lam(mu) comes from reference_mn_character
    and f from brute_syt_count."""
    return sum(
        reference_mn_character(lam, mu) * brute_syt_count(_box_complement(lam, p, q))
        for lam in recursive_partitions_of(sum(mu), max_part=q, max_parts=p)
    )


def rect_normalized_via_hooks(p: int, q: int, mu: tuple[int, ...]):
    """Normalized box character as a hook-product weighted shape sum (a
    shape-peeling reference route for normalized_character on boxes): the
    same peeling as rect_character_sum, normalized, is H_box times the sum
    over lam of chi^lam(mu) / H_complement, with every hook product H from
    _direct_hook_product."""
    total = sum(
        Fraction(
            reference_mn_character(lam, mu),
            _direct_hook_product(_box_complement(lam, p, q)),
        )
        for lam in recursive_partitions_of(sum(mu), max_part=q, max_parts=p)
    )
    value = _direct_hook_product((q,) * p) * total
    return int(value) if value.denominator == 1 else value


def _partitions_upto(n: int, bound: tuple[int, ...]):
    """Partitions of n fitting under the given partition componentwise."""

    def rec(remaining: int, row: int, prev: int):
        if remaining == 0:
            yield ()
            return
        if row >= len(bound):
            return
        cap = min(prev, bound[row], remaining)
        for part in range(cap, 0, -1):
            for rest in rec(remaining - part, row + 1, part):
                yield (part,) + rest

    yield from rec(n, 0, n if n else 1)


def _connected(skew: set[tuple[int, int]]) -> bool:
    if not skew:
        return True
    seen = set()
    stack = [next(iter(skew))]
    while stack:
        cell = stack.pop()
        if cell in seen:
            continue
        seen.add(cell)
        i, j = cell
        for nbr in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nbr in skew and nbr not in seen:
                stack.append(nbr)
    return seen == skew


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """(u * v)(i) = u(v(i)) in one-line notation on 1..k."""
    if len(u) != len(v):
        raise ValueError("degree mismatch")
    return tuple(u[x - 1] for x in v)


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse permutation in one-line notation on 1..k."""
    inv = [0] * len(w)
    for i, img in enumerate(w, start=1):
        inv[img - 1] = i
    return tuple(inv)


def _compose0(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """(u after v) on 0-based points."""
    return tuple(u[v[i]] for i in range(len(u)))


def _cycle_count0(w: tuple[int, ...]) -> int:
    seen = [False] * len(w)
    count = 0
    for start in range(len(w)):
        if not seen[start]:
            count += 1
            point = start
            while not seen[point]:
                seen[point] = True
                point = w[point]
    return count


def cycle_type(w: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation of 1..k in one-line notation, largest
    first, found by following each point around its cycle."""
    seen = set()
    lengths = []
    for start in range(1, len(w) + 1):
        length = 0
        point = start
        while point not in seen:
            seen.add(point)
            point = w[point - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def brute_pair_sum(mu: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Counts of (cycles(u), cycles(v)) over all factorizations u*v = w_mu,
    found by scanning every pair in S_k x S_k.  Only feasible for k <= 5."""
    k = sum(mu)
    target = []
    start = 0
    for part in mu:
        target.extend(list(range(start + 1, start + part)) + [start])
        start += part
    target = tuple(target)
    counts: dict[tuple[int, int], int] = {}
    for u in itertools.permutations(range(k)):
        for v in itertools.permutations(range(k)):
            if _compose0(u, v) == target:
                key = (_cycle_count0(u), _cycle_count0(v))
                counts[key] = counts.get(key, 0) + 1
    return counts


def itertools_pair_counts(w: tuple[int, ...]) -> list[list[int]]:
    """counts[a][b] = number of u with u v = w, cycles(u) = a, cycles(v) = b,
    rebuilding v = u^-1 w and walking both for every u from
    itertools.permutations (the reference route for _pair_cycle_counts)."""
    k = len(w)
    w0 = tuple(x - 1 for x in w)
    counts = [[0] * (k + 1) for _ in range(k + 1)]
    for u in itertools.permutations(range(k)):
        inv = [0] * k
        for i in range(k):
            inv[u[i]] = i
        v = tuple(inv[w0[i]] for i in range(k))
        counts[_cycle_count0(u)][_cycle_count0(v)] += 1
    return counts


def centralizer_order(mu: tuple[int, ...]) -> int:
    """prod i^(m_i) * m_i! over part multiplicities."""
    order = 1
    for part in set(mu):
        mult = mu.count(part)
        order *= part**mult * math.factorial(mult)
    return order


def partial_fraction_residue(num_roots, den_roots):
    """[x^-1] of prod(x - a)/prod(x - b) for distinct roots b, as the sum of
    the simple-pole residues prod(b - a)/prod_(c != b)(b - c)."""
    total = Fraction(0)
    for b in den_roots:
        top = math.prod(b - a for a in num_roots)
        bottom = math.prod(b - c for c in den_roots if c != b)
        total += Fraction(top, bottom)
    return total


def recursive_partitions_of(n: int, max_part=None, max_parts=None):
    """Partitions of n in reverse lexicographic order, one recursion level
    per part (the reference route for partitions_of; small n only)."""
    first_cap = n if max_part is None else min(max_part, n)
    rows_cap = n if max_parts is None else max_parts

    def rec(remaining: int, cap: int, rows: int):
        if remaining == 0:
            yield ()
            return
        if rows == 0 or cap == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - part, part, rows - 1):
                yield (part,) + rest

    return rec(n, first_cap, rows_cap)


def recursive_partitions_in_box(p: int, q: int):
    """Partitions in a p-by-q box, each shape before its extensions, one
    recursion level per part (the reference route for partitions_in_box)."""

    def rec(rows: int, cap: int):
        yield ()
        if rows == 0 or cap == 0:
            return
        for part in range(cap, 0, -1):
            for rest in rec(rows - 1, part):
                yield (part,) + rest

    return rec(p, q)


def recursive_compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative integers summing to total, in
    lexicographic order, one recursion level per part (the reference route
    for leading._compositions; few parts only)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def _cycles0(w: tuple[int, ...]) -> list[list[int]]:
    """The cycles of a permutation of 0..k-1, each as a list of its points."""
    seen = [False] * len(w)
    cycles = []
    for start in range(len(w)):
        if not seen[start]:
            cycle = []
            point = start
            while not seen[point]:
                seen[point] = True
                cycle.append(point)
                point = w[point]
            cycles.append(cycle)
    return cycles


def stanley_feray_f_mu(m: int, mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """F_mu in p_1..p_m, q_1..q_m, as {exponent tuple: coefficient}, from the
    Stanley-Feray formula: the sum over every factorization s t = w_mu in S_k,
    with (s t)(i) = s(t(i)), and every colouring phi of the cycles of s by
    1..m, of sign(t) * prod_{cycles c of s} p_phi(c) * prod_{cycles c' of t}
    q_j, where j is the largest colour among the cycles of s that meet c'.
    Small k only: k! * m^k terms."""
    k = sum(mu)
    w: list[int] = []
    for part in mu:
        start = len(w)
        w.extend(list(range(start + 1, start + part)) + [start])
    terms: dict[tuple[int, ...], int] = {}
    for s in itertools.permutations(range(k)):
        s_inv = [0] * k
        for i, image in enumerate(s):
            s_inv[image] = i
        t = tuple(s_inv[w[i]] for i in range(k))
        s_cycles, t_cycles = _cycles0(s), _cycles0(t)
        sign = -1 if (k - len(t_cycles)) % 2 else 1
        colour_of = {point: c for c, cycle in enumerate(s_cycles) for point in cycle}
        for phi in itertools.product(range(m), repeat=len(s_cycles)):
            exps = [0] * (2 * m)
            for colour in phi:
                exps[colour] += 1
            for cycle in t_cycles:
                exps[m + max(phi[colour_of[point]] for point in cycle)] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + sign
    return {exps: c for exps, c in terms.items() if c}
