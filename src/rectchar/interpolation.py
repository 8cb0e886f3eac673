"""Exact reconstruction of multi-rectangle character polynomials from values.

For a fixed cycle-type prefix mu of size k, the normalized character of an
m-rectangle stack is a polynomial in p_1..p_m, q_1..q_m, given by the
Stanley-Feray formula (Stanley, "A conjectured combinatorial interpretation
of the normalized irreducible character values of the symmetric group",
2006; Feray, "Proof of Stanley's conjecture about irreducible character
values of the symmetric group", Ann. Comb. 2010): each monomial comes from
a factorization s*t = w_mu in S_k and a colouring of the cycles of s by
1..m.  Each cycle of s gives p_j, j its colour, and each cycle of t gives
q_j, j the largest colour among the cycles of s it meets.  So a monomial
with p-exponents a and q-exponents b has |a| = cyc(s) <= k,
|b| = cyc(t) <= k and |a| + |b| <= k + len(mu), its q-colours are p-colours,
and its largest p-colour is a q-colour.  Its values on a lower set of
multi-indices alpha = (a, b) that holds every such monomial pin it down
(Dyn & Floater, "Multivariate polynomial interpolation on lower sets",
J. Approx. Theory 177, 2014).  The degree set

    {alpha : alpha_1 + .. + alpha_m <= k, alpha_(m+1) + .. + alpha_2m <= k,
     sum(alpha) <= k + len(mu)}

is one.

Setting p_j = 0 drops block j, every q-colour being a p-colour, so the
terms of F_mu whose p-colours are a set S of s blocks are H^(s)(p_S, q_S),
where the face H^(s) is the part of the s-block polynomial that holds every
p_1..p_s; H^(s) is 0 for s > k, each colour taking a cycle of s.  F_mu is
filled from its faces, each solved once per process and shared by every m.
A face term holds p_1..p_s and, s being its top colour, q_s, so
H^(s) = p_1..p_s q_s G, and G is interpolated on the face nodes: the
degree-set exponents with those coordinates at least 1, each moved down by
one, again a lower set.  Both colour rules hold at each of them, so the
degree bounds are the only test.  Shifted back, node alpha sits at
coordinate alpha_i of each axis.  The p-axes start at 0 and the q-axes are
disjoint descending bands, the last starting at 0, so a face node is a
stack of s nonempty blocks with strictly decreasing widths.
Its value is the character there, less the faces below s at each proper
subset of its blocks, over p_1..p_s q_s; a face H^(t) below is read once
per distinct projection of the nodes onto t of their s blocks.  The
character is taken from the trusted kernel as an exact integer, given a
face's nodes as one batch of blocks and mu as it is
(characters._stack_character, which makes every decision about mu's parts
once per batch), or is 0 with no kernel read below |mu| cells, where
Ch_mu vanishes (Kerov & Olshanski, C. R. Acad. Sci. Paris 319, 1994).  The
Newton solve runs in integers on node indices, and F_mu is then audited at
a point outside the grid before being returned.

Only mu's swept prefix nu (mu without its trailing 1s) is interpolated:
Ch_(mu, 1) = (n - |mu|) Ch_mu (Kerov & Olshanski) gives
F_mu = (N - |nu|)_(|mu| - |nu|) F_nu, N = sum p_i q_i, and that factor is
expanded term by term and multiplied into F_nu (1 for an empty nu) in
one term loop.
The node budget counts mu's own degree set, which holds every face node of
nu, shifted back, and every monomial of F_mu, in closed form.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

# normalized_character is unused here, but perfbench's tracer wraps it under
# this module's name, so the name stays
from .characters import _stack_character, _sweep_depth, normalized_character
from .frobenius import flipped_polynomial
from .partitions import Partition, _size, as_partition, format_partition
from .polynomials import MultivarPoly, Scalar, _clean_coef

DEFAULT_MAX_NODES = 20_000
_SHOWN_BITS = 4096  # node counts longer than this are reported by size
_AUDIT_CHUNK = 32  # off-grid samples evaluated per batch, which bounds memory


def interpolation_grid(m: int, k: int) -> list[list[int]]:
    """Node lists for p_1..p_m then q_1..q_m, each k + 2 consecutive integers.

    p nodes are 0..k+1.  q_i nodes sit in the band (m - i)(k + 2) ..
    (m - i + 1)(k + 2) - 1, so the bands are disjoint and descending and
    q_m's starts at 0: a node is a stack of strictly decreasing widths once
    its empty blocks are dropped, and may hold fewer than k cells.  Each
    axis is a run of consecutive integers, which the Newton solve relies on;
    the face nodes use its first k+1 entries, and the guard point sits one
    past the last, a stack with every block nonempty and at least k cells.
    """
    m, k = _size(m), _size(k)
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    d = k + 2
    p_axes = [list(range(d)) for _ in range(m)]
    q_axes = [list(range((m - i) * d, (m - i + 1) * d)) for i in range(1, m + 1)]
    return p_axes + q_axes


def _simplex(m: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(beta, sum(beta)) for every beta in N^m with sum(beta) <= k, in
    lexicographic order."""
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(m):
        rows = [(beta + (b,), used + b) for beta, used in rows for b in range(k - used + 1)]
    return rows


def _face_nodes(s: int, k: int, ell: int) -> list[tuple[int, ...]]:
    """The nodes of the face at s <= k blocks for nu of size k and length
    ell, shifted down by p_1..p_s q_s and in lexicographic order: every
    beta = (a, b) in N^s x N^s with |a| <= k - s, |b| <= k - 1 and
    |a| + |b| <= k + ell - s - 1.

    Shifted back, these are the exponents with every a_j and b_s at least 1
    inside the three degree bounds; both colour rules hold there, every
    q-colour being a p-colour and the top colour s a q-colour, so each
    divides a monomial the Stanley-Feray formula allows.  The set is lower.
    """
    total = k + ell - s - 1
    qs = _simplex(s, k - 1)
    return [
        a + b
        for a, size_a in _simplex(s, k - s)
        for b, size_b in qs
        if size_a + size_b <= total
    ]


def _degree_set_size(m: int, k: int, total: int) -> int:
    """The number of alpha in N^(2m) with sum(alpha[:m]) <= k,
    sum(alpha[m:]) <= k and sum(alpha) <= total, in closed form: the size of
    the degree set, which holds every monomial of F_mu and, shifted back,
    every face node, so an upper bound on the nodes.

    From 2k on it is every pair of a p-part and a q-part, C(k + m, m)^2.
    Below, take the C(total + 2m, 2m) points of sum at most total and cut
    those whose p-sum a exceeds k, C(a + m - 1, m - 1) C(total - a + m, m)
    for each a = k+1..total, and as many whose q-sum does; no point has
    both.  The binomials are stepped by a ratio, so the cost is total - k
    steps, len(mu) for F_mu, even for a huge m.
    """
    if total >= 2 * k:
        return math.comb(k + m, k) ** 2
    everything = math.comb(total + 2 * m, total)
    if total <= k:
        return everything
    cut = 0
    on_p = math.comb(k + m, k + 1)  # C(a + m - 1, m - 1) at a = k + 1
    on_q = math.comb(total - k - 1 + m, m)  # C(total - a + m, m) at a = k + 1
    for a in range(k + 1, total + 1):
        cut += on_p * on_q
        on_p = on_p * (a + m) // (a + 1)
        on_q = on_q * (total - a) // (total - a + m)
    return everything - 2 * cut


def _oversize(m: int, k: int, total: int, max_nodes: int) -> str | None:
    """The size of the degree set, as text for an error message, if it has
    more than max_nodes points, else None; checked before any node is
    built, a huge m or |mu| costs no more than a small one, and the exact
    count at most len(mu) steps."""
    # the set holds the simplex sum(alpha) <= k in N^n, n = 2m, whose
    # C(big + r, r) points, r = min(n, k), number over 2^r (n >= 2) and over
    # (big / r)^r; when that floor is short the exact count is short too
    n = 2 * m
    r, big = min(n, k), max(n, k)
    floor_bits = r * max(1, big.bit_length() - r.bit_length() - 1)
    if floor_bits >= max(max_nodes.bit_length(), _SHOWN_BITS):
        size = f"over 2^{floor_bits}"
    else:
        count = _degree_set_size(m, k, total)
        if count <= max_nodes:
            return None
        if count.bit_length() <= _SHOWN_BITS:
            size = str(count)
        else:
            size = f"over 2^{count.bit_length() - 1}"
    return size


def _fibres(nodes: list[tuple[int, ...]]) -> list[list[list[int]]]:
    """Per axis, the fibres of the lower set along it that hold two or more
    nodes, each a list of node indices for alpha_axis = 0, 1, ...; nodes must
    be in lexicographic order, and each fibre is a prefix because the set is
    lower.  Both passes of the solve leave a one-node fibre as it is."""
    out = []
    for axis in range(len(nodes[0])):
        fibres: dict[tuple[int, ...], list[int]] = {}
        for i, alpha in enumerate(nodes):
            fibres.setdefault(alpha[:axis] + alpha[axis + 1 :], []).append(i)
        out.append([fibre for fibre in fibres.values() if len(fibre) > 1])
    return out


def _divided_differences(ys: list[int]) -> list[int]:
    """The Newton coefficients [x_0..x_j] of the interpolant through
    (x_j, ys[j]), for unit-spaced nodes x_j = x_0 + j.

    Level j divides each difference of level j - 1 by j, so [x_0..x_j] is
    the forward difference Delta^j ys[0] over j!; every division is exact
    when the ys are multiples of (len(ys) - 1)!, which keeps the solve in
    the integers.
    """
    dd = list(ys)
    for level in range(1, len(dd)):
        for i in range(len(dd) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) // level
    return dd


def _newton_to_monomial(xs: list[int], cs: list[Scalar]) -> list[Scalar]:
    """Monomial coefficients of sum_j cs[j] * prod_{t<j} (x - xs[t]), by Horner."""
    out = [cs[-1]]
    for j in range(len(cs) - 2, -1, -1):
        x = xs[j]
        out = (
            [cs[j] - x * out[0]]
            + [out[t - 1] - x * out[t] for t in range(1, len(out))]
            + [out[-1]]
        )
    return out


def _sweep_fibres(
    values: list[Scalar], axes: list[list[int]], fibres: list[list[list[int]]], solve
) -> None:
    """Replace the values on each fibre along each axis in turn by
    solve(axes[axis], fibre values)."""
    for xs, along in zip(axes, fibres):
        for fibre in along:
            for i, value in zip(fibre, solve(xs, [values[i] for i in fibre])):
                values[i] = value


def _shape_value(m: int, mu: Partition, points: list[tuple[int, ...]]) -> list[int]:
    """The normalized character at mu of each stack point, of point[i] rows
    of length point[m + i], i < m, in order.  A block with no rows or no
    columns adds nothing; the widths of the other blocks must strictly
    decrease.  A stack of fewer than |mu| cells gives 0, the falling
    factorial (n)_|mu| being 0 there, without a kernel read; the others go
    to the kernel as one batch of blocks, with mu as it is."""
    k = sum(mu)
    stacks = [(point[:m], point[m:]) for point in points]
    large = [sum(map(operator.mul, ps, qs)) >= k for ps, qs in stacks]
    read = iter(_stack_character(mu, itertools.compress(stacks, large)))
    return [next(read) if big else 0 for big in large]


def _fill(m: int, faces: list[MultivarPoly]) -> MultivarPoly:
    """The sum, over every set S of 1 to len(faces) of the m blocks, of
    faces[|S| - 1] with its s blocks placed at S in order.  Different S give
    different p-supports, so each term is placed once and nothing is added."""
    terms: dict[tuple[int, ...], Scalar] = {}
    for s, face in enumerate(faces, 1):
        for blocks in itertools.combinations(range(m), s):
            slots = blocks + tuple(m + j for j in blocks)
            for exps, c in face.terms.items():
                out = [0] * (2 * m)
                for slot, e in zip(slots, exps):
                    out[slot] = e
                terms[tuple(out)] = c
    return MultivarPoly._from_clean(2 * m, terms)


# _interpolate asks for faces 1, 2, .. in turn, so the faces below s are the
# latest entries and are read back, not solved again, while s <= 65; a face
# of 66 blocks needs m and |nu| of at least 66, whose degree set holds over
# 10^50 points
@lru_cache(maxsize=64)
def _face(s: int, nu: Partition) -> MultivarPoly:
    """H^(s)_nu, the terms of F_nu at s blocks that hold every p_1..p_s, for
    a nonempty nu without trailing 1s and 1 <= s <= |nu|.

    Such a term's top colour s is a q-colour, so H = p_1..p_s q_s G, and G
    is interpolated on _face_nodes(s, |nu|, len(nu)), each node moved up by
    one in those coordinates on the axes.  The node (p, q) is a stack with
    every block nonempty, and its value is the character there, less the
    faces below s at each proper subset of its blocks, over p_1..p_s q_s;
    the characters are read in one batch (_shape_value), the nodes of at
    least |nu| cells going to the kernel in one call.
    Each face H^(t) below is evaluated once per distinct projection of the
    nodes onto t of their blocks, in one batch per t, not filled into an
    s-block polynomial and read at every node.
    Each factor is at most |nu|, so with integer coefficients below,
    (|nu|!)^(s+1) times the value is an integer; a rational face below adds
    the lcm of the denominators it leaves.  The solve then runs in integers.

    f_mu_interpolate and f_k_polynomial read every face from here; a whole
    verify --full run fills 41 of the 64 entries and evicts none.
    """
    k = sum(nu)
    top = 2 * s - 1  # the index of q_s
    shift = (1,) * s + (0,) * (s - 1) + (1,)
    axes = [axis[d:] for axis, d in zip(interpolation_grid(s, k), shift)]
    nodes = _face_nodes(s, k, len(nu))
    points = [tuple(map(list.__getitem__, axes, beta)) for beta in nodes]
    rests = _shape_value(s, nu, points)
    for t in range(1, s):
        # the nodes' projections onto t of their blocks, each read once
        reads: dict[tuple[int, ...], int] = {}
        columns = []
        for blocks in itertools.combinations(range(s), t):
            project = operator.itemgetter(*blocks, *(s + j for j in blocks))
            columns.append([reads.setdefault(project(p), len(reads)) for p in points])
        values = _face(t, nu).evaluate_many(list(reads))
        for column in columns:
            rests = [r - values[i] for r, i in zip(rests, column)]
    spread = math.lcm(*(r.denominator for r in rests))
    room = math.factorial(k) ** (s + 1)
    # every fibre has at most k nodes, so the solve takes (k - 1)! per axis
    scale = math.factorial(k - 1) ** (2 * s)
    values = [
        int(r * spread) * (room // (math.prod(point[:s]) * point[top])) * scale
        for r, point in zip(rests, points)
    ]
    fibres = _fibres(nodes)
    _sweep_fibres(values, axes, fibres, lambda xs, ys: _divided_differences(ys))
    _sweep_fibres(values, axes, fibres, _newton_to_monomial)
    denominator = spread * room * scale
    terms: dict[tuple[int, ...], Scalar] = {}
    for beta, c in zip(nodes, values):
        quotient, rest = divmod(c, denominator)
        if rest or quotient:
            terms[tuple(map(operator.add, beta, shift))] = (
                Fraction(c, denominator) if rest else quotient
            )
    return MultivarPoly._from_clean(2 * s, terms)


def _interpolate(m: int, nu: Partition) -> MultivarPoly:
    """F_nu for a nonempty nu without trailing 1s: the sum over every set S
    of at most |nu| of the m blocks of H^(|S|)_nu at the blocks of S, each
    face read from _face's cache."""
    return _fill(m, [_face(s, nu) for s in range(1, min(m, sum(nu)) + 1)])


def _falling_size(m: int, start: int, r: int) -> MultivarPoly:
    """(N - start)_r for N = p_1 q_1 + .. + p_m q_m, term by term: the
    coefficient c_d of x^d in (x - start)_r times N^d, whose terms are
    d! / prod(e_i!) prod (p_i q_i)^(e_i) over the ways e to split d among
    the m blocks."""
    cs = [1]  # low degree first
    for j in range(start, start + r):
        cs = [below - j * c for below, c in zip([0] + cs, cs + [0])]
    terms: dict[tuple[int, ...], Scalar] = {}
    for d, c in enumerate(cs):
        if not c:  # the constant term, 0 when start = 0
            continue
        scaled = c * math.factorial(d)
        for colours in itertools.combinations_with_replacement(range(m), d):
            exps = [0] * (2 * m)
            for j in colours:
                exps[j] += 1
                exps[m + j] += 1
            split = Counter(colours).values()
            terms[tuple(exps)] = scaled // math.prod(map(math.factorial, split))
    return MultivarPoly._from_clean(2 * m, terms)


def f_mu_interpolate(
    m: int, mu: Partition, max_nodes: int = DEFAULT_MAX_NODES
) -> MultivarPoly:
    """The character polynomial F_mu in p_1..p_m, q_1..q_m: F_nu, for nu the
    swept prefix of mu, filled from its faces, times (N - |nu|)_r for the r
    trailing 1s of mu, where N = p_1 q_1 + .. + p_m q_m.

    Raises ValueError if max_nodes is below 1 or mu's own degree set has more
    than max_nodes points, and ArithmeticError if the result fails to
    reproduce the character at a point outside the grid, which would mean an
    assumed bound on the monomials of F_mu is wrong for this mu; that
    situation is surfaced, never papered over.
    """
    m, max_nodes = _size(m), _size(max_nodes)
    mu = as_partition(mu)
    k = sum(mu)
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and a nonempty mu")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be a positive integer, got {max_nodes}")
    size = _oversize(m, k, k + len(mu), max_nodes)
    if size:
        raise ValueError(
            f"grid has {size} nodes, above the limit {max_nodes}; "
            "raise max_nodes to force the run"
        )
    swept = mu[: _sweep_depth(mu)]
    poly = _interpolate(m, swept) if swept else MultivarPoly.const(2 * m, 1)
    if len(swept) < len(mu):
        factor = _falling_size(m, sum(swept), len(mu) - len(swept))
        terms: dict[tuple[int, ...], Scalar] = {}
        get = terms.get
        for e1, c1 in poly.terms.items():
            for e2, c2 in factor.terms.items():
                key = tuple(map(operator.add, e1, e2))
                terms[key] = get(key, 0) + c1 * c2
        # drop what cancelled; a rational F_nu (from patched node values)
        # may leave integral Fractions, which become ints
        poly = MultivarPoly._from_clean(
            2 * m, {e: _clean_coef(c) for e, c in terms.items() if c}
        )
    guard = _guard_point(m, k)
    expected = _shape_value(m, mu, [guard])[0]
    if poly.evaluate(guard) != expected:
        raise ArithmeticError(
            f"interpolant for mu={format_partition(mu)}, m={m} disagrees with "
            f"the character at off-grid point {guard}: degree assumption broken"
        )
    return poly


def f_k_polynomial(m: int, k: int) -> MultivarPoly:
    """Normalized character of an m-rectangle stack at a k-cycle, F_k, as a
    polynomial in p_1..p_m, q_1..q_m: F_mu for mu = (k), filled from its faces.

    No (m, k) that can be answered is refused: the node budget is set past
    any degree set the fill can handle, since the default would turn down
    (7, 5).  A degree set of more than sys.maxsize points raises ValueError
    with a message that names no budget, as F_k takes none.
    frobenius.f_k_residue expands the same polynomial from the
    residue formula; it is the reference that verify and the tests compare
    this route against.
    """
    m, k = _size(m), _size(k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if m < 1:
        raise ValueError(f"need m >= 1 rectangles, got {m}")
    size = _oversize(m, k, k + 1, sys.maxsize)
    if size:
        raise ValueError(f"grid has {size} nodes, above the limit {sys.maxsize}")
    return f_mu_interpolate(m, (k,), max_nodes=sys.maxsize)


def _guard_point(m: int, k: int) -> tuple[int, ...]:
    """The point one past each axis's last node of interpolation_grid(m, k):
    a stack with every block nonempty, strictly decreasing widths and at
    least k cells."""
    d = k + 2
    return (d,) * m + tuple((m - i) * d for i in range(m))


def off_grid_fidelity(
    m: int,
    mu: Partition,
    poly: MultivarPoly,
    samples: int = 20,
    seed: int | None = None,
) -> bool:
    """Compare poly, the interpolated F_mu, against direct character values at
    random admissible shapes drawn outside the interpolation grid.

    Each block's (p, q) is drawn as one integer below top_p * top_q, p up
    to top_p = k + 4 and q up to top_q = m(k + 3) + 6, and a draw whose
    widths repeat is drawn again; with the widths sorted descending, the
    p's are uniform and the widths a uniform m-set.  A draw of fewer than
    k cells is drawn again, and so is one on the grid of
    interpolation_grid, where every p_i is at most k + 1 and every q_i lies
    in its band.  The draws are compared in chunks of up to _AUDIT_CHUNK:
    poly is evaluated once per chunk (MultivarPoly.evaluate_many), and the
    chunk's shapes go to the kernel as one batch of blocks
    (characters._stack_character), so memory stays bounded for any number
    of samples."""
    m, samples = _size(m), _size(samples)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    mu = as_partition(mu)
    k = sum(mu)
    if m < 1 or k < 1:  # with m < 1 every draw is empty and the loop never ends
        raise ValueError("need m >= 1 and a nonempty mu")
    if seed is None:
        seed = hash((m, mu)) & 0xFFFFFFFF
    rng = random.Random(seed)
    randrange = rng.randrange
    top_p, top_q = k + 4, m * (k + 3) + 6
    choices = top_p * top_q  # a block (p, q) is drawn as (p - 1) top_q + q - 1
    d, bands = k + 2, list(range(m - 1, -1, -1))  # q_i // d is m - i on the grid
    blocks = range(m)
    done = 0
    while done < samples:
        chunk = min(_AUDIT_CHUNK, samples - done)
        stacks = []
        while len(stacks) < chunk:
            draws = [randrange(choices) for _ in blocks]
            qs = {c % top_q + 1 for c in draws}
            if len(qs) < m:
                continue  # a repeated width; draw again
            ps = tuple([c // top_q + 1 for c in draws])
            qs = sorted(qs, reverse=True)
            if max(ps) < d and [q // d for q in qs] == bands:
                continue  # landed on the grid; draw again
            qs = tuple(qs)
            if sum(map(operator.mul, ps, qs)) < k:
                continue
            stacks.append((ps, qs))
        points = [ps + qs for ps, qs in stacks]
        if poly.evaluate_many(points) != _stack_character(mu, stacks):
            return False
        done += chunk
    return True


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of the nonnegativity-and-sum check for one (m, mu)."""

    m: int
    mu: Partition
    k: int
    poly: MultivarPoly
    flipped: MultivarPoly
    integer_coefficients: bool
    nonnegative: bool
    coefficient_sum: int | Fraction
    expected_sum: int
    findings: tuple[str, ...] = field(default=())

    @property
    def sum_matches(self) -> bool:
        return self.coefficient_sum == self.expected_sum

    @property
    def passed(self) -> bool:
        return self.integer_coefficients and self.nonnegative and self.sum_matches

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "mu": format_partition(self.mu),
            "k": self.k,
            "integer_coefficients": self.integer_coefficients,
            "nonnegative": self.nonnegative,
            "coefficient_sum": str(self.coefficient_sum),
            "expected_sum": str(self.expected_sum),
            "sum_matches": self.sum_matches,
            "passed": self.passed,
            "flipped_terms": self.flipped.to_json_terms()
            if self.flipped.is_integral()
            else None,
            "findings": list(self.findings),
        }


def conjecture1_check(
    m: int, mu: Partition, max_nodes: int = DEFAULT_MAX_NODES
) -> ConjectureReport:
    """Interpolate F_mu and test: integer coefficients; nonnegative after the
    sign flip; flipped coefficients summing to (k+m-1)_k."""
    mu = as_partition(mu)
    k = sum(mu)
    poly = f_mu_interpolate(m, mu, max_nodes=max_nodes)
    flipped = flipped_polynomial(poly, m, k)
    integral = poly.is_integral()
    nonneg = all(c > 0 for c in flipped.terms.values())
    total = flipped.coefficient_sum()
    expected = math.perm(k + m - 1, k)
    findings = []
    if not integral:
        findings.append("non-integer coefficient found")
    if not nonneg:
        bad = [e for e, c in flipped.terms.items() if c < 0]
        findings.append(f"negative flipped coefficients at exponents {bad}")
    if total != expected:
        findings.append(f"coefficient sum {total} != ({k + m - 1})_{k} = {expected}")
    return ConjectureReport(
        m=m,
        mu=mu,
        k=k,
        poly=poly,
        flipped=flipped,
        integer_coefficients=integral,
        nonnegative=nonneg,
        coefficient_sum=total,
        expected_sum=expected,
        findings=tuple(findings),
    )
