"""Exact reconstruction of multi-rectangle character polynomials from values.

For a fixed cycle-type prefix mu of size k, the normalized character of an
m-rectangle stack is a polynomial in p_1..p_m, q_1..q_m: by the
Stanley-Feray formula each monomial comes from a factorization s*t = w_mu
in S_k, with p-degree cyc(s) <= k, q-degree cyc(t) <= k, and
cyc(s) + cyc(t) <= k + len(mu).  So its values on the lower set

    {alpha : alpha_1 + .. + alpha_m <= k, alpha_(m+1) + .. + alpha_2m <= k,
     sum(alpha) <= k + len(mu)}

pin it down (Dyn & Floater, "Multivariate polynomial interpolation on lower
sets", J. Approx. Theory 177, 2014).  Node alpha sits at coordinate
alpha_i of each axis; the axes are chosen so every node is an honest shape
(row lengths strictly decreasing, enough squares to hold mu), which lets the
node values come from the trusted character kernel, as exact integers.  The
Newton solve runs in integers on node indices, and the interpolant is then
audited at a point outside the grid before being returned.

Only mu's swept prefix nu (mu without its trailing 1s) is interpolated:
Ch_(mu, 1) = (n - |mu|) Ch_mu (Kerov & Olshanski, C. R. Acad. Sci. Paris
319, 1994) gives F_mu = (N - |nu|)_(|mu| - |nu|) F_nu, N = sum p_i q_i.
The node budget still counts mu's own set, which holds nu's set and every
monomial of F_mu.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

# normalized_character is unused here, but perfbench's tracer wraps it under
# this module's name, so the name stays
from .characters import _normalized_character, _sweep_depth, normalized_character
from .frobenius import _dimension_vars, flipped_polynomial
from .partitions import Partition, as_partition, format_partition
from .polynomials import MultivarPoly, Scalar

DEFAULT_MAX_NODES = 20_000
_SHOWN_BITS = 4096  # node counts longer than this are reported by size


def interpolation_grid(m: int, k: int) -> list[list[int]]:
    """Node lists for p_1..p_m then q_1..q_m.

    p nodes are 1..k+2.  q_i nodes sit in disjoint descending bands so any
    combination gives strictly decreasing row lengths; with one rectangle the
    band starts above k so every node shape has at least k squares.  Each
    axis is a run of consecutive integers, which the Newton solve relies on;
    the lower-set nodes use its first k+1 entries, and the guard point sits
    one past the last.
    """
    d = k + 2
    p_axes = [list(range(1, d + 1)) for _ in range(m)]
    if m == 1:
        q_axes = [list(range(k + 1, k + d + 1))]
    else:
        q_axes = [
            list(range((m - i) * d + 1, (m - i + 1) * d + 1))
            for i in range(1, m + 1)
        ]
    return p_axes + q_axes


def _simplex(m: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """(beta, sum(beta)) for every beta in N^m with sum(beta) <= k, in
    lexicographic order."""
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(m):
        rows = [(beta + (b,), used + b) for beta, used in rows for b in range(k - used + 1)]
    return rows


def _lower_set(m: int, k: int, total: int) -> list[tuple[int, ...]]:
    """Multi-indices alpha in N^(2m), in lexicographic order, with
    sum(alpha[:m]) <= k, sum(alpha[m:]) <= k and sum(alpha) <= total."""
    simplex = _simplex(m, k)
    return [
        p + q
        for p, a in simplex
        if a <= total
        for q, b in simplex
        if b <= total - a
    ]


def _lower_set_size(m: int, k: int, total: int) -> int:
    """len(_lower_set(m, k, total)) in closed form.

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


def _check_node_budget(m: int, k: int, total: int, max_nodes: int) -> None:
    """Raise ValueError, before any node is built, if the lower set has more
    than max_nodes points; a huge m or |mu| costs no more than a small one,
    and the exact count at most len(mu) steps."""
    # the set holds the simplex sum(alpha) <= k in N^n, n = 2m, whose
    # C(big + r, r) points, r = min(n, k), number over 2^r (n >= 2) and over
    # (big / r)^r; when that floor is short the exact count is short too
    n = 2 * m
    r, big = min(n, k), max(n, k)
    floor_bits = r * max(1, big.bit_length() - r.bit_length() - 1)
    if floor_bits >= max(max_nodes.bit_length(), _SHOWN_BITS):
        size = f"over 2^{floor_bits}"
    else:
        count = _lower_set_size(m, k, total)
        if count <= max_nodes:
            return
        if count.bit_length() <= _SHOWN_BITS:
            size = str(count)
        else:
            size = f"over 2^{count.bit_length() - 1}"
    raise ValueError(
        f"grid has {size} nodes, above the limit {max_nodes}; "
        "raise max_nodes to force the run"
    )


def _fibres(nodes: list[tuple[int, ...]]) -> list[list[list[int]]]:
    """Per axis, the fibres of the lower set along it, each a list of node
    indices for alpha_axis = 0, 1, ...; nodes must be in lexicographic order,
    and each fibre is a prefix because the set is lower."""
    out = []
    for axis in range(len(nodes[0])):
        fibres: dict[tuple[int, ...], list[int]] = {}
        for i, alpha in enumerate(nodes):
            fibres.setdefault(alpha[:axis] + alpha[axis + 1 :], []).append(i)
        out.append(list(fibres.values()))
    return out


def _forward_differences(ys: list[Scalar], weights: list[int]) -> list[Scalar]:
    """k! times the Newton coefficients [x_0..x_j] of the interpolant through
    (x_j, ys[j]), for unit-spaced nodes x_j = x_0 + j, given weights[j] =
    k!/j! for j <= k and len(ys) <= k + 1.

    There [x_0..x_j] is the forward difference Delta^j ys[0] over j!, so
    scaled by k! it stays in the integers, which keeps the Newton-to-monomial
    pass out of Fraction arithmetic.
    """
    dd = list(ys)
    for level in range(1, len(dd)):
        for i in range(len(dd) - 1, level - 1, -1):
            dd[i] -= dd[i - 1]
    return [d * w for d, w in zip(dd, weights)]


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


def _shape_value(m: int, swept: Partition, k: int, point: tuple[int, ...]):
    """The normalized character at the stack of point[i] rows of length
    point[m + i], i < m, for mu of size k with swept prefix swept (mu without
    its trailing 1s); point must give an honest shape of at least k squares."""
    lam: Partition = ()
    for p, q in zip(point[:m], point[m:]):
        lam += (q,) * p
    return _normalized_character(lam, swept, k)


# the largest F_nu the default node budget allows, F_(197) at m = 1, holds
# 9801 terms in about 2 MB, so 8 of them stay near the size of the process
@lru_cache(maxsize=8)
def _interpolate(m: int, nu: Partition) -> MultivarPoly:
    """F_nu for a nonempty nu without trailing 1s, by Newton interpolation in
    integers on the lower set of its degree bounds.

    Cached by (m, nu), so the F_nu shared by mu = nu, (nu, 1), (nu, 1, 1), ..
    is solved once per process; the polynomial is read-only.
    """
    k, n = sum(nu), 2 * m
    axes = interpolation_grid(m, k)
    nodes = _lower_set(m, k, k + len(nu))
    # node values, then forward differences along every axis (k! times the
    # Newton coefficients, per axis), then Newton to monomials along every
    # axis; each exponent tuple ends up where its node's multi-index was
    values = [
        _shape_value(m, nu, k, tuple(axis[a] for axis, a in zip(axes, alpha)))
        for alpha in nodes
    ]
    fibres = _fibres(nodes)
    scale = math.factorial(k)
    weights = [scale // math.factorial(j) for j in range(k + 1)]
    _sweep_fibres(values, axes, fibres, lambda xs, ys: _forward_differences(ys, weights))
    _sweep_fibres(values, axes, fibres, _newton_to_monomial)
    denominator = scale**n
    terms: dict[tuple[int, ...], Scalar] = {}
    for alpha, c in zip(nodes, values):
        quotient, rest = divmod(c, denominator)
        terms[alpha] = Fraction(c, denominator) if rest else quotient
    return MultivarPoly(n, terms)


def f_mu_interpolate(
    m: int, mu: Partition, max_nodes: int = DEFAULT_MAX_NODES
) -> MultivarPoly:
    """The character polynomial F_mu in p_1..p_m, q_1..q_m: F_nu, for nu the
    swept prefix of mu, interpolated on nu's lower set, times N - j for each
    trailing 1 of mu, j = |nu|..|mu| - 1, where N = p_1 q_1 + .. + p_m q_m.

    Raises ValueError if max_nodes is below 1 or mu's own lower set has more
    than max_nodes points, and ArithmeticError if the result fails to
    reproduce the character at a point outside the grid, which would mean an
    assumed degree bound is wrong for this mu; that situation is surfaced,
    never papered over.
    """
    mu = as_partition(mu)
    k = sum(mu)
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and a nonempty mu")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be a positive integer, got {max_nodes}")
    _check_node_budget(m, k, k + len(mu), max_nodes)
    swept = mu[: _sweep_depth(mu)]
    poly = _interpolate(m, swept) if swept else MultivarPoly.const(2 * m, 1)
    ps, qs = _dimension_vars(m)
    size = sum(p * q for p, q in zip(ps, qs))
    for j in range(sum(swept), k):
        poly = poly * (size - j)
    guard = _guard_point(m, k)
    expected = _shape_value(m, swept, k, guard)
    if poly.evaluate(guard) != expected:
        raise ArithmeticError(
            f"interpolant for mu={format_partition(mu)}, m={m} disagrees with "
            f"the character at off-grid point {guard}: degree assumption broken"
        )
    return poly


def _guard_point(m: int, k: int) -> tuple[int, ...]:
    """An admissible shape with every coordinate one past its axis's last node."""
    return tuple(axis[-1] + 1 for axis in interpolation_grid(m, k))


def off_grid_fidelity(
    m: int,
    mu: Partition,
    poly: MultivarPoly,
    samples: int = 20,
    seed: int | None = None,
) -> bool:
    """Compare poly, the interpolated F_mu, against direct character values at
    random admissible shapes drawn outside the interpolation grid."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    mu = as_partition(mu)
    k = sum(mu)
    if m < 1 or k < 1:  # with m < 1 every draw is empty and the loop never ends
        raise ValueError("need m >= 1 and a nonempty mu")
    if seed is None:
        seed = hash((m, mu)) & 0xFFFFFFFF
    rng = random.Random(seed)
    swept = mu[: _sweep_depth(mu)]
    axes = interpolation_grid(m, k)
    grid_sets = [set(a) for a in axes]
    hi_q = m * (k + 3) + 6
    done = 0
    while done < samples:
        ps = tuple(rng.randint(1, k + 4) for _ in range(m))
        qs = tuple(sorted(rng.sample(range(1, hi_q + 1), m), reverse=True))
        point = ps + qs
        if sum(p * q for p, q in zip(ps, qs)) < k:
            continue
        if all(x in s for x, s in zip(point, grid_sets)):
            continue  # landed on the grid; draw again
        lam = tuple(q for p, q in zip(ps, qs) for _ in range(p))
        if poly.evaluate(point) != _normalized_character(lam, swept, k):
            return False
        done += 1
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
