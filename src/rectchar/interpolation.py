"""Exact reconstruction of multi-rectangle character polynomials from values.

For a fixed cycle-type prefix mu of size k, the normalized character of an
m-rectangle stack is a polynomial in the 2m dimensions of degree at most k in
each variable and of total degree at most k + len(mu): by the Stanley-Feray
formula each monomial comes from a factorization s*t = w_mu, with p-degree
cyc(s) and q-degree cyc(t), and cyc(s) + cyc(t) <= k + len(mu).  So its
values on the lower set {alpha : alpha_i <= k, sum(alpha) <= k + len(mu)} pin
it down (Dyn & Floater, "Multivariate polynomial interpolation on lower
sets", J. Approx. Theory 177, 2014).  Node alpha sits at coordinate
alpha_i of each axis; the axes are chosen so every node is an honest shape
(row lengths strictly decreasing, enough squares to hold mu).  The Newton
interpolant is then audited at a point outside the grid before being
returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import normalized_character
from .frobenius import flipped_polynomial
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


def _lower_set(n: int, k: int, total: int) -> list[tuple[int, ...]]:
    """Multi-indices alpha in N^n with every alpha_i <= k and sum(alpha) <= total."""
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for _ in range(n):
        rows = [
            (alpha + (a,), used + a)
            for alpha, used in rows
            for a in range(min(k, total - used) + 1)
        ]
    return [alpha for alpha, _ in rows]


def _lower_set_size(n: int, k: int, total: int) -> int:
    """len(_lower_set(n, k, total)) in closed form, by inclusion-exclusion
    over the j axes pushed past k."""
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(total - j * (k + 1) + n, n)
        for j in range(min(n, total // (k + 1)) + 1)
    )


def _check_node_budget(n: int, k: int, total: int, max_nodes: int) -> None:
    """Raise ValueError, before any node is built, if the lower set has more
    than max_nodes points; a huge m or mu costs no more than a small one."""
    # the set holds the simplex sum(alpha) <= k, whose C(big + r, r) points,
    # r = min(n, k), number over 2^r (n >= 2) and over (big / r)^r; when that
    # floor is short the exact count is short too, and cheap
    r, big = min(n, k), max(n, k)
    floor_bits = r * max(1, big.bit_length() - r.bit_length() - 1)
    if floor_bits >= max(max_nodes.bit_length(), _SHOWN_BITS):
        size = f"over 2^{floor_bits}"
    else:
        count = _lower_set_size(n, k, total)
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


def _forward_differences(ys: list[Scalar], k: int) -> list[Scalar]:
    """k! times the Newton coefficients [x_0..x_j] of the interpolant through
    (x_j, ys[j]), for unit-spaced nodes x_j = x_0 + j and len(ys) <= k + 1.

    There [x_0..x_j] is the forward difference Delta^j ys[0] over j!, so
    scaled by k! it stays in the integers, which keeps the Newton-to-monomial
    pass out of Fraction arithmetic.
    """
    dd = list(ys)
    for level in range(1, len(dd)):
        for i in range(len(dd) - 1, level - 1, -1):
            dd[i] -= dd[i - 1]
    scale = math.factorial(k)
    return [d * (scale // math.factorial(j)) for j, d in enumerate(dd)]


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


def _sweep_fibres(values: dict, axes: list[list[int]], k: int, total: int, solve) -> None:
    """On the lower set held by values, replace each fibre along each axis in
    turn by solve(axes[axis], fibre values); every fibre is a prefix
    {alpha_axis = 0, 1, ...} because the set is lower."""
    for axis, xs in enumerate(axes):
        for alpha in values:
            if alpha[axis]:
                continue
            head, tail = alpha[:axis], alpha[axis + 1 :]
            fibre = [head + (j,) + tail for j in range(min(k, total - sum(alpha)) + 1)]
            for key, value in zip(fibre, solve(xs, [values[key] for key in fibre])):
                values[key] = value


def _shape_value(m: int, mu: Partition, point: tuple[int, ...]):
    """The normalized character at the stack of point[i] rows of length
    point[m + i], i < m."""
    lam: Partition = ()
    for p, q in zip(point[:m], point[m:]):
        lam += (q,) * p
    return normalized_character(lam, mu)


def f_mu_interpolate(
    m: int, mu: Partition, max_nodes: int = DEFAULT_MAX_NODES
) -> MultivarPoly:
    """The character polynomial F_mu in p_1..p_m, q_1..q_m, by Newton
    interpolation over exact rationals on the lower set of its degree bounds.

    Raises ValueError if max_nodes is below 1 or that set has more than
    max_nodes points, and ArithmeticError if the interpolant fails to
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
    n, total = 2 * m, k + len(mu)
    _check_node_budget(n, k, total, max_nodes)
    axes = interpolation_grid(m, k)
    # node values, then forward differences along every axis (k! times the
    # Newton coefficients, per axis), then Newton to monomials along every
    # axis; each exponent tuple ends up where its node's multi-index was
    values = {
        alpha: _shape_value(m, mu, tuple(axis[a] for axis, a in zip(axes, alpha)))
        for alpha in _lower_set(n, k, total)
    }
    _sweep_fibres(values, axes, k, total, lambda xs, ys: _forward_differences(ys, k))
    _sweep_fibres(values, axes, k, total, _newton_to_monomial)
    denominator = math.factorial(k) ** n
    poly = MultivarPoly(n, {e: Fraction(c, denominator) for e, c in values.items()})
    guard = _guard_point(m, k)
    expected = _shape_value(m, mu, guard)
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
    if seed is None:
        seed = hash((m, mu)) & 0xFFFFFFFF
    rng = random.Random(seed)
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
        if poly.evaluate(point) != _shape_value(m, mu, point):
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
