"""Exact reconstruction of multi-rectangle character polynomials from values.

For a fixed cycle-type prefix mu of size k, the normalized character of an
m-rectangle stack is a polynomial in the 2m dimensions with per-variable
degree at most k+1, so k+2 nodes per variable pin it down.  Nodes are chosen
so every grid point is an honest shape (row lengths strictly decreasing,
enough squares to hold mu); the resulting Newton interpolant is then audited
at a point outside the grid before being returned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import normalized_character
from .frobenius import MultiRectShape, flipped_polynomial
from .partitions import Partition, as_partition, format_partition
from .polynomials import MultivarPoly, Scalar

DEFAULT_MAX_NODES = 20_000


def interpolation_grid(m: int, k: int) -> list[list[int]]:
    """Node lists for p_1..p_m then q_1..q_m.

    p nodes are 1..k+2.  q_i nodes sit in disjoint descending bands so any
    combination gives strictly decreasing row lengths; with one rectangle the
    band starts above k so every node shape has at least k squares.
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


def _newton_coefficients(xs: list[int], ys: list[Scalar]) -> list[Scalar]:
    """Monomial-basis coefficients of the interpolant through (xs[i], ys[i]),
    in exact rationals."""
    n = len(xs)
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * Fraction(1, xs[i] - xs[i - level])
    coeffs: list[Scalar] = [0] * n
    basis = [1]  # little-endian coefficients of prod (x - xs[t]) so far
    for j in range(n):
        for t, bc in enumerate(basis):
            coeffs[t] += dd[j] * bc
        if j < n - 1:
            shifted = [0] + basis
            scaled = [-xs[j] * b for b in basis] + [0]
            basis = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def _shape_value(m: int, mu: Partition, point: tuple[int, ...]):
    shape = MultiRectShape(point[:m], point[m:])
    return normalized_character(shape.to_partition(), mu)


def f_mu_interpolate(
    m: int, mu: Partition, max_nodes: int = DEFAULT_MAX_NODES
) -> MultivarPoly:
    """The character polynomial F_mu in p_1..p_m, q_1..q_m, by tensor-grid
    Newton interpolation over exact rationals.

    Raises ArithmeticError if the interpolant fails to reproduce the
    character at a point outside the grid, which would mean the assumed
    per-variable degree bound is wrong for this mu; that situation is
    surfaced, never papered over.
    """
    mu = as_partition(mu)
    k = sum(mu)
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and a nonempty mu")
    axes = interpolation_grid(m, k)
    total_nodes = math.prod(len(a) for a in axes)
    if total_nodes > max_nodes:
        raise ValueError(
            f"grid has {total_nodes} nodes, above the limit {max_nodes}; "
            "raise max_nodes to force the run"
        )
    # node values, then one axis at a time each fibre's Newton coefficients,
    # with that coordinate replaced by the exponent of its monomial
    values = {point: _shape_value(m, mu, point) for point in itertools.product(*axes)}
    for axis, xs in enumerate(axes):
        solved = {}
        for point in values:
            if point[axis] != xs[0]:
                continue
            head, tail = point[:axis], point[axis + 1 :]
            ys = [values[head + (x,) + tail] for x in xs]
            for exp, c in enumerate(_newton_coefficients(xs, ys)):
                solved[head + (exp,) + tail] = c
        values = solved
    poly = MultivarPoly(2 * m, values)
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
