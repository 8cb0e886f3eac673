"""Top-degree parts of the rectangle-stack character polynomials.

G_k is the degree-(k+1) homogeneous part of F_k.  It has three independent
descriptions implemented here: filtering F_k, a Lagrange-inversion residue of
the multiplicative kernel M(x), and (summed over k) the reciprocal of a
compositional inverse.  Specializing all dimensions to 1 and -1 collapses the
coefficient sums to Catalan numbers (one rectangle) and big Schroeder numbers
(two rectangles); the m=1 coefficients themselves are Narayana numbers.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from fractions import Fraction

from .frobenius import _dimension_vars, _stack_roots, flipped_polynomial
from .interpolation import f_k_polynomial
from .partitions import _size
from .polynomials import MultivarPoly
from .series import PowerSeries


def g_k_leading(m: int, k: int) -> MultivarPoly:
    """Degree-(k+1) homogeneous part of the k-cycle character polynomial."""
    return f_k_polynomial(m, k).homogeneous_part(k + 1)


def _kernel_ratio(num, den, order: int) -> PowerSeries:
    """prod(1 - a x)/prod(1 - b x) over the roots a in num and b in den."""
    series = PowerSeries.one(order)
    for a in num:
        series = series.mul_linear(a)
    for b in den:
        series = series.divide_linear(b)
    return series


def _inverse_reciprocal(ratio: PowerSeries) -> PowerSeries:
    """x/g, where g is the compositional inverse of x*ratio."""
    kernel = PowerSeries([0] + ratio.coeffs, ratio.order + 1)
    return kernel.compositional_inverse().shift_down().reciprocal()


def g_k_via_lagrange(m: int, k: int) -> MultivarPoly:
    """G_k as -(1/k) [x^(k+1)] M(x)^k, M = prod(1-A_i x)/prod(1-B_i x)."""
    if k < 1:
        raise ValueError("k must be positive")
    M = _kernel_ratio(*_stack_roots(*_dimension_vars(m)), k + 1)
    power = PowerSeries.one(k + 1)
    for _ in range(k):
        power = power * M
    return Fraction(-1, k) * power.coefficient(k + 1)


def gk_generating_check(m: int, kmax: int) -> bool:
    """Compositional-inverse route against the homogeneous-part route.

    The reciprocal of the inverse of x*prod(1-B_i x)/prod(1-A_i x) is
    1/x + sum G_k x^k; the constant slot (k = 0) carries p_1 + ... + p_m.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    ps, qs = _dimension_vars(m)
    upper, lower = _stack_roots(ps, qs)
    u = _inverse_reciprocal(_kernel_ratio(lower, upper, kmax + 1))
    if u.coefficient(1) != sum(ps, MultivarPoly.zero(2 * m)):
        return False
    return all(u.coefficient(k + 1) == g_k_leading(m, k) for k in range(1, kmax + 1))


def s_k_sequence(m: int, kmax: int) -> list[int]:
    """S_1..S_kmax: signed all-ones coefficient sums of the G_k, from the
    quadratic-kernel route.

    The kernel x(1-x)/(1+(m-1)x) is the all-ones specialization of the G_k
    generating kernel after the sign flip; S_k is minus the (k+1)st
    coefficient of the reciprocal of (inverse kernel)/x.  Catalan numbers for
    m = 1, big Schroeder numbers for m = 2.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    u = _inverse_reciprocal(_kernel_ratio([1], [1 - m], kmax + 1))
    out: list[int] = []
    for k in range(1, kmax + 1):
        value = -u.coefficient(k + 1)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ArithmeticError(f"S_{k} came out non-integral: {value}")
            value = int(value)
        out.append(value)
    return out


def s_k_from_coefficient_sums(m: int, kmax: int) -> list[int]:
    """S_1..S_kmax read off the polynomials: (-1)^k G_k at p_i = 1, q_i = -1."""
    if m < 1:
        raise ValueError("m must be positive")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    out: list[int] = []
    for k in range(1, kmax + 1):
        value = g_k_leading(m, k).evaluate((1,) * m + (-1,) * m)
        if k % 2:
            value = -value
        out.append(int(value))
    return out


def narayana_number(k: int, i: int) -> int:
    """C(k,i) * C(k,i-1) / k, the count refining the Catalan number by i."""
    k, i = _size(k), _size(i)
    if k < 1:
        raise ValueError("k must be positive")
    if not 1 <= i <= k:
        return 0
    return math.comb(k, i) * math.comb(k, i - 1) // k


def narayana_check(kmax: int) -> bool:
    """Flipped one-rectangle G_k coefficients against the closed form, for
    k = 1..kmax."""
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    for k in range(1, kmax + 1):
        flipped = flipped_polynomial(g_k_leading(1, k), 1, k)
        expected = MultivarPoly(
            2, {(k + 1 - i, i): narayana_number(k, i) for i in range(1, k + 1)}
        )
        if flipped != expected:
            return False
    return True


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to total, in
    lexicographic order, by stars and bars without recursion: each part is
    the gap between consecutive cuts of 0 <= c_1 <= ... <= c_(parts-1) <= total."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, (*cuts, total), (0, *cuts)))


def _comb_nonneg(n: int, r: int) -> int:
    """C(n, r) with C(n, 0) = 1 for every integer n and 0 for negative n, r."""
    if r < 0:
        return 0
    if r == 0:
        return 1
    if n < 0:
        return 0
    return math.comb(n, r)


def elizalde_formula(m: int, k: int) -> MultivarPoly:
    """Closed-form expansion of the flipped G_k, coefficient by coefficient.

    Sums over exponent vectors (i_1..i_m, j_1..j_m) of total k+1; the inner
    sums run over r with the final binomial read as C(..., i_s - r); a block
    s >= 1 with i_s = j_s = 0 has the inner sum 1 and is skipped.  The
    result must match flipped_polynomial(g_k_leading(m, k), m, k); the match
    is asserted by the test suite, not assumed here.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps in _compositions(k + 1, 2 * m):
        iv = exps[:m]
        jv = exps[m:]
        weight = math.comb(k, iv[0]) * _comb_nonneg(iv[0] + jv[0] - 1, jv[0])
        partial = iv[0] + jv[0]
        for s in range(1, m):
            if not weight:
                break
            if not (iv[s] or jv[s]):
                continue
            inner = 0
            for r in range(min(iv[s], jv[s]) + 1):
                inner += (
                    math.comb(k, r)
                    * _comb_nonneg(jv[s] - 1, jv[s] - r)
                    * _comb_nonneg(k - r - partial, iv[s] - r)
                )
            weight *= inner
            partial += iv[s] + jv[s]
        if weight:
            terms[exps] = Fraction(weight, k)
    return MultivarPoly(2 * m, terms)
