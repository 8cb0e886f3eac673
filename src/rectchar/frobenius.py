"""Single-cycle normalized characters via residue extraction at infinity.

The normalized character of lam at a k-cycle plus fixed points equals
-(1/k) [x^-1] (x)_k phi(x - k)/phi(x) where phi has the shifted first-column
hook coordinates of lam as roots.  For a stack of m rectangles the same ratio
collapses to falling factorials whose roots are sums of the rectangle
dimensions, which makes the character a polynomial F_k in those dimensions;
one root builder serves both the symbolic F_k and its integer special value.
Both the numeric and the symbolic version read the residue off one power
series in t = 1/x, at an order fixed in advance by the root counts.

The symbolic expansion, f_k_residue, is a reference route: F_k is produced by
interpolation.f_k_polynomial from the face fill, and verify and the tests
check the two against each other.  Its raw extraction also serves the
integrality witness.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition, _size, as_partition
from .polynomials import MultivarPoly
from .series import linear_product


def rational_x_inverse_coefficient(num_roots, den_roots):
    """[x^-1] of prod(x - a)/prod(x - b), expanded in descending powers of x.

    Roots may be integers or polynomial values.  With t = 1/x and N, D the
    numbers of numerator and denominator roots, the ratio is x^(N-D) times
    prod(1 - a t)/prod(1 - b t), so the answer is the t^(N-D+1) coefficient
    of that power series; it is 0 when N - D + 1 is negative.
    """
    num_roots = list(num_roots)
    den_roots = list(den_roots)
    order = len(num_roots) - len(den_roots) + 1
    series = linear_product(num_roots, max(order, 0) + 1)
    for b in den_roots:
        series = series.divide_linear(b)
    return series.coefficient(order)


def _phi_roots(lam: Partition) -> list[int]:
    """Roots of phi: lam_i + r - i for the r parts of lam."""
    r = len(lam)
    return [lam[i] + r - 1 - i for i in range(r)]


def frobenius_normalized(lam: Partition, k: int) -> int:
    """Normalized character of lam at a single k-cycle plus fixed points; an
    integer, so a remainder raises ArithmeticError."""
    lam = as_partition(lam)
    k = _size(k)
    n = sum(lam)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= |lam| = {n}, got {k}")
    mu = _phi_roots(lam)
    num_roots = list(range(k)) + [x + k for x in mu]
    raw = rational_x_inverse_coefficient(num_roots, mu)
    return _integral(Fraction(-raw, k))


def _integral(value: Fraction) -> int:
    """value as an int; a character value with a remainder is an error, never
    returned as a Fraction."""
    if value.denominator != 1:
        raise ArithmeticError(f"character value came out non-integral: {value}")
    return int(value)


def _dimension_vars(m: int) -> tuple[list[MultivarPoly], list[MultivarPoly]]:
    """The variables p_1..p_m and q_1..q_m of an m-rectangle stack, in that
    order among the 2m polynomial variables."""
    if m < 1:
        raise ValueError(f"need m >= 1 rectangles, got {m}")
    dims = [
        MultivarPoly(2 * m, {tuple(int(s == t) for s in range(2 * m)): 1})
        for t in range(2 * m)
    ]
    return dims[:m], dims[m:]


def _stack_roots(ps, qs) -> tuple[list, list]:
    """(upper, lower) roots of the character ratio of a stack, over any ring.

    After the telescoping cancellation phi(x - k)/phi(x) is
    prod (x - A_i)_k / prod (x - B_i)_k with B_i = q_i + p_(i+1) + ... + p_m
    and A_i = B_i + p_i.  Built in one pass from the bottom rectangle up.
    """
    upper: list = []
    lower: list = []
    below = 0
    for p, q in zip(reversed(ps), reversed(qs)):
        lower.append(q + below)
        below = below + p
        upper.append(lower[-1] + p)
    return upper[::-1], lower[::-1]


def _residue_character(k: int, upper, lower):
    """-(1/k) [x^-1] of (x)_k prod (x - A_i)_k / prod (x - B_i)_k."""
    num_roots: list = list(range(k))
    num_roots.extend(a + j for a in upper for j in range(k))
    den_roots = [b + j for b in lower for j in range(k)]
    return rational_x_inverse_coefficient(num_roots, den_roots) * Fraction(-1, k)


def f_k_residue(m: int, k: int) -> MultivarPoly:
    """Reference route for F_k, the normalized character of an m-rectangle
    stack at a k-cycle, as a polynomial in p_1..p_m, q_1..q_m: the residue
    formula expanded over the polynomial ring.

    Used only by integrality_witness, verify and the tests; the production
    route is interpolation.f_k_polynomial.  Nothing is cached.
    """
    m, k = _size(m), _size(k)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _residue_character(k, *_stack_roots(*_dimension_vars(m)))


def flipped_polynomial(poly: MultivarPoly, m: int, k: int) -> MultivarPoly:
    """(-1)^k times poly with every q_i negated; the sign convention under
    which the character data is displayed with nonnegative coefficients.
    poly must be in the 2m variables p_1..p_m, q_1..q_m."""
    m, k = _size(m), _size(k)
    if m < 1 or poly.nvars != 2 * m:
        raise ValueError(
            f"need m >= 1 and a polynomial in 2m variables, got m={m} and "
            f"{poly.nvars} variables"
        )
    # each term's sign is (-1)^(k + its q-degree), set in one pass
    return MultivarPoly._from_clean(
        poly.nvars,
        {e: -c if (k + sum(e[m:])) % 2 else c for e, c in poly.terms.items()},
    )


def f_k_special_value(m: int, k: int) -> int:
    """(-1)^k F_k at all p_i = 1, q_i = -1.

    Computed by specializing the rectangle dimensions before expanding (the
    coefficient ring map commutes with the series arithmetic), so large k
    stays cheap; agreement with evaluating the symbolic F_k is tested, and the
    value is the falling factorial (k+m-1)_k, so a remainder raises
    ArithmeticError.
    """
    m, k = _size(m), _size(k)
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    value = _residue_character(k, *_stack_roots((1,) * m, (-1,) * m))
    return _integral(-value if k % 2 else value)


def integrality_witness(m: int, k: int) -> bool:
    """True iff every coefficient of the raw x^-1 extraction is divisible by k.

    F_k is the raw extraction times -1/k and the raw extraction has integer
    coefficients, so this holds exactly when F_k has integer coefficients.
    The extraction is expanded afresh by the reference route f_k_residue on
    every call; the face fill is never read.
    """
    return f_k_residue(m, k).is_integral()
