"""Exact truncated power series.

PowerSeries is an ordinary series at the origin truncated at a fixed order,
generic over coefficients supporting ring arithmetic (int, Fraction, or
polynomial values).  Besides products, reciprocal and compositional inverse
it multiplies and divides by a linear factor 1 - c*x in O(order) steps, which
is all a residue at infinity needs once it is written as a power series in
1/x (see frobenius.rational_x_inverse_coefficient).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction


class InsufficientDepthError(Exception):
    """A coefficient beyond a series' truncation order was asked for."""


class PowerSeries:
    """Truncated ordinary power series: coeffs[n] is the x^n coefficient.

    Coefficients may be ints, Fractions, or polynomial values; the ring
    operations only ever add and multiply them, except reciprocal and
    compositional inverse, which require the relevant initial coefficient
    to equal 1 so no coefficient division is needed (integer divisions are
    done through Fraction scalars).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int):
        # by exact type, in O(1): a bool or a float order is refused
        if type(order) is not int or order < 0:
            raise ValueError(f"order must be a nonnegative int, got {order!r}")
        try:
            coeffs = list(coeffs[: order + 1])
        except TypeError:
            raise ValueError(f"coefficients must be a sequence: {coeffs!r}") from None
        coeffs += [0] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order)

    def coefficient(self, n: int):
        if n < 0:
            return 0
        if n > self.order:
            raise InsufficientDepthError(
                f"coefficient of x^{n} requested at truncation order {self.order}"
            )
        return self.coeffs[n]

    def mul_linear(self, c) -> "PowerSeries":
        """Multiply by 1 - c*x."""
        s = self.coeffs
        out = s[:1] + [a - c * b if b else a for a, b in zip(s[1:], s)]
        return PowerSeries(out, self.order)

    def divide_linear(self, c) -> "PowerSeries":
        """Divide by 1 - c*x: the quotient u has u_n = s_n + c u_(n-1)."""
        out: list = []
        u = 0
        for a in self.coeffs:
            u = a + c * u if u else a
            out.append(u)
        return PowerSeries(out, self.order)

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            order = min(self.order, other.order)
            out = [0] * (order + 1)
            for i, a in enumerate(self.coeffs[: order + 1]):
                if not a:
                    continue
                for j in range(order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] = out[i + j] + a * b
            return PowerSeries(out, order)
        return PowerSeries([other * c for c in self.coeffs], self.order)

    def shift_down(self) -> "PowerSeries":
        """Divide by x; the constant term must be zero."""
        if self.coeffs[0]:
            raise ValueError("series has a nonzero constant term")
        if self.order == 0:
            raise InsufficientDepthError("no terms left after dividing by x")
        return PowerSeries(self.coeffs[1:], self.order - 1)

    def reciprocal(self) -> "PowerSeries":
        """Multiplicative inverse; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("reciprocal requires constant term 1")
        out = [0] * (self.order + 1)
        out[0] = 1
        for n in range(1, self.order + 1):
            acc = 0
            for i in range(1, n + 1):
                a = self.coeffs[i]
                if a:
                    acc = acc + a * out[n - i]
            out[n] = -acc
        return PowerSeries(out, self.order)

    def compositional_inverse(self) -> "PowerSeries":
        """Series g with g(f(x)) = x, via Lagrange inversion.

        Requires f(0) = 0 and leading coefficient f'(0) = 1.  The inverse is
        produced at the same truncation order: g_n = (1/n) [x^{n-1}] (x/f)^n.
        """
        if self.coeffs[0]:
            raise ValueError("compositional inverse requires zero constant term")
        if self.order < 1 or self.coeffs[1] != 1:
            raise ValueError("compositional inverse requires leading coefficient 1")
        n_max = self.order
        # x/f, known to order n_max - 1
        ratio = self.shift_down().reciprocal()
        out: list = [0] * (n_max + 1)
        out[1] = 1 if n_max >= 1 else 0
        power = ratio
        for n in range(2, n_max + 1):
            power = power * ratio
            out[n] = Fraction(1, n) * power.coefficient(n - 1)
            if isinstance(out[n], Fraction) and out[n].denominator == 1:
                out[n] = int(out[n])
        return PowerSeries(out, n_max)


def linear_product(roots: Iterable, window: int) -> PowerSeries:
    """prod (1 - c*x) over the given roots, keeping the first `window` coefficients."""
    series = PowerSeries.one(window - 1)
    for c in roots:
        series = series.mul_linear(c)
    return series
