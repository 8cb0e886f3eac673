"""Exact truncated series arithmetic.

Two kinds of series live here:

* LaurentSeriesAtInfinity: finitely many terms of sum_{i <= top} c_i x^i,
  stored from the top exponent downward.  A series is either exact (every
  omitted coefficient is genuinely zero) or truncated at a known floor;
  asking a truncated series for a coefficient below its floor raises
  InsufficientDepthError so callers can widen their window and retry.

* PowerSeries: an ordinary series at the origin truncated at a fixed order,
  generic over coefficients supporting ring arithmetic (int, Fraction, or
  polynomial values), with reciprocal and compositional inverse.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction


class InsufficientDepthError(Exception):
    """A truncated series was asked for a coefficient below its floor."""


class LaurentSeriesAtInfinity:
    """Terms c_top x^top + c_{top-1} x^{top-1} + ... down to a floor.

    coeffs[j] holds the coefficient of x^(top - j).  floor None means exact:
    everything below the stored range is zero.  Otherwise the stored range
    reaches exactly down to floor and lower coefficients are unknown.
    An empty truncated window is represented with top == floor - 1.
    """

    __slots__ = ("top", "coeffs", "floor")

    def __init__(self, top: int, coeffs: Sequence, floor: int | None = None):
        coeffs = list(coeffs)
        if floor is not None and len(coeffs) != top - floor + 1:
            raise ValueError("coefficient window does not match top/floor")
        # normalize an exact series: strip leading zeros
        if floor is None:
            while coeffs and not coeffs[0]:
                coeffs.pop(0)
                top -= 1
        self.top = top
        self.coeffs = coeffs
        self.floor = floor

    @classmethod
    def constant(cls, value) -> "LaurentSeriesAtInfinity":
        return cls(0, [value])

    def bottom(self) -> int:
        """Lowest exponent with a stored coefficient."""
        return self.top - len(self.coeffs) + 1

    def coefficient(self, i: int):
        if i > self.top:
            return 0
        j = self.top - i
        if j < len(self.coeffs):
            return self.coeffs[j]
        if self.floor is None:
            return 0
        raise InsufficientDepthError(
            f"coefficient of x^{i} requested but series only known down to x^{self.floor}"
        )

    def truncate(self, new_floor: int) -> "LaurentSeriesAtInfinity":
        """Forget everything below new_floor (exact series may extend with zeros)."""
        if self.floor is not None and new_floor < self.floor:
            raise InsufficientDepthError(
                f"cannot truncate to x^{new_floor}; floor is x^{self.floor}"
            )
        window = [self.coefficient(i) for i in range(self.top, new_floor - 1, -1)]
        return LaurentSeriesAtInfinity(self.top, window, new_floor)

    def mul_linear(self, c) -> "LaurentSeriesAtInfinity":
        """Multiply by the exact polynomial x - c."""
        top = self.top + 1
        if self.floor is None:
            prev = self.coeffs + [0]
            shifted = [0] + self.coeffs
            coeffs = [a - c * b for a, b in zip(prev, shifted)]
            return LaurentSeriesAtInfinity(top, coeffs)
        # product coefficient at i needs self at i-1 and i: known for i >= floor+1
        floor = self.floor + 1
        prev = self.coeffs
        shifted = [0] + self.coeffs[:-1]
        coeffs = [a - c * b for a, b in zip(prev, shifted)]
        return LaurentSeriesAtInfinity(top, coeffs, floor)

    def divide_linear(self, c) -> "LaurentSeriesAtInfinity":
        """Divide by x - c, expanding the quotient downward from its top term.

        The quotient u of s = (x - c) u satisfies u_{i-1} = s_i + c u_i, run
        from the leading coefficient down.  One known coefficient is consumed
        at the top and the result reaches one exponent below the input floor,
        so the window length is preserved for truncated input.
        """
        if not self.coeffs:
            return LaurentSeriesAtInfinity(
                self.top - 1, [], None if self.floor is None else self.floor - 1
            )
        src_floor = self.floor if self.floor is not None else self.bottom()
        out: list = []
        u = 0
        for i in range(self.top, src_floor - 1, -1):
            u = self.coefficient(i) + c * u
            out.append(u)
        return LaurentSeriesAtInfinity(self.top - 1, out, src_floor - 1)


def linear_product(roots: Iterable, window: int) -> LaurentSeriesAtInfinity:
    """prod (x - c) over the given roots, keeping the top `window` coefficients."""
    series = LaurentSeriesAtInfinity.constant(1)
    for c in roots:
        series = series.mul_linear(c)
        if len(series.coeffs) > window:
            series = series.truncate(series.top - window + 1)
    return series


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
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = list(coeffs[: order + 1])
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
