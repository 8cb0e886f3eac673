"""Sparse multivariate polynomials with exact integer or rational coefficients.

Terms are stored as a dict from exponent tuples to nonzero coefficients and
exposed read-only, and a polynomial's attributes cannot be rebound or
deleted after construction, so a polynomial returned from a cache cannot be
changed by its caller.
Rational coefficients that are actually integers are normalized to int, so a
polynomial is integral exactly when every stored coefficient is an int.

The public constructor and the ring operations validate every term: each
exponent tuple is checked, zero coefficients are dropped and integral
Fractions become ints.  MultivarPoly._from_clean takes a term dict already
in that form as it is.  Only the interpolation's faces, its fill and its
trailing-1 product, and the sign flip, use it; each builds its dict in one
pass from clean terms.  The ring operations keep validating.  Trusting them
too would speed up the polynomial-heavy residue route, and the benchmark's
peak memory would then read more passes of its own runner (ROADMAP item 1).

Canonical term order (used for display and serialization): total degree
descending, ties broken lexicographically descending on the exponent tuple,
so with variables (p, q) the term p^2*q precedes p*q^2.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from types import MappingProxyType

Scalar = int | Fraction


def _clean_coef(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _term_sort_key(exps: tuple[int, ...]):
    return (-sum(exps), tuple(-e for e in exps))


class MultivarPoly:
    """Polynomial in a fixed number of variables over Z or Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Scalar] | None = None):
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
                c = _clean_coef(c)
                if c:
                    clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError(f"MultivarPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MultivarPoly is immutable: cannot delete {name!r}")

    def __copy__(self):
        # copy.copy would restore the slots through __setattr__; an immutable
        # value can stand for its own copy
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(
        cls, nvars: int, terms: dict[tuple[int, ...], Scalar]
    ) -> "MultivarPoly":
        """A polynomial holding terms itself, unchecked: every key must be a
        tuple of nvars nonnegative ints and every coefficient nonzero, a
        Fraction only where it is not an integer.  The caller gives up terms."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", MappingProxyType(terms))
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "MultivarPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: Scalar) -> "MultivarPoly":
        return cls(nvars, {(0,) * nvars: value})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MultivarPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, MultivarPoly):
            self._check_compatible(other)
            out = self.terms.copy()
            for exps, c in other.terms.items():
                out[exps] = out.get(exps, 0) + c
            return MultivarPoly(self.nvars, out)
        if isinstance(other, (int, Fraction)):
            return self + MultivarPoly.const(self.nvars, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return MultivarPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (MultivarPoly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultivarPoly):
            self._check_compatible(other)
            out: dict[tuple[int, ...], Scalar] = {}
            get = out.get
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(map(int.__add__, e1, e2))
                    out[key] = get(key, 0) + c1 * c2
            return MultivarPoly(self.nvars, out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultivarPoly.zero(self.nvars)
            return MultivarPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self * Fraction(1, scalar)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MultivarPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.terms == {(0,) * self.nvars: _clean_coef(other)}
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exps), 0)

    def total_degree(self) -> int:
        """Largest total degree of a term; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_part(self, degree: int) -> "MultivarPoly":
        return MultivarPoly(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def evaluate(self, values: Sequence[Scalar]) -> Scalar:
        if len(values) != self.nvars:
            raise ValueError("value count mismatch")
        total: Scalar = 0
        for exps, c in self.terms.items():
            total += c * math.prod(map(pow, values, exps))
        return _clean_coef(total) if isinstance(total, Fraction) else total

    def evaluate_many(self, points: Sequence[Sequence[Scalar]]) -> list[Scalar]:
        """[self.evaluate(p) for p in points], by columns: each variable's
        powers up to its largest exponent are built once over all points,
        and each term is taken once."""
        for values in points:
            if len(values) != self.nvars:
                raise ValueError("value count mismatch")
        totals: list[Scalar] = [0] * len(points)
        powers = []
        for v, column in enumerate(zip(*points)):
            rows = [[1] * len(points)]
            for _ in range(max((e[v] for e in self.terms), default=0)):
                rows.append(list(map(operator.mul, rows[-1], column)))
            powers.append(rows)
        for exps, c in self.terms.items():
            # each term's column products stay lazy; only the totals are built
            values = repeat(c, len(points))
            for rows, e in zip(powers, exps):
                if e:
                    values = map(operator.mul, values, rows[e])
            totals = list(map(operator.add, totals, values))
        return [_clean_coef(t) if isinstance(t, Fraction) else t for t in totals]

    def coefficient_sum(self) -> Scalar:
        total: Scalar = sum(self.terms.values())
        return _clean_coef(total) if isinstance(total, Fraction) else total

    # -- presentation ------------------------------------------------------

    def canonical_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda item: _term_sort_key(item[0]))

    def to_string(self, names: Sequence[str]) -> str:
        if len(names) != self.nvars:
            raise ValueError("name count mismatch")
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, c in self.canonical_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def to_json_terms(self) -> list[dict]:
        """Canonically ordered [{"exp": [...], "coef": "<decimal string>"}, ...]."""
        if not self.is_integral():
            raise ValueError("JSON serialization requires integer coefficients")
        return [
            {"exp": list(exps), "coef": str(c)} for exps, c in self.canonical_terms()
        ]

    @classmethod
    def from_json_terms(cls, nvars: int, data: list[dict]) -> "MultivarPoly":
        return cls(nvars, {tuple(item["exp"]): int(item["coef"]) for item in data})

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MultivarPoly({self.nvars}, {self.to_string(names)})"


def default_names(m: int) -> list[str]:
    """Display names for the 2m variables p_1..p_m, q_1..q_m.

    The two smallest cases use the traditional short names: (p, q) for one
    rectangle and (a, p, b, q) for two, matching the usual way these
    polynomials are written out.
    """
    if m == 1:
        return ["p", "q"]
    if m == 2:
        return ["a", "p", "b", "q"]
    return [f"p{i}" for i in range(1, m + 1)] + [f"q{i}" for i in range(1, m + 1)]
