"""Truncated formal power series over QQ for operadic generating functions.

A dimension sequence (d_1, d_2, ...) maps to sum (-1)^n d_n x^n / n!.  The
Koszulity test composes the series of a variety with the series of its dual
presentation and reports the residual against x; a nonzero residual certifies
non-Koszulity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .quotient import DEFAULT_DEGREE_CAP, check_degree_cap
from .term import QQ


@dataclass(frozen=True)
class TruncatedSeries:
    """order N with coefficients c1..cN; the constant term is always zero."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise ValueError("need exactly %d coefficients" % self.order)

    @staticmethod
    def from_coeffs(cs):
        return TruncatedSeries(len(cs), tuple(Fraction(c) for c in cs))

    @staticmethod
    def identity(order):
        return TruncatedSeries.from_coeffs([1] + [0] * (order - 1))

    def coeff(self, n):
        if not 1 <= n <= self.order:
            raise IndexError("coefficient index out of truncation order")
        return self.coeffs[n - 1]

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[:order])

    def __add__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        n = min(self.order, other.order)
        return TruncatedSeries(n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        """Truncated product (both factors have zero constant term)."""
        n = min(self.order, other.order)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n], start=1):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[:n], start=1):
                if i + j > n:
                    break
                out[i + j - 1] += a * b
        return TruncatedSeries(n, tuple(out))

    def scale(self, c):
        c = Fraction(c)
        return TruncatedSeries(self.order, tuple(c * a for a in self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __str__(self):
        bits = []
        for n, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            mag = abs(c)
            body = "x" if n == 1 else "x^%d" % n
            if mag != 1:
                body = "%s %s" % (mag, body)
            bits.append(("-" if c < 0 else "+", body))
        if not bits:
            return "0 + O(x^%d)" % (self.order + 1)
        first = ("-" if bits[0][0] == "-" else "") + bits[0][1]
        rest = " ".join("%s %s" % b for b in bits[1:])
        s = first + (" " + rest if rest else "")
        return "%s + O(x^%d)" % (s, self.order + 1)


def from_dims(dims) -> TruncatedSeries:
    """Generating series sum (-1)^n d_n x^n / n! of a dimension sequence."""
    dims = list(dims)
    if not dims:
        raise ValueError("need at least one dimension")
    return TruncatedSeries(len(dims), tuple(
        Fraction((-1) ** n * d, factorial(n)) for n, d in enumerate(dims, start=1)))


def compose(g: TruncatedSeries, h: TruncatedSeries, order=None) -> TruncatedSeries:
    """Exact truncated composition g(h(x)); both have zero constant term."""
    n = min(g.order, h.order) if order is None else order
    if g.order < n or h.order < n:
        raise ValueError("operands truncated below the requested order")
    g = g.truncate(n)
    h = h.truncate(n)
    out = TruncatedSeries(n, (Fraction(0),) * n)
    power = h
    for k in range(1, n + 1):
        c = g.coeffs[k - 1]
        if c != 0:
            out = out + power.scale(c)
        if k < n:
            power = power * h
    return out


def koszul_residual(variety, dual_variety, order, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP):
    """compose(series(variety), series(dual)) - x, from computed multilinear dims.

    The quotients are built with degree_cap, so after multilinear_dims at
    its default cap they are the cached ones; an order over the cap raises
    DegreeCapExceeded, and one below 1 ValueError, before anything is built.
    """
    from . import tideal
    if order < 1:
        raise ValueError("the order must be positive")
    check_degree_cap((1,) * min(order, degree_cap + 1), degree_cap)
    dims = tideal.multilinear_dims(variety, order, fld, degree_cap)
    dual_dims = tideal.multilinear_dims(dual_variety, order, fld, degree_cap)
    comp = compose(from_dims(dims), from_dims(dual_dims), order)
    return comp - TruncatedSeries.identity(order), dims, dual_dims
