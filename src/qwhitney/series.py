"""Truncated formal power series in t with BiPoly coefficients.

A ``Series`` is an exact truncation: it carries its order N and the
coefficients of t^0 .. t^N.  Addition and multiplication require matching
orders (mixing truncations silently would corrupt the high coefficients),
and ``exp`` is the formal exponential of a series with zero constant term,
computed through the standard derivative recurrence

    b_0 = 1,   n * b_n = sum_{j=1..n} j * a_j * b_{n-j}   for f = exp(a).

A polynomial of degree at most N is a ``Series`` of order N with nothing
truncated, so the same type carries the defining integrals of the Cauchy
polynomials and the rows of the first-kind triangle read as polynomials in
x: ``mul_linear`` multiplies by a linear factor, ``integrate01`` integrates
exactly over [0, 1] (termwise, coefficient 1/(k+1) for t^k; no numerical
quadrature anywhere), and ``subst_t`` evaluates by Horner's rule.

On top of the generic type sit the generating functions, the egf suite's
oracle for the triangle rows (the ``egf`` command prints from the rows, not
from these).  With L(t) = ln(1 + q*t) / q, whose coefficients are
[t^n] L = (-1)^(n+1) * q^(n-1) / n for n >= 1:

    column k of the first-kind triangle:  (1 + q*t)^(-r/q) * L^k / k!
    first Cauchy polynomials:             (1 + q*t)^(-r/q) * sum_k L^k / (k+1)!
    second Cauchy polynomials:            (1 + q*t)^(r/q) * (exp(-L) - 1) / (-L)

where (1 + q*t)^(a/q) means exp(a * L), which is polynomial in q and r at
every order.  ``egf_term`` extracts n! * [t^n], the value the triangles
and polynomial constructors must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Iterator

from .poly import ONE, R, ZERO, BiPoly


class Series:
    """Power series truncated at a fixed order, inclusive."""

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: tuple[BiPoly, ...] | list[BiPoly]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = tuple(coeffs)
        if len(cs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(cs)}")
        self._order = order
        self._coeffs = cs

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls(order, (ZERO,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return cls(order, (ONE,) + (ZERO,) * order)

    @property
    def order(self) -> int:
        return self._order

    def coeff(self, n: int) -> BiPoly:
        if not 0 <= n <= self._order:
            raise ValueError(f"coefficient {n} out of range for order {self._order}")
        return self._coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def _check_order(self, other: Series) -> None:
        if self._order != other._order:
            raise ValueError(f"order mismatch: {self._order} vs {other._order}")

    def __add__(self, other: Series) -> Series:
        self._check_order(other)
        return Series(self._order, tuple(a + b for a, b in zip(self._coeffs, other._coeffs)))

    def __mul__(self, other: Series) -> Series:
        self._check_order(other)
        n = self._order
        pairs: list[list[tuple[BiPoly, BiPoly]]] = [[] for _ in range(n + 1)]
        for i, a in enumerate(self._coeffs):
            if not a.is_zero():
                for j, b in enumerate(other._coeffs[: n + 1 - i]):
                    if not b.is_zero():
                        pairs[i + j].append((a, b))
        return Series(n, tuple(BiPoly.sum_of_products(ps) for ps in pairs))

    def scale(self, c: BiPoly | Fraction | int) -> Series:
        # c on the left: a scalar c goes through BiPoly.__rmul__, which is BiPoly.scale.
        return Series(self._order, tuple(c * p for p in self._coeffs))

    def mul_linear(self, sign: int, c: BiPoly) -> Series:
        """Multiply by the linear factor (sign*t + c), sign in {+1, -1}, truncated at the order."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        # [t^k] of the product is sign * coeff(k - 1) + c * coeff(k); coeff(N) * t drops out.
        shifted = (ZERO, *self._coeffs[:-1])
        return Series(self._order, [p.scale(sign).add_mul(c, x) for p, x in zip(shifted, self._coeffs)])

    def subst_t(self, value: BiPoly) -> BiPoly:
        """The polynomial sum_k coeff(k) * t^k at t = value (in q, r), by Horner's rule."""
        acc = ZERO
        for p in reversed(self._coeffs):
            acc = p.add_mul(acc, value)
        return acc

    def integrate01(self) -> BiPoly:
        """Exact integral over [0, 1] of sum_k coeff(k) * t^k: the sum of coeff(k) / (k + 1)."""
        total = ZERO
        for k, p in enumerate(self._coeffs):
            total = total + p.scale(Fraction(1, k + 1))
        return total

    def exp(self) -> Series:
        """Formal exponential; requires zero constant term."""
        if not self._coeffs[0].is_zero():
            raise ValueError("exp requires a series with zero constant term")
        weighted = [a.scale(j) for j, a in enumerate(self._coeffs)]  # j * a_j
        out = [ONE]
        for m in range(1, self._order + 1):
            pairs = [(weighted[j], out[m - j]) for j in range(1, m + 1) if not weighted[j].is_zero()]
            out.append(BiPoly.sum_of_products(pairs).scale(Fraction(1, m)))
        return Series(self._order, tuple(out))

    def __repr__(self) -> str:
        body = " + ".join(f"({c})*t^{i}" for i, c in enumerate(self._coeffs) if not c.is_zero())
        return f"Series(order={self._order}, {body or '0'})"


def log1p_qt_over_q(order: int) -> Series:
    """L(t) = ln(1 + q*t) / q, with [t^n] = (-1)^(n+1) * q^(n-1) / n."""
    coeffs = [ZERO]
    for n in range(1, order + 1):
        sign = 1 if n % 2 == 1 else -1
        coeffs.append(BiPoly({(n - 1, 0): Fraction(sign, n)}))
    return Series(order, tuple(coeffs))


def binomial_power(a: BiPoly, order: int) -> Series:
    """(1 + q*t)^(a/q) = exp(a * L(t)), polynomial in q and r at every order."""
    return log1p_qt_over_q(order).scale(a).exp()


def _exp_terms(s: Series, k_max: int, shift: int = 0) -> Iterator[Series]:
    """s^k / (k + shift)! for k = 0..k_max and shift 0 or 1 (so that the first
    term is 1), each the one before times s / (k + shift): each power is scaled
    once.  Shift 0 gives the column EGFs, shift 1 the Cauchy EGFs.

    Every coefficient of L^k is a single power of q, so for s = L each step
    is cheap.
    """
    term = Series.one(s.order)
    yield term
    for k in range(1, k_max + 1):
        term = (term * s).scale(Fraction(1, k + shift))
        yield term


def expm1_div(s: Series) -> Series:
    """(exp(s) - 1) / s for a series s with zero constant term.

    Computed directly as sum_{k>=0} s^k / (k+1)!, which needs no division,
    over the terms of ``_exp_terms`` at shift 1, the first of them starting
    the sum; s^k vanishes past the order, so k = 0..order is the whole sum.
    """
    if not s.coeff(0).is_zero():
        raise ValueError("expm1_div requires a series with zero constant term")
    terms = _exp_terms(s, s.order, 1)
    return sum(terms, next(terms))


def whitney_column_egfs(order: int) -> Iterator[Series]:
    """The column EGFs k = 0..order of the first-kind triangle, one at a time,
    over one (1+q*t)^(-r/q): column k is that times L^k / k!."""
    base = binomial_power(-R, order)
    return (base * power for power in _exp_terms(log1p_qt_over_q(order), order))


def whitney_column_egf(k: int, order: int) -> Series:
    """EGF of column k of the first-kind triangle: (1+q*t)^(-r/q) * L^k / k!."""
    if k < 0:
        raise ValueError("column index must be nonnegative")
    if k > order:
        return Series.zero(order)  # L has no constant term, so L^k starts at t^k
    power = next(islice(_exp_terms(log1p_qt_over_q(order), k), k, None))
    return binomial_power(-R, order) * power


def cauchy_first_egf(order: int) -> Series:
    """EGF of the first Cauchy polynomials: (1+q*t)^(-r/q) * sum_k L^k/(k+1)!."""
    return binomial_power(-R, order) * expm1_div(log1p_qt_over_q(order))


def cauchy_second_egf(order: int) -> Series:
    """EGF of the second Cauchy polynomials: (1+q*t)^(r/q) * (exp(-L)-1)/(-L)."""
    return binomial_power(R, order) * expm1_div(log1p_qt_over_q(order).scale(-1))


def egf_term(s: Series, n: int) -> BiPoly:
    """n! * [t^n] s, the exponential coefficient at index n."""
    return s.coeff(n).scale(factorial(n))
