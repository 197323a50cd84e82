"""Cauchy polynomials with a q parameter, their oracles, and identity checks.

The first-kind polynomial is the exact integral of the generalized falling
factorial over the unit interval,

    c_n(r) = integral_0^1 (x - r | q)_n dx,

and the second kind integrates (-x + r | q)_n instead.  Expanding the
integrands in powers of x turns both into weighted row sums of the
first-kind triangle:

    c_n(r)       = sum_k w(n, k) / (k + 1)
    chat_n(-r)   = sum_k (-1)^k w(n, k) / (k + 1)

so ``cauchy_second`` substitutes r -> -r into the alternating sum.  At a
rational point, ``cauchy_value`` takes the same sums over one integer row
of the first-kind triangle and never builds the polynomial.  Each
construction has an independent oracle: the ``*_integrals`` functions
build the defining product factor by factor and integrate it termwise
after each factor, and ``cauchy_first_stirling_sums`` uses the closed
double sum over Stirling numbers, which is the shift law below taken from
r = 0.  Each yields n = 0..n_max in turn, in one pass, and the per-n
``*_integral`` and ``cauchy_first_via_stirling`` keep its last value.
Agreement of the code paths is what the oracle suites check.

Setting q = 1 and r = 0 gives the classical Cauchy numbers of both kinds
(1, 1/2, -1/6, 1/4, ... and 1, -1/2, 5/6, -9/4, ...); keeping q symbolic
and only sending r to 0 gives the one-parameter numbers

    c_n^q    = sum_k q^(n-k) s(n, k) / (k + 1)
    chat_n^q = sum_k (-1)^k q^(n-k) s(n, k) / (k + 1).

The ``*_counterexample`` functions check the remaining identities: the
shift law

    c_n(r + s) = sum_j (-1)^(n-j) C(n, j) [r|q]_(n-j) c_j(s),

its entrywise analogue on the first-kind triangle, the mutual-inverse
relations against the second-kind triangle

    sum_k W(n, k) c_k(r) = 1/(n+1),
    sum_k W(n, k) chat_k(-r) = (-1)^n/(n+1),

and the q = 1 specialization of the shift law where the right side is a
binomial convolution of classical Cauchy numbers.  Each returns None on
success and a description of the first failing case otherwise.  Each
is the last outcome of one pass of ``FirstKindContext``, which checks its
identity for n = 0..n_max over one first-kind triangle.  A check at n makes
a context for n; a verification run makes one for its n_max and runs each
pass over it, a shift law once per shift value.  The three shift laws,
like the Stirling closed form, take their right side from one
``BiPoly.sum_of_products`` over the ``triangles.shift_weights`` of n, made
from one rising-factorial list; the context keeps the weights of every n,
and the Stirling closed form makes its own.  The oracles above
never read a context.  Rational arguments are ints or
Fractions; anything else is a TypeError.
"""

from __future__ import annotations

import enum
from collections import deque
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator

from . import triangles
from .poly import ONE, Q, R, BiPoly, as_rational
from .series import Series
from .triangles import (
    Triangle,
    TriangleKind,
    rising_factorials,
    shift_weights,
    stirling_first_row,
)


class CauchyKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def _row_sum(row: tuple[BiPoly, ...], alternating: bool) -> BiPoly:
    """sum_k w(n, k) / (k + 1) over row n, with sign (-1)^k on each term if alternating, as one
    ``BiPoly.sum_of_products`` over the pairs (+-1/(k + 1), w(n, k)): the constant first, so that
    the kernel's inner loop runs over w(n, k).  It shares no code with ``Series.integrate01``."""
    return BiPoly.sum_of_products(
        (BiPoly.const(Fraction(-1 if alternating and k % 2 else 1, k + 1)), w_nk) for k, w_nk in enumerate(row)
    )


def cauchy_first(n: int) -> BiPoly:
    """c_n(r) as a polynomial in q and r, from the first-kind triangle row."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _row_sum(triangles.whitney_first(n).row(n), alternating=False)


def cauchy_second(n: int) -> BiPoly:
    """chat_n(r), via the alternating row sum evaluated at -r."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _row_sum(triangles.whitney_first(n).row(n), alternating=True).subst_r(-1, 0)


def cauchy_poly(kind: CauchyKind, n: int) -> BiPoly:
    """Dispatch on kind: c_n(r) or chat_n(r)."""
    return cauchy_first(n) if kind is CauchyKind.FIRST else cauchy_second(n)


def _integrals(n_max: int, sign: int, root) -> Iterator[BiPoly]:
    """The integrals over [0, 1] of prod_{j<n} (sign*x + root(j)) for n = 0..n_max.

    One product of order n_max takes one more factor per n; nothing is
    truncated, since the product for n has degree n.
    """
    acc = Series.one(n_max)
    yield acc.integrate01()
    for j in range(n_max):
        acc = acc.mul_linear(sign, root(j))
        yield acc.integrate01()


def cauchy_first_integrals(n_max: int) -> Iterator[BiPoly]:
    """Oracle for c_n(r), n = 0..n_max in turn: expand (x - r | q)_n and integrate over [0, 1].

    Independent of the triangle recurrence; only the factored product and
    termwise integration are used.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    return _integrals(n_max, 1, lambda j: -(R + Q.scale(j)))


def cauchy_second_integrals(n_max: int) -> Iterator[BiPoly]:
    """Oracle for chat_n(r), n = 0..n_max in turn: expand (-x + r | q)_n and integrate over [0, 1]."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    return _integrals(n_max, -1, lambda j: R - Q.scale(j))


def cauchy_first_integral(n: int) -> BiPoly:
    """Oracle for c_n(r); see ``cauchy_first_integrals``."""
    *_, last = cauchy_first_integrals(n)
    return last


def cauchy_second_integral(n: int) -> BiPoly:
    """Oracle for chat_n(r); see ``cauchy_second_integrals``."""
    *_, last = cauchy_second_integrals(n)
    return last


def cauchy_first_via_stirling(n: int) -> BiPoly:
    """c_n(r) from the closed double sum over Stirling numbers.

    c_n(r) = sum_{i=0..n} sum_{k=0..i} C(n, i) (-1)^(n-i) q^(i-k)
             [r|q]_(n-i) s(i, k) / (k + 1),

    the shift law from r = 0, where the inner sum is c_i(0), the
    one-parameter number ``q_cauchy_number(FIRST, i)``.
    """
    *_, last = cauchy_first_stirling_sums(n)
    return last


def cauchy_first_stirling_sums(n_max: int) -> Iterator[BiPoly]:
    """``cauchy_first_via_stirling`` for n = 0..n_max in turn, over one rising-factorial list."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    rise = rising_factorials(n_max)
    numbers = [q_cauchy_number(CauchyKind.FIRST, i) for i in range(n_max + 1)]
    return (BiPoly.sum_of_products(zip(shift_weights(n, rise), numbers)) for n in range(n_max + 1))


def cauchy_value(kind: CauchyKind, n: int, q0: Fraction | int, r0: Fraction | int) -> Fraction:
    """c_n(r) or chat_n(r) at the rational point (q0, r0), without the polynomial.

    Sums one integer row of the first-kind triangle, u_k = w(n, k) * D^(n-k)
    at (q0, r0), exactly: c_n = sum_k u_k D^k / (k + 1) / D^n, over the
    common denominator lcm(1..n+1) * D^n.  The second kind is the same sum
    at (q0, -r0) with sign (-1)^k.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    second = kind is CauchyKind.SECOND
    powers, rows = triangles.scaled_rows(
        TriangleKind.WHITNEY_FIRST, n, q0, -as_rational(r0) if second else r0
    )
    row = deque(rows, maxlen=1).pop()
    common = lcm(*range(1, n + 2))
    total = sum(
        (-u if second and k % 2 else u) * powers[k] * (common // (k + 1))
        for k, u in enumerate(row)
    )
    return Fraction(total, common * powers[n])


def cauchy_number(kind: CauchyKind, n: int) -> Fraction:
    """Classical Cauchy number of the given kind: the value at q = 1, r = 0."""
    return cauchy_value(kind, n, 1, 0)


def q_cauchy_number(kind: CauchyKind, n: int) -> BiPoly:
    """Cauchy number with q parameter: the r = 0 value, polynomial in q alone.

    Computed from the Stirling sum sum_k (+-1)^k q^(n-k) s(n, k) / (k + 1),
    not by substituting into the polynomials; the specialization checks in
    the reductions suite compare the two routes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sign = -1 if kind is CauchyKind.SECOND else 1
    row = stirling_first_row(n)
    return BiPoly({(n - k, 0): Fraction(s_nk * sign**k, k + 1) for k, s_nk in enumerate(row)})


# -- identity verifiers --------------------------------------------------------


class FirstKindContext:
    """One first-kind triangle and what the identity checks read from its rows.

    Row j of ``triangles.whitney_first(n)`` is the same for every n >= j, so
    one triangle with rows 0..n_max serves every check up to n_max.  Each
    part is built on first use and then kept: the first- and second-kind
    triangles, taken from ``triangles.whitney_first`` and
    ``triangles.whitney_second`` when first read; the row sums c_j(r) and
    chat_j(r) and the alternating row sums chat_j(-r); and the shift weights
    of every n over [r|q]_m.  These are the values under test; no oracle is
    built from them.

    Each ``*_failures`` method checks one identity in one pass over
    n = 0..n_max and yields one outcome per n: None, or the text of its
    first failure.  A shift-law pass takes one shift value s and builds what
    it reads at r = s (c_j(s), or the rows of the triangle) one n at a time;
    nothing at r = s outlives the pass.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max

    @cached_property
    def first(self) -> Triangle:
        return triangles.whitney_first(self.n_max)

    @cached_property
    def second(self) -> Triangle:
        return triangles.whitney_second(self.n_max)

    @cached_property
    def sums(self) -> list[BiPoly]:
        """c_j(r) for j = 0..n_max."""
        return [_row_sum(self.first.row(j), alternating=False) for j in range(self.n_max + 1)]

    @cached_property
    def alternating_sums(self) -> list[BiPoly]:
        """chat_j(-r) for j = 0..n_max."""
        return [_row_sum(self.first.row(j), alternating=True) for j in range(self.n_max + 1)]

    @cached_property
    def second_sums(self) -> list[BiPoly]:
        """chat_j(r) for j = 0..n_max."""
        return [p.subst_r(-1, 0) for p in self.alternating_sums]

    @cached_property
    def weights(self) -> list[list[BiPoly]]:
        """The shift weights of n over [r|q]_m, for n = 0..n_max."""
        rise = rising_factorials(self.n_max)
        return [shift_weights(n, rise) for n in range(self.n_max + 1)]

    def shift_failures(self, s: Fraction) -> Iterator[str | None]:
        """The shift law at s for n = 0..n_max; see ``shift_counterexample``."""
        at_s = []  # c_j(s) for j <= n, polynomials in q alone
        for n, (c_n, weights) in enumerate(zip(self.sums, self.weights)):
            at_s.append(c_n.subst_r(0, s))
            lhs = c_n.subst_r(1, s)
            rhs = BiPoly.sum_of_products(zip(weights, at_s))
            yield None if lhs == rhs else f"shift law fails at n={n}, s={s}: lhs={lhs}, rhs={rhs}"

    def inversion_failures(self) -> Iterator[str | None]:
        """Both inversion sums for n = 0..n_max; see ``inversion_counterexample``."""
        for n in range(self.n_max + 1):
            w2 = self.second.row(n)
            for alternating, kind in ((False, "first"), (True, "second")):
                sums = self.alternating_sums if alternating else self.sums
                lhs = BiPoly.sum_of_products(zip(w2, sums))
                if lhs != BiPoly.const(Fraction((-1) ** n if alternating else 1, n + 1)):
                    yield f"{kind}-kind inversion fails at n={n}: got {lhs}"
                    break
            else:
                yield None

    def cheon_failures(self, s: Fraction) -> Iterator[str | None]:
        """The entrywise shift law at s for n = 0..n_max; see ``cheon_counterexample``."""
        at_s = []  # rows 0..n of the first-kind triangle at r = s
        for n, weights in enumerate(self.weights):
            row = self.first.row(n)
            at_s.append([w.subst_r(0, s) for w in row])
            for k, w_nk in enumerate(row):
                lhs = w_nk.subst_r(1, s)
                rhs = BiPoly.sum_of_products(zip(weights[k:], (row_at_s[k] for row_at_s in at_s[k:])))
                if lhs != rhs:
                    yield f"triangle shift law fails at n={n}, k={k}, s={s}: lhs={lhs}, rhs={rhs}"
                    break
            else:
                yield None

    def classical_failures(self) -> Iterator[str | None]:
        """The q = 1 shift law for n = 0..n_max; see ``classical_shift_counterexample``."""
        rise = rising_factorials(self.n_max, step=ONE)
        numbers = []  # the classical c_j for j <= n
        for n, c_n in enumerate(self.sums):
            numbers.append(cauchy_number(CauchyKind.FIRST, n))
            lhs = c_n.subst_q(0, 1)
            rhs = BiPoly.sum_of_products(zip(shift_weights(n, rise), numbers))
            yield None if lhs == rhs else f"classical shift law fails at n={n}: lhs={lhs}, rhs={rhs}"


def shift_counterexample(n: int, s: Fraction | int) -> str | None:
    """Check c_n(r + s) = sum_j (-1)^(n-j) C(n, j) [r|q]_(n-j) c_j(s).

    The left side substitutes r -> r + s; on the right, c_j(s) is the
    polynomial with r replaced by the constant s (a polynomial in q only),
    while the rising factorial carries the r dependence.  Every c_j is a
    row sum of the one triangle built for n.
    """
    *_, last = FirstKindContext(n).shift_failures(as_rational(s))
    return last


def inversion_counterexample(n: int) -> str | None:
    """Check both row sums against the second-kind triangle.

    sum_k W(n, k) c_k(r) must collapse to the constant 1/(n+1), and
    sum_k W(n, k) chat_k(-r) to (-1)^n/(n+1); chat_k(-r) is the alternating
    row sum itself.  Both sums read the rows of one first-kind triangle.
    """
    *_, last = FirstKindContext(n).inversion_failures()
    return last


def cheon_counterexample(n: int, s: Fraction | int) -> str | None:
    """Check the entrywise shift law on the first-kind triangle.

    With w_a(n, k) the entry at parameter r = a, for every k <= n:

        w_{r+s}(n, k) = sum_j (-1)^(n-j) C(n, j) [r|q]_(n-j) w_s(j, k).
    """
    *_, last = FirstKindContext(n).cheon_failures(as_rational(s))
    return last


def classical_shift_counterexample(n: int) -> str | None:
    """Check the q = 1 shift law against classical Cauchy numbers.

    c_n(r) at q = 1 must equal
    sum_i C(n, i) (-1)^(n-i) [r|1]_(n-i) c_i with c_i the classical numbers.
    """
    *_, last = FirstKindContext(n).classical_failures()
    return last
