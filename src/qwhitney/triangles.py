"""Triangular arrays of connection coefficients, with exact entries.

The two central triangles tie the monomial basis {x^n} to the generalized
falling-factorial basis

    (x - r | q)_n = (x - r) * (x - r - q) * ... * (x - r - (n-1)q).

First kind (w):   (x - r | q)_n = sum_k w(n, k) * x^k
    w(n+1, k) = w(n, k-1) - (n*q + r) * w(n, k),      w(0, 0) = 1.

Second kind (W):  x^n = sum_k W(n, k) * (x - r | q)_k
    W(n+1, k) = W(n, k-1) + (k*q + r) * W(n, k),      W(0, 0) = 1.

Setting q = 1, r = 0 in the first kind gives the signed Stirling numbers of
the first kind; q = 1, r = r0 gives the r-Stirling variant shifted so that
entry (n, k) holds the coefficient tied to (n + r0, k + r0) in the doubly
shifted convention.  Entries are BiPoly values.  At a rational point
(q0, r0) = (A/D, C/D), ``scaled_rows`` runs the same recurrence step over
the integers u(n, k) = w(n, k) * D^(n-k) (or W); the Stirling kinds are
those integer rows at q = 1, r = r0, where D = 1.  ``decimal_rows`` runs
that step over integer-valued Decimals in an exact context, so that a row
can be printed with ``str()`` in time linear in its digits, and reduces
each row to lowest terms in one loop as it is read out.  Only primes of D
can cancel, and the step is linear with integer multipliers, so the same
step over ints mod D^J (a residue row, about one machine word per entry)
gives gcd(u, D^J); an entry goes back to its full Decimal value only when
some prime of D divides it to its full power in D^J.  Each column n - k
keeps its last reduced denominator and reuses it while its gcd repeats.
``row_poly`` reassembles sum_k w(n, k) x^k as a ``Series`` of order n, to
check against the defining product, and ``whitney_first_cheon`` computes
one first-kind entry from the closed double-sum form

    w(n, k) = sum_{i} C(n, i) * (-1)^(n-i) * q^(i-k) * [r|q]_(n-i) * s(i, k)

with [r|q]_m the rising factorial r * (r + q) * ... * (r + (m-1)q) and
s(i, k) the signed Stirling numbers.  Since q^(i-k) s(i, k) is w(i, k) at
r = 0, this is the shift law taken from r = 0: one
``BiPoly.sum_of_products`` over the ``shift_weights`` of n, made from one
list of rising factorials, paired with the terms i = k..n.
``whitney_first_cheon_rows`` gives every row up to n_max over one such list.
"""

from __future__ import annotations

import enum
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, NamedTuple

from .arith import binomial
from .poly import ONE, Q, R, ZERO, BiPoly, common_denominator
from .series import Series


class TriangleKind(enum.Enum):
    WHITNEY_FIRST = "w"
    WHITNEY_SECOND = "W"
    STIRLING_FIRST = "s"
    R_STIRLING_FIRST = "sr"


class Triangle(NamedTuple):
    """Rows 0..n_max of a connection-coefficient triangle.

    ``entry(n, k)`` returns the BiPoly at row n, column k, and is zero for
    k outside 0..n.  ``r0`` is the shift parameter of the r-Stirling kind
    and None for the other kinds.
    """

    kind: TriangleKind
    n_max: int
    rows: tuple[tuple[BiPoly, ...], ...]
    r0: int | None = None

    def entry(self, n: int, k: int) -> BiPoly:
        row = self.row(n)
        return row[k] if 0 <= k <= n else ZERO

    def row(self, n: int) -> tuple[BiPoly, ...]:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"row {n} out of range 0..{self.n_max}")
        return self.rows[n]

    def row_poly(self, n: int) -> Series:
        """Row n as a polynomial in x of degree n: sum_k entry(n, k) * x^k."""
        return Series(n, self.row(n))


def _rows(kind: TriangleKind, n_max: int, q, r, one, mod: int = 0) -> Iterator[list]:
    """Rows 0..n_max of w or W, with q and r taken from any commutative ring.

    Both triangles follow one step, row[k] = prev[k-1] + m_k * prev[k] with
    entries outside 0..n read as zero; only the multiplier differs:
    m_k = -(n*q + r) for the first kind and m_k = k*q + r for the second,
    whose list grows by one per row.  The step is the ring's multiply-add:
    ``BiPoly.add_mul``, which forms the sum in one numerator map, and
    a + m*b for int and Decimal.  With integer q, r and one, a nonzero
    ``mod`` reduces each row mod it, so the rows hold the residues of the
    integer rows.
    """
    second = kind is TriangleKind.WHITNEY_SECOND
    fused = isinstance(one, BiPoly)
    mults = []
    row = [one]
    yield row
    for n in range(n_max):
        if second:
            mults.append(n * q + r)
        else:
            mults = [-(n * q + r)] * (n + 1)
        row = [
            mults[0] * row[0],
            *[a.add_mul(m, b) if fused else a + m * b for a, m, b in zip(row, mults[1:], row[1:])],
            row[-1],
        ]
        if mod:
            row = [u % mod for u in row]
        yield row


def triangle(kind: TriangleKind, n_max: int, r0: int | None = None) -> Triangle:
    """Build a triangle by kind; r0 applies to the r-Stirling kind only.

    The w and W kinds run the row step over BiPoly with symbolic q and r.
    The Stirling kinds are the first kind at the integer point q = 1,
    r = r0 (0 for s), where the scaled integer rows of ``scaled_rows`` are
    the entries themselves.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if kind is TriangleKind.R_STIRLING_FIRST:
        r0 = 0 if r0 is None else r0
        if not isinstance(r0, int) or r0 < 0:
            raise ValueError("r0 must be a nonnegative integer")
    elif r0 is not None:
        raise ValueError("r0 only applies to the r-Stirling kind")
    if kind in (TriangleKind.WHITNEY_FIRST, TriangleKind.WHITNEY_SECOND):
        rows = _rows(kind, n_max, Q, R, ONE)
    else:
        _, ints = scaled_rows(TriangleKind.WHITNEY_FIRST, n_max, 1, r0 or 0)  # r0 is None for s
        rows = ([BiPoly.const(u) for u in row] for row in ints)
    return Triangle(kind, n_max, tuple(tuple(row) for row in rows), r0=r0)


def whitney_first(n_max: int) -> Triangle:
    """First-kind triangle with symbolic q and r, rows 0..n_max."""
    return triangle(TriangleKind.WHITNEY_FIRST, n_max)


def whitney_second(n_max: int) -> Triangle:
    """Second-kind triangle with symbolic q and r, rows 0..n_max."""
    return triangle(TriangleKind.WHITNEY_SECOND, n_max)


def stirling_first(n_max: int) -> Triangle:
    """Signed Stirling numbers of the first kind (q = 1, r = 0)."""
    return triangle(TriangleKind.STIRLING_FIRST, n_max)


def r_stirling_first(n_max: int, r0: int) -> Triangle:
    """Signed r-Stirling numbers of the first kind (q = 1, r = r0 >= 0)."""
    return triangle(TriangleKind.R_STIRLING_FIRST, n_max, r0)


def _scaled_point(
    kind: TriangleKind, n_max: int, q0: Fraction | int, r0: Fraction | int
) -> tuple[int, int, int]:
    """(D, A, C) with q0 = A/D and r0 = C/D over the least common denominator D.

    Checks the arguments of ``scaled_rows`` and ``decimal_rows``.
    """
    if kind not in (TriangleKind.WHITNEY_FIRST, TriangleKind.WHITNEY_SECOND):
        raise ValueError("numeric rows exist for the w and W kinds only")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    return common_denominator(q0, r0)


def _powers(one, d, n: int) -> list:
    """d^0..d^n, each the one before times d."""
    powers = [one]
    for _ in range(n):
        powers.append(powers[-1] * d)
    return powers


def scaled_rows(
    kind: TriangleKind, n_max: int, q0: Fraction | int, r0: Fraction | int
) -> tuple[list[int], Iterator[list[int]]]:
    """Integer rows u(n, k) = entry(n, k) * D^(n-k) of w or W at (q0, r0).

    With D the least common multiple of the denominators, q0 = A/D and
    r0 = C/D, the scaled entries follow the triangle's own step with q and r
    replaced by the integers A and C, so no Fraction appears in the loop.
    Returns the powers D^0..D^n_max and an iterator over rows 0..n_max,
    each a new list.  q0 and r0 are ints or Fractions; anything else is a
    TypeError.
    """
    d, a, c = _scaled_point(kind, n_max, q0, r0)
    powers = _powers(1, d, n_max)
    return powers, _rows(kind, n_max, a, c, 1)


# Integer arithmetic in base 10 with no rounding: a result that would need
# more digits than the context holds raises Inexact or Rounded rather than
# lose one.  Entered only while a row is computed (see ``decimal_rows``).
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)
_DECIMAL_ZERO = (Decimal(0), Decimal(1))


def decimal_rows(
    kind: TriangleKind, n_max: int, q0: Fraction | int, r0: Fraction | int
) -> Iterator[list[tuple[Decimal, Decimal]]]:
    """Rows of w or W at (q0, r0), one at a time, as (num, den) pairs of Decimals.

    Each pair is in lowest terms with den > 0, as in ``Fraction``, and
    both are integers with exponent 0, so ``str()`` prints their digits,
    in time linear in their length (``str()`` of an int takes quadratic
    time).  The step of ``scaled_rows`` runs on integer-valued Decimals in
    an exact context, entered only while a row is computed, never across
    a ``yield``: the caller's decimal context is the same between rows.

    The same step also runs on ints mod D^J, with J = 64 // D.bit_length()
    (at least 1, at most n_max), so that D^J is about one machine word.
    The step is linear with the integer multipliers k*A + C (or n*A + C),
    so these rows hold u(n, k) mod D^J, and gcd(res, D^j) = gcd(u, D^j)
    for j = min(n - k, J).  Each row is reduced in one loop from that gcd,
    and a column's denominator D^(n-k) / g is reused while g repeats, so
    a den object may be shared between rows.
    """
    d, a, c = _scaled_point(kind, n_max, q0, r0)
    one = Decimal(1)
    with localcontext(_EXACT):
        dpowers = _powers(one, Decimal(d), n_max)
    powers = _powers(1, d, n_max)
    big_j = min(max(1, 64 // d.bit_length()), n_max)
    modulus = powers[big_j]
    rows = _rows(kind, n_max, Decimal(a), Decimal(c), one)
    residues = _rows(kind, n_max, a % modulus, c % modulus, 1, modulus)
    return _reduced_rows(rows, residues, big_j, powers, dpowers)


def _reduced_rows(rows, residues, big_j: int, powers: list[int], dpowers: list) -> Iterator[list]:
    """Each row's entries u / D^m, m = n - k, in lowest terms, in one loop per row.

    Only primes of D can cancel.  For a prime p whose power in D is p^e,
    g = gcd(res, D^j) with j = min(m, big_j) holds p^min(v, e*j), p^v the
    power of p in u.  If g divides D^(j-1), each of these is p^v, and g is
    gcd(u, D^m).  Otherwise j is doubled (capped at m) and g taken again as
    gcd(u mod D^j, D^j), until g divides D^(j-1) or j = m: no gcd of
    full-size operands is taken.  A zero entry, which the step can leave as
    a negative zero, is 0/1.  Column m keeps its last g > 1, as an int and
    a Decimal, with D^m / g, and reuses them while its g stays the same.
    """
    cols = [(1, None, None)] * len(powers)
    for n in range(len(powers)):
        with localcontext(_EXACT):
            row = next(rows)  # runs the step, so inside the exact context
            reduced = []
            add = reduced.append
            for m, u, res in zip(range(n, -1, -1), row, next(residues)):
                j = m if m < big_j else big_j
                g = gcd(res, powers[j])
                if not u:
                    add(_DECIMAL_ZERO)
                    continue
                while j < m and powers[j - 1] % g:
                    j = min(2 * j, m)
                    g = gcd(int(u % dpowers[j]), powers[j])
                if g == 1:
                    add((u, dpowers[m]))
                    continue
                if cols[m][0] != g:
                    cols[m] = (g, dg := Decimal(g), dpowers[m] // dg)
                add((u // cols[m][1], cols[m][2]))
        yield reduced


def _fraction_rows(kind: TriangleKind, n_max: int, q0, r0) -> list[list[Fraction]]:
    powers, rows = scaled_rows(kind, n_max, q0, r0)
    return [[Fraction(u, powers[n - k]) for k, u in enumerate(row)] for n, row in enumerate(rows)]


def whitney_first_values(n_max: int, q0: Fraction | int, r0: Fraction | int) -> list[list[Fraction]]:
    """First-kind rows evaluated at a rational point, as Fractions."""
    return _fraction_rows(TriangleKind.WHITNEY_FIRST, n_max, q0, r0)


def whitney_second_values(n_max: int, q0: Fraction | int, r0: Fraction | int) -> list[list[Fraction]]:
    """Second-kind rows evaluated at a rational point, as Fractions."""
    return _fraction_rows(TriangleKind.WHITNEY_SECOND, n_max, q0, r0)


# -- factorial polynomials -----------------------------------------------------


def rising_factorial(m: int, y: BiPoly = R, step: BiPoly = Q) -> BiPoly:
    """[y|step]_m = y * (y + step) * ... * (y + (m-1)*step); defaults to [r|q]_m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return rising_factorials(m, y, step)[m]


def rising_factorials(n: int, y: BiPoly = R, step: BiPoly = Q) -> list[BiPoly]:
    """[y|step]_0..n, each the one before times its next factor."""
    rise = [ONE]
    for j in range(n):
        rise.append(rise[-1] * (y + step.scale(j)))
    return rise


def shift_weights(n: int, rise: list[BiPoly]) -> list[BiPoly]:
    """(-1)^(n-j) C(n, j) rise[n-j] for j = 0..n, with rise[m] = [r|step]_m for m <= n."""
    return [rise[n - j].scale(binomial(n, j) * (-1) ** (n - j)) for j in range(n + 1)]


@lru_cache(maxsize=None)
def stirling_first_row(n: int) -> tuple[int, ...]:
    """Row n of the signed first-kind Stirling triangle, as plain integers.

    Computed by its own integer loop, independent of the row step that the
    symbolic and numeric triangles share, so it can serve as an oracle for
    them.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for m in range(n):
        row = [(row[k - 1] if k else 0) - (m * row[k] if k <= m else 0) for k in range(m + 2)]
    return tuple(row)


def whitney_first_cheon(n: int, k: int) -> BiPoly:
    """First-kind entry (n, k) from the closed Stirling-sum form.

    w(n, k) = sum_{i=k..n} C(n, i) * (-1)^(n - i) * q^(i - k)
              * [r|q]_(n - i) * s(i, k),

    the shift law from r = 0.  Independent of the recurrence: uses only
    binomials, rising factorials, and the integer Stirling rows.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return _cheon_entry(shift_weights(n, rising_factorials(n)), n, k)


def whitney_first_cheon_rows(n_max: int) -> Iterator[list[BiPoly]]:
    """Rows 0..n_max of ``whitney_first_cheon``, over one rising-factorial list
    and one list of shift weights per row."""
    rise = rising_factorials(n_max)
    for n in range(n_max + 1):
        weights = shift_weights(n, rise)
        yield [_cheon_entry(weights, n, k) for k in range(n + 1)]


def _cheon_entry(weights: list[BiPoly], n: int, k: int) -> BiPoly:
    terms = (BiPoly({(i - k, 0): stirling_first_row(i)[k]}) for i in range(k, n + 1))
    return BiPoly.sum_of_products(zip(weights[k:], terms))
