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
shifted convention.  Entries are BiPoly values, all made by one row step
over BiPoly, at symbolic q and r for w and W and at q = 1, r = r0 for the
Stirling kinds.  ``triangle_rows`` yields the rows one at a time, and the
command line prints each as it is made; ``triangle`` holds them all.  At
a rational point (q0, r0) = (A/D, C/D), ``scaled_rows`` runs the same
step over the integers u(n, k) = w(n, k) * D^(n-k) (or W), and
``decimal_rows`` runs it over integer-valued Decimals in an exact
context, so that a row can be printed with ``str()`` in time linear in
its digits, and reduces each entry to lowest terms as it is read out,
from the same step over ints mod D^J.  The one row step updates its row
in place, so it holds one row, not two; a caller that drops each row
before asking for the next holds one in all.  ``row_poly`` reassembles
sum_k w(n, k) x^k as a ``Series`` of order n, to check against the
defining product, and ``whitney_first_cheon`` computes one first-kind
entry from the closed double-sum form

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


def _rows(kind: TriangleKind, n_max: int, q, r, one, mod: int = 0, k_max: int | None = None) -> Iterator[list]:
    """Rows 0..n_max of W for the second kind, else of w, with q and r from any commutative ring.

    Both triangles follow one step, row[k] = prev[k-1] + m_k * prev[k] with
    entries outside 0..n read as zero; only the multiplier differs:
    m_k = -(n*q + r) for the first kind and m_k = k*q + r for the second,
    whose list grows by one per row.  The step is the ring's multiply-add:
    ``BiPoly.add_mul``, which forms the sum in one numerator map, and
    a + m*b for int and Decimal.  It updates one row in place, k from the
    top down, so each old entry is freed as its replacement is made and
    the step holds one row, not two.  Each row is yielded as a copy of the
    list, which shares the entries, so a caller that drops it before
    asking for the next holds no other row.  With integer q, r and one, a
    nonzero ``mod`` reduces each row mod it, so the rows hold the residues
    of the integer rows.  A ``k_max`` cuts each row after column k_max:
    column k reads only columns k - 1 and k of the row before, so the
    columns kept are those of the whole rows.
    """
    second = kind is TriangleKind.WHITNEY_SECOND
    fused = isinstance(one, BiPoly)
    last = n_max if k_max is None else k_max
    mults = []
    row = [one]
    yield row[:]
    for n in range(n_max):
        if second:
            mults.append(n * q + r)
        else:
            mults = [-(n * q + r)] * len(row)
        top = len(row) - 1
        if n < last:
            row.append(row[n])  # the diagonal entry
        # The ring is tested once per row, not once per entry.
        if fused:
            for k in range(top, 0, -1):
                row[k] = row[k - 1].add_mul(mults[k], row[k])
        else:
            for k in range(top, 0, -1):
                row[k] = row[k - 1] + mults[k] * row[k]
        row[0] = mults[0] * row[0]
        if mod:
            row = [u % mod for u in row]
        yield row[:]


def triangle_rows(
    kind: TriangleKind, n_max: int, r0: int | None = None, k_max: int | None = None
) -> Iterator[list[BiPoly]]:
    """Rows 0..n_max of a triangle by kind, one at a time; r0 applies to the r-Stirling kind only.

    The arguments are checked at the call.  Every kind runs the one row
    step over BiPoly, w and W at symbolic q and r and the Stirling kinds as
    w at q = 1, r = r0 (0 for s); it holds one row, so a caller that drops
    each row before asking for the next holds one.  A ``k_max`` gives each
    row's columns 0..k_max only, and the step computes no others.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if kind is TriangleKind.R_STIRLING_FIRST:
        if r0 is not None and (not isinstance(r0, int) or r0 < 0):
            raise ValueError("r0 must be a nonnegative integer")
    elif r0 is not None:
        raise ValueError("r0 only applies to the r-Stirling kind")
    whitney = kind in (TriangleKind.WHITNEY_FIRST, TriangleKind.WHITNEY_SECOND)
    q, r = (Q, R) if whitney else (ONE, BiPoly.const(r0 or 0))  # r0 is None for s
    return _rows(kind, n_max, q, r, ONE, k_max=k_max)


def triangle(kind: TriangleKind, n_max: int, r0: int | None = None) -> Triangle:
    """The rows of ``triangle_rows``, all held; r0 reads 0 for the r-Stirling kind when None."""
    rows = tuple(tuple(row) for row in triangle_rows(kind, n_max, r0))
    return Triangle(kind, n_max, rows, r0=r0 or 0 if kind is TriangleKind.R_STIRLING_FIRST else None)


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
# lose one.  Entered only while the step computes a row; the reduction of a
# cell calls its methods instead (see ``decimal_rows``).
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)
_DECIMAL_ZERO = (Decimal(0), Decimal(1))


def decimal_rows(
    kind: TriangleKind, n_max: int, q0: Fraction | int, r0: Fraction | int
) -> Iterator[Iterator[tuple[Decimal, Decimal]]]:
    """Rows of w or W at (q0, r0), one at a time, each an iterator of (num, den) pairs of Decimals.

    Each pair is in lowest terms with den > 0, as in ``Fraction``, and
    both are integers with exponent 0, so ``str()`` prints their digits,
    in time linear in their length (``str()`` of an int takes quadratic
    time).  A row is read once, and each pair is reduced as it is read,
    so no reduced row is ever held.  The rows may be read in any order,
    or in part.  The step of ``scaled_rows`` runs on integer-valued
    Decimals in an exact context, entered only while a row is computed,
    never across a ``yield``; the reduction calls that context's methods.
    So the caller's decimal context is the same between rows and between
    the pairs of a row.

    The same step also runs on ints mod D^J, with J = 64 // D.bit_length()
    (at least 1, at most n_max), so that D^J is about one machine word.
    The step is linear with the integer multipliers k*A + C (or n*A + C),
    so these rows hold u(n, k) mod D^J, and gcd(res, D^j) = gcd(u, D^j)
    for j = min(n - k, J).  Each pair is reduced from that gcd, and a
    column's denominator D^(n-k) / g is reused while g repeats, so a den
    object may be shared between rows.  The Decimal powers D^0..D^n_max,
    from which the dens are made, are all kept; of the int powers only
    D^0..D^J are.
    """
    d, a, c = _scaled_point(kind, n_max, q0, r0)
    one = Decimal(1)
    with localcontext(_EXACT):
        dpowers = _powers(one, Decimal(d), n_max)
    big_j = min(max(1, 64 // d.bit_length()), n_max)
    powers = _powers(1, d, big_j)
    modulus = powers[big_j]
    rows = _rows(kind, n_max, Decimal(a), Decimal(c), one)
    residues = _rows(kind, n_max, a % modulus, c % modulus, 1, modulus)
    return _reduced_rows(rows, residues, d, powers, dpowers)


def _reduced_rows(rows, residues, d: int, powers: list[int], dpowers: list) -> Iterator[Iterator[tuple]]:
    """Each row's entries u / D^m, m = n - k, in lowest terms, each reduced as it is read.

    ``powers`` holds the ints D^0..D^J, J the width of the residues, and
    ``dpowers`` the Decimals D^0..D^n_max.  Only primes of D can cancel.
    For a prime p whose power in D is p^e, g = gcd(res, D^j) with
    j = min(m, J) holds p^min(v, e*j), p^v the power of p in u.  If g
    divides D^(j-1), each of these is p^v, and g is gcd(u, D^m).
    Otherwise j is doubled (capped at m) and g taken again as
    gcd(u mod D^j, D^j), with D^j computed for that j, until g divides
    D^(j-1) or j = m: no gcd of full-size operands is taken.  A zero
    entry, which the step can leave as a negative zero, is 0/1.  Column m
    keeps its last g > 1, as an int and a Decimal, with D^m / g, in
    ``cols``, which all rows share, and reuses them while its g stays the
    same.  A row's iterator holds that row of the step and of the
    residues, both copies, so the caller that drops it once read holds
    no row while the next is made.
    """
    big_j = len(powers) - 1
    cols = [(1, None, None)] * len(dpowers)

    def reduced(n: int, row: list, residues: list[int]) -> Iterator[tuple]:
        # In the caller's context: the divisions are methods of _EXACT.
        divide, remainder = _EXACT.divide_int, _EXACT.remainder
        for m, u, res in zip(range(n, -1, -1), row, residues):
            j = m if m < big_j else big_j
            g = gcd(res, powers[j])
            if not u:
                yield _DECIMAL_ZERO
                continue
            while j < m and (powers[j - 1] if j <= big_j else dj // d) % g:
                j = min(2 * j, m)
                dj = d**j
                g = gcd(int(remainder(u, dpowers[j])), dj)
            if g == 1:
                yield u, dpowers[m]
                continue
            col = cols[m]
            if col[0] != g:
                col = cols[m] = (g, dg := Decimal(g), divide(dpowers[m], dg))
            yield divide(u, col[1]), col[2]

    for n in range(len(dpowers)):
        with localcontext(_EXACT):
            row = next(rows)  # runs the step, so inside the exact context
        yield reduced(n, row, next(residues))
        del row  # so that no row is held while the next is made


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
