"""Sparse bivariate polynomials in q and r over exact rationals.

A ``BiPoly`` stores integers over one common denominator: a dict mapping
exponent pairs ``(dq, dr)`` to nonzero ``int`` numerators, plus one
``den > 0``.  Every polynomial this package builds is of that shape (the
r-Whitney numbers have integer coefficients, and the Cauchy weights 1/(k+1)
only add a denominator), so the ring operations run on Python ints and
normalize once per result instead of once per coefficient.  They run on
one multiply-accumulate kernel, ``_accumulate``, which adds a product into
a numerator map.  ``add_mul`` is self + m*y through it, and ``+`` and ``*``
are its special cases; the triangle row step calls it.  Every longer sum
of products (a ``Series`` product coefficient, a step of ``exp``, a
shift-law sum, the inversion and orthogonality sums) is one
``sum_of_products``: all its terms in one map, normalized once, so no
product or partial sum is built only to be added.  ``Fraction``
appears only at the boundary: the constructor takes ``Fraction``/``int``
maps, and ``coeff``, ``const_value``, ``sorted_terms``, ``eval_at`` and
``to_records`` hand back reduced rationals.

The representation is canonical: no zero numerator is ever stored, the zero
polynomial is the empty map over ``den = 1``, and ``den`` shares no factor
with all of the numerators.  So structural equality coincides with
mathematical equality; every golden test in the suite relies on that.
``_nonzero`` enforces it, for given terms in the constructor and for every
computed result in ``_of``.

Polynomials in one further variable with ``BiPoly`` coefficients, such as
the defining products in x of the integral oracles, are ``series.Series``
values of an order that truncates nothing.

The canonical term order used for serialization and for the record form is
descending total degree, then descending r-degree, then descending
q-degree.  The human-readable renderings group terms by powers of r, which
is how these polynomials are conventionally written ("r^2 + (q - 1)*r -
(1/2)*q + 1/3").

``to_text`` and ``to_latex`` sort the exponent pairs once, by (dr, dq)
descending, the order they print in, and write them in one loop.  Each
coefficient is reduced against ``den`` with one gcd (none when ``den`` is
1), the variable parts come from a cache, and the strings are joined once.
``to_json`` writes the record array that ``to_records`` returns as compact
JSON, one f-string per term, with the bytes ``json.dumps(p.to_records(),
separators=(",", ":"))`` gives; the command line writes its JSON output
with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping

from .arith import binomial

Key = tuple[int, int]  # (dq, dr)


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator of an int or Fraction, in lowest terms."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def common_denominator(x, y) -> tuple[int, int, int]:
    """(D, A, C) with x = A/D and y = C/D over the least common denominator D,
    for ints or Fractions x and y; anything else is a TypeError, as in ``_ratio``."""
    x_num, x_den = _ratio(x)
    y_num, y_den = _ratio(y)
    d = lcm(x_den, y_den)
    return d, x_num * (d // x_den), y_num * (d // y_den)


def as_rational(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else, a float or a string
    included, is a TypeError, as for a ``BiPoly`` coefficient."""
    return Fraction(*_ratio(value))


class BiPoly:
    """Polynomial in the indeterminates q and r over the rationals.

    The terms are ``int`` numerators over one denominator ``den``; see the
    module docstring for the canonical form.  Instances are immutable by
    convention: every operation returns a new polynomial, so values are
    safe to share between threads.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Key, Fraction | int] | None = None):
        ratios: dict[Key, tuple[int, int]] = {}
        if terms:
            for (dq, dr), coeff in terms.items():
                if dq < 0 or dr < 0:
                    raise ValueError(f"negative exponent in key ({dq}, {dr})")
                ratios[(dq, dr)] = _ratio(coeff)
        den = lcm(*(d for _, d in ratios.values()))
        self._terms, self._den = _nonzero({key: n * (den // d) for key, (n, d) in ratios.items()}, den)

    @classmethod
    def const(cls, value: Fraction | int) -> BiPoly:
        num, den = _ratio(value)
        return cls._of({(0, 0): num}, den)

    @classmethod
    def _of(cls, terms: dict[Key, int], den: int = 1) -> BiPoly:
        """A computed result: terms/den for a fresh numerator map and den > 0, without validation."""
        result = cls.__new__(cls)
        result._terms, result._den = _nonzero(terms, den)
        return result

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def const_value(self) -> Fraction:
        """The value of a constant polynomial; raises otherwise."""
        if not self._terms:
            return Fraction(0)
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[(0, 0)], self._den)

    def coeff(self, dq: int, dr: int) -> Fraction:
        return Fraction(self._terms.get((dq, dr), 0), self._den)

    def r_degree(self) -> int:
        """Highest power of r, or -1 for the zero polynomial."""
        return max((dr for _, dr in self._terms), default=-1)

    def r_coefficient(self, dr: int) -> BiPoly:
        """The coefficient of r^dr, as a polynomial in q."""
        return BiPoly._of({(dq, 0): c for (dq, d), c in self._terms.items() if d == dr}, self._den)

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        """Terms in canonical order (total degree, then dr, then dq, all descending)."""
        return [((dq, dr), Fraction(num, den)) for dq, dr, num, den in self._records()]

    def _records(self) -> list[tuple[int, int, int, int]]:
        """(dq, dr, num, den) per term in canonical order, num/den in lowest terms."""
        terms, den = self._terms, self._den
        # The total degree and dr fix dq, so they order the keys.
        keys = sorted(terms, key=lambda k: (k[0] + k[1], k[1]), reverse=True)
        if den == 1:
            return [(dq, dr, terms[dq, dr], 1) for dq, dr in keys]
        return [(dq, dr, (c := terms[dq, dr]) // (g := gcd(c, den)), den // g) for dq, dr in keys]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: BiPoly | Fraction | int) -> BiPoly:
        return self.add_mul(ONE, other)

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return BiPoly._of({key: -c for key, c in self._terms.items()}, self._den)

    def __sub__(self, other: BiPoly | Fraction | int) -> BiPoly:
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> BiPoly:
        return (-self) + other

    def __mul__(self, other: BiPoly | Fraction | int) -> BiPoly:
        if not isinstance(other, BiPoly):
            return self.scale(other)
        return ZERO.add_mul(self, other)

    def add_mul(self, m: BiPoly, y: BiPoly | Fraction | int) -> BiPoly:
        """self + m*y, the multiply-accumulate under ``+`` and ``*``: the products go
        into one numerator map over one common denominator, normalized once."""
        if not isinstance(y, BiPoly):
            y = BiPoly.const(y)
        prod_den = m._den * y._den
        if self._den == prod_den:  # always so inside the triangle recurrences (den = 1)
            den, out, lift = prod_den, dict(self._terms), 1
        else:
            den = lcm(self._den, prod_den)
            mine = den // self._den
            out = {key: c * mine for key, c in self._terms.items()}
            lift = den // prod_den
        _accumulate(out, m, y, lift)
        return BiPoly._of(out, den)

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple[BiPoly, BiPoly | Fraction | int]]) -> BiPoly:
        """The sum of m*y over the pairs (m, y), with the kernel of ``add_mul``: every
        product goes into one numerator map over one common denominator, normalized once."""
        pairs = [(m, y if isinstance(y, BiPoly) else BiPoly.const(y)) for m, y in pairs]
        den = lcm(*(m._den * y._den for m, y in pairs))
        out: dict[Key, int] = {}
        for m, y in pairs:
            _accumulate(out, m, y, den // (m._den * y._den))
        return BiPoly._of(out, den)

    def scale(self, c: Fraction | int) -> BiPoly:
        num, den = _ratio(c)
        return BiPoly._of({key: v * num for key, v in self._terms.items()}, self._den * den)

    __rmul__ = scale

    def __pow__(self, n: int) -> BiPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = ONE
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den))

    # -- substitution and evaluation ----------------------------------------

    def subst_r(self, a: Fraction | int, b: Fraction | int) -> BiPoly:
        """Replace r by a*r + b (rational a, b), expanded to canonical form."""
        return self._subst(1, a, b)

    def subst_q(self, a: Fraction | int, b: Fraction | int) -> BiPoly:
        """Replace q by a*q + b (rational a, b), expanded to canonical form."""
        return self._subst(0, a, b)

    def _subst(self, var: int, a: Fraction | int, b: Fraction | int) -> BiPoly:
        """Replace the variable at key position var (0 for q, 1 for r) by a*var + b."""
        # a = A/E and b = B/E, so (a*var + b)^d = (A*var + B)^d / E^d; a term
        # of degree d < top is lifted to the common denominator E^top
        e, big_a, big_b = common_denominator(a, b)
        top = max((key[var] for key in self._terms), default=0)
        out: dict[Key, int] = {}
        for key, c in self._terms.items():
            d = key[var]
            c *= e ** (top - d)
            # (A*var + B)^d expanded by the binomial theorem; only the i = 0
            # term survives when A = 0, and only the i = d term when B = 0
            for i in range(0 if big_b else d, d + 1 if big_a else 1):
                key_i = (key[0], i) if var else (i, key[1])
                out[key_i] = out.get(key_i, 0) + c * binomial(d, i) * big_a**i * big_b ** (d - i)
        return BiPoly._of(out, self._den * e**top)

    def eval_at(self, q0: Fraction | int, r0: Fraction | int) -> Fraction:
        """Exact value at the rational point (q0, r0): q, then r, replaced by a constant."""
        return self._subst(0, 0, q0)._subst(1, 0, r0).const_value()

    # -- serialization -------------------------------------------------------

    def to_records(self) -> list[dict[str, int]]:
        """Canonically ordered list of {dq, dr, num, den} records."""
        return [{"dq": dq, "dr": dr, "num": num, "den": den} for dq, dr, num, den in self._records()]

    def to_json(self) -> str:
        """The records as compact JSON, ``json.dumps(self.to_records(), separators=(",", ":"))``,
        written as one f-string per term."""
        return "[" + ",".join(
            [f'{{"dq":{dq},"dr":{dr},"num":{num},"den":{den}}}' for dq, dr, num, den in self._records()]
        ) + "]"

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, int]]) -> BiPoly:
        terms: dict[Key, Fraction] = {}
        for rec in records:
            key = (rec["dq"], rec["dr"])
            if key in terms:
                raise ValueError(f"duplicate exponent pair {key}")
            if rec["den"] <= 0:
                raise ValueError(f"denominator {rec['den']} at {key} is not positive")
            terms[key] = Fraction(rec["num"], rec["den"])
        return cls(terms)

    def to_text(self) -> str:
        return _render(self, latex=False)

    def to_latex(self) -> str:
        return _render(self, latex=True)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"BiPoly({self.to_text()!r})"


def _accumulate(out: dict[Key, int], m: BiPoly, y: BiPoly, lift: int) -> None:
    """Add lift * m * y, over the numerators of m and y, into the numerator map out."""
    ys = y._terms.items()
    for (aq, ar), ca in m._terms.items():
        ca *= lift
        for (bq, br), cb in ys:
            key = (aq + bq, ar + br)
            out[key] = out.get(key, 0) + ca * cb


def _nonzero(terms: dict[Key, int], den: int) -> tuple[dict[Key, int], int]:
    """The canonical form of terms/den (den > 0): zero terms deleted in place, common factor divided out."""
    for key in [key for key, c in terms.items() if not c]:
        del terms[key]
    if not terms:
        return terms, 1
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {key: c // g for key, c in terms.items()}, den // g
    return terms, den


ZERO = BiPoly()
ONE = BiPoly.const(1)
Q = BiPoly({(1, 0): 1})
R = BiPoly({(0, 1): 1})


# -- rendering ---------------------------------------------------------------
#
# Polynomials are displayed collected in r: groups of descending r-power,
# each with its q-coefficient polynomial, then the r-free terms.  A
# multi-term coefficient is parenthesized with its leading sign pulled out,
# e.g. "-r^3 - (3*q - 3/2)*r^2 - ...".


class _VarParts(dict):
    """Variable parts such as "q^3*r^2" (text) or "q^{10}r^9" (LaTeX), by
    exponent pair, made on first use.  One string per pair rendered: the
    command line's size limits bound the exponents, and so the cache."""

    def __init__(self, latex: bool):
        super().__init__()
        self.latex = latex

    def __missing__(self, key: Key) -> str:
        dq, dr = key
        # LaTeX sets only the first character after ^ as the exponent, so an
        # exponent of two or more digits is braced there.
        q = "" if not dq else "q" if dq == 1 else f"q^{{{dq}}}" if self.latex and dq > 9 else f"q^{dq}"
        r = "" if not dr else "r" if dr == 1 else f"r^{{{dr}}}" if self.latex and dr > 9 else f"r^{dr}"
        part = self[key] = q + r if self.latex or not (q and r) else f"{q}*{r}"
        return part


_TEXT_VARS = _VarParts(latex=False)
_LATEX_VARS = _VarParts(latex=True)


def _render(p: BiPoly, latex: bool) -> str:
    terms, den = p._terms, p._den
    if not terms:
        return "0"
    var_parts = _LATEX_VARS if latex else _TEXT_VARS
    mul = "" if latex else "*"
    # One loop over the terms in print order: each adds a sign (" + " or " - ")
    # and a body to out, and the leading sign is rewritten at the end.  A term
    # alone at its r-power (every term of a triangle entry) is written directly.
    # A group of two or more opens with its first term's sign and a parenthesis,
    # signs its terms relative to that one, and closes with the r-power.
    keys = sorted(terms, key=itemgetter(1, 0), reverse=True)
    drs = [-1, *(dr for _, dr in keys), -1]
    out: list[str] = []
    flip = False  # the sign pulled out of the open group
    for key, before, after in zip(keys, drs, drs[2:]):  # with the r-powers of its neighbours
        c = terms[key]
        dq, dr = key
        first, last = before != dr, after != dr
        if not dr or first and last:
            out.append(" - " if c < 0 else " + ")
            v = var_parts[key]
        else:
            if first:
                flip = c < 0
                out.append(" - " if flip else " + ")
                out.append("(")
            else:
                out.append(" - " if (c < 0) != flip else " + ")
            v = var_parts[dq, 0]
        if den == 1:
            a, d = abs(c), 1
        else:
            g = gcd(c, den)
            a, d = abs(c) // g, den // g
        if d == 1:
            out.append(f"{a}{mul}{v}" if a != 1 and v else v or f"{a}")
        elif latex:
            out.append(f"\\frac{{{a}}}{{{d}}}{v}")
        else:
            out.append(f"({a}/{d})*{v}" if v else f"{a}/{d}")
        if dr and last and not first:
            out.append(f"){mul}{var_parts[0, dr]}")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)
