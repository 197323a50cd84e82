"""Sparse bivariate polynomials in q and r over exact rationals.

A ``BiPoly`` stores integers over one common denominator: a dict mapping
packed exponent keys to nonzero ``int`` numerators, plus one ``den > 0``.
Every polynomial this package builds is of that shape (the r-Whitney
numbers have integer coefficients, and the Cauchy weights 1/(k+1) only add
a denominator), so the ring operations run on Python ints and normalize
once per result instead of once per coefficient.  They run on one
multiply-accumulate kernel, ``_accumulate``, which adds a product into a
numerator map.  ``add_mul`` is self + m*y through it, and ``+`` and ``*``
are its special cases; the triangle row step calls it.  Every longer sum
of products (a ``Series`` product coefficient, a step of ``exp``, a
shift-law sum, a Cauchy row sum, the inversion and orthogonality sums) is
one ``sum_of_products``: all its terms in one map, normalized once, so no
product or partial sum is built only to be added.  ``Fraction``
appears only at the boundary: the constructor takes ``Fraction``/``int``
maps, and ``coeff``, ``const_value``, ``sorted_terms``, ``eval_at`` and
``to_records`` hand back reduced rationals.

The key of q^dq r^dr is the one int ``(dq + dr) << FIELD | dr``: the total
degree in the high field and the r-degree in the low one, each ``FIELD`` =
15 bits, so every key is below 2^30 and is a one-digit Python int, which
hashes and adds fastest (measured on a 2-core Xeon: with two-digit keys,
31-bit fields, building w and W at n = 54 took 7% longer, slower in 9 of
10 alternated runs).  Packing is additive, so the key of a product of monomials is the
sum of their keys, and descending keys are the canonical record order:
descending total degree, then descending r-degree.  A polynomial holds
total degrees 0..``MAX_DEGREE`` (2^15 - 1).  The constructor and
``from_records`` raise ``TypeError`` for a non-``int`` exponent,
``ValueError`` for a negative one and ``OverflowError`` past that limit.
A product whose total degree passes it raises ``OverflowError`` instead of
returning: its r-degree field may have carried into the total, but its key
is at least 2^(2*FIELD), so the one check of the largest key of a result
finds it.  No other operation raises the degree.
``(dq, dr)`` pairs appear only at the boundary: the constructor, ``coeff``,
``sorted_terms``, the records and ``from_records``.

The representation is canonical: no zero numerator is ever stored, the zero
polynomial is the empty map over ``den = 1``, and ``den`` shares no factor
with all of the numerators.  So structural equality coincides with
mathematical equality; every golden test in the suite relies on that.
``_nonzero`` enforces it, for given terms in the constructor and for every
computed result in ``_of``.

Polynomials in one further variable with ``BiPoly`` coefficients, such as
the defining products in x of the integral oracles, are ``series.Series``
values of an order that truncates nothing.

The human-readable renderings group terms by powers of r, which is how
these polynomials are conventionally written ("r^2 + (q - 1)*r - (1/2)*q +
1/3"): descending r-degree, then descending q-degree.  For a homogeneous
polynomial, such as every triangle entry, that is the descending key order,
with one term per power of r.  ``to_text`` and ``to_latex`` sort the keys
in descending order.  A homogeneous polynomial of positive degree over
``den`` = 1 is written in that order, one term after the other; any other
is sorted into print order and written in one loop that groups the terms
of each power of r.  Each coefficient is reduced against ``den`` with one
gcd (none when ``den`` is 1), the variable parts come from a cache, and
the strings are joined once.  ``to_json`` writes the record array that
``to_records`` returns as compact JSON, one f-string per term, with the
bytes ``json.dumps(p.to_records(), separators=(",", ":"))`` gives; the
command line writes its JSON output with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .arith import binomial

FIELD = 15  # bits of each exponent field of a packed key
MAX_DEGREE = (1 << FIELD) - 1  # the largest total degree a BiPoly holds
_DR_MASK = MAX_DEGREE  # the r-degree field
_Q_KEY = 1 << FIELD  # the key of q; the key of q^dq is dq times it
_R_KEY = _Q_KEY + 1  # the key of r; the key of r^dr is dr times it


def _key(dq: int, dr: int) -> int:
    """The packed key of q^dq r^dr, from exponents given from outside."""
    if not (isinstance(dq, int) and isinstance(dr, int)):
        raise TypeError(f"exponents must be ints, got ({dq!r}, {dr!r})")
    if dq < 0 or dr < 0:
        raise ValueError(f"negative exponent in key ({dq}, {dr})")
    if dq + dr > MAX_DEGREE:
        raise OverflowError(f"total degree of ({dq}, {dr}) is above {MAX_DEGREE}")
    return (dq + dr) << FIELD | dr


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

    The terms are ``int`` numerators over one denominator ``den``, keyed by
    ``(dq + dr) << FIELD | dr`` for the term q^dq r^dr; see the module
    docstring for the canonical form.  Total degrees run from 0 to
    ``MAX_DEGREE``: a product that would pass it raises ``OverflowError``,
    and so does an exponent pair past it given to the constructor.
    Instances are immutable by convention: every operation returns a new
    polynomial, so values are safe to share between threads.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction | int] | None = None):
        ratios: dict[int, tuple[int, int]] = {}
        if terms:
            for (dq, dr), coeff in terms.items():
                ratios[_key(dq, dr)] = _ratio(coeff)
        den = lcm(*(d for _, d in ratios.values()))
        self._terms, self._den = _nonzero({key: n * (den // d) for key, (n, d) in ratios.items()}, den)

    @classmethod
    def const(cls, value: Fraction | int) -> BiPoly:
        num, den = _ratio(value)
        return cls._of({0: num}, den)

    @classmethod
    def _of(cls, terms: dict[int, int], den: int = 1) -> BiPoly:
        """A computed result: terms/den for a fresh numerator map and den > 0, without validation."""
        result = cls.__new__(cls)
        result._terms, result._den = _nonzero(terms, den)
        return result

    @classmethod
    def _of_products(cls, terms: dict[int, int], den: int) -> BiPoly:
        """``_of`` for a numerator map that ``_accumulate`` filled, which holds a key at or
        above 2^(2*FIELD) exactly when a product passed MAX_DEGREE: an OverflowError then."""
        if terms and max(terms) >> 2 * FIELD:
            raise OverflowError(f"a product has a total degree above {MAX_DEGREE}")
        return cls._of(terms, den)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def const_value(self) -> Fraction:
        """The value of a constant polynomial; raises otherwise."""
        if not self._terms:
            return Fraction(0)
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._terms[0], self._den)

    def coeff(self, dq: int, dr: int) -> Fraction:
        """The coefficient of q^dq r^dr: 0 for a pair outside 0 <= dq + dr <= MAX_DEGREE,
        where no key is stored, and a TypeError for non-int exponents."""
        if dq < 0 or dr < 0 or dq + dr > MAX_DEGREE:
            return Fraction(0)
        return Fraction(self._terms.get(_key(dq, dr), 0), self._den)

    def r_degree(self) -> int:
        """Highest power of r, or -1 for the zero polynomial."""
        return max((key & _DR_MASK for key in self._terms), default=-1)

    def r_coefficient(self, dr: int) -> BiPoly:
        """The coefficient of r^dr, as a polynomial in q."""
        r_part = dr * _R_KEY  # the key of r^dr; the key of q^dq r^dr less it is the key of q^dq
        terms = {key - r_part: c for key, c in self._terms.items() if key & _DR_MASK == dr}
        return BiPoly._of(terms, self._den)

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in canonical order (total degree, then dr, then dq, all descending)."""
        return [((dq, dr), Fraction(num, den)) for dq, dr, num, den in self._records()]

    def _records(self) -> list[tuple[int, int, int, int]]:
        """(dq, dr, num, den) per term in canonical order, num/den in lowest terms."""
        terms, den = self._terms, self._den
        keys = sorted(terms, reverse=True)
        # (dq, dr) unpacked inline: a function call per term would cost as much as the rest
        if den == 1:
            return [((key >> FIELD) - (dr := key & _DR_MASK), dr, terms[key], 1) for key in keys]
        return [
            ((key >> FIELD) - (dr := key & _DR_MASK), dr, (c := terms[key]) // (g := gcd(c, den)), den // g)
            for key in keys
        ]

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
        return BiPoly._of_products(out, den)

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple[BiPoly, BiPoly | Fraction | int]]) -> BiPoly:
        """The sum of m*y over the pairs (m, y), with the kernel of ``add_mul``: every
        product goes into one numerator map over one common denominator, normalized once."""
        pairs = [(m, y if isinstance(y, BiPoly) else BiPoly.const(y)) for m, y in pairs]
        den = lcm(*(m._den * y._den for m, y in pairs))
        out: dict[int, int] = {}
        for m, y in pairs:
            _accumulate(out, m, y, den // (m._den * y._den))
        return BiPoly._of_products(out, den)

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
        """Replace the variable var (0 for q, 1 for r) by a*var + b."""
        # a = A/E and b = B/E, so (a*var + b)^d = (A*var + B)^d / E^d; a term
        # of degree d < top is lifted to the common denominator E^top
        e, big_a, big_b = common_denominator(a, b)
        terms = self._terms
        if var:
            unit, degrees = _R_KEY, [key & _DR_MASK for key in terms]
        else:
            unit, degrees = _Q_KEY, [(key >> FIELD) - (key & _DR_MASK) for key in terms]
        top = max(degrees, default=0)
        out: dict[int, int] = {}
        for (key, c), d in zip(terms.items(), degrees):
            c *= e ** (top - d)
            base = key - d * unit  # the key with var^0
            # (A*var + B)^d expanded by the binomial theorem; only the i = 0
            # term survives when A = 0, and only the i = d term when B = 0
            for i in range(0 if big_b else d, d + 1 if big_a else 1):
                key_i = base + i * unit
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
        terms: dict[tuple[int, int], Fraction] = {}
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


def _accumulate(out: dict[int, int], m: BiPoly, y: BiPoly, lift: int) -> None:
    """Add lift * m * y, over the numerators of m and y, into the numerator map out.

    The key of a product of terms is the sum of their keys.  That holds while
    the total degree stays within MAX_DEGREE: the r-degree is at most the
    total, so neither field carries.  A product of total degree t past it
    has a key of at least t << FIELD >= 2^(2*FIELD), which ``_of_products``
    rejects before any result is returned.
    """
    ys = y._terms.items()
    for a, ca in m._terms.items():
        ca *= lift
        for b, cb in ys:
            key = a + b
            out[key] = out.get(key, 0) + ca * cb


def _nonzero(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
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
    packed key, made on first use.  One string per key rendered: the
    command line's size limits bound the exponents, and so the cache."""

    def __init__(self, latex: bool):
        super().__init__()
        self.latex = latex

    def __missing__(self, key: int) -> str:
        dr = key & _DR_MASK
        dq = (key >> FIELD) - dr
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
    keys = sorted(terms, reverse=True)
    degree = keys[0] >> FIELD
    if den == 1 and degree and keys[-1] >> FIELD == degree:
        # Homogeneous of degree >= 1 over den = 1, as every triangle entry past
        # w(0, 0) is: the descending keys are the print order, each term is
        # alone at its r-power, and each has a variable part.
        out = [
            f" - {-c}{mul}{v}" if c < -1 else f" + {c}{mul}{v}" if c > 1
            else f" - {v}" if c < 0 else f" + {v}"
            for c, v in zip(map(terms.__getitem__, keys), map(var_parts.__getitem__, keys))
        ]
        out[0] = out[0][3:] if out[0][1] == "+" else "-" + out[0][3:]
        return "".join(out)
    # Print order: descending r-power, then descending q-power, which is the
    # key order within one r-power.
    keys.sort(key=lambda key: (key & _DR_MASK, key), reverse=True)
    # One loop over the terms in print order: each adds a sign (" + " or " - ")
    # and a body to out, and the leading sign is rewritten at the end.  A term
    # alone at its r-power is written directly.  A group of two or more opens
    # with its first term's sign and a parenthesis, signs its terms relative to
    # that one, and closes with the r-power.
    drs = [-1, *(key & _DR_MASK for key in keys), -1]
    out = []
    flip = False  # the sign pulled out of the open group
    for key, before, after in zip(keys, drs, drs[2:]):  # with the r-powers of its neighbours
        c = terms[key]
        dr = key & _DR_MASK
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
            v = var_parts[key - dr * _R_KEY]  # q^dq alone
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
            out.append(f"){mul}{var_parts[dr * _R_KEY]}")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)
