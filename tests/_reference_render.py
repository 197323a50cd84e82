"""The BiPoly renderer as it was before the one-pass rewrite, kept as the
oracle that ``tests/test_poly.py`` compares ``to_text`` and ``to_latex``
with: terms grouped by r-power in a dict, a rational per coefficient, and
one helper call per monomial."""

from fractions import Fraction


def _frac_atom(c: Fraction, latex: bool, standalone: bool) -> str:
    """Positive rational as a rendering atom.

    ``standalone`` means the value is a term of its own; otherwise it
    multiplies a variable part and non-integers get grouped: "(1/2)*q".
    """
    if c.denominator == 1:
        return str(c.numerator)
    if latex:
        return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
    if standalone:
        return f"{c.numerator}/{c.denominator}"
    return f"({c.numerator}/{c.denominator})"


def _var_part(dq: int, dr: int, latex: bool) -> str:
    # LaTeX sets only the first character after ^ as the exponent, so an
    # exponent of two or more digits is braced there.
    parts = []
    if dq == 1:
        parts.append("q")
    elif dq > 1:
        parts.append(f"q^{{{dq}}}" if latex and dq > 9 else f"q^{dq}")
    if dr == 1:
        parts.append("r")
    elif dr > 1:
        parts.append(f"r^{{{dr}}}" if latex and dr > 9 else f"r^{dr}")
    return ("" if latex else "*").join(parts)


def _monomial(c: Fraction, dq: int, dr: int, latex: bool) -> str:
    """Unsigned monomial body for a positive coefficient c."""
    variables = _var_part(dq, dr, latex)
    if not variables:
        return _frac_atom(c, latex, standalone=True)
    if c == 1:
        return variables
    sep = "" if latex else "*"
    return f"{_frac_atom(c, latex, standalone=False)}{sep}{variables}"


def _join_signed(chunks: list[tuple[int, str]]) -> str:
    out: list[str] = []
    for i, (sign, body) in enumerate(chunks):
        if i == 0:
            out.append(f"-{body}" if sign < 0 else body)
        else:
            out.append(f" - {body}" if sign < 0 else f" + {body}")
    return "".join(out)


def reference_render(p, latex: bool) -> str:
    terms = p.sorted_terms()
    if not terms:
        return "0"
    by_dr: dict[int, list[tuple[int, Fraction]]] = {}
    for (dq, dr), c in terms:
        by_dr.setdefault(dr, []).append((dq, c))
    chunks: list[tuple[int, str]] = []
    for dr in sorted(by_dr, reverse=True):
        group = sorted(by_dr[dr], key=lambda t: -t[0])
        if dr == 0:
            for dq, c in group:
                sign = -1 if c < 0 else 1
                chunks.append((sign, _monomial(abs(c), dq, 0, latex)))
        elif len(group) == 1:
            dq, c = group[0]
            sign = -1 if c < 0 else 1
            chunks.append((sign, _monomial(abs(c), dq, dr, latex)))
        else:
            lead_sign = -1 if group[0][1] < 0 else 1
            inner = _join_signed(
                [(-1 if c * lead_sign < 0 else 1, _monomial(abs(c), dq, 0, latex)) for dq, c in group]
            )
            sep = "" if latex else "*"
            chunks.append((lead_sign, f"({inner}){sep}{_var_part(0, dr, latex)}"))
    return _join_signed(chunks)
