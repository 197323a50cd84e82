"""Exact triangles of r-Whitney and Stirling numbers and the Cauchy
polynomials with a q parameter, over the rationals.

Everything is computed in exact arithmetic: coefficients are arbitrary-
precision rationals, symbolic results are canonical sparse polynomials in
the two indeterminates q and r, and every identity the package exposes is
checkable against an independent oracle through the verification suites
(see ``run_suite`` and the ``qwhitney`` command-line tool).
"""

from .arith import binomial
from .cauchy import (
    CauchyKind,
    cauchy_first,
    cauchy_first_integral,
    cauchy_first_via_stirling,
    cauchy_number,
    cauchy_poly,
    cauchy_second,
    cauchy_second_integral,
    q_cauchy_number,
)
from .poly import ONE, Q, R, ZERO, BiPoly, XPoly
from .series import (
    Series,
    binomial_power,
    cauchy_first_egf,
    cauchy_second_egf,
    egf_term,
    expm1_div,
    log1p_qt_over_q,
    whitney_column_egf,
)
from .suites import DEFAULT_SHIFTS, SuiteResult, run_suite, suite_names
from .triangles import (
    Triangle,
    TriangleKind,
    falling_factorial_x,
    r_stirling_first,
    rising_factorial,
    stirling_first,
    stirling_first_row,
    triangle,
    whitney_first,
    whitney_first_cheon,
    whitney_first_values,
    whitney_second,
    whitney_second_values,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "CauchyKind",
    "DEFAULT_SHIFTS",
    "ONE",
    "Q",
    "R",
    "Series",
    "SuiteResult",
    "Triangle",
    "TriangleKind",
    "XPoly",
    "ZERO",
    "__version__",
    "binomial",
    "binomial_power",
    "cauchy_first",
    "cauchy_first_egf",
    "cauchy_first_integral",
    "cauchy_first_via_stirling",
    "cauchy_number",
    "cauchy_poly",
    "cauchy_second",
    "cauchy_second_egf",
    "cauchy_second_integral",
    "egf_term",
    "expm1_div",
    "falling_factorial_x",
    "log1p_qt_over_q",
    "q_cauchy_number",
    "r_stirling_first",
    "rising_factorial",
    "run_suite",
    "stirling_first",
    "stirling_first_row",
    "suite_names",
    "triangle",
    "whitney_column_egf",
    "whitney_first",
    "whitney_first_cheon",
    "whitney_first_values",
    "whitney_second",
    "whitney_second_values",
]
