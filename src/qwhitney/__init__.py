"""Exact triangles of r-Whitney and Stirling numbers and the Cauchy
polynomials with a q parameter, over the rationals.

Everything is computed in exact arithmetic: coefficients are arbitrary-
precision rationals, symbolic results are canonical sparse polynomials in
the two indeterminates q and r, and every identity the package exposes is
checkable against an independent oracle through the verification suites
(see ``qwhitney.suites.run_suite`` and the ``qwhitney`` command-line tool).

The names below are the main entry points; the rest of the API, such as
``triangles.triangle``, ``series.binomial_power`` or
``cauchy.cauchy_value``, is reached through its module.
"""

from .cauchy import (
    CauchyKind,
    cauchy_first,
    cauchy_first_integral,
    cauchy_first_via_stirling,
    cauchy_number,
    cauchy_second,
    cauchy_second_integral,
    q_cauchy_number,
)
from .poly import ONE, Q, R, ZERO, BiPoly
from .series import Series, cauchy_first_egf, cauchy_second_egf, egf_term, whitney_column_egf
from .triangles import (
    r_stirling_first,
    rising_factorial,
    stirling_first,
    stirling_first_row,
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
    "ONE",
    "Q",
    "R",
    "Series",
    "ZERO",
    "__version__",
    "cauchy_first",
    "cauchy_first_egf",
    "cauchy_first_integral",
    "cauchy_first_via_stirling",
    "cauchy_number",
    "cauchy_second",
    "cauchy_second_egf",
    "cauchy_second_integral",
    "egf_term",
    "q_cauchy_number",
    "r_stirling_first",
    "rising_factorial",
    "stirling_first",
    "stirling_first_row",
    "whitney_column_egf",
    "whitney_first",
    "whitney_first_cheon",
    "whitney_first_values",
    "whitney_second",
    "whitney_second_values",
]
