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

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it.  A name is imported on
# first use (PEP 562), so a command that needs one module does not load the
# rest.  It is looked up again on every use, so it always reads its module's
# current binding.
_EXPORTS = {
    name: module
    for module, names in {
        "poly": ("BiPoly", "ONE", "Q", "R", "ZERO"),
        "cauchy": (
            "CauchyKind", "cauchy_first", "cauchy_first_integral", "cauchy_first_via_stirling",
            "cauchy_number", "cauchy_second", "cauchy_second_integral", "q_cauchy_number",
        ),
        "series": ("Series", "cauchy_first_egf", "cauchy_second_egf", "egf_term", "whitney_column_egf"),
        "triangles": (
            "r_stirling_first", "rising_factorial", "stirling_first", "stirling_first_row", "whitney_first",
            "whitney_first_cheon", "whitney_first_values", "whitney_second", "whitney_second_values",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS.values():  # a module of the table, an attribute even before its import
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
