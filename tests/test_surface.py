"""The names ``qwhitney`` exports at the top level."""

import qwhitney

PUBLIC_NAMES = [
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


def test_all_is_the_public_surface():
    assert sorted(qwhitney.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 28
    for name in PUBLIC_NAMES:
        assert hasattr(qwhitney, name), name
