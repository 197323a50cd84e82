from decimal import Decimal
from fractions import Fraction as F
from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwhitney.cauchy import (
    CauchyKind,
    cauchy_first,
    cauchy_first_integral,
    cauchy_first_integrals,
    cauchy_first_stirling_sums,
    cauchy_first_via_stirling,
    cauchy_number,
    cauchy_poly,
    cauchy_second,
    cauchy_second_integral,
    cauchy_second_integrals,
    cauchy_value,
    cheon_counterexample,
    classical_shift_counterexample,
    inversion_counterexample,
    q_cauchy_number,
    shift_counterexample,
)
from qwhitney.poly import ONE, Q, R, BiPoly
from qwhitney.series import Series
from qwhitney.suites import run_suite
from qwhitney.triangles import (
    TriangleKind,
    decimal_rows,
    rising_factorials,
    scaled_rows,
    whitney_first_values,
    whitney_second,
    whitney_second_values,
)

from _golden import FIRST_KIND, SECOND_KIND, classical_cauchy_oracle
from _points import eval_points
from _products import falling_factorial_x

shift_values = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6)


@lru_cache(maxsize=None)
def _integral(kind, n):
    return cauchy_first_integral(n) if kind is CauchyKind.FIRST else cauchy_second_integral(n)


class TestFrozenPolynomials:
    def test_first_kind(self):
        for n, terms in FIRST_KIND.items():
            assert cauchy_first(n) == BiPoly(terms)

    def test_second_kind(self):
        for n, terms in SECOND_KIND.items():
            assert cauchy_second(n) == BiPoly(terms)

    def test_integral_oracles_agree_with_frozen(self):
        for n, terms in FIRST_KIND.items():
            assert cauchy_first_integral(n) == BiPoly(terms)
        for n, terms in SECOND_KIND.items():
            assert cauchy_second_integral(n) == BiPoly(terms)


class TestOracleAgreement:
    def test_three_first_kind_routes(self):
        for n in range(11):
            direct = cauchy_first(n)
            assert direct == cauchy_first_integral(n)
            assert direct == cauchy_first_via_stirling(n)

    def test_two_second_kind_routes(self):
        for n in range(11):
            assert cauchy_second(n) == cauchy_second_integral(n)

    def test_stirling_route_examples(self):
        assert cauchy_first_via_stirling(0) == ONE
        assert cauchy_first_via_stirling(1) == -R + BiPoly.const(F(1, 2))

    @given(st.integers(0, 10))
    def test_one_pass_lists_match_their_definitions(self, n_max):
        first, second = [], []
        for n in range(n_max + 1):
            first.append(falling_factorial_x(n).integrate01())  # (x - r | q)_n over [0, 1]
            product = Series.one(n)
            for j in range(n):
                product = product.mul_linear(-1, R - Q.scale(j))  # (-x + r | q)_n
            second.append(product.integrate01())
        assert list(cauchy_first_integrals(n_max)) == first
        assert list(cauchy_second_integrals(n_max)) == second
        rise = rising_factorials(n_max)
        stirling = [
            sum(
                (rise[n - i] * q_cauchy_number(CauchyKind.FIRST, i).scale(comb(n, i) * (-1) ** (n - i))
                 for i in range(n + 1)),
                BiPoly(),
            )
            for n in range(n_max + 1)
        ]
        assert list(cauchy_first_stirling_sums(n_max)) == stirling
        assert [cauchy_first_via_stirling(n) for n in range(n_max + 1)] == stirling

    def test_negative_index_rejected(self):
        for fn in (
            cauchy_first,
            cauchy_second,
            cauchy_first_integral,
            cauchy_second_integral,
            cauchy_first_via_stirling,
            cauchy_first_integrals,
            cauchy_second_integrals,
            cauchy_first_stirling_sums,
        ):
            with pytest.raises(ValueError):
                fn(-1)


class TestStructure:
    def test_degree_and_leading_coefficient(self):
        for n in range(9):
            first = cauchy_first(n)
            second = cauchy_second(n)
            assert first.r_degree() == n
            assert second.r_degree() == n
            assert first.r_coefficient(n) == BiPoly.const((-1) ** n)
            assert second.r_coefficient(n) == ONE

    def test_second_kind_is_first_kind_with_negated_q(self):
        for n in range(9):
            dual = cauchy_first(n).subst_q(-1, 0).scale((-1) ** n)
            assert cauchy_second(n) == dual

    def test_poly_dispatch(self):
        assert cauchy_poly(CauchyKind.FIRST, 3) == cauchy_first(3)
        assert cauchy_poly(CauchyKind.SECOND, 3) == cauchy_second(3)


class TestNumbers:
    def test_classical_values(self):
        assert cauchy_number(CauchyKind.FIRST, 2) == F(-1, 6)
        assert cauchy_number(CauchyKind.SECOND, 2) == F(5, 6)
        assert cauchy_number(CauchyKind.FIRST, 0) == 1

    def test_classical_values_against_package_free_oracle(self):
        for n in range(11):
            assert cauchy_number(CauchyKind.FIRST, n) == classical_cauchy_oracle("first", n)
            assert cauchy_number(CauchyKind.SECOND, n) == classical_cauchy_oracle("second", n)

    def test_numbers_are_the_polynomials_at_the_unit_point(self):
        for n in range(21):
            for kind in CauchyKind:
                assert cauchy_number(kind, n) == cauchy_poly(kind, n).eval_at(1, 0)

    @given(eval_points)
    @example((F(0), F(0)))
    @example((F(5, 12), F(-7, 18)))
    def test_values_at_a_point_match_the_integral(self, point):
        q0, r0 = point
        for kind in CauchyKind:
            for n in range(9):
                assert cauchy_value(kind, n, q0, r0) == _integral(kind, n).eval_at(q0, r0)

    def test_value_rejects_negative_index(self):
        with pytest.raises(ValueError):
            cauchy_value(CauchyKind.FIRST, -1, 1, 0)

    def test_q_numbers(self):
        assert q_cauchy_number(CauchyKind.FIRST, 0) == ONE
        assert q_cauchy_number(CauchyKind.FIRST, 2) == Q.scale(F(-1, 2)) + BiPoly.const(F(1, 3))
        assert q_cauchy_number(CauchyKind.SECOND, 3) == BiPoly(
            {(2, 0): -1, (1, 0): -1, (0, 0): F(-1, 4)}
        )

    def test_q_numbers_are_r_specializations(self):
        for n in range(9):
            assert cauchy_first(n).subst_r(0, 0) == q_cauchy_number(CauchyKind.FIRST, n)
            assert cauchy_second(n).subst_r(0, 0) == q_cauchy_number(CauchyKind.SECOND, n)

    def test_q_numbers_have_no_r(self):
        for n in range(9):
            for kind in CauchyKind:
                assert q_cauchy_number(kind, n).r_degree() <= 0


class TestInversion:
    def test_hand_case(self):
        w2 = whitney_second(2)
        total = (
            w2.entry(2, 0) * cauchy_first(0)
            + w2.entry(2, 1) * cauchy_first(1)
            + w2.entry(2, 2) * cauchy_first(2)
        )
        assert total == BiPoly.const(F(1, 3))

    def test_range(self):
        for n in range(11):
            assert inversion_counterexample(n) is None

    def test_counterexample_is_none_on_success(self):
        assert inversion_counterexample(7) is None


class TestShiftLaws:
    def test_base_cases(self):
        assert shift_counterexample(0, F(7, 2)) is None
        assert shift_counterexample(5, 0) is None

    @given(st.integers(0, 7), shift_values)
    def test_shift_holds(self, n, s):
        assert shift_counterexample(n, s) is None

    def test_hand_case_on_triangle(self):
        assert cheon_counterexample(1, F(2)) is None

    @given(st.integers(0, 6), shift_values)
    def test_triangle_shift_holds(self, n, s):
        assert cheon_counterexample(n, s) is None

    def test_classical(self):
        for n in range(11):
            assert classical_shift_counterexample(n) is None
        assert classical_shift_counterexample(8) is None

    def test_verifier_wrappers(self):
        assert cheon_counterexample(4, F(-2)) is None
        assert shift_counterexample(6, F(3, 5)) is None

    def test_verifiers_reject_a_negative_index(self):
        for check in (
            lambda: shift_counterexample(-1, 1),
            lambda: cheon_counterexample(-1, 1),
            lambda: inversion_counterexample(-1),
            lambda: classical_shift_counterexample(-1),
        ):
            with pytest.raises(ValueError, match="n_max must be nonnegative"):
                check()


def _listed(scaled):
    powers, rows = scaled
    return powers, list(rows)


class TestRationalInputs:
    """The API's rational arguments are ints or Fractions, as BiPoly coefficients are."""

    ENTRY_POINTS = {
        "run_suite": lambda x: run_suite("shift", 1, (F(1), x)),
        "shift_counterexample": lambda x: shift_counterexample(1, x),
        "cheon_counterexample": lambda x: cheon_counterexample(1, x),
        "scaled_rows q0": lambda x: _listed(scaled_rows(TriangleKind.WHITNEY_FIRST, 2, x, 0)),
        "scaled_rows r0": lambda x: _listed(scaled_rows(TriangleKind.WHITNEY_SECOND, 2, 1, x)),
        "decimal_rows": lambda x: [list(row) for row in decimal_rows(TriangleKind.WHITNEY_FIRST, 2, 1, x)],
        "whitney_first_values": lambda x: whitney_first_values(2, x, 0),
        "whitney_second_values": lambda x: whitney_second_values(2, 1, x),
        "cauchy_value first": lambda x: cauchy_value(CauchyKind.FIRST, 2, x, 0),
        "cauchy_value second": lambda x: cauchy_value(CauchyKind.SECOND, 2, 1, x),
    }

    @pytest.mark.parametrize("value", [0.5, float("nan"), "1/2", Decimal("0.5")], ids=repr)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_other_types_are_rejected(self, entry, value):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            self.ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_int_and_fraction_are_accepted_alike(self, entry):
        call = self.ENTRY_POINTS[entry]
        assert call(F(2)) == call(2)
