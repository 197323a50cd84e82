from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwhitney.poly import ONE, Q, R, ZERO, BiPoly
from qwhitney.series import (
    Series,
    binomial_power,
    cauchy_first_egf,
    cauchy_second_egf,
    egf_term,
    expm1_div,
    log1p_qt_over_q,
    whitney_column_egf,
    whitney_column_egfs,
)

from _golden import FIRST_KIND, SECOND_KIND
from test_poly import _ref_add, _ref_mul, assert_matches, bipolys

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=F(-6), max_value=F(6), max_denominator=6).filter(bool),
    max_size=3,
).map(BiPoly)


def zero_constant_series(order):
    return st.lists(small_polys, min_size=order, max_size=order).map(
        lambda tail: Series(order, [ZERO] + tail)
    )


class TestSeriesArithmetic:
    def test_product_of_conjugates(self):
        a = Series(2, (ONE, ONE, ZERO))
        b = Series(2, (ONE, -ONE, ZERO))
        assert a * b == Series(2, (ONE, ZERO, -ONE))

    def test_multiplicative_identity(self):
        a = Series(3, (ONE, R, Q, R * Q))
        assert a * Series.one(3) == a

    def test_truncation_drops_high_terms(self):
        t = Series(1, (ZERO, ONE))
        assert t * t == Series.zero(1)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series.one(2) * Series.one(3)
        with pytest.raises(ValueError):
            Series.one(2) + Series.one(3)

    @given(st.lists(small_polys | st.just(ZERO), min_size=5, max_size=5),
           st.lists(small_polys | st.just(ZERO), min_size=5, max_size=5))
    @example([ONE, ZERO, R, ZERO, Q], [ZERO, Q, ZERO, ZERO, R * Q])  # interior zeros on both sides
    @example([ZERO, ZERO, ZERO, ZERO, ONE], [R, ZERO, ZERO, ZERO, ZERO])
    def test_product_matches_the_fraction_reference(self, a, b):
        got = Series(4, a) * Series(4, b)
        for m in range(5):
            want = {}
            for i in range(m + 1):
                want = _ref_add(want, _ref_mul(dict(a[i].sorted_terms()), dict(b[m - i].sorted_terms())))
            assert_matches(got.coeff(m), want)

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            Series(2, (ONE, ZERO))

    def test_coeff_out_of_range(self):
        with pytest.raises(ValueError):
            Series.one(2).coeff(3)


class TestPolynomials:
    """A Series of order N as a polynomial of degree at most N, as the integral oracles use it."""

    def test_linear_factors(self):
        one = Series.one(2)
        assert one.mul_linear(1, -R) == Series(2, (-R, ONE, ZERO))
        first_two = one.mul_linear(1, -R).mul_linear(1, -R - Q)
        assert first_two == Series(2, (R * R + Q * R, -(R.scale(2) + Q), ONE))
        assert one.mul_linear(-1, R) == Series(2, (R, -ONE, ZERO))
        with pytest.raises(ValueError):
            one.mul_linear(2, R)

    def test_mul_linear_drops_the_term_above_the_order(self):
        first_two = Series.one(1).mul_linear(1, -R).mul_linear(1, -R - Q)
        assert first_two == Series(1, (R * R + Q * R, -(R.scale(2) + Q)))
        assert Series.one(0).mul_linear(-1, R) == Series(0, (R,))

    def test_integrate01(self):
        p = Series(2, (R * R + Q * R, -(R.scale(2) + Q), ONE))
        expected = BiPoly(
            {(0, 2): 1, (1, 1): 1, (0, 1): -1, (1, 0): F(-1, 2), (0, 0): F(1, 3)}
        )
        assert p.integrate01() == expected
        assert Series.one(0).integrate01() == ONE
        assert Series(1, (ZERO, ONE)).integrate01() == BiPoly.const(F(1, 2))

    def test_subst_t(self):
        p = Series(2, (ONE, R, Q))
        value = R + Q
        expected = ONE + R * value + Q * value * value
        assert p.subst_t(value) == expected

    @given(bipolys, bipolys, st.fractions(max_denominator=8, min_value=F(-9), max_value=F(9)))
    def test_integration_is_linear(self, a, b, c):
        p = Series(2, (a, b, ZERO))
        s = Series(2, (b, a, a))
        left = (p.scale(c) + s).integrate01()
        right = p.integrate01().scale(c) + s.integrate01()
        assert left == right

    @given(st.lists(small_polys, min_size=4, max_size=4), small_polys)
    def test_scale_by_a_bipoly_is_coefficientwise(self, coeffs, c):
        assert Series(3, coeffs).scale(c) == Series(3, [p * c for p in coeffs])


class TestExp:
    def test_exp_of_zero(self):
        assert Series.zero(4).exp() == Series.one(4)

    def test_exp_of_t(self):
        t = Series(3, (ZERO, ONE, ZERO, ZERO))
        expected = Series(3, (ONE, ONE, BiPoly.const(F(1, 2)), BiPoly.const(F(1, 6))))
        assert t.exp() == expected

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            Series.one(2).exp()

    def test_first_order_binomial_power(self):
        s = binomial_power(-R, 1)
        assert s.coeff(0) == ONE
        assert s.coeff(1) == -R

    @given(zero_constant_series(4), zero_constant_series(4))
    def test_exp_turns_sums_into_products(self, a, b):
        assert (a + b).exp() == a.exp() * b.exp()


class TestLogSeries:
    def test_leading_coefficients(self):
        L = log1p_qt_over_q(3)
        assert L.coeff(0) == ZERO
        assert L.coeff(1) == ONE
        assert L.coeff(2) == Q.scale(F(-1, 2))
        assert L.coeff(3) == (Q * Q).scale(F(1, 3))

    def test_expm1_div_of_zero(self):
        assert expm1_div(Series.zero(3)) == Series.one(3)

    def test_expm1_div_of_t(self):
        t = Series(2, (ZERO, ONE, ZERO))
        expected = Series(2, (ONE, BiPoly.const(F(1, 2)), BiPoly.const(F(1, 6))))
        assert expm1_div(t) == expected

    def test_expm1_div_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            expm1_div(Series.one(2))

    @given(zero_constant_series(4))
    def test_expm1_div_constant_term(self, s):
        assert expm1_div(s).coeff(0) == ONE

    @given(zero_constant_series(4))
    @example(log1p_qt_over_q(8))
    def test_division_free_form_is_consistent_with_exp(self, s):
        assert s * expm1_div(s) + Series.one(s.order) == s.exp()


class TestGeneratingFunctions:
    def test_column_egf_basics(self):
        assert whitney_column_egf(0, 2).coeff(0) == ONE
        assert egf_term(whitney_column_egf(1, 2), 1) == ONE
        assert egf_term(whitney_column_egf(0, 2), 1) == -R
        with pytest.raises(ValueError):
            whitney_column_egf(-1, 2)

    @given(st.integers(0, 10))
    def test_columns_in_one_pass_match_each_column(self, order):
        L = log1p_qt_over_q(order)
        base = binomial_power(-R, order)
        power = Series.one(order)
        want = []
        for k in range(order + 1):
            want.append(base * power.scale(F(1, factorial(k))))  # (1+q*t)^(-r/q) * L^k / k!
            power = power * L
        assert list(whitney_column_egfs(order)) == want
        assert [whitney_column_egf(k, order) for k in range(order + 1)] == want

    def test_column_egf_beyond_the_order_is_zero(self):
        for k in (4, 5, 10**9):
            assert whitney_column_egf(k, 3) == Series.zero(3)

    def test_first_kind_egf_matches_frozen_polynomials(self):
        s = cauchy_first_egf(4)
        for n, terms in FIRST_KIND.items():
            assert egf_term(s, n) == BiPoly(terms)

    def test_second_kind_egf_matches_frozen_polynomials(self):
        s = cauchy_second_egf(4)
        for n, terms in SECOND_KIND.items():
            assert egf_term(s, n) == BiPoly(terms)

    def test_egf_term_is_scaled_coefficient(self):
        s = cauchy_first_egf(5)
        assert egf_term(s, 0) == s.coeff(0)
        assert egf_term(s, 5) == s.coeff(5).scale(factorial(5))
        with pytest.raises(ValueError):
            egf_term(s, 6)

    def test_r_specialization_gives_number_egf(self):
        order = 8
        with_r = cauchy_first_egf(order)
        plain = expm1_div(log1p_qt_over_q(order))
        for n in range(order + 1):
            assert with_r.coeff(n).subst_r(0, 0) == plain.coeff(n)
