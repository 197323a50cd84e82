import decimal
from decimal import Decimal
from fractions import Fraction as F
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwhitney import triangles
from qwhitney.poly import ONE, Q, R, ZERO, BiPoly
from qwhitney.series import Series
from qwhitney.triangles import (
    Triangle,
    TriangleKind,
    decimal_rows,
    r_stirling_first,
    rising_factorial,
    rising_factorials,
    scaled_rows,
    shift_weights,
    stirling_first,
    stirling_first_row,
    triangle,
    whitney_first,
    whitney_first_cheon,
    whitney_first_cheon_rows,
    whitney_first_values,
    whitney_second,
    whitney_second_values,
)

from _points import eval_points, rationals
from _products import falling_factorial_x

points = st.fractions(min_value=F(-5), max_value=F(5), max_denominator=6)


class TestWhitneyFirst:
    def test_row_two(self):
        tri = whitney_first(2)
        assert tri.row(2) == (R * R + Q * R, -(R.scale(2) + Q), ONE)

    def test_diagonal_is_one(self):
        tri = whitney_first(8)
        for n in range(9):
            assert tri.entry(n, n) == ONE

    def test_rows_match_the_defining_product(self):
        tri = whitney_first(8)
        for n in range(9):
            assert tri.row_poly(n) == falling_factorial_x(n)

    def test_entries_are_homogeneous(self):
        tri = whitney_first(10)
        for n in range(11):
            for k in range(n + 1):
                terms = tri.entry(n, k).sorted_terms()
                assert all(dq + dr == n - k for (dq, dr), _ in terms)
                assert len(terms) <= n - k + 1

    def test_out_of_range(self):
        tri = whitney_first(3)
        assert tri.entry(2, 3) == ZERO
        with pytest.raises(ValueError):
            tri.row(4)
        with pytest.raises(ValueError):
            whitney_first(-1)


class TestWhitneySecond:
    def test_small_rows(self):
        tri = whitney_second(2)
        assert tri.row(1) == (R, ONE)
        assert tri.row(2) == (R * R, R.scale(2) + Q, ONE)

    def test_diagonal_is_one(self):
        tri = whitney_second(8)
        for n in range(9):
            assert tri.entry(n, n) == ONE

    def test_rows_reassemble_the_monomial(self):
        tri = whitney_second(8)
        for n in range(9):
            total = Series.zero(n)
            for k in range(n + 1):
                product = falling_factorial_x(k)
                padded = Series(n, [product.coeff(i) for i in range(k + 1)] + [ZERO] * (n - k))
                total = total + padded.scale(tri.entry(n, k))
            assert total == Series(n, (ZERO,) * n + (ONE,))


class TestStirling:
    def test_integer_rows(self):
        assert stirling_first_row(0) == (1,)
        assert stirling_first_row(3) == (0, 2, -3, 1)
        assert stirling_first_row(4) == (0, -6, 11, -6, 1)
        with pytest.raises(ValueError):
            stirling_first_row(-1)

    def test_triangle_matches_integer_rows(self):
        tri = stirling_first(6)
        for n in range(7):
            row = stirling_first_row(n)
            for k in range(n + 1):
                assert tri.entry(n, k) == BiPoly.const(row[k])

    def test_no_fixed_point_free_column(self):
        tri = stirling_first(6)
        for n in range(1, 7):
            assert tri.entry(n, 0) == ZERO

    def test_entries_are_constant(self):
        tri = stirling_first(5)
        for n in range(6):
            for k in range(n + 1):
                assert tri.entry(n, k).is_const()

    def test_rows_at_scale_match_integer_rows(self):
        tri = stirling_first(60)
        for n in range(61):
            assert tri.row(n) == tuple(BiPoly.const(c) for c in stirling_first_row(n))

    def test_cold_large_row(self):
        # A cold call used to recurse once per row and hit the recursion limit.
        stirling_first_row.cache_clear()
        row = stirling_first_row(1500)
        assert len(row) == 1501
        assert row[0] == 0 and row[1500] == 1
        assert row[1] == -factorial(1499)
        assert row[1499] == -comb(1500, 2)
        assert sum(row) == 0  # the product x (x - 1) ... vanishes at x = 1
        assert stirling_first_row(1500) is row


class TestRStirling:
    def test_zero_shift_reduces_to_stirling(self):
        shifted = r_stirling_first(6, 0)
        plain = stirling_first(6)
        for n in range(7):
            assert shifted.row(n) == plain.row(n)

    def test_small_shifted_rows(self):
        assert r_stirling_first(1, 1).row(1) == (-ONE, ONE)
        assert r_stirling_first(2, 2).row(2) == (
            BiPoly.const(6),
            BiPoly.const(-5),
            ONE,
        )

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            r_stirling_first(3, -1)

    def test_rows_at_scale_expand_the_shifted_product(self):
        # Row n of the r0 = 3 triangle expands (x - 3)(x - 4)...(x - 3 - (n-1)).
        tri = r_stirling_first(60, 3)
        for x0 in (-4, 2, 71):
            for n in range(61):
                total = sum(e.const_value() * x0**k for k, e in enumerate(tri.row(n)))
                assert total == prod(x0 - 3 - i for i in range(n))

    def test_shifted_recurrence(self):
        for r0 in (0, 1, 3):
            tri = r_stirling_first(6, r0)
            for n in range(6):
                for k in range(n + 2):
                    assert tri.entry(n + 1, k) == tri.entry(n, k - 1) - tri.entry(
                        n, k
                    ).scale(n + r0)

    def test_matches_first_kind_at_q_one(self):
        w1 = whitney_first(6)
        for r0 in (0, 2, 5):
            tri = r_stirling_first(6, r0)
            for n in range(7):
                for k in range(n + 1):
                    assert w1.entry(n, k).subst_q(0, 1).subst_r(0, r0) == tri.entry(n, k)


class TestFactorialProducts:
    def test_empty_products(self):
        assert rising_factorial(0) == ONE
        assert rising_factorial(0, step=-Q) == ONE
        assert falling_factorial_x(0) == Series.one(0)

    def test_rising_examples(self):
        assert rising_factorial(2) == R * R + Q * R
        assert rising_factorial(3, step=ONE) == BiPoly(
            {(0, 3): 1, (0, 2): 3, (0, 1): 2}
        )

    def test_falling_examples(self):
        assert rising_factorial(2, step=-Q) == R * R - Q * R
        assert rising_factorial(3, y=Q, step=-R) == Q * (Q - R) * (Q - R.scale(2))

    def test_falling_is_rising_with_negated_step(self):
        for m in range(5):
            falling = ONE
            for j in range(m):
                falling = falling * (R - Q.scale(j))
            assert rising_factorial(m, step=-Q) == falling

    def test_rising_list_matches_each_product(self):
        q0, r0 = F(3, 7), F(-5, 2)
        for step, s0 in ((Q, q0), (ONE, 1)):
            for n in range(9):
                rise = rising_factorials(n, step=step)
                assert len(rise) == n + 1
                for m, value in enumerate(rise):
                    assert value.eval_at(q0, r0) == prod(r0 + j * s0 for j in range(m))
                    assert value == rising_factorial(m, step=step)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            rising_factorial(-1)


# Values v_j of a shift-law sum: polynomials in q alone, as c_j(s) and w_s(j, k)
# are, or rationals, as the classical numbers are.
q_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.just(0)), points, max_size=3).map(BiPoly)
shift_values = q_polys | points


class TestShiftSum:
    @given(st.integers(0, 10), st.sampled_from([Q, ONE]), st.data())
    def test_weights_give_the_term_by_term_sum(self, n, step, data):
        rise = rising_factorials(n, step=step)
        values = data.draw(st.lists(shift_values, min_size=n + 1, max_size=n + 1))
        kept = data.draw(st.sets(st.integers(0, n)))
        weights = shift_weights(n, rise)
        assert len(weights) == n + 1
        # sum_j (-1)^(n-j) C(n, j) rise[n-j] v_j over the kept j
        want = ZERO
        for j in sorted(kept):
            want = want + rise[n - j] * (values[j] * (comb(n, j) * (-1) ** (n - j)))
        assert BiPoly.sum_of_products((weights[j], values[j]) for j in sorted(kept)) == want


class TestCheonForm:
    def test_matches_recurrence(self):
        tri = whitney_first(7)
        for n in range(8):
            for k in range(n + 1):
                assert whitney_first_cheon(n, k) == tri.entry(n, k)

    @given(st.integers(0, 10))
    def test_rows_in_one_pass_match_each_entry(self, n_max):
        want = [[whitney_first_cheon(n, k) for k in range(n + 1)] for n in range(n_max + 1)]
        assert list(whitney_first_cheon_rows(n_max)) == want

    def test_out_of_range_is_zero(self):
        assert whitney_first_cheon(2, 5) == ZERO
        with pytest.raises(ValueError):
            whitney_first_cheon(-1, 0)


class TestNumericValues:
    @given(points, points)
    def test_first_kind_values_match_symbolic(self, q0, r0):
        tri = whitney_first(6)
        values = whitney_first_values(6, q0, r0)
        for n in range(7):
            for k in range(n + 1):
                assert values[n][k] == tri.entry(n, k).eval_at(q0, r0)

    @given(points, points)
    def test_second_kind_values_match_symbolic(self, q0, r0):
        tri = whitney_second(6)
        values = whitney_second_values(6, q0, r0)
        for n in range(7):
            for k in range(n + 1):
                assert values[n][k] == tri.entry(n, k).eval_at(q0, r0)


class TestIntegerKernel:
    """The scaled integer rows, checked against oracles that share no code with them."""

    @given(eval_points)
    @example((F(0), F(0)))
    @example((F(5, 12), F(-7, 18)))
    @example((F(1, 2), F(1, 2)))
    def test_first_kind_pairs_match_the_product(self, point):
        q0, r0 = point
        for n, row in enumerate(decimal_rows(TriangleKind.WHITNEY_FIRST, 8, q0, r0)):
            product = falling_factorial_x(n)
            assert len(row) == n + 1
            for k, pair in enumerate(row):
                want = product.coeff(k).eval_at(q0, r0)
                assert pair == (want.numerator, want.denominator)

    @given(eval_points, rationals)
    @example((F(5, 12), F(-7, 18)), F(1, 3))
    def test_second_kind_rows_reassemble_the_monomial(self, point, x0):
        q0, r0 = point
        for n, row in enumerate(decimal_rows(TriangleKind.WHITNEY_SECOND, 8, q0, r0)):
            total = F(0)
            basis = F(1)  # (x0 - r0 | q0)_k
            for k, (a, b) in enumerate(row):
                num, den = int(a), int(b)
                assert F(num, den).as_integer_ratio() == (num, den)
                total += F(num, den) * basis
                basis *= x0 - r0 - k * q0
            assert total == x0**n

    def test_deep_reduction(self):
        # At q = r = 1/2 the column k = 0 is (-1)^n n!/2^n, whose numerator
        # shares nearly n factors of 2 with the scaled denominator 2^n.
        for n, row in enumerate(decimal_rows(TriangleKind.WHITNEY_FIRST, 64, F(1, 2), F(1, 2))):
            want = F((-1) ** n * factorial(n), 2**n)
            assert row[0] == (want.numerator, want.denominator)
            assert row[n] == (1, 1)

    def test_scaled_entries_are_integers_times_powers(self):
        powers, rows = scaled_rows(TriangleKind.WHITNEY_FIRST, 3, F(1, 2), F(1, 3))
        assert powers == [1, 6, 36, 216]
        rows = list(rows)
        # w(1, 0) = -r = -1/3 = -2/6 and w(2, 1) = -(2r + q) = -7/6.
        assert rows[1] == [-2, 1]
        assert rows[2][1] == -7

    def test_rejects_other_kinds_and_negative_rows(self):
        with pytest.raises(ValueError):
            scaled_rows(TriangleKind.STIRLING_FIRST, 3, 1, 0)
        with pytest.raises(ValueError):
            decimal_rows(TriangleKind.WHITNEY_SECOND, -1, 1, 0)


def _assert_lowest_terms(kind, n_max, point, rows):
    """rows are the pairs of ``decimal_rows``, checked against ``scaled_rows``."""
    powers, ints = scaled_rows(kind, n_max, *point)
    assert len(rows) == n_max + 1
    for n, (row, want_row) in enumerate(zip(rows, ints)):
        assert len(row) == n + 1
        for k, ((a, b), u) in enumerate(zip(row, want_row)):
            want = F(u, powers[n - k])
            assert isinstance(a, Decimal) and isinstance(b, Decimal)
            # Equal digit strings: lowest terms, den > 0, no "-0" and no
            # exponent.
            assert (str(a), str(b)) == (str(want.numerator), str(want.denominator))


class TestDecimalRows:
    """``decimal_rows`` against the int rows of ``scaled_rows``, which stay the oracle."""

    @given(eval_points, st.integers(0, 12))
    @example((F(3), F(-2)), 6)  # D = 1
    @example((F(1), F(0)), 6)  # r = 0: zero entries, made as -0 by the step
    @example((F(1, 2), F(0)), 90)  # zero entries whose residue is 0 mod D^J
    @example((F(0), F(0)), 4)
    @example((F(0), F(3, 5)), 5)  # q = 0
    @example((F(1, 3), F(2, 7)), 0)
    @example((F(1, 3), F(2, 7)), 1)
    @example((F(1, 2), F(1, 2)), 0)  # the residues are taken mod D^0 = 1
    @example((F(1, 2), F(1, 2)), 1)
    @example((F(5, 12), F(-7, 18)), 12)  # D = 36
    @example((F(1, 10**200), F(1)), 12)  # D = 10^200: residues mod D itself (J = 1)
    @example((F(1, 10**200), F(3, 10**200)), 12)
    @example((F(1, 2**64 - 1), F(1, 2**64 - 1)), 40)  # D = 3*5*17*... < 2^64: J = 1
    @example((F(1, 2**64 + 1), F(-1, 2**64 + 1)), 40)  # D > 2^64: J = 1
    def test_pairs_are_the_scaled_rows_in_lowest_terms(self, point, n_max):
        for kind in (TriangleKind.WHITNEY_FIRST, TriangleKind.WHITNEY_SECOND):
            _assert_lowest_terms(kind, n_max, point, list(decimal_rows(kind, n_max, *point)))

    @pytest.mark.parametrize(
        "point, n_max",
        [
            ((F(1, 2), F(3, 2)), 120),  # D = 2
            ((F(1, 3), F(1, 3)), 100),  # D = 3
            ((F(1, 3), F(2, 7)), 100),  # D = 21
            ((F(5, 12), F(-7, 18)), 80),  # D = 36
        ],
    )
    def test_small_primes_go_back_to_the_decimal_entry(self, monkeypatch, point, n_max):
        # An entry is settled by one gcd with its residue unless some prime of
        # D reaches its full power in it; then the doubling takes more gcds.
        calls = []
        monkeypatch.setattr(triangles, "gcd", lambda a, b: calls.append(b) or gcd(a, b))
        kinds = (TriangleKind.WHITNEY_FIRST, TriangleKind.WHITNEY_SECOND)
        rows = {kind: list(decimal_rows(kind, n_max, *point)) for kind in kinds}
        monkeypatch.undo()
        assert len(calls) > 2 * (n_max + 1) * (n_max + 2) // 2
        for kind in kinds:
            _assert_lowest_terms(kind, n_max, point, rows[kind])

    def test_denominators_reused_down_a_column_are_lowest_terms(self):
        # At D = 23 * 29 about three quarters of the entries with g > 1 take
        # the denominator kept from the row before in their column.
        point = (F(16, 23), F(-17, 29))
        for kind in (TriangleKind.WHITNEY_FIRST, TriangleKind.WHITNEY_SECOND):
            _assert_lowest_terms(kind, 120, point, list(decimal_rows(kind, 120, *point)))

    def test_rounding_raises_instead_of_printing_a_wrong_digit(self, monkeypatch):
        narrow = triangles._EXACT.copy()
        narrow.prec = 30
        monkeypatch.setattr(triangles, "_EXACT", narrow)
        # At q = 1, r = 0 (D = 1) the entries are Stirling numbers: row 10
        # fits in 30 digits, and |s(40, 1)| = 39! has 47.
        rows = decimal_rows(TriangleKind.WHITNEY_FIRST, 40, 1, 0)
        for _ in range(11):
            next(rows)
        # The C module raises Inexact when the dropped digits are not all
        # zero; Rounded is signalled with it.
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            list(rows)

    def test_caller_context_is_kept_between_rows(self):
        before = decimal.getcontext()
        prec, traps = before.prec, dict(before.traps)
        rows = decimal_rows(TriangleKind.WHITNEY_SECOND, 30, F(1, 3), F(2, 7))
        next(rows)
        next(rows)
        assert decimal.getcontext() is before
        assert (before.prec, dict(before.traps)) == (prec, traps)
        next(rows)
        assert decimal.getcontext() is before


class TestDispatcher:
    def test_kinds(self):
        assert triangle(TriangleKind.WHITNEY_FIRST, 3).row(2) == whitney_first(3).row(2)
        assert triangle(TriangleKind.WHITNEY_SECOND, 3).kind is TriangleKind.WHITNEY_SECOND
        assert triangle(TriangleKind.STIRLING_FIRST, 3).row(3) == stirling_first(3).row(3)
        sr = triangle(TriangleKind.R_STIRLING_FIRST, 3, r0=2)
        assert sr.r0 == 2
        assert sr.row(2) == r_stirling_first(3, 2).row(2)

    def test_default_shift_is_zero(self):
        sr = triangle(TriangleKind.R_STIRLING_FIRST, 3)
        assert sr.r0 == 0
        assert sr.row(3) == stirling_first(3).row(3)

    def test_shift_rejected_for_other_kinds(self):
        for kind in set(TriangleKind) - {TriangleKind.R_STIRLING_FIRST}:
            with pytest.raises(ValueError):
                triangle(kind, 3, r0=1)
            with pytest.raises(ValueError):
                triangle(kind, 3, r0=0)

    @pytest.mark.parametrize("r0", [-1, F(1, 2), F(3), 2.0])
    def test_shift_must_be_a_nonnegative_int(self, r0):
        with pytest.raises(ValueError):
            triangle(TriangleKind.R_STIRLING_FIRST, 3, r0=r0)
        with pytest.raises(ValueError):
            r_stirling_first(3, r0)

    @pytest.mark.parametrize("kind", list(TriangleKind))
    def test_negative_row_count_rejected(self, kind):
        with pytest.raises(ValueError):
            triangle(kind, -1)

    def test_triangle_type(self):
        tri = whitney_first(2)
        assert isinstance(tri, Triangle)
        assert tri.n_max == 2
        assert tri.kind is TriangleKind.WHITNEY_FIRST
        assert tri.r0 is None
