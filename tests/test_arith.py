import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from qwhitney.arith import binomial

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(5, 7) == 0


@given(st.integers(1, 60), st.integers(1, 60))
def test_binomial_pascal_recurrence(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(rationals, rationals)
def test_rational_sum_is_normalized(a, b):
    c = a + b
    assert c.denominator > 0
    assert math.gcd(abs(c.numerator), c.denominator) == 1


@given(rationals, rationals)
def test_rational_product_is_normalized(a, b):
    c = a * b
    assert c.denominator > 0
    assert math.gcd(abs(c.numerator), c.denominator) == 1


@given(rationals, rationals, rationals)
def test_rational_ops_commute_and_associate(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


def test_rational_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 2) + Fraction(-1, 2) == 0
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert Fraction(2, 3) * Fraction(3, 4) == Fraction(1, 2)
    assert Fraction(7, 9) * 0 == 0
    assert Fraction(-1, 2) * Fraction(-1, 2) == Fraction(1, 4)
