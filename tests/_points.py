"""Hypothesis strategies for rational evaluation points.

They cover integers, zero, negative values, denominators with small primes
(so that entries of the scaled integer rows share factors with the scale),
and q and r over one shared denominator.
"""

from fractions import Fraction as F

from hypothesis import strategies as st

rationals = st.one_of(
    st.integers(-6, 6).map(F),
    st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12),
)

eval_points = st.one_of(
    st.tuples(rationals, rationals),
    st.builds(
        lambda a, c, d: (F(a, d), F(c, d)),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(1, 12),
    ),
)
