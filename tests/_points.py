"""Hypothesis strategies for rational evaluation points.

They cover integers, zero, negative values, denominators with small primes
(so that entries of the scaled integer rows share factors with the scale),
q and r over one shared denominator, q and r over two distinct primes in
17..31 (as the benchmark draws them, so that D is a product of two large
primes), and q and r over a power of ten.
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
    st.builds(
        lambda a, c, dens: (F(a, dens[0]), F(c, dens[1])),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.permutations((17, 19, 23, 29, 31)),
    ),
    st.builds(
        lambda a, c, k: (F(a, 10**k), F(c, 10**k)),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(1, 40),
    ),
)
