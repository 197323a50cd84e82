import json
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _reference_render import reference_render
from qwhitney import ONE, Q, R, ZERO, BiPoly

coefficients = st.fractions(
    min_value=F(-20), max_value=F(20), max_denominator=12
).filter(lambda x: x != 0)

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))

bipolys = st.dictionaries(exponents, coefficients, max_size=6).map(BiPoly)

points = st.fractions(min_value=F(-8), max_value=F(8), max_denominator=6)


# Term maps as plain {(dq, dr): Fraction} dicts: coefficients with their own
# denominators, or integers over one shared denominator, so that sums can
# cancel it.  Zero values are allowed; BiPoly drops them.
term_maps = st.one_of(
    st.dictionaries(exponents, coefficients, max_size=6),
    st.builds(
        lambda nums, den: {key: F(n, den) for key, n in nums.items()},
        st.dictionaries(exponents, st.integers(-30, 30), max_size=6),
        st.sampled_from([1, 2, 6, 12]),
    ),
)


def assert_nonzero_fractions(p):
    for _, c in p.sorted_terms():
        assert isinstance(c, F) and c != 0


class TestCanonicalForm:
    def test_zero_coefficients_are_dropped(self):
        p = BiPoly({(0, 1): F(1), (1, 0): F(0)})
        assert p == R
        assert p.to_records() == [{"dq": 0, "dr": 1, "num": 1, "den": 1}]

    def test_cancellation_in_sums(self):
        assert R + (-R) == ZERO
        assert ((Q - ONE) * R + R) == Q * R

    def test_zero_polynomial_is_empty(self):
        assert ZERO.is_zero()
        assert (R - R).to_records() == []

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): F(1)})

    @given(bipolys, bipolys, points, points, points)
    @example(R + Q, -(R + Q), F(0), F(0), F(1))  # a + b cancels; zero scale and multiplier
    @example(R + Q, R - Q, F(2), F(-1, 2), F(0))  # a * b cancels q*r
    @example(R - ONE, Q - R, F(-3), F(1), F(1))  # a + b and a.subst_r(1, 1) cancel
    def test_only_nonzero_fractions_are_stored(self, a, b, c, s, t):
        results = (
            a + b, a - b, a * b, a - a, a + (-a), a.scale(c), a.scale(0), a * 0,
            a.subst_q(s, t), a.subst_r(s, t), a.subst_q(0, t), a.subst_r(0, t),
        )
        for p in results:
            assert_nonzero_fractions(p)


class TestRingOps:
    def test_product_of_conjugates(self):
        assert (R + Q) * (R - Q) == R * R - Q * Q

    def test_multiplicative_identity(self):
        p = R * R + Q * R + BiPoly.const(F(1, 3))
        assert p * ONE == p

    def test_scalar_multiple(self):
        p = -R + BiPoly.const(F(1, 2))
        assert p * 2 == R.scale(-2) + ONE

    def test_sum_example(self):
        assert (R * R + Q * R) + Q == BiPoly({(0, 2): 1, (1, 1): 1, (1, 0): 1})

    def test_pow(self):
        assert (R + ONE) ** 2 == R * R + R.scale(2) + ONE
        assert (R + Q) ** 0 == ONE
        with pytest.raises(ValueError):
            (R + Q) ** -1

    @given(bipolys, bipolys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(bipolys, bipolys, bipolys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(bipolys)
    def test_identities(self, p):
        assert p + ZERO == p
        assert p * ONE == p
        assert p - p == ZERO


class TestSubstitution:
    def test_negating_r(self):
        p = BiPoly({(0, 2): 1, (1, 1): -1, (0, 1): -1, (1, 0): F(1, 2), (0, 0): F(1, 3)})
        flipped = BiPoly({(0, 2): 1, (1, 1): 1, (0, 1): 1, (1, 0): F(1, 2), (0, 0): F(1, 3)})
        assert p.subst_r(-1, 0) == flipped

    def test_identity_substitution(self):
        p = R * R * Q + Q.scale(7)
        assert p.subst_r(1, 0) == p
        assert p.subst_q(1, 0) == p

    def test_constant_shift(self):
        assert R.subst_r(1, F(3, 5)) == R + BiPoly.const(F(3, 5))

    def test_subst_q_negation(self):
        p = Q * Q * R + Q
        assert p.subst_q(-1, 0) == Q * Q * R - Q

    @given(bipolys)
    def test_r_negation_is_involutive(self, p):
        assert p.subst_r(-1, 0).subst_r(-1, 0) == p

    @given(bipolys, points, points)
    @example(Q * R * R * R - R * R + Q, F(0), F(5, 3))
    def test_subst_r_matches_evaluation(self, p, a, b):
        q0 = F(2, 3)
        r0 = F(-1, 2)
        assert p.subst_r(a, b).eval_at(q0, r0) == p.eval_at(q0, a * r0 + b)

    @given(bipolys, points, points)
    @example(Q * Q * Q * R - Q * Q + R, F(0), F(-4, 3))
    def test_subst_q_matches_evaluation(self, p, a, b):
        q0 = F(2, 3)
        r0 = F(-1, 2)
        assert p.subst_q(a, b).eval_at(q0, r0) == p.eval_at(a * q0 + b, r0)


class TestEvaluation:
    def test_at_rational_points(self):
        p = -R + BiPoly.const(F(1, 2))
        assert p.eval_at(7, 0) == F(1, 2)
        assert ZERO.eval_at(F(5, 3), F(-7, 2)) == 0
        c2 = BiPoly({(0, 2): 1, (1, 1): 1, (0, 1): -1, (1, 0): F(-1, 2), (0, 0): F(1, 3)})
        assert c2.eval_at(1, 0) == F(-1, 6)

    @given(bipolys, bipolys, points, points)
    def test_evaluation_is_a_ring_homomorphism(self, a, b, q0, r0):
        assert (a * b).eval_at(q0, r0) == a.eval_at(q0, r0) * b.eval_at(q0, r0)
        assert (a + b).eval_at(q0, r0) == a.eval_at(q0, r0) + b.eval_at(q0, r0)


# -- a test-only reference: each operation over plain {(dq, dr): Fraction} maps --


def _ref_clean(terms):
    return {key: c for key, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for (aq, ar), ca in a.items():
        for (bq, br), cb in b.items():
            key = (aq + bq, ar + br)
            out[key] = out.get(key, 0) + ca * cb
    return _ref_clean(out)


def _ref_scale(a, c):
    return _ref_clean({key: v * c for key, v in a.items()})


def _ref_subst(a, var, s, t):
    """The variable at key position var (0 for q, 1 for r) replaced by s*var + t."""
    out = {}
    for key, c in a.items():
        d = key[var]
        for i in range(d + 1):
            key_i = (key[0], i) if var else (i, key[1])
            out[key_i] = out.get(key_i, 0) + c * comb(d, i) * s**i * t ** (d - i)
    return _ref_clean(out)


def _ref_scale_by_power(a, var, s):
    """The variable at key position var replaced by s*var: each term times s^d, d its power."""
    return _ref_clean({key: c * s ** key[var] for key, c in a.items()})


def _ref_eval(a, q0, r0):
    return sum((c * q0**dq * r0**dr for (dq, dr), c in a.items()), F(0))


def _ref_records(a):
    keys = sorted(a, key=lambda k: (-(k[0] + k[1]), -k[1], -k[0]))
    return [{"dq": dq, "dr": dr, "num": a[dq, dr].numerator, "den": a[dq, dr].denominator} for dq, dr in keys]


def assert_matches(p, want):
    """p holds exactly the reference terms, and is stored as BiPoly(want) is."""
    assert dict(p.sorted_terms()) == want
    assert p.to_records() == _ref_records(want)
    assert p == BiPoly(want)
    assert hash(p) == hash(BiPoly(want))


class TestAgainstFractionReference:
    @given(term_maps, term_maps, term_maps, points, points, points)
    @example({(0, 1): F(1, 2)}, {(0, 1): F(1, 2)}, {}, F(3), F(1, 2), F(1, 2))  # r/2 + r/2: den cancels
    @example({(0, 1): F(1, 3)}, {(1, 0): F(1, 3), (0, 1): F(-1, 3)}, {(0, 0): 3}, F(3), F(0), F(1, 3))  # shared den
    @example({(2, 1): F(1, 2), (0, 3): F(-2, 3)}, {(0, 0): F(5, 7)}, {(1, 1): F(7, 2)}, F(0), F(-3, 4), F(2, 5))
    # add_mul: a, m and y over the three denominators 2, 3 and 5
    @example({(0, 1): F(1, 2)}, {(0, 0): F(2, 5), (2, 0): F(-1, 5)}, {(1, 0): F(1, 3)}, F(1), F(0), F(0))
    # add_mul: r*(q + 1)/2 - (r/2)*(q + 1) cancels to zero
    @example({(1, 1): F(1, 2), (0, 1): F(1, 2)}, {(1, 0): 1, (0, 0): 1}, {(0, 1): F(-1, 2)}, F(1), F(0), F(0))
    # add_mul as the first-kind row step: w(3, 1) + m * w(3, 2) with m = -(3q + r)
    @example({(2, 0): 2, (1, 1): 6, (0, 2): 3}, {(1, 0): -3, (0, 1): -3}, {(1, 0): -3, (0, 1): -1}, F(1), F(0), F(0))
    def test_ring_operations_and_substitution(self, ta, tb, tm, c, s, t):
        a, b, m = _ref_clean(ta), _ref_clean(tb), _ref_clean(tm)
        pa, pb, pm = BiPoly(ta), BiPoly(tb), BiPoly(tm)
        minus_b = _ref_scale(b, F(-1))
        cases = [
            (pa + pb, _ref_add(a, b)),
            (pa - pb, _ref_add(a, minus_b)),
            (-pb, minus_b),
            (pa * pb, _ref_mul(a, b)),
            (pa.add_mul(pm, pb), _ref_add(a, _ref_mul(m, b))),
            (pa.scale(c), _ref_scale(a, c)),
            (pa.subst_q(s, t), _ref_subst(a, 0, s, t)),
            (pa.subst_r(s, t), _ref_subst(a, 1, s, t)),
            (pa.subst_q(0, t), _ref_subst(a, 0, F(0), t)),
            (pa.subst_r(0, t), _ref_subst(a, 1, F(0), t)),
        ]
        for got, want in cases:
            assert_matches(got, want)

    @given(st.lists(st.tuples(term_maps, term_maps | points), max_size=5))
    @example([])
    # r/2 * 1 + r/3 * 1 - (5/6) * r: three denominators that cancel to zero
    @example([({(0, 1): F(1, 2)}, 1), ({(0, 1): F(1, 3)}, 1), ({(0, 1): F(-5, 6)}, 1)])
    # a number as y, as the classical shift-law sum takes it
    @example([({(1, 0): 2, (0, 1): F(1, 7)}, F(-3, 4)), ({(0, 0): F(1, 2)}, {(1, 1): F(2, 3)})])
    def test_sum_of_products(self, pairs):
        want = {}
        for tm, y in pairs:
            want = _ref_add(want, _ref_mul(_ref_clean(tm), _ref_clean(y) if isinstance(y, dict) else {(0, 0): y}))
        args = [(BiPoly(tm), BiPoly(y) if isinstance(y, dict) else y) for tm, y in pairs]
        assert_matches(BiPoly.sum_of_products(args), want)
        assert_matches(BiPoly.sum_of_products(iter(args)), want)

    @given(term_maps, points, points, exponents)
    @example({(0, 1): F(1, 2), (1, 1): F(1, 2), (2, 0): F(1, 3)}, F(-1, 2), F(2, 3), (1, 1))
    def test_readouts(self, ta, q0, r0, key):
        a = _ref_clean(ta)
        p = BiPoly(ta)
        assert p.eval_at(q0, r0) == _ref_eval(a, q0, r0)
        assert p.coeff(*key) == a.get(key, F(0))
        for dr in range(6):
            assert_matches(p.r_coefficient(dr), {(dq, 0): c for (dq, d), c in a.items() if d == dr})
        assert p.to_records() == _ref_records(a)

    @given(term_maps, points)
    @example({(2, 3): F(1, 2), (1, 0): F(-3), (0, 0): F(5)}, F(-1))  # r -> -r, as cauchy_second takes it
    @example({(2, 3): F(1, 2), (0, 0): F(5)}, F(0))  # only the constant term survives
    def test_substituting_a_multiple(self, ta, s):
        a = _ref_clean(ta)
        assert_matches(BiPoly(ta).subst_q(s, 0), _ref_scale_by_power(a, 0, s))
        assert_matches(BiPoly(ta).subst_r(s, 0), _ref_scale_by_power(a, 1, s))


class TestHash:
    @pytest.mark.parametrize(
        "route, plain",
        [
            (R.scale(F(1, 2)) + R.scale(F(1, 2)), R),
            (R.scale(F(1, 3)) * 3, R),
            (R.scale(2).subst_r(F(1, 2), 0), R),
            ((R * R).subst_r(F(1, 2), F(1, 2)).scale(4) - R.scale(2) - ONE, R * R),
        ],
    )
    def test_equal_polynomials_hash_alike(self, route, plain):
        assert route == plain
        assert hash(route) == hash(plain)
        assert len({route, plain}) == 1
        assert {plain: "plain"}[route] == "plain"


class TestRendering:
    def test_pinned_text(self):
        c2 = BiPoly({(0, 2): 1, (1, 1): 1, (0, 1): -1, (1, 0): F(-1, 2), (0, 0): F(1, 3)})
        assert c2.to_text() == "r^2 + (q - 1)*r - (1/2)*q + 1/3"

    def test_pinned_latex(self):
        p = -R + BiPoly.const(F(1, 2))
        assert p.to_latex() == "-r + \\frac{1}{2}"

    def test_zero(self):
        assert ZERO.to_text() == "0"
        assert ZERO.to_latex() == "0"

    def test_single_monomials(self):
        assert (Q * R).to_text() == "q*r"
        assert R.scale(2).to_text() == "2*r"
        assert Q.scale(F(1, 2)).to_text() == "(1/2)*q"
        assert BiPoly.const(F(-1, 3)).to_text() == "-1/3"
        assert BiPoly({(2, 3): 1}).to_text() == "q^2*r^3"
        assert BiPoly({(2, 3): 1}).to_latex() == "q^2r^3"
        # LaTeX takes one character as a bare exponent, so longer ones are
        # braced there, and only there.
        assert BiPoly({(10, 9): 1}).to_text() == "q^10*r^9"
        assert BiPoly({(10, 9): 1}).to_latex() == "q^{10}r^9"
        assert BiPoly({(9, 11): 1}).to_latex() == "q^9r^{11}"

    def test_grouped_coefficients(self):
        p = BiPoly({(1, 2): -3, (0, 2): F(3, 2)})
        assert p.to_text() == "-(3*q - 3/2)*r^2"

    def test_pinned_latex_with_two_digit_exponents(self):
        # The start of qwhitney cauchy --kind first --n 11 --format latex.
        p = BiPoly({(0, 11): -1, (1, 10): -55, (0, 10): F(11, 2), (12, 0): 2})
        assert p.to_latex() == "-r^{11} - (55q - \\frac{11}{2})r^{10} + 2q^{12}"
        assert p.to_text() == "-r^11 - (55*q - 11/2)*r^10 + 2*q^12"

    def test_records_are_canonically_ordered(self):
        p = R * R + Q * R
        records = p.to_records()
        assert records == [
            {"dq": 0, "dr": 2, "num": 1, "den": 1},
            {"dq": 1, "dr": 1, "num": 1, "den": 1},
        ]
        assert json.dumps(records, separators=(",", ":")) == (
            '[{"dq":0,"dr":2,"num":1,"den":1},{"dq":1,"dr":1,"num":1,"den":1}]'
        )

    def test_duplicate_records_rejected(self):
        records = [{"dq": 0, "dr": 0, "num": 1, "den": 1}] * 2
        with pytest.raises(ValueError):
            BiPoly.from_records(records)

    @pytest.mark.parametrize("den", [0, -2])
    def test_nonpositive_denominator_rejected(self, den):
        with pytest.raises(ValueError):
            BiPoly.from_records([{"dq": 0, "dr": 1, "num": 1, "den": den}])

    @given(bipolys)
    def test_record_round_trip(self, p):
        assert BiPoly.from_records(p.to_records()) == p

    @given(bipolys)
    def test_rendering_is_deterministic(self, p):
        reordered = BiPoly.from_records(list(reversed(p.to_records())))
        assert reordered.to_text() == p.to_text()
        assert reordered.to_latex() == p.to_latex()


# Polynomials for the renderer: exponents up to 12, so that LaTeX braces
# some of them; several q-powers per r-power, with leading coefficients of
# either sign; integer numerators over a shared denominator, some of them
# large, or coefficients with their own denominators.  Homogeneous
# polynomials, as every triangle entry is, have one term per r-power, which
# the renderer writes without grouping.
_render_numerators = st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30))
_render_dens = st.sampled_from([1, 2, 6, 12])


def _homogeneous(degree):
    return st.builds(
        lambda row, den: BiPoly({(degree - dr, dr): F(n, den) for dr, n in row.items()}),
        st.dictionaries(st.integers(0, degree), _render_numerators, max_size=6),
        _render_dens,
    )


render_polys = st.one_of(
    st.integers(0, 14).flatmap(_homogeneous),
    st.builds(
        lambda groups, den: BiPoly(
            {(dq, dr): F(n, den) for dr, row in groups.items() for dq, n in row.items()}
        ),
        st.dictionaries(
            st.integers(0, 12), st.dictionaries(st.integers(0, 12), _render_numerators, max_size=4), max_size=4
        ),
        st.sampled_from([1, 1, 2, 6, 12]),
    ),
    st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)), coefficients, max_size=8).map(BiPoly),
)


class TestAgainstReferenceRenderer:
    """to_text and to_latex print what the renderer they replaced printed, and
    to_json what json.dumps prints of the records."""

    @given(render_polys)
    @example(BiPoly({(0, 11): -1, (1, 10): -55, (0, 10): F(11, 2), (12, 0): 2}))
    @example(BiPoly({(3, 2): F(-1, 6), (0, 2): F(5, 2), (1, 2): 1, (0, 0): F(-7, 3), (10, 1): F(1, 6)}))
    @example(BiPoly({(0, 0): F(-1, 2)}))
    @example(BiPoly({(13, 0): F(1, 6), (11, 2): -4, (2, 11): F(-5, 6), (0, 13): F(7, 6)}))
    def test_renderings(self, p):
        assert p.to_text() == reference_render(p, latex=False)
        assert p.to_latex() == reference_render(p, latex=True)
        assert p.to_json() == json.dumps(p.to_records(), separators=(",", ":"))

