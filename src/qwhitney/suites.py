"""Named verification suites over the triangles and the Cauchy polynomials.

Every identity the package implements is re-derivable by at least one
independent code path, and each suite checks one family of agreements up
to a caller-chosen bound:

    first-kind-oracle    explicit row sum vs integral vs Stirling double sum
    second-kind-oracle   alternating row sum vs integral, plus q-negation duality
    egf                  generating-function coefficients vs direct constructions
    inversion            second-kind-weighted Cauchy sums collapse to constants
    orthogonality        the two triangles are mutually inverse; row structure
    shift                the argument-shift law for the first-kind polynomials
    cheon                entrywise shift law and closed form on the triangle
    reductions           Stirling / r-Stirling / q-power specializations
    classical            q = 1: shift law over classical numbers, number values

Each suite is a generator that yields one outcome per check: None if the
check passed, or its failure message, which is formatted only then.
``run_suite`` executes one suite (or "all") and returns per-suite results
carrying the check count and the counterexample messages for any failures;
the command-line front end turns those into exit codes.  All checks are
exact structural comparisons of canonical polynomials.

One ``cauchy.FirstKindContext`` serves every suite of a run.  It builds
the first- and second-kind triangles at most once, through the module
attributes ``triangles.whitney_first`` and ``triangles.whitney_second``,
and only when a suite first reads them, so the work stays inside that
suite.  It also keeps the row sums and the shift weights that the Cauchy
polynomials and the shift laws read.  The shift and cheon suites take the
shift values one at a time, each in one pass over n = 0..n_max, and a
failing suite lists its counterexamples in that order; what a pass
substitutes at r = s is dropped before the next value.
The context holds results only: the oracles they are checked against
(the integrals, the Stirling closed forms, the q-numbers and the
generating functions) are built by their own code paths and never read
it.  Each oracle is built in one pass per suite, for n = 0..n_max in
turn: the integrals of each kind over one growing product, the Stirling
sums and the closed-form rows over one rising-factorial list, and the
column EGFs over one (1 + qt)^(-r/q).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from . import cauchy, series, triangles
from .cauchy import CauchyKind, FirstKindContext
from .poly import ONE, Q, R, ZERO, BiPoly, as_rational

DEFAULT_SHIFTS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(7, 2))


class SuiteResult(NamedTuple):
    name: str
    checks: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


_Outcomes = Iterator[str | None]


def _check(ok: bool, message: str) -> str | None:
    return None if ok else message


def _equal(got: BiPoly, want: BiPoly, context: str) -> str | None:
    return None if got == want else f"{context}: got {got}, want {want}"


def _suite_first_kind_oracle(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    integrals = cauchy.cauchy_first_integrals(ctx.n_max)
    stirling = cauchy.cauchy_first_stirling_sums(ctx.n_max)
    for n, (integral, stirling_sum) in enumerate(zip(integrals, stirling)):
        p = ctx.sums[n]
        yield _equal(p, integral, f"first kind vs integral, n={n}")
        yield _equal(p, stirling_sum, f"first kind vs Stirling sum, n={n}")
        yield _check(p.r_degree() == n, f"first kind r-degree, n={n}: got {p.r_degree()}")
        yield _equal(p.r_coefficient(n), BiPoly.const((-1) ** n), f"first kind r-leading, n={n}")


def _suite_second_kind_oracle(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    for n, integral in enumerate(cauchy.cauchy_second_integrals(ctx.n_max)):
        p = ctx.second_sums[n]
        yield _equal(p, integral, f"second kind vs integral, n={n}")
        yield _check(p.r_degree() == n, f"second kind r-degree, n={n}: got {p.r_degree()}")
        yield _equal(p.r_coefficient(n), ONE, f"second kind r-leading, n={n}")
        dual = ctx.sums[n].subst_q(-1, 0).scale((-1) ** n)
        yield _equal(p, dual, f"second kind vs sign-flipped q in first kind, n={n}")


def _suite_egf(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    order = ctx.n_max
    # The number EGF, which the r = 0 check below reads again.
    plain = series.expm1_div(series.log1p_qt_over_q(order))
    first = series.binomial_power(-R, order) * plain
    second = series.cauchy_second_egf(order)
    for n in range(order + 1):
        yield _equal(series.egf_term(first, n), ctx.sums[n], f"first-kind EGF term, n={n}")
        yield _equal(series.egf_term(second, n), ctx.second_sums[n], f"second-kind EGF term, n={n}")
    tri = ctx.first
    for k, column in enumerate(series.whitney_column_egfs(order)):
        for n in range(order + 1):
            yield _equal(
                series.egf_term(column, n),
                tri.entry(n, k) if k <= n else ZERO,
                f"column EGF term, n={n}, k={k}",
            )
    for n in range(order + 1):
        yield _equal(
            first.coeff(n).subst_r(0, 0),
            plain.coeff(n),
            f"first-kind EGF at r=0 vs number EGF, n={n}",
        )


def _suite_inversion(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    return (check() for check in ctx.inversion_checks())


def _suite_orthogonality(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    w1 = ctx.first
    w2 = ctx.second
    for n in range(ctx.n_max + 1):
        yield _equal(w1.entry(n, n), ONE, f"first-kind diagonal, n={n}")
        yield _equal(w2.entry(n, n), ONE, f"second-kind diagonal, n={n}")
        for k in range(n + 1):
            total = BiPoly.sum_of_products((w2.entry(n, j), w1.entry(j, k)) for j in range(k, n + 1))
            yield _equal(total, ONE if k == n else ZERO, f"orthogonality sum, n={n}, k={k}")
        row = w1.row_poly(n)
        for j in range(n):
            yield _check(
                row.subst_t(R + Q.scale(j)).is_zero(),
                f"first-kind row root, n={n}, x=r+{j}q",
            )
        for k, w in enumerate(w1.row(n)):
            ok = all(c > 0 for _, c in w.scale((-1) ** (n - k)).sorted_terms())
            yield None if ok else f"first-kind sign pattern, n={n}, k={k}: got {w}"


def _suite_shift(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    for s in shifts:
        yield from (check() for check in ctx.shift_checks(s))


def _suite_cheon(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    for s in shifts:
        yield from (check() for check in ctx.cheon_checks(s))
    tri = ctx.first
    for n, row in enumerate(triangles.whitney_first_cheon_rows(ctx.n_max)):
        for k, w in enumerate(row):
            yield _equal(w, tri.entry(n, k), f"closed form vs recurrence, n={n}, k={k}")


def _suite_reductions(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    n_max = ctx.n_max
    w1 = ctx.first
    for r0 in (0, 1, 2, 5):
        rst = triangles.r_stirling_first(n_max, r0)
        for n in range(n_max + 1):
            for k in range(n + 1):
                yield _equal(
                    w1.entry(n, k).subst_q(0, 1).subst_r(0, r0),
                    rst.entry(n, k),
                    f"q=1, r={r0} reduction, n={n}, k={k}",
                )
        for n in range(n_max):
            for k in range(n + 2):
                yield _equal(
                    rst.entry(n + 1, k),
                    rst.entry(n, k - 1) - rst.entry(n, k).scale(n + r0),
                    f"shifted Stirling recurrence, r0={r0}, n={n + 1}, k={k}",
                )
    for n in range(n_max + 1):
        srow = triangles.stirling_first_row(n)
        for k in range(n + 1):
            expected = BiPoly({(n - k, 0): srow[k]})
            yield _equal(
                w1.entry(n, k).subst_r(0, 0),
                expected,
                f"r=0 reduction to q-power Stirling, n={n}, k={k}",
            )
    st = triangles.stirling_first(n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            yield _equal(
                st.entry(n, k),
                BiPoly.const(triangles.stirling_first_row(n)[k]),
                f"Stirling triangle vs integer rows, n={n}, k={k}",
            )
    for kind in CauchyKind:
        polys = ctx.sums if kind is CauchyKind.FIRST else ctx.second_sums
        for n in range(n_max + 1):
            at_r0 = polys[n].subst_r(0, 0)
            number = cauchy.q_cauchy_number(kind, n)
            yield _equal(at_r0, number, f"{kind.value}-kind polynomial at r=0, n={n}")
            yield _check(
                number.eval_at(1, 0) == cauchy.cauchy_number(kind, n),
                f"{kind.value}-kind number at q=1, n={n}",
            )


def _suite_classical(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> _Outcomes:
    checks = zip(
        ctx.classical_checks(),
        cauchy.cauchy_first_integrals(ctx.n_max),
        cauchy.cauchy_second_integrals(ctx.n_max),
    )
    for n, (shift_check, first_integral, second_integral) in enumerate(checks):
        yield shift_check()
        got_first = cauchy.cauchy_number(CauchyKind.FIRST, n)
        got_second = cauchy.cauchy_number(CauchyKind.SECOND, n)
        yield _check(
            got_first == first_integral.eval_at(1, 0),
            f"classical first-kind number vs integral, n={n}: got {got_first}",
        )
        yield _check(
            got_second == second_integral.eval_at(1, 0),
            f"classical second-kind number vs integral, n={n}: got {got_second}",
        )


_Suite = Callable[[FirstKindContext, tuple[Fraction, ...]], _Outcomes]


def _counted(name: str, suite: _Suite):
    """Run a suite to its end and count its outcomes, so that one call of a
    ``SUITES`` entry spans the whole suite and returns its result."""

    def run(ctx: FirstKindContext, shifts: tuple[Fraction, ...]) -> SuiteResult:
        outcomes = list(suite(ctx, shifts))
        return SuiteResult(name, len(outcomes), tuple(m for m in outcomes if m is not None))

    return run


SUITES: dict[str, Callable[[FirstKindContext, tuple[Fraction, ...]], SuiteResult]] = {
    name: _counted(name, suite)
    for name, suite in (
        ("first-kind-oracle", _suite_first_kind_oracle),
        ("second-kind-oracle", _suite_second_kind_oracle),
        ("egf", _suite_egf),
        ("inversion", _suite_inversion),
        ("orthogonality", _suite_orthogonality),
        ("shift", _suite_shift),
        ("cheon", _suite_cheon),
        ("reductions", _suite_reductions),
        ("classical", _suite_classical),
    )
}


def suite_names() -> tuple[str, ...]:
    return tuple(SUITES) + ("all",)


def run_suite(
    name: str,
    n_max: int,
    shifts: tuple[Fraction, ...] | None = None,
) -> list[SuiteResult]:
    """Run one named suite, or every suite for name "all", over one context.

    The shift values are ints or Fractions; anything else is a TypeError.
    A repeated value is checked once, in the order of its first occurrence.
    """
    ctx = FirstKindContext(n_max)
    chosen = tuple(SUITES) if name == "all" else (name,)
    if any(s not in SUITES for s in chosen):
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(suite_names())}")
    effective = DEFAULT_SHIFTS if shifts is None else tuple(dict.fromkeys(as_rational(s) for s in shifts))
    return [SUITES[suite](ctx, effective) for suite in chosen]
