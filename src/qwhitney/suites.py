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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import cauchy, series, triangles
from .cauchy import CauchyKind
from .poly import ONE, Q, R, ZERO, BiPoly

DEFAULT_SHIFTS = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(7, 2))


@dataclass(frozen=True)
class SuiteResult:
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


def _suite_first_kind_oracle(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    for n in range(n_max + 1):
        p = cauchy.cauchy_first(n)
        yield _equal(p, cauchy.cauchy_first_integral(n), f"first kind vs integral, n={n}")
        yield _equal(p, cauchy.cauchy_first_via_stirling(n), f"first kind vs Stirling sum, n={n}")
        yield _check(p.r_degree() == n, f"first kind r-degree, n={n}: got {p.r_degree()}")
        yield _equal(p.r_coefficient(n), BiPoly.const((-1) ** n), f"first kind r-leading, n={n}")


def _suite_second_kind_oracle(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    for n in range(n_max + 1):
        p = cauchy.cauchy_second(n)
        yield _equal(p, cauchy.cauchy_second_integral(n), f"second kind vs integral, n={n}")
        yield _check(p.r_degree() == n, f"second kind r-degree, n={n}: got {p.r_degree()}")
        yield _equal(p.r_coefficient(n), ONE, f"second kind r-leading, n={n}")
        dual = cauchy.cauchy_first(n).subst_q(-1, 0).scale((-1) ** n)
        yield _equal(p, dual, f"second kind vs sign-flipped q in first kind, n={n}")


def _suite_egf(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    order = n_max
    first = series.cauchy_first_egf(order)
    second = series.cauchy_second_egf(order)
    for n in range(order + 1):
        yield _equal(series.egf_term(first, n), cauchy.cauchy_first(n), f"first-kind EGF term, n={n}")
        yield _equal(series.egf_term(second, n), cauchy.cauchy_second(n), f"second-kind EGF term, n={n}")
    tri = triangles.whitney_first(order)
    for k in range(order + 1):
        column = series.whitney_column_egf(k, order)
        for n in range(order + 1):
            yield _equal(
                series.egf_term(column, n),
                tri.entry(n, k) if k <= n else ZERO,
                f"column EGF term, n={n}, k={k}",
            )
    plain = series.expm1_div(series.log1p_qt_over_q(order))
    for n in range(order + 1):
        yield _equal(
            first.coeff(n).subst_r(0, 0),
            plain.coeff(n),
            f"first-kind EGF at r=0 vs number EGF, n={n}",
        )


def _suite_inversion(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    return (cauchy.inversion_counterexample(n) for n in range(n_max + 1))


def _suite_orthogonality(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    w1 = triangles.whitney_first(n_max)
    w2 = triangles.whitney_second(n_max)
    for n in range(n_max + 1):
        yield _equal(w1.entry(n, n), ONE, f"first-kind diagonal, n={n}")
        yield _equal(w2.entry(n, n), ONE, f"second-kind diagonal, n={n}")
        for k in range(n + 1):
            total = ZERO
            for j in range(k, n + 1):
                total = total + w2.entry(n, j) * w1.entry(j, k)
            yield _equal(total, ONE if k == n else ZERO, f"orthogonality sum, n={n}, k={k}")
        row = w1.row_poly(n)
        for j in range(n):
            yield _check(
                row.subst_x(R + Q.scale(j)).is_zero(),
                f"first-kind row root, n={n}, x=r+{j}q",
            )
        for k, w in enumerate(w1.row(n)):
            ok = all(c > 0 for _, c in w.scale((-1) ** (n - k)).sorted_terms())
            yield None if ok else f"first-kind sign pattern, n={n}, k={k}: got {w}"


def _suite_shift(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    return (cauchy.shift_counterexample(n, s) for n in range(n_max + 1) for s in shifts)


def _suite_cheon(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    yield from (cauchy.cheon_counterexample(n, s) for n in range(n_max + 1) for s in shifts)
    tri = triangles.whitney_first(n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            yield _equal(
                triangles.whitney_first_cheon(n, k),
                tri.entry(n, k),
                f"closed form vs recurrence, n={n}, k={k}",
            )


def _suite_reductions(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    w1 = triangles.whitney_first(n_max)
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
        for n in range(n_max + 1):
            at_r0 = cauchy.cauchy_poly(kind, n).subst_r(0, 0)
            number = cauchy.q_cauchy_number(kind, n)
            yield _equal(at_r0, number, f"{kind.value}-kind polynomial at r=0, n={n}")
            yield _check(
                number.eval_at(1, 0) == cauchy.cauchy_number(kind, n),
                f"{kind.value}-kind number at q=1, n={n}",
            )


def _suite_classical(n_max: int, shifts: tuple[Fraction, ...]) -> _Outcomes:
    for n in range(n_max + 1):
        yield cauchy.classical_shift_counterexample(n)
        got_first = cauchy.cauchy_number(CauchyKind.FIRST, n)
        got_second = cauchy.cauchy_number(CauchyKind.SECOND, n)
        yield _check(
            got_first == cauchy.cauchy_first_integral(n).eval_at(1, 0),
            f"classical first-kind number vs integral, n={n}: got {got_first}",
        )
        yield _check(
            got_second == cauchy.cauchy_second_integral(n).eval_at(1, 0),
            f"classical second-kind number vs integral, n={n}: got {got_second}",
        )


def _counted(name: str, suite: Callable[[int, tuple[Fraction, ...]], _Outcomes]):
    """Run a suite to its end and count its outcomes, so that one call of a
    ``SUITES`` entry spans the whole suite and returns its result."""

    def run(n_max: int, shifts: tuple[Fraction, ...]) -> SuiteResult:
        outcomes = list(suite(n_max, shifts))
        return SuiteResult(name, len(outcomes), tuple(m for m in outcomes if m is not None))

    return run


SUITES: dict[str, Callable[[int, tuple[Fraction, ...]], SuiteResult]] = {
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
    """Run one named suite, or every suite for name "all"."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    chosen = tuple(SUITES) if name == "all" else (name,)
    if any(s not in SUITES for s in chosen):
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(suite_names())}")
    effective = DEFAULT_SHIFTS if shifts is None else shifts
    return [SUITES[suite](n_max, effective) for suite in chosen]
