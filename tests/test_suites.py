"""Check counts and failure reports of the verification suites."""

import re
from fractions import Fraction as F

import pytest

import qwhitney.cauchy as cauchy_mod
import qwhitney.triangles as triangles_mod
from qwhitney.cli import main
from qwhitney.poly import ONE
from qwhitney.suites import SuiteResult, run_suite
from qwhitney.triangles import Triangle, TriangleKind

# Check counts per suite, keyed by (n_max, number of shift values).  They
# depend only on the sizes, not on the shift values themselves.
CHECKS = {
    (12, 4): {
        "first-kind-oracle": 52, "second-kind-oracle": 52, "egf": 208, "inversion": 13,
        "orthogonality": 286, "shift": 52, "cheon": 143, "reductions": 958, "classical": 39,
    },
    (3, 2): {
        "first-kind-oracle": 16, "second-kind-oracle": 16, "egf": 28, "inversion": 4,
        "orthogonality": 34, "shift": 8, "cheon": 18, "reductions": 112, "classical": 12,
    },
}

SHIFTS = {4: (F(3), F(-5, 29), F(2, 7), F(-9, 17)), 2: (F(1), F(-1, 2))}

README_VERIFY_ALL_10 = """\
suite first-kind-oracle: ok (44 checks)
suite second-kind-oracle: ok (44 checks)
suite egf: ok (154 checks)
suite inversion: ok (11 checks)
suite orthogonality: ok (209 checks)
suite shift: ok (55 checks)
suite cheon: ok (121 checks)
suite reductions: ok (700 checks)
suite classical: ok (33 checks)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n_max, count", sorted(CHECKS))
def test_check_counts_per_suite(n_max, count):
    results = run_suite("all", n_max, SHIFTS[count])
    assert {r.name: r.checks for r in results} == CHECKS[(n_max, count)]
    assert [r.name for r in results] == list(CHECKS[(n_max, count)])
    assert all(r.passed for r in results)


def test_verify_all_prints_the_readme_lines(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", "10")
    assert code == 0
    assert err == ""
    assert out == README_VERIFY_ALL_10


def test_wrong_integral_fails_the_first_kind_oracle(capsys, monkeypatch):
    real = cauchy_mod.cauchy_first_integrals
    monkeypatch.setattr(cauchy_mod, "cauchy_first_integrals", lambda n_max: (p + ONE for p in real(n_max)))
    code, out, err = run_cli(capsys, "verify", "--suite", "first-kind-oracle", "--n-max", "2")
    assert code == 1
    assert out == "suite first-kind-oracle: FAIL (3 of 12 checks)\n"
    assert "counterexample: first kind vs integral, n=0: got 1, want 2\n" in err
    for n in range(3):
        assert re.search(rf"^counterexample: first kind vs integral, n={n}: got .+, want .+$", err, re.M)


@pytest.fixture
def corrupted_first_kind(monkeypatch):
    """First-kind triangles with entry (2, 1) off by one."""
    real = triangles_mod.whitney_first

    def corrupted(n_max):
        tri = real(n_max)
        rows = [list(tri.row(n)) for n in range(n_max + 1)]
        if n_max >= 2:
            rows[2][1] = rows[2][1] + ONE
        return Triangle(TriangleKind.WHITNEY_FIRST, n_max, tuple(tuple(row) for row in rows))

    monkeypatch.setattr(triangles_mod, "whitney_first", corrupted)


# Per-suite (failures, checks) and first counterexample of
# run_suite("all", 4, SHIFTS[2]) under ``corrupted_first_kind``, as the suites
# reported them when each check still built its own triangles.
CORRUPTED_ALL_4 = {
    "first-kind-oracle": (2, 20, "first kind vs integral, n=2: got r^2 + (q - 1)*r - (1/2)*q + 5/6, "
                                 "want r^2 + (q - 1)*r - (1/2)*q + 1/3"),
    "second-kind-oracle": (2, 20, "second kind vs integral, n=2: got r^2 - (q + 1)*r + (1/2)*q - 1/6, "
                                  "want r^2 - (q + 1)*r + (1/2)*q + 1/3"),
    "egf": (3, 40, "first-kind EGF term, n=2: got r^2 + (q - 1)*r - (1/2)*q + 1/3, "
                   "want r^2 + (q - 1)*r - (1/2)*q + 5/6"),
    "inversion": (3, 5, "first-kind inversion fails at n=2: got 5/6"),
    "orthogonality": (6, 50, "orthogonality sum, n=2, k=1: got 1, want 0"),
    "shift": (4, 10, "shift law fails at n=3, s=1: "
                     "lhs=-r^3 - (3*q + 3/2)*r^2 - (2*q^2 + 3*q + 1)*r - q^2 - q - 1/4, "
                     "rhs=-r^3 - (3*q + 3/2)*r^2 - (2*q^2 + 3*q + 5/2)*r - q^2 - q - 1/4"),
    "cheon": (5, 25, "triangle shift law fails at n=3, k=1, s=1: "
                     "lhs=3*r^2 + (6*q + 6)*r + 2*q^2 + 6*q + 3, rhs=3*r^2 + (6*q + 3)*r + 2*q^2 + 6*q + 3"),
    "reductions": (7, 166, "q=1, r=0 reduction, n=2, k=1: got 0, want -1"),
    "classical": (1, 15, "classical shift law fails at n=2: lhs=r^2 + 1/3, rhs=r^2 - 1/6"),
}


def test_corrupted_triangle_fails_every_suite_of_a_shared_run(corrupted_first_kind):
    results = run_suite("all", 4, SHIFTS[2])
    got = {r.name: (len(r.failures), r.checks, r.failures[0]) for r in results}
    assert got == CORRUPTED_ALL_4


@pytest.fixture
def triangle_builds(monkeypatch):
    """Count the calls of triangles.whitney_first and whitney_second by name."""
    counts = {}
    for name in ("whitney_first", "whitney_second"):
        real = getattr(triangles_mod, name)

        def counted(n_max, real=real, name=name):
            counts[name] = counts.get(name, 0) + 1
            return real(n_max)

        monkeypatch.setattr(triangles_mod, name, counted)
    return counts


def test_a_run_builds_each_triangle_once(triangle_builds):
    assert all(r.passed for r in run_suite("all", 6, SHIFTS[4]))
    assert triangle_builds == {"whitney_first": 1, "whitney_second": 1}


@pytest.mark.parametrize("suite", ["shift", "cheon", "inversion"])
def test_a_single_suite_builds_the_first_kind_once(triangle_builds, suite):
    assert all(r.passed for r in run_suite(suite, 6, SHIFTS[4]))
    assert triangle_builds["whitney_first"] == 1


def test_suite_result_is_an_immutable_record():
    result = SuiteResult("shift", 3, ("a failure",))
    assert (result.name, result.checks, result.failures) == ("shift", 3, ("a failure",))
    assert SuiteResult._fields == ("name", "checks", "failures")
    assert not result.passed
    assert SuiteResult("shift", 3, ()).passed
    assert result == SuiteResult("shift", 3, ("a failure",))
    assert result != SuiteResult("shift", 4, ("a failure",))
    with pytest.raises(AttributeError):
        result.checks = 4
    assert repr(result) == "SuiteResult(name='shift', checks=3, failures=('a failure',))"


def test_a_repeated_shift_value_is_checked_once(capsys):
    once = run_cli(capsys, "verify", "--suite", "all", "--n-max", "4", "--shift-values=-7/9")
    assert run_cli(capsys, "verify", "--suite", "all", "--n-max", "4", "--shift-values=-7/9,-7/9") == once
    assert once[0] == 0


def test_repeated_shift_values_keep_the_order_of_first_occurrence(corrupted_first_kind):
    repeated = (F(1), F(-1, 2), 1, F(-1, 2), F(1))
    assert run_suite("all", 4, repeated) == run_suite("all", 4, SHIFTS[2])


@pytest.mark.parametrize(
    "suite, first_failure",
    [
        ("shift", "shift law fails at n=3, s=0: lhs="),
        ("cheon", "triangle shift law fails at n=3, k=1, s=0: lhs="),
        ("inversion", "first-kind inversion fails at n=2: got 5/6\n"),
    ],
)
def test_corrupted_triangle_fails_the_identity_checks(capsys, corrupted_first_kind, suite, first_failure):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-max", "4")
    assert code == 1
    assert out.startswith(f"suite {suite}: FAIL (")
    assert err.startswith(f"counterexample: {first_failure}")


@pytest.mark.parametrize("n_max, failures", [(6, 20), (8, 30)])
def test_verify_reports_at_most_20_counterexamples(capsys, corrupted_first_kind, n_max, failures):
    code, out, err = run_cli(capsys, "verify", "--suite", "shift", "--n-max", str(n_max))
    assert code == 1
    assert out.startswith(f"suite shift: FAIL ({failures} of ")
    lines = err.splitlines()
    assert [line.startswith("counterexample: ") for line in lines[:20]] == [True] * 20
    tail = [f"... and {failures - 20} more counterexamples"] if failures > 20 else []
    assert lines[20:] == tail


def test_corrupted_stirling_rows_fail_the_stirling_routes(monkeypatch):
    real = triangles_mod.stirling_first_row

    def corrupted(n):  # entry (3, 1) off by one
        row = real(n)
        return row[:1] + (row[1] + 1,) + row[2:] if n == 3 else row

    monkeypatch.setattr(triangles_mod, "stirling_first_row", corrupted)
    monkeypatch.setattr(cauchy_mod, "stirling_first_row", corrupted)
    results = {r.name: r for r in run_suite("all", 4)}
    failing = {name: (len(r.failures), r.checks) for name, r in results.items() if not r.passed}
    assert failing == {"first-kind-oracle": (2, 20), "cheon": (2, 40), "reductions": (6, 166)}
    assert results["first-kind-oracle"].failures[0].startswith("first kind vs Stirling sum, n=3: ")
    assert results["cheon"].failures[0].startswith("closed form vs recurrence, n=3, k=1: ")
