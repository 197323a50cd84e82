import contextlib
import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from qwhitney.cauchy import CauchyKind, cauchy_first, cauchy_second, q_cauchy_number
from qwhitney.cli import main
from qwhitney.poly import ONE, BiPoly
from qwhitney.series import whitney_column_egf
from qwhitney.triangles import (
    Triangle,
    TriangleKind,
    falling_factorial_x,
    whitney_first,
    whitney_first_values,
    whitney_second_values,
)

# Python 3.11 and later cap integer-string conversion; 3.10 has no cap.
_set_digits = getattr(sys, "set_int_max_str_digits", None)
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: None)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def no_digit_limit():
    """Lift the cap on integer-string conversion, so a test can format its oracle."""
    if _set_digits is None:
        yield
        return
    before = _get_digits()
    _set_digits(0)
    try:
        yield
    finally:
        _set_digits(before)


class TestPinnedExamples:
    def test_cauchy_text(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "2", "--format", "text")
        assert code == 0
        assert out == "r^2 + (q - 1)*r - (1/2)*q + 1/3\n"

    def test_triangle_csv_at_unit_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--kind", "w", "--n-max", "2", "--eval", "q=1,r=0", "--format", "csv"
        )
        assert code == 0
        assert out == "n,k,value\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,-1\n2,2,1\n"

    def test_verify_inversion_base_case(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "inversion", "--n-max", "0")
        assert code == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "qwhitney", "cauchy", "--kind", "first", "--n", "2"],
            capture_output=True,
            check=False,
        )
        assert result.returncode == 0
        assert result.stdout == b"r^2 + (q - 1)*r - (1/2)*q + 1/3\n"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Measured against the modules loaded before the import, so that
        # whatever the interpreter's site setup imports does not count.
        script = (
            "import sys; before = set(sys.modules); import qwhitney.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, check=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"[]\n"


class TestFormats:
    def test_cauchy_latex(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "1", "--format", "latex")
        assert code == 0
        assert out == "-r + \\frac{1}{2}\n"

    def test_cauchy_latex_braces_two_digit_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "11", "--format", "latex")
        assert code == 0
        assert out.startswith("-r^{11} - (55q - \\frac{11}{2})r^{10} - (1320q^2 - 275q")

    def test_cauchy_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "first"
        assert payload["n"] == 4
        assert BiPoly.from_records(payload["entries"]) == cauchy_first(4)

    def test_cauchy_csv(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "n,value\n1,-r + 1/2\n"

    def test_cauchy_eval(self, capsys):
        code, out, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "2", "--eval", "q=1,r=0")
        assert code == 0
        assert out == "-1/6\n"

    def test_cauchy_eval_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cauchy", "--kind", "second", "--n", "3", "--eval", "q=1/3,r=2/7", "--format", "csv",
        )
        assert code == 0
        assert out == "n,value\n3,-989/4116\n"

    def test_cauchy_eval_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cauchy", "--kind", "second", "--n", "3", "--eval", "q=2/3,r=-1/2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        expected = cauchy_second(3).eval_at(F(2, 3), F(-1, 2))
        assert payload["entries"] == {"num": expected.numerator, "den": expected.denominator}
        assert payload["eval"] == {"q": "2/3", "r": "-1/2"}

    def test_triangle_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--kind", "w", "--n-max", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "w"
        assert payload["n_max"] == 3
        tri = whitney_first(3)
        for n, row in enumerate(payload["entries"]):
            assert len(row) == n + 1
            for k, records in enumerate(row):
                assert BiPoly.from_records(records) == tri.entry(n, k)

    def test_triangle_text(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--kind", "w", "--n-max", "1")
        assert code == 0
        assert out == "n=0 k=0: 1\nn=1 k=0: -r\nn=1 k=1: 1\n"

    def test_shifted_stirling_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--kind", "sr", "--n-max", "2", "--r0", "2", "--format", "csv"
        )
        assert code == 0
        assert out == "n,k,value\n0,0,1\n1,0,-2\n1,1,1\n2,0,6\n2,1,-5\n2,2,1\n"

    def test_second_kind_numeric_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "triangle", "--kind", "W", "--n-max", "2", "--eval", "q=1/2,r=1/3", "--format", "csv",
        )
        assert code == 0
        assert out == "n,k,value\n0,0,1\n1,0,1/3\n1,1,1\n2,0,1/9\n2,1,7/6\n2,2,1\n"

    @pytest.mark.parametrize(
        "argv, header, point",
        [
            (
                ("--kind", "w", "--eval", "q=1/3,r=-2/7"),
                {"kind": "w", "n_max": 6, "eval": {"q": "1/3", "r": "-2/7"}},
                (F(1, 3), F(-2, 7)),
            ),
            (
                ("--kind", "sr", "--r0", "2", "--eval", "q=5/12,r=-7/18"),
                {"kind": "sr", "n_max": 6, "r0": 2, "eval": {"q": "5/12", "r": "-7/18"}},
                (1, 2),
            ),
        ],
    )
    def test_streamed_eval_json_is_one_payload(self, capsys, argv, header, point):
        code, out, _ = run_cli(capsys, "triangle", "--n-max", "6", *argv, "--format", "json")
        assert code == 0
        entries = []
        for n in range(7):
            product = falling_factorial_x(n)
            values = [product.coeff(k).eval_at(*point) for k in range(n + 1)]
            entries.append([{"num": v.numerator, "den": v.denominator} for v in values])
        payload = dict(header, entries=entries)
        assert out == json.dumps(payload, separators=(",", ":")) + "\n"

    def test_egf_text(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "c", "--order", "1")
        assert code == 0
        assert out == "t^0: 1\nt^1: -r + 1/2\n"

    def test_egf_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "w:1", "--order", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "w:1"
        assert payload["order"] == 3
        column = whitney_column_egf(1, 3)
        for n, records in enumerate(payload["entries"]):
            assert BiPoly.from_records(records) == column.coeff(n)

    def test_egf_csv(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "chat", "--order", "1", "--format", "csv")
        assert code == 0
        assert out == "n,value\n0,1\n1,r - 1/2\n"

    def test_egf_column_beyond_the_order(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "w:1000000000", "--order", "2")
        assert code == 0
        assert out == "t^0: 0\nt^1: 0\nt^2: 0\n"


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--n-max", "4")
        assert code == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 9
        assert all(": ok (" in line for line in lines)

    def test_custom_shift_values(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "shift", "--n-max", "3", "--shift-values", "0,1/2,-3"
        )
        assert code == 0

    @pytest.mark.parametrize("option", ["--shift-values", "--shift"])
    def test_negative_first_shift_as_its_own_argument(self, capsys, option):
        code, out, _ = run_cli(capsys, "verify", "--suite", "shift", "--n-max", "2", option, "-1/2")
        assert code == 0
        assert out == "suite shift: ok (3 checks)\n"

    def test_corrupted_triangle_fails(self, capsys, monkeypatch):
        import qwhitney.triangles as triangles_mod

        real = triangles_mod.whitney_first

        def corrupted(n_max):
            tri = real(n_max)
            rows = [list(tri.row(n)) for n in range(n_max + 1)]
            if n_max >= 2:
                rows[2][1] = rows[2][1] + ONE
            return Triangle(
                TriangleKind.WHITNEY_FIRST, n_max, tuple(tuple(row) for row in rows)
            )

        monkeypatch.setattr(triangles_mod, "whitney_first", corrupted)
        code, out, err = run_cli(capsys, "verify", "--suite", "orthogonality", "--n-max", "4")
        assert code == 1
        assert "FAIL" in out
        assert "counterexample" in err


class TestLargeAndInterruptedOutput:
    HUGE_Q = "1/1" + "0" * 200

    def test_cauchy_value_beyond_the_digit_limit(self, capsys):
        q0 = F(1, 10**200)
        argv = ("cauchy", "--kind", "first", "--n", "25", "--eval", f"q={self.HUGE_Q},r=0")
        before = _get_digits()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert _get_digits() == before
        with no_digit_limit():
            want = q_cauchy_number(CauchyKind.FIRST, 25).eval_at(q0, 0)
            assert len(str(want.denominator)) > 4300
            assert out == f"{want}\n"

    def test_triangle_json_beyond_the_digit_limit(self, capsys):
        q0 = F(1, 10**200)
        code, out, err = run_cli(
            capsys, "triangle", "--kind", "W", "--n-max", "25",
            "--eval", f"q={self.HUGE_Q},r=1", "--format", "json",
        )
        assert code == 0, err
        with no_digit_limit():
            row = json.loads(out)["entries"][25]
        total = F(0)
        basis = F(1)  # (x0 - r | q)_k at x0 = 3
        for k, entry in enumerate(row):
            total += F(entry["num"], entry["den"]) * basis
            basis *= 3 - 1 - k * q0
        assert total == 3**25

    @pytest.mark.skipif(_set_digits is None, reason="no cap on integer-string conversion")
    def test_huge_input_literal_still_rejected(self, capsys):
        huge = "1" + "0" * 5000
        code, _, _ = run_cli(
            capsys, "cauchy", "--kind", "first", "--n", "1", "--eval", f"q={huge},r=0"
        )
        assert code == 2

    def test_closed_pipe_exits_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qwhitney", "triangle", "--kind", "w", "--n-max", "200",
             "--eval", "q=1/3,r=2/7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.stderr.close()
        assert first == b"n=0 k=0: 1\n"
        assert b"Traceback" not in err
        assert err == b""
        assert code == 141

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        import qwhitney.suites as suites_mod

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(suites_mod, "run_suite", interrupted)
        code, _, _ = run_cli(capsys, "verify", "--suite", "shift", "--n-max", "1")
        assert code == 130


def _reference_eval_triangle(kind: str, n_max: int, point: str, fmt: str, r0: int = 2) -> str:
    """``triangle --eval`` output rendered from Fractions, with an f-string
    per cell and json.dumps, independently of the command's own writer."""
    q0, rv = (F(part.split("=")[1]) for part in point.split(","))
    header = {"kind": kind, "n_max": n_max}
    if kind == "sr":
        header["r0"] = r0
    header["eval"] = {"q": str(q0), "r": str(rv)}
    at = (q0, rv) if kind in ("w", "W") else (1, r0 if kind == "sr" else 0)
    values = (whitney_second_values if kind == "W" else whitney_first_values)(n_max, *at)
    if fmt == "json":
        entries = [[{"num": v.numerator, "den": v.denominator} for v in row] for row in values]
        return json.dumps(dict(header, entries=entries), separators=(",", ":")) + "\n"
    cell = "{},{},{}\n" if fmt == "csv" else "n={} k={}: {}\n"
    lines = [
        cell.format(
            n, k, f"{v.numerator}/{v.denominator}" if v.denominator != 1 else f"{v.numerator}"
        )
        for n, row in enumerate(values)
        for k, v in enumerate(row)
    ]
    return ("n,k,value\n" if fmt == "csv" else "") + "".join(lines)


def _assert_eval_triangle_bytes(capsys, kind, point, fmt, n_max):
    extra = ("--r0", "2") if kind == "sr" else ()
    code, out, err = run_cli(
        capsys, "triangle", "--kind", kind, "--n-max", str(n_max), *extra,
        "--eval", point, "--format", fmt,
    )
    assert code == 0, err
    with no_digit_limit():
        want = _reference_eval_triangle(kind, n_max, point, fmt)
    _assert_same_text(out, want)


def _assert_same_text(got: str, want: str) -> None:
    """got == want exactly.  A failure reports the lengths, the sha256 digests and
    the first differing offset, and not a diff of two texts of up to 80 rows."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(
        f"output differs: length {len(got)}, want {len(want)}; "
        f"sha256 {_sha256(got)}, want {_sha256(want)}; "
        f"first difference at offset {at}: {got[at : at + 60]!r}, want {want[at : at + 60]!r}"
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_EVAL_POINTS = (
    "q=1/3,r=-2/7",
    "q=16/23,r=-17/29",  # coprime prime denominators, as the benchmark draws them
    "q=5/12,r=-7/18",  # D = 36: many entries reduce
    "q=1,r=0",  # zero entries, which the step leaves as negative zeros
    "q=0,r=0",
    "q=1/2,r=1/2",  # W(3, 2) = 3: a denominator 2 that reduces to 1
    f"q={TestLargeAndInterruptedOutput.HUGE_Q},r=1",  # D = 10^200
    "q=1/55340232221128654848,r=1/3",  # D = 3 * 2^64: residues mod D itself
)
_EVAL_CASES = [(kind, point) for kind in ("w", "W") for point in _EVAL_POINTS] + [
    ("s", "q=1/3,r=2/7"),
    ("sr", "q=1/3,r=2/7"),
]


class TestEvalTriangleBytes:
    """``triangle --eval`` prints exactly what an f-string over each Fraction prints."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
    @pytest.mark.parametrize("kind, point", _EVAL_CASES)
    @pytest.mark.parametrize("n_max", [0, 40])
    def test_matches_the_fraction_rendering(self, capsys, kind, point, fmt, n_max):
        _assert_eval_triangle_bytes(capsys, kind, point, fmt, n_max)

    # Residues are taken mod D^32 at D = 2, so these rows go past them, and
    # some entries reduce from a denominator 2^m with m > 32 to 1.
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("kind, point", [("w", "q=3/2,r=1/2"), ("W", "q=1/2,r=1")])
    def test_matches_the_fraction_rendering_past_the_residues(self, capsys, kind, point, fmt):
        _assert_eval_triangle_bytes(capsys, kind, point, fmt, 80)


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus", "--n-max", "1")
        assert code == 2

    def test_bad_eval_point(self, capsys):
        for text in ("q=1", "q=1,r=x", "q=1,q=2", "a=1,b=2", "q=1,r=1/0"):
            code, _, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "2", "--eval", text)
            assert code == 2, text

    @pytest.mark.parametrize("literal", ["1e1000000000", "1.5", "1e3", "1_000", "3/4.0"])
    def test_rational_outside_the_documented_form(self, capsys, literal):
        # Fraction alone would read these, the first by building a 10^9-digit integer.
        code, _, err = run_cli(
            capsys, "cauchy", "--kind", "first", "--n", "2", "--eval", f"q={literal},r=0"
        )
        assert code == 2
        assert "invalid rational" in err
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "shift", "--n-max", "1", f"--shift-values={literal}"
        )
        assert code == 2

    def test_rational_with_surrounding_spaces(self, capsys):
        code, out, _ = run_cli(
            capsys, "cauchy", "--kind", "first", "--n", "1", "--eval", "q= 1 ,r= -1/2 "
        )
        assert code == 0
        assert out == "1\n"

    @pytest.mark.parametrize("literal", ["1_0", "\u0662", "+2", "-0", "2.0", "0x2", ""])
    def test_integer_outside_the_documented_form(self, capsys, literal):
        # int() alone would read the first four ("\u0662" is the Arabic-Indic two).
        for argv in (
            ("triangle", "--kind", "w", "--n-max", literal),
            ("triangle", "--kind", "sr", "--n-max", "1", "--r0", literal),
            ("cauchy", "--kind", "first", "--n", literal),
            ("egf", "--which", "c", "--order", literal),
            ("egf", "--which", f"w:{literal}", "--order", "1"),
            ("verify", "--suite", "shift", "--n-max", literal),
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert "invalid nonnegative integer" in err, argv

    def test_integer_with_surrounding_spaces(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "w: 1 ", "--order", " 1 ")
        assert code == 0
        assert out == "t^0: 0\nt^1: 1\n"
        code, out, _ = run_cli(capsys, "triangle", "--kind", "sr", "--n-max", " 1", "--r0", "2 ")
        assert code == 0
        assert out == "n=0 k=0: 1\nn=1 k=0: -2\nn=1 k=1: 1\n"

    def test_negative_index(self, capsys):
        code, _, _ = run_cli(capsys, "cauchy", "--kind", "first", "--n", "-3")
        assert code == 2

    def test_shift_only_for_shifted_kind(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--kind", "w", "--n-max", "2", "--r0", "1")
        assert code == 2
        assert "error:" in err

    def test_bad_egf_selector(self, capsys):
        for which in ("x", "w:", "w:-1", "w:a"):
            code, _, _ = run_cli(capsys, "egf", "--which", which, "--order", "2")
            assert code == 2, which

    def test_bad_shift_values(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "shift", "--n-max", "2", "--shift-values", "1,,2"
        )
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0
