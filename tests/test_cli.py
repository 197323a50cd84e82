import ast
import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from fractions import Fraction as F
from pathlib import Path

import pytest

from qwhitney.cauchy import CauchyKind, cauchy_first, cauchy_second, q_cauchy_number
from qwhitney.cli import _eval_cells, main
from qwhitney.poly import ONE, BiPoly
from qwhitney.series import cauchy_first_egf, cauchy_second_egf, whitney_column_egf
from qwhitney.triangles import (
    Triangle,
    TriangleKind,
    decimal_rows,
    scaled_rows,
    triangle_rows,
    whitney_first,
    whitney_first_values,
    whitney_second_values,
)

from _products import falling_factorial_x

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


def _traced_peak(run) -> int:
    """The peak of the memory that tracemalloc traces while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _read_each_row(rows) -> None:
    """Read the pairs of each row of ``decimal_rows``, one at a time, and drop
    the row before the next is made, as the --eval writer does."""
    for row in rows:
        for pair in row:
            pass
        del row, pair


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

    # The command prints from the triangle rows; the series products of
    # qwhitney.series are the oracle it is checked against.
    @pytest.mark.parametrize(
        "which, oracle",
        [
            ("c", cauchy_first_egf),
            ("chat", cauchy_second_egf),
            ("w:0", lambda order: whitney_column_egf(0, order)),
            ("w:3", lambda order: whitney_column_egf(3, order)),
        ],
    )
    def test_egf_json_round_trip(self, capsys, which, oracle):
        code, out, _ = run_cli(capsys, "egf", "--which", which, "--order", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == which
        assert payload["order"] == 12
        series = oracle(12)
        assert len(payload["entries"]) == 13
        for n, records in enumerate(payload["entries"]):
            assert BiPoly.from_records(records) == series.coeff(n)

    def test_egf_csv(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "chat", "--order", "1", "--format", "csv")
        assert code == 0
        assert out == "n,value\n0,1\n1,r - 1/2\n"

    def test_egf_column_beyond_the_order(self, capsys):
        code, out, _ = run_cli(capsys, "egf", "--which", "w:1000000000", "--order", "2")
        assert code == 0
        assert out == "t^0: 0\nt^1: 0\nt^2: 0\n"

    @pytest.mark.parametrize("which, kind", [("w:007", "w:7"), ("w: 1 ", "w:1")])
    def test_egf_json_kind_is_the_normalized_label(self, capsys, which, kind):
        code, out, _ = run_cli(capsys, "egf", "--which", which, "--order", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["kind"] == kind
        if which == "w:007":
            assert out == '{"kind":"w:7","order":2,"entries":[[],[],[]]}\n'


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

    # A symbolic result of size n prints about n^3/6 coefficients but holds
    # about one row and one piece of text: its peak is compared with that
    # of the row step read through deque(maxlen=1), which holds two rows at
    # the same n.  A row grows like n^2 terms, so two rows alone grow about
    # 4x from n = 30 to 60, and the whole triangle about 8x.
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (("triangle", "--kind", "w", "--n-max"), TriangleKind.WHITNEY_FIRST),
            (("triangle", "--kind", "W", "--format", "json", "--n-max"), TriangleKind.WHITNEY_SECOND),
            (("cauchy", "--kind", "first", "--n"), TriangleKind.WHITNEY_FIRST),
        ],
    )
    def test_symbolic_output_holds_about_two_rows(self, argv, kind):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main([*argv, "30"]) == 0  # imports the command's modules first
            command = _traced_peak(lambda: main([*argv, "60"]))
        rows = _traced_peak(lambda: deque(triangle_rows(kind, 60), maxlen=1))
        assert command < 3 * rows

    # An EGF coefficient of order n can be megabytes of text, so each is
    # written as it is made, on its own and without a copy.  Against the row
    # step alone at order 60, the peak read 2.9-3.2x, 3.3-3.7x with the last
    # coefficient's text held while the next is made, and 13-16x with 16
    # coefficients written a piece.
    @pytest.mark.parametrize("which", ["c", "chat"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_egf_output_holds_about_one_coefficient(self, which, fmt):
        argv = ["egf", "--which", which, "--format", fmt, "--order"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main([*argv, "30"]) == 0  # imports the command's modules first
            command = _traced_peak(lambda: main([*argv, "60"]))
        rows = _traced_peak(lambda: deque(triangle_rows(TriangleKind.WHITNEY_FIRST, 60), maxlen=1))
        assert command < 5 * rows

    # An --eval row is written in pieces of cli.PIECE_CELLS cells, so the
    # command holds the step's one row of Decimals, the den caches and one
    # piece of text.  Against decimal_rows read pair by pair, which holds
    # that one row, the command's peak read 1.56-1.81x.  A row's text is
    # about twice its Decimals: against decimal_rows read through
    # deque(maxlen=1), which held two rows, the command read 2.2-2.3x with
    # each row written whole, 1.6-1.7x in pieces of 64 cells, and 1.3x in
    # pieces of 16 cells with no row held across the step.
    @pytest.mark.parametrize(
        "kind, fmt",
        [
            (TriangleKind.WHITNEY_FIRST, "text"),
            (TriangleKind.WHITNEY_SECOND, "json"),
            (TriangleKind.WHITNEY_SECOND, "csv"),
        ],
    )
    def test_eval_output_holds_its_rows_and_one_piece(self, kind, fmt):
        point = (F(19, 29), F(-31, 17))
        argv = ["triangle", "--kind", kind.value, "--eval", "q=19/29,r=-31/17", "--format", fmt, "--n-max"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main([*argv, "20"]) == 0  # imports the command's modules first
            command = _traced_peak(lambda: main([*argv, "200"]))
        rows = _traced_peak(lambda: _read_each_row(decimal_rows(kind, 200, *point)))
        assert command < 1.9 * rows

    # No reduced row is held while the next is made, by decimal_rows or by
    # the --eval cells: against the integer row step read through
    # deque(maxlen=1), which holds two rows, the peaks read, at q = 1/3,
    # r = 2/7 (D = 21, where many entries reduce) and n = 200, 2.16-2.52x
    # for the rows read pair by pair and 1.21-1.22x more with the cell
    # texts.  A step that held two rows, with each row reduced whole, read
    # 2.64-2.96x and 1.25-1.29x; holding the previous row as well read
    # 3.42-3.55x in decimal_rows, and 1.44-1.50x in the cells.
    @pytest.mark.parametrize(
        "kind, fmt",
        [
            (TriangleKind.WHITNEY_FIRST, "text"),
            (TriangleKind.WHITNEY_SECOND, "json"),
            (TriangleKind.WHITNEY_SECOND, "csv"),
        ],
    )
    def test_eval_rows_are_not_held_while_the_next_is_made(self, kind, fmt):
        point = (F(1, 3), F(2, 7))

        def dropped():
            _read_each_row(decimal_rows(kind, 200, *point))

        # A plain loop holds one cell at a time; a comprehension that kept
        # one object per row read 1.93-1.94x.
        def cells():
            for _, row in _eval_cells(decimal_rows(kind, 200, *point), fmt):
                for cell in row:
                    pass

        step = _traced_peak(lambda: deque(scaled_rows(kind, 200, *point)[1], maxlen=1))
        rows = _traced_peak(dropped)
        written = _traced_peak(cells)
        assert rows < 3.2 * step
        assert written < 1.38 * rows

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        import qwhitney.suites as suites_mod

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(suites_mod, "run_suite", interrupted)
        code, _, _ = run_cli(capsys, "verify", "--suite", "shift", "--n-max", "1")
        assert code == 130


def _run_script(*lines: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, timeout=120
    )


class TestProcessEntry:
    """``cli.run`` is the process entry: main on sys.argv, gc.freeze(), sys.exit."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("triangle", "--kind", "W", "--n-max", "6", "--format", "csv"), 0),
            (("verify", "--suite", "shift", "--n-max", "3", "--shift-values=-7/9,2"), 0),
            (("triangle", "--kind", "w", "--n-max", "-1"), 2),
        ],
    )
    def test_module_run_matches_main_in_process(self, capsys, argv, code):
        proc = subprocess.run(
            [sys.executable, "-m", "qwhitney", *argv], capture_output=True, text=True, timeout=120
        )
        in_process = run_cli(capsys, *argv)
        assert in_process[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process

    def test_failing_suite_exits_1_with_its_counterexample(self):
        proc = _run_script(
            "import sys",
            "import qwhitney.cauchy as cauchy_mod",
            "from qwhitney import cli",
            "from qwhitney.poly import ONE",
            "real = cauchy_mod.cauchy_first_integrals",
            "cauchy_mod.cauchy_first_integrals = lambda n_max: (p + ONE for p in real(n_max))",
            "sys.argv = ['qwhitney', 'verify', '--suite', 'first-kind-oracle', '--n-max', '2']",
            "cli.run()",
        )
        assert proc.returncode == 1
        assert proc.stdout == "suite first-kind-oracle: FAIL (3 of 12 checks)\n"
        assert proc.stderr.startswith("counterexample: first kind vs integral, n=0: got 1, want 2\n")

    def test_atexit_runs_after_the_output_is_written_on_a_frozen_heap(self):
        # os._exit would skip the handler, as it would the benchmark's
        # peak-RSS report at exit, and the flush of the buffered output.
        proc = _run_script(
            "import atexit, gc, os, sys",
            "from qwhitney import cli",
            "atexit.register(lambda: os.write(2, b'frozen %d\\n' % (gc.get_freeze_count() > 0)))",
            "sys.argv = ['qwhitney', 'triangle', '--kind', 'w', '--n-max', '40', '--eval', 'q=1/3,r=2/7']",
            "cli.run()",
        )
        assert proc.returncode == 0
        assert proc.stderr == "frozen 1\n"
        assert proc.stdout.count("\n") == 41 * 42 // 2
        assert proc.stdout.endswith("n=40 k=40: 1\n")

    def test_main_in_process_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        for argv in (("cauchy", "--kind", "first", "--n", "3"), ("verify", "--suite", "inversion", "--n-max", "2")):
            assert run_cli(capsys, *argv)[0] == 0
        assert gc.get_freeze_count() == before

    def test_console_script_and_module_call_the_same_entry(self):
        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'qwhitney = "qwhitney.cli:run"'
        tree = ast.parse((root / "src" / "qwhitney" / "__main__.py").read_text())
        nodes = list(ast.walk(tree))
        imports = [(n.module, n.level, [a.name for a in n.names]) for n in nodes if isinstance(n, ast.ImportFrom)]
        calls = [ast.unparse(n) for n in nodes if isinstance(n, ast.Call)]
        assert (imports, calls) == ([("cli", 1, ["run"])], ["run()"])


class TestImportsPerCommand:
    """A job imports only what its command runs: start-up is most of a small job's time."""

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (
                ("triangle", "--kind", "w", "--n-max", "3"),
                ("qwhitney.cauchy", "qwhitney.suites", "json", "argparse", "gettext", "locale"),
            ),
            (("verify", "--suite", "shift", "--n-max", "2"), ("json", "argparse", "gettext", "locale")),
            (
                ("egf", "--which", "c", "--order", "3"),
                ("qwhitney.suites", "json", "argparse", "gettext", "locale"),
            ),
            (
                ("triangle", "--kind", "W", "--n-max", "3", "--eval", "q=1/3,r=2/7", "--format", "json"),
                ("json", "argparse", "gettext", "locale"),
            ),
            (
                ("egf", "--which", "chat", "--order", "3", "--format", "json"),
                ("json", "argparse", "gettext", "locale"),
            ),
            (
                ("cauchy", "--kind", "first", "--n", "3", "--format", "json"),
                ("json", "argparse", "gettext", "locale"),
            ),
        ],
    )
    def test_modules_left_unimported(self, argv, absent):
        # python -m qwhitney ARGV, then the names of absent found in sys.modules;
        # -S keeps site (and whatever a .pth file imports) out of the count
        code = "\n".join([
            "import runpy, sys",
            f"sys.argv = ['qwhitney', *{list(argv)!r}]",
            "try:",
            "    runpy.run_module('qwhitney', run_name='__main__', alter_sys=True)",
            "except SystemExit as exc:",
            "    assert exc.code == 0, exc.code",
            f"print(sorted(set({list(absent)!r}) & set(sys.modules)), file=sys.stderr)",
        ])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"

    # The json head is written without json: each header shape the command
    # line writes, against json.dumps of the same header.
    @pytest.mark.parametrize(
        "argv, header",
        [
            (("triangle", "--kind", "w", "--n-max", "2"), {"kind": "w", "n_max": 2}),
            (("triangle", "--kind", "sr", "--n-max", "2", "--r0", "13"), {"kind": "sr", "n_max": 2, "r0": 13}),
            (
                ("triangle", "--kind", "sr", "--n-max", "2", "--r0", "3", "--eval", "q=-6/4,r= 2"),
                {"kind": "sr", "n_max": 2, "r0": 3, "eval": {"q": "-3/2", "r": "2"}},
            ),
            (
                ("triangle", "--kind", "W", "--n-max", "2", "--eval", "q=19/29,r=-31/17"),
                {"kind": "W", "n_max": 2, "eval": {"q": "19/29", "r": "-31/17"}},
            ),
            (("cauchy", "--kind", "second", "--n", "10"), {"kind": "second", "n": 10}),
            (
                ("cauchy", "--kind", "first", "--n", "3", "--eval", "r=0,q=+1/1"),
                {"kind": "first", "n": 3, "eval": {"q": "1", "r": "0"}},
            ),
            (("egf", "--which", "w:007", "--order", "12"), {"kind": "w:7", "order": 12}),
            (("egf", "--which", "chat", "--order", "0"), {"kind": "chat", "order": 0}),
        ],
    )
    def test_json_head_is_that_of_json_dumps(self, capsys, argv, header):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        head = json.dumps(header, separators=(",", ":"))[:-1] + ',"entries":'
        assert out[: len(head)] == head
        assert json.loads(out).keys() == {*header, "entries"}

    def test_choices_are_the_kinds_and_suite_names(self):
        from qwhitney.cli import SUITE_NAMES, TRIANGLE_KINDS
        from qwhitney.suites import suite_names

        assert TRIANGLE_KINDS == tuple(kind.value for kind in TriangleKind)
        assert SUITE_NAMES == suite_names()


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
