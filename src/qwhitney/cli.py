"""Command-line front end for the triangles, polynomials, and checks.

Four subcommands:

    triangle  --kind {w|W|s|sr} --n-max INT [--r0 INT] [--eval q=RAT,r=RAT] [--format FMT]
    cauchy    --kind {first|second} --n INT [--eval q=RAT,r=RAT] [--format FMT]
    egf       --which {c|chat|w:K} --order INT [--format FMT]
    verify    --suite NAME --n-max INT [--shift-values RAT,RAT,...]

Formats are text (default), json, csv, and latex.  Rationals on the
command line are written "a" or "a/b", and integers as plain digits.  All
output is exact; no floating point appears anywhere.  Results go to
standard output and counterexample diagnostics to the error stream.  Exit
codes: 0 on success, 1 when a verification suite finds a failing identity,
2 on usage errors, 130 on an interrupt, and 141 when the reader of
standard output closes it early.  Sizes (--n-max, --n, --order) are
bounded by MAX_SYMBOLIC_SIZE, by MAX_EVAL_SIZE with --eval, or by
MAX_VERIFY_SIZE for verify; the size times the digits of the --eval point
or of --r0 by MAX_EVAL_DIGITS, and times those of verify's --shift-values,
summed over the values, by MAX_VERIFY_DIGITS.  A larger one is a usage
error, reported before any work starts.

The subcommands and their options are described once, in ``_commands``,
and an argv is read from that table in one of two ways.  A plainly
well-formed argv (the subcommand first, then each option spelled in full
and given once, with a value that its type and choices accept) is read by
``_parse_plain``.  Any other argv, help included, is read by the argparse
parser of ``build_parser``, which writes every help, usage and error text.
Both give the same options, so a job that prints no help and no error never
loads argparse.

Every result is written by ``_write_rows``, the one function that knows the
output layout; a command hands it rows of cell texts.

``run`` is the process entry point of ``python -m qwhitney`` and of the
``qwhitney`` script: it calls ``main`` on ``sys.argv``, freezes the heap
with ``gc.freeze()`` and exits with main's code.  The interpreter's
shutdown collections skip a frozen heap; the flush of the standard
streams and the ``atexit`` handlers still run.  Tests and library callers
call ``main``, which leaves the heap as it is.
"""

from __future__ import annotations

import os
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

from .poly import ZERO, BiPoly, common_denominator

# The modules of the triangles, the Cauchy polynomials and the verification
# suites are imported by the subcommands that use them, so that a job loads
# only what it runs; no job imports json.

FORMATS = ("text", "json", "csv", "latex")

# The --kind choices of triangle and the --suite choices of verify: the
# values of triangles.TriangleKind and what suites.suite_names() returns
# (tests pin them equal), as constants, so that building the parser imports
# neither module.
TRIANGLE_KINDS = ("w", "W", "s", "sr")
SUITE_NAMES = (
    "first-kind-oracle", "second-kind-oracle", "egf", "inversion", "orthogonality",
    "shift", "cheon", "reductions", "classical", "all",
)

_MAX_REPORTED_FAILURES = 20

# 128 + the signal number, as a shell reports a process ended by SIGPIPE or
# SIGINT.
_EXIT_BROKEN_PIPE = 141
_EXIT_INTERRUPTED = 130


# Largest size a command accepts, so that a mistyped size cannot run for
# hours.  A symbolic result of size n is printed as about n^3/6
# coefficients, made from one triangle row held at a time, and an
# --eval row of size n has n + 1 entries of about n times the digits of the
# point (MAX_EVAL_DIGITS).  The README gives the time and peak RSS of the
# slowest accepted inputs.
MAX_SYMBOLIC_SIZE = 200
MAX_EVAL_SIZE = 2000

# Largest --n-max of verify: the symbolic suites grow like n^4, and the
# README gives the time of verify --suite all at this size.
MAX_VERIFY_SIZE = 48

# Largest size times digits of an --eval point q = A/D, r = C/D over the
# least common denominator D, counted in the largest of |A|, |C| and D.
# An entry of size n has about n times that many digits (plus n*log10(n)
# from the factors k*A + C), and a row holds n + 1 of them, so this bounds
# the memory of the one row that the row step holds, updated in place:
# about 2000 * 10^4 digits at MAX_EVAL_SIZE.  Each entry is reduced as it
# is written, so no reduced row is held, and the text is never held whole,
# only one piece.  The powers D^0..D^n, from which the dens are made, are
# kept as Decimals, about half a row's digits, and as ints only up to D^J,
# about one machine word.  The points in use are far below it: 3 digits at
# n = 300 in the benchmark, and D = 10^200 at n <= 40 in the tests.
MAX_EVAL_DIGITS = 10_000

# Largest --n-max of verify times the digits of its --shift-values, summed
# over the values, each one more pass over the shift laws; it admits the
# default shifts at MAX_VERIFY_SIZE.  The README gives the time of the
# slowest accepted input.
MAX_VERIFY_DIGITS = 1200


class UsageError(Exception):
    """Semantic command-line error; maps to exit code 2."""


def _bad_value(message: str) -> Exception:
    """The error of an option value that its type rejects, for argparse to report.

    Only an argv that argparse then reads gets here, so argparse is imported
    here and in ``build_parser``, and a well-formed job loads it nowhere.
    """
    import argparse

    return argparse.ArgumentTypeError(message)


# "a" or "a/b" only: Fraction alone would also read decimals and exponents,
# and expand a literal such as 1e1000000000 into a huge integer.
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def _parse_rational(text: str) -> Fraction:
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than int() converts
    raise _bad_value(f"invalid rational {text!r}")


def _parse_eval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    values: dict[str, Fraction] = {}
    for part in parts:
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key in values or key not in ("q", "r"):
            raise _bad_value(f"expected q=RAT,r=RAT, got {text!r}")
        values[key] = _parse_rational(raw)
    if set(values) != {"q", "r"}:
        raise _bad_value(f"expected q=RAT,r=RAT, got {text!r}")
    return values["q"], values["r"]


def _parse_shifts(text: str) -> tuple[Fraction, ...]:
    items = text.split(",")
    if any(not item.strip() for item in items):
        raise _bad_value(f"expected RAT,RAT,..., got {text!r}")
    return tuple(_parse_rational(item) for item in items)


# Digits only, as for the rationals: int() alone would also read "1_0", a
# sign, and non-ASCII digits such as the Arabic-Indic "٢".
_NONNEG = re.compile(r"\s*[0-9]+\s*")


def _parse_nonneg(text: str) -> int:
    if _NONNEG.fullmatch(text):
        try:
            return int(text)
        except ValueError:
            pass  # more digits than int() converts
    raise _bad_value(f"invalid nonnegative integer {text!r}")


def _parse_which(text: str) -> str:
    """The normalized label: c, chat, or w:K with K written in plain digits."""
    if text in ("c", "chat"):
        return text
    if text.startswith("w:"):
        return f"w:{_parse_nonneg(text[2:])}"
    raise _bad_value(f"expected c, chat, or w:K, got {text!r}")


def _poly_str(p: BiPoly, fmt: str) -> str:
    return p.to_json() if fmt == "json" else p.to_latex() if fmt == "latex" else p.to_text()


def _json_value(value) -> str:
    """An int, a string or a dict of them as compact JSON, written without ``json``:
    the parsers and choices admit no string character that JSON escapes."""
    if isinstance(value, dict):
        return "{" + ",".join(f'"{key}":{_json_value(item)}' for key, item in value.items()) + "}"
    return f'"{value}"' if isinstance(value, str) else str(value)


# Most cells of one row in one piece of output.  A piece is joined and
# written as soon as it is made, so output text is held one piece at a time,
# never a whole row (a row at MAX_EVAL_SIZE is tens of MB of digits), and at
# 16 cells a piece is small beside the one row of the row step (README).
PIECE_CELLS = 16


def _write_rows(header: dict, rows, fmt: str, shape: str) -> int:
    """Write a result, its header and rows (n, iterator of cell texts), in the layout of fmt.

    ``shape`` is "triangle" (cells k = 0..n of each row, labelled "n=N k=K: "
    or "N,K,"), "series" (one cell per row, labelled "t^N: " or "N,") or
    "value" (one cell, labelled "N," in csv); in json they are the header's
    "entries", [[...],...], [...] or the cell alone.  A row is written
    PIECE_CELLS cells at a time, and a lone cell, which can be megabytes of
    text, without a copy.
    """
    write = sys.stdout.write
    as_json = fmt == "json"
    numbered = shape == "triangle" and not as_json
    if as_json:
        write(_json_value(header)[:-1] + ',"entries":')
        first, later, tail = {"triangle": ("[[", "],[", "]]"), "series": ("[", ",", "]")}.get(shape, ("", "", ""))
    else:
        write(("n,k,value\n" if shape == "triangle" else "n,value\n") if fmt == "csv" else "")
        tail = ""
    end = "" if as_json else "\n"
    for n, cells in rows:
        # A row's label parts are made once, so a cell's label is one f-string.
        if as_json:
            lead = later if n else first
        elif numbered:
            pre, sep = (f"{n},", ",") if fmt == "csv" else (f"n={n} k=", ": ")
        else:
            lead = f"{n}," if fmt == "csv" else f"t^{n}: " if shape == "series" else ""
        parts: list[str] = []
        for k, cell in enumerate(cells):
            parts += (f"{pre}{k}{sep}" if numbered else "," if k else lead, cell, end)
            if len(parts) == 3 * PIECE_CELLS:
                write("".join(parts))
                parts = []
        if len(parts) > 3:
            parts = ["".join(parts)]
        for part in parts:
            write(part)
        # No text of this row is held while the next row is made.
        cells = cell = parts = part = None
    write(tail + "}\n" if as_json else "")
    return 0


def _eval_cells(values, fmt: str):
    """Rows (n, cell texts) of rows of (num, den) pairs: "num/den", or "num" at
    den 1, and {"num":num,"den":den} in json.

    A den object that ``decimal_rows`` shares down a column n - k is printed
    once: each column keeps its last den with the text after the numerator,
    and only a cell's own text is made from it.  A row's cells are read,
    and so reduced, one at a time before the next row is asked for, as
    ``_write_rows`` reads them, and row n is dropped before row n + 1 is
    made (enumerate's result tuple would hold it), so that only the step's
    one row is held.
    """
    one = Decimal(1)  # compares with a Decimal faster than the int 1 does
    as_json = fmt == "json"
    ends: list = []  # column n - k: its last den and the text after the numerator

    def cells(row):
        for k, (a, b) in enumerate(row):
            end = ends[-1 - k]
            if end[0] is not b:
                end = ends[-1 - k] = (b, f',"den":{b}}}' if as_json else f"/{b}" if b != one else "")
            yield f'{{"num":{a!s}{end[1]}' if as_json else f"{a!s}{end[1]}"

    n = 0
    for row in values:
        ends.append((None, ""))
        yield n, cells(row)
        del row
        n += 1


def _cmd_triangle(args: SimpleNamespace) -> int:
    from .triangles import TriangleKind, decimal_rows, triangle_rows

    kind = args.kind
    if args.r0 is not None and kind != "sr":
        raise UsageError("--r0 only applies to --kind sr")
    r0 = args.r0 if args.r0 is not None else 0
    n_max = args.n_max
    fmt = args.format
    header: dict[str, object] = {"kind": kind, "n_max": n_max}
    if kind == "sr":
        header["r0"] = r0

    if args.eval is not None:
        q0, rv = args.eval
        header["eval"] = {"q": str(q0), "r": str(rv)}
        # The Stirling kinds are the first kind at q = 1, r = r0 (0 for s),
        # so the requested evaluation point does not affect them.
        point = (q0, rv) if kind in ("w", "W") else (1, r0)
        base = TriangleKind.WHITNEY_SECOND if kind == "W" else TriangleKind.WHITNEY_FIRST
        # str() of a Decimal prints its digits in linear time.
        rows = _eval_cells(decimal_rows(base, n_max, *point), fmt)
    else:
        rows = _poly_cells(triangle_rows(TriangleKind(kind), n_max, args.r0), fmt)
    return _write_rows(header, rows, fmt, "triangle")


def _poly_cells(rows, fmt: str):
    """Rows (n, cell texts) of rows of BiPolys, each dropped before the next is made.

    A generator expression or enumerate would hold row n while the step
    makes row n + 1, and so hold two rows, not the step's one.
    """
    n = 0
    for row in rows:
        yield n, (_poly_str(p, fmt) for p in row)
        del row
        n += 1


def _cmd_cauchy(args: SimpleNamespace) -> int:
    from .cauchy import CauchyKind, cauchy_poly, cauchy_value

    kind = CauchyKind(args.kind)
    fmt = args.format
    header: dict[str, object] = {"kind": args.kind, "n": args.n}
    if args.eval is None:
        # The polynomial is not held past its text.
        rows = [(args.n, [_poly_str(cauchy_poly(kind, args.n), fmt)])]
    else:
        q0, rv = args.eval
        header["eval"] = {"q": str(q0), "r": str(rv)}
        value = cauchy_value(kind, args.n, q0, rv)
        rows = [(args.n, cells) for _, cells in _eval_cells([[(value.numerator, value.denominator)]], fmt)]
    return _write_rows(header, rows, fmt, "value")


def _cmd_egf(args: SimpleNamespace) -> int:
    """[t^n] of the EGF for n = 0..order: c_n/n!, chat_n/n! or w(n, K)/n!, from the first-kind rows."""
    from .cauchy import CauchyKind, cauchy_of_row
    from .triangles import TriangleKind, triangle_rows

    which = args.which
    order = args.order
    fmt = args.format
    # Column k of a row reads only columns k - 1 and k of the row before, so
    # w:K runs the row step on columns 0..K.
    k = int(which[2:]) if which.startswith("w:") else None
    cauchy_kind = CauchyKind.FIRST if which == "c" else CauchyKind.SECOND
    if k is None or k <= order:
        rows = triangle_rows(TriangleKind.WHITNEY_FIRST, order, k_max=k)
    else:  # column k starts at row k, so no step runs
        rows = [()] * (order + 1)

    def series():
        # Row n is dropped before row n + 1 is made, and the term before
        # the next row's.
        n = 0
        for row in rows:
            term = cauchy_of_row(cauchy_kind, row) if k is None else row[k] if k <= n else ZERO
            del row
            yield n, [_poly_str(term.scale(Fraction(1, factorial(n))), fmt)]
            del term
            n += 1

    return _write_rows({"kind": which, "order": order}, series(), fmt, "series")


def _cmd_verify(args: SimpleNamespace) -> int:
    from .suites import run_suite

    results = run_suite(args.suite, args.n_max, args.shift_values)
    all_passed = True
    for result in results:
        if result.passed:
            print(f"suite {result.name}: ok ({result.checks} checks)")
            continue
        all_passed = False
        print(f"suite {result.name}: FAIL ({len(result.failures)} of {result.checks} checks)")
        for failure in result.failures[:_MAX_REPORTED_FAILURES]:
            print(f"counterexample: {failure}", file=sys.stderr)
        remaining = len(result.failures) - _MAX_REPORTED_FAILURES
        if remaining > 0:
            print(f"... and {remaining} more counterexamples", file=sys.stderr)
    return 0 if all_passed else 1


# The options that every namespace has: commands without --eval, --r0 or
# --shift-values read None.
_SHARED_DEFAULTS = {"eval": None, "r0": None, "shift_values": None}


def _commands() -> dict:
    """Each subcommand: its help, its options with the keyword arguments of
    ``add_argument``, the function that runs it, and its limits.

    Both ``build_parser`` and ``_parse_plain`` read this one table.  The
    limits are checked in main: the size option, that option's limit
    (MAX_EVAL_SIZE with --eval) and that of the size times the digits of the
    command's rationals.  The table is made on each call, so that it names
    the command functions that the module holds at that time.
    """
    return {
        "triangle": (
            "generate a triangle of connection coefficients",
            {
                "--kind": {"required": True, "choices": TRIANGLE_KINDS},
                "--n-max": {"required": True, "type": _parse_nonneg},
                "--r0": {"type": _parse_nonneg, "default": None, "help": "shift for --kind sr (default 0)"},
                "--eval": {"type": _parse_eval, "default": None, "metavar": "q=RAT,r=RAT"},
                "--format": {"choices": FORMATS, "default": "text"},
            },
            _cmd_triangle,
            ("--n-max", MAX_SYMBOLIC_SIZE, MAX_EVAL_DIGITS),
        ),
        "cauchy": (
            "print one Cauchy polynomial with a q parameter",
            {
                "--kind": {"required": True, "choices": ("first", "second")},
                "--n": {"required": True, "type": _parse_nonneg},
                "--eval": {"type": _parse_eval, "default": None, "metavar": "q=RAT,r=RAT"},
                "--format": {"choices": FORMATS, "default": "text"},
            },
            _cmd_cauchy,
            ("--n", MAX_SYMBOLIC_SIZE, MAX_EVAL_DIGITS),
        ),
        "egf": (
            "expand an exponential generating function",
            {
                "--which": {"required": True, "type": _parse_which, "metavar": "{c|chat|w:K}"},
                "--order": {"required": True, "type": _parse_nonneg},
                "--format": {"choices": FORMATS, "default": "text"},
            },
            _cmd_egf,
            ("--order", MAX_SYMBOLIC_SIZE, MAX_EVAL_DIGITS),
        ),
        "verify": (
            "run a named verification suite",
            {
                "--suite": {"required": True, "choices": SUITE_NAMES},
                "--n-max": {"required": True, "type": _parse_nonneg},
                "--shift-values": {"type": _parse_shifts, "default": None, "metavar": "RAT,RAT,..."},
            },
            _cmd_verify,
            ("--n-max", MAX_VERIFY_SIZE, MAX_VERIFY_DIGITS),
        ),
    }


def build_parser():
    """The argparse parser of the command table; it writes every help, usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qwhitney",
        description="Exact triangles and Cauchy polynomials with a q parameter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(**_SHARED_DEFAULTS)
    for name, (help_text, options, run_command, limits) in _commands().items():
        command = sub.add_parser(name, help=help_text)
        for option, kwargs in options.items():
            command.add_argument(option, **kwargs)
        command.set_defaults(run=run_command, limits=limits)
    return parser


def _dest(option: str) -> str:
    """The namespace attribute of an option, as argparse names it: --n-max is n_max."""
    return option[2:].replace("-", "_")


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The options of a plainly well-formed argv, as argparse reads them; None for any other.

    Plainly well formed: the subcommand first, then each of its options
    spelled in full and given at most once, as "--opt=value" or as
    "--opt value" with a value that does not start with "-"; each value
    passes the option's type and choices, and every required option is
    there.  Anything else, help included, is left to argparse.
    """
    commands = _commands()
    if not argv or argv[0] not in commands:
        return None
    _, options, run_command, limits = commands[argv[0]]
    values = {"command": argv[0], **_SHARED_DEFAULTS, "run": run_command, "limits": limits}
    values.update((_dest(option), kwargs.get("default")) for option, kwargs in options.items())
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option, joined, value = token.partition("=")
        kwargs = options.get(option)
        if kwargs is None or option in given:
            return None
        if not joined:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        given.add(option)
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except Exception:  # argparse calls the type again, and reports or raises what it raised
                return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[_dest(option)] = value
    if any(kwargs.get("required") and option not in given for option, kwargs in options.items()):
        return None
    return SimpleNamespace(**values)


def _join_shift_values(argv: list[str]) -> list[str]:
    """Write "--shift-values VALUE" as "--shift-values=VALUE".

    argparse reads a separate value that starts with "-" but is not a plain
    negative number, such as -1/2, as an option; the joined form it reads
    as a value.  Abbreviations of the option are joined the same way.
    """
    joined: list[str] = []
    args = iter(argv)
    for arg in args:
        if len(arg) > 2 and "--shift-values".startswith(arg):
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = _join_shift_values(sys.argv[1:] if argv is None else list(argv))
    args = _parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv, SimpleNamespace())
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    # Exact results can have any number of digits.  The interpreter's cap on
    # integer-string conversion (Python 3.11 and later) stays in force for
    # parsing, so that huge input literals are still rejected there.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        option, limit, digit_limit = args.limits
        size = getattr(args, _dest(option))
        limit = MAX_EVAL_SIZE if args.eval else limit
        if size > limit:
            raise UsageError(f"{option} {size} is above the limit {limit}")
        # Digits of the largest of |A|, |C| and D for the --eval point
        # q = A/D, r = C/D, of --r0 (sr is computed at q = 1, r = --r0), and
        # of the larger of |a| and b summed over the shift values a/b, each
        # one more pass over the shift laws.  A tie names the first.
        shifts = args.shift_values or ()
        point_digits, source = max(
            (len(str(max(map(abs, common_denominator(*args.eval))))) if args.eval else 0, "the --eval point"),
            (len(str(args.r0)) if args.r0 else 0, "--r0"),
            (sum(len(str(max(abs(s.numerator), s.denominator))) for s in shifts), "--shift-values"),
            key=lambda item: item[0],
        )
        if size * point_digits > digit_limit:
            raise UsageError(
                f"{option} {size} times the {point_digits} digits of {source}"
                f" is above the limit {digit_limit}"
            )
        code = args.run(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone.  Point standard output at devnull so that the
        # flush at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        return _EXIT_INTERRUPTED
    finally:
        if set_digits is not None:
            set_digits(digits)


def run() -> None:
    """Run ``main`` on ``sys.argv`` and exit the process with its code.

    The heap is frozen first, so the interpreter's collections at shutdown
    skip the objects that site and the package loaded, which would free
    memory the process is about to give back (README).  ``sys.exit``, not
    ``os._exit``, so that the standard streams are flushed and ``atexit``
    handlers run.
    """
    import gc

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
