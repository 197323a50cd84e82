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
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .poly import BiPoly, common_denominator

# json, and the modules of the triangles, the Cauchy polynomials, the series
# and the verification suites, are imported by the subcommands that use
# them, so that a job loads only what it runs.

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


# Largest size a command accepts.  A symbolic result of size n (a triangle,
# the triangle behind a Cauchy polynomial, an EGF to order n) holds about
# n^3/6 coefficients at once; with --eval only two rows of n + 1 integers
# are held at a time.
MAX_SYMBOLIC_SIZE = 200
MAX_EVAL_SIZE = 2000

# Largest --n-max of verify: the symbolic suites grow like n^4, and verify
# --suite all ends in about 4 s at n = 32, 9 s at n = 40 and 19 s at n = 48
# (README).
MAX_VERIFY_SIZE = 48

# Largest size times digits of an --eval point q = A/D, r = C/D over the
# least common denominator D, counted in the largest of |A|, |C| and D.
# An entry of size n has about n times that many digits (plus n*log10(n)
# from the factors k*A + C), and a row holds n + 1 of them, so this bounds
# the memory of a row: about 2000 * 10^4 digits at MAX_EVAL_SIZE.  The
# points in use are far below it: 3 digits at n = 300 in the benchmark,
# and D = 10^200 at n <= 40 in the tests.
MAX_EVAL_DIGITS = 10_000

# Largest --n-max of verify times the digits of its --shift-values, summed
# over the values, each one more pass over the shift laws.  The slowest
# input it accepts, 25 one-digit fractions at n = 48, took 41 s against
# 17 s for the default shifts (README).
MAX_VERIFY_DIGITS = 1200


class UsageError(Exception):
    """Semantic command-line error; maps to exit code 2."""


# "a" or "a/b" only: Fraction alone would also read decimals and exponents,
# and expand a literal such as 1e1000000000 into a huge integer.
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def _parse_rational(text: str) -> Fraction:
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than int() converts
    raise argparse.ArgumentTypeError(f"invalid rational {text!r}")


def _parse_eval(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    values: dict[str, Fraction] = {}
    for part in parts:
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key in values or key not in ("q", "r"):
            raise argparse.ArgumentTypeError(f"expected q=RAT,r=RAT, got {text!r}")
        values[key] = _parse_rational(raw)
    if set(values) != {"q", "r"}:
        raise argparse.ArgumentTypeError(f"expected q=RAT,r=RAT, got {text!r}")
    return values["q"], values["r"]


def _parse_shifts(text: str) -> tuple[Fraction, ...]:
    items = text.split(",")
    if any(not item.strip() for item in items):
        raise argparse.ArgumentTypeError(f"expected RAT,RAT,..., got {text!r}")
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
    raise argparse.ArgumentTypeError(f"invalid nonnegative integer {text!r}")


def _parse_which(text: str) -> str:
    """The normalized label: c, chat, or w:K with K written in plain digits."""
    if text in ("c", "chat"):
        return text
    if text.startswith("w:"):
        return f"w:{_parse_nonneg(text[2:])}"
    raise argparse.ArgumentTypeError(f"expected c, chat, or w:K, got {text!r}")


def _poly_str(p: BiPoly, fmt: str) -> str:
    return p.to_latex() if fmt == "latex" else p.to_text()


def _json_head(header: dict) -> str:
    """The header as compact JSON, left open after an "entries" key for the caller to fill."""
    import json

    return json.dumps(header, separators=(",", ":"))[:-1] + ',"entries":'


def _eval_rows(values, fmt: str):
    """One string per row of Decimal (num, den) pairs, in the text, csv or json layout.

    A den object that ``decimal_rows`` shares down a column n - k is printed
    once: each column keeps its last den with the text after the numerator,
    and a row is joined from these pieces, not copied into each cell.
    """
    one = Decimal(1)  # compares with a Decimal faster than the int 1 does
    as_json = fmt == "json"
    ends: list = []  # column n - k: its last den and the text after the numerator
    for n, row in enumerate(values):
        pre, sep = (f"{n},", ",") if fmt == "csv" else (f"n={n} k=", ": ")
        ends.append((None, ""))
        parts = []
        for k, (a, b) in enumerate(row):
            end = ends[n - k]
            if end[0] is not b:
                end = ends[n - k] = (b, f"{b}}}" if as_json else f"/{b}\n" if b != one else "\n")
            head = f'{"," if k else "["}{{"num":{a!s},"den":' if as_json else f"{pre}{k}{sep}{a!s}"
            parts += (head, end[1])
        text = "".join(parts + ["]"] if as_json else parts)
        del parts  # not held while the row is written
        yield text


def _cmd_triangle(args: argparse.Namespace) -> int:
    from .triangles import TriangleKind, decimal_rows, triangle

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
        rows = _eval_rows(decimal_rows(base, n_max, *point), fmt)
    else:
        tri = triangle(TriangleKind(kind), n_max, r0 if kind == "sr" else None)
        if fmt == "json":
            rows = ("[" + ",".join([p.to_json() for p in tri.row(n)]) + "]" for n in range(n_max + 1))
        else:
            cell = "{},{},{}\n" if fmt == "csv" else "n={} k={}: {}\n"
            rows = (
                "".join([cell.format(n, k, _poly_str(p, fmt)) for k, p in enumerate(tri.row(n))])
                for n in range(n_max + 1)
            )

    # Rows are written as they are made, so only one is held at a time.
    write = sys.stdout.write
    if fmt == "json":
        write(_json_head(header) + "[")
        for n, row in enumerate(rows):
            write(("," if n else "") + row)
        write("]}\n")
        return 0
    if fmt == "csv":
        write("n,k,value\n")
    for row in rows:
        write(row)
    return 0


def _cmd_cauchy(args: argparse.Namespace) -> int:
    from .cauchy import CauchyKind, cauchy_poly, cauchy_value

    kind = CauchyKind(args.kind)
    fmt = args.format
    header: dict[str, object] = {"kind": args.kind, "n": args.n}
    if args.eval is None:
        poly = cauchy_poly(kind, args.n)
        out = poly.to_json() if fmt == "json" else _poly_str(poly, fmt)
    else:
        q0, rv = args.eval
        header["eval"] = {"q": str(q0), "r": str(rv)}
        value = cauchy_value(kind, args.n, q0, rv)
        out = f'{{"num":{value.numerator},"den":{value.denominator}}}' if fmt == "json" else str(value)

    if fmt == "json":
        print(_json_head(header) + out + "}")
    elif fmt == "csv":
        print(f"n,value\n{args.n},{out}")
    else:
        print(out)
    return 0


def _cmd_egf(args: argparse.Namespace) -> int:
    from .series import cauchy_first_egf, cauchy_second_egf, whitney_column_egf

    which = args.which
    order = args.order
    if which == "c":
        s = cauchy_first_egf(order)
    elif which == "chat":
        s = cauchy_second_egf(order)
    else:
        s = whitney_column_egf(int(which[2:]), order)
    fmt = args.format

    if fmt == "json":
        entries = ",".join([s.coeff(n).to_json() for n in range(order + 1)])
        print(_json_head({"kind": which, "order": order}) + f"[{entries}]}}")
    elif fmt == "csv":
        print("n,value")
        for n in range(order + 1):
            print(f"{n},{s.coeff(n).to_text()}")
    else:
        for n in range(order + 1):
            print(f"t^{n}: {_poly_str(s.coeff(n), fmt)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwhitney",
        description="Exact triangles and Cauchy polynomials with a q parameter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's limits, checked in main: its size option, that option's
    # limit (MAX_EVAL_SIZE with --eval) and that of the size times the digits
    # of its rationals.  Commands without --eval, --r0 or --shift-values read None.
    parser.set_defaults(eval=None, r0=None, shift_values=None)

    p_tri = sub.add_parser("triangle", help="generate a triangle of connection coefficients")
    p_tri.add_argument("--kind", required=True, choices=TRIANGLE_KINDS)
    p_tri.add_argument("--n-max", required=True, type=_parse_nonneg)
    p_tri.add_argument("--r0", type=_parse_nonneg, default=None, help="shift for --kind sr (default 0)")
    p_tri.add_argument("--eval", type=_parse_eval, default=None, metavar="q=RAT,r=RAT")
    p_tri.add_argument("--format", choices=FORMATS, default="text")
    p_tri.set_defaults(run=_cmd_triangle, limits=("--n-max", MAX_SYMBOLIC_SIZE, MAX_EVAL_DIGITS))

    p_cau = sub.add_parser("cauchy", help="print one Cauchy polynomial with a q parameter")
    p_cau.add_argument("--kind", required=True, choices=("first", "second"))
    p_cau.add_argument("--n", required=True, type=_parse_nonneg)
    p_cau.add_argument("--eval", type=_parse_eval, default=None, metavar="q=RAT,r=RAT")
    p_cau.add_argument("--format", choices=FORMATS, default="text")
    p_cau.set_defaults(run=_cmd_cauchy, limits=("--n", MAX_SYMBOLIC_SIZE, MAX_EVAL_DIGITS))

    p_egf = sub.add_parser("egf", help="expand an exponential generating function")
    p_egf.add_argument("--which", required=True, type=_parse_which, metavar="{c|chat|w:K}")
    p_egf.add_argument("--order", required=True, type=_parse_nonneg)
    p_egf.add_argument("--format", choices=FORMATS, default="text")
    p_egf.set_defaults(run=_cmd_egf, limits=("--order", MAX_SYMBOLIC_SIZE, MAX_EVAL_DIGITS))

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_ver.add_argument("--n-max", required=True, type=_parse_nonneg)
    p_ver.add_argument("--shift-values", type=_parse_shifts, default=None, metavar="RAT,RAT,...")
    p_ver.set_defaults(run=_cmd_verify, limits=("--n-max", MAX_VERIFY_SIZE, MAX_VERIFY_DIGITS))

    return parser


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
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_shift_values(argv))
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
        size = getattr(args, option[2:].replace("-", "_"))
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


if __name__ == "__main__":
    sys.exit(main())
