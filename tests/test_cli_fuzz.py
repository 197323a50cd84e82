"""Drive the command line with argv lists built from its own vocabulary.

Every argv must end in a documented exit code (0, 1 or 2) without an
uncaught exception.  Sizes stay at 3 or below, so each run is quick; sizes,
evaluation points, --r0 values and shift values near each limit run with
the commands stubbed out, so no work starts.
"""

import argparse
import contextlib
import io
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwhitney import cli
from qwhitney.cli import (
    MAX_EVAL_DIGITS,
    MAX_EVAL_SIZE,
    MAX_SYMBOLIC_SIZE,
    MAX_VERIFY_DIGITS,
    MAX_VERIFY_SIZE,
    main,
)
from qwhitney.suites import DEFAULT_SHIFTS

SIZES = ("0", "1", "2", "3")
FORMATS = ("text", "json", "csv", "latex")
POINTS = ("q=1/3,r=2/7", "q=-1,r=0", "r=2,q=5/3", "q=0,r=0", "q= 1 ,r= -1/2 ")
SHIFTS = ("0,1/2,-3", "-1/2", "7,-17/29", "2")

# Well-formed values of each subcommand's options.
COMMANDS = {
    "triangle": {
        "--kind": ("w", "W", "s", "sr"), "--n-max": SIZES, "--r0": SIZES,
        "--eval": POINTS, "--format": FORMATS,
    },
    "cauchy": {"--kind": ("first", "second"), "--n": SIZES, "--eval": POINTS, "--format": FORMATS},
    "egf": {"--which": ("c", "chat", "w:0", "w:2", "w:3"), "--order": SIZES, "--format": FORMATS},
    "verify": {
        "--suite": ("all", "shift", "cheon", "inversion", "egf"), "--n-max": SIZES,
        "--shift-values": SHIFTS, "--shift": SHIFTS,
    },
}

# Malformed values and stray tokens.
NOISE = (
    "-1", "x", "", "-h", "--help", "w:", "w:-1", "w:x", "bogus", "1/0", "1.5", "1e3", "3/4.0",
    "q=1", "q=1,r=1/0", "q=x,r=1", "q=1,q=2", "a=1,b=2", "1,,2", ",", "--n-max", "--kind",
)


def _value(valid: tuple[str, ...]):
    """A well-formed value seven times in eight, else a malformed one."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(valid if i else NOISE))


def _option(name: str, valid: tuple[str, ...]):
    """The option left out, as two arguments, or joined with "="."""
    value = _value(valid)
    return st.one_of(st.just(()), st.tuples(st.just(name), value), value.map(lambda v: (f"{name}={v}",)))


def _command(name: str, options: dict[str, tuple[str, ...]]):
    """The subcommand, then its options in any order, then perhaps a stray token."""
    groups = st.tuples(*(_option(o, valid) for o, valid in options.items())).flatmap(st.permutations)
    return st.builds(
        lambda body, extra: [name, *chain.from_iterable(body), *extra],
        groups,
        st.lists(st.sampled_from(NOISE), max_size=1),
    )


argvs = st.one_of(
    *(_command(name, options) for name, options in COMMANDS.items()),
    st.lists(st.sampled_from(tuple(COMMANDS) + NOISE), max_size=4),
)


@settings(deadline=None, max_examples=200)
@given(argvs)
def test_any_argv_ends_in_a_documented_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


# Each command's size option, with the limit it has in that mode.
LIMITS = (
    (("triangle", "--kind", "w"), "--n-max", MAX_SYMBOLIC_SIZE),
    (("triangle", "--kind", "W", "--eval", "q=1/3,r=2/7", "--format", "json"), "--n-max",
     MAX_EVAL_SIZE),
    (("triangle", "--kind", "sr", "--r0", "2", "--eval", "q=1,r=0"), "--n-max", MAX_EVAL_SIZE),
    (("cauchy", "--kind", "first"), "--n", MAX_SYMBOLIC_SIZE),
    (("cauchy", "--kind", "second", "--eval", "q=-1,r=0"), "--n", MAX_EVAL_SIZE),
    (("egf", "--which", "w:2"), "--order", MAX_SYMBOLIC_SIZE),
    (("verify", "--suite", "all"), "--n-max", MAX_VERIFY_SIZE),
)
COMMAND_NAMES = ("_cmd_triangle", "_cmd_cauchy", "_cmd_egf", "_cmd_verify")


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(LIMITS),
    st.one_of(st.integers(-3, 3), st.integers(4, 10**30)),
    st.booleans(),
)
def test_sizes_beyond_each_limit_exit_2_before_any_work(case, offset, joined):
    prefix, option, limit = case
    size = limit + offset
    size_args = (f"{option}={size}",) if joined else (option, str(size))
    started = []
    stubs = {name: lambda args: started.append(args) or 0 for name in COMMAND_NAMES}
    err = io.StringIO()
    with mock.patch.multiple(cli, **stubs), contextlib.redirect_stderr(err):
        code = main([*prefix, *size_args])
    if size <= limit:
        assert (code, len(started)) == (0, 1)
    else:
        assert (code, started) == (2, [])
        assert f"error: {option} {size} is above the limit {limit}" in err.getvalue()


# --eval points whose largest integer (|A|, |C| or D over the common
# denominator D) has exactly the given number of digits.
EVAL_POINTS_OF_DIGITS = (
    lambda d: f"q=1/1{'0' * (d - 1)},r=0",  # D = 10^(d-1)
    lambda d: f"q=1/1{'0' * (d - 1)},r=2/7",  # D = 7 * 10^(d-1)
    lambda d: f"q=-{'9' * d},r=0",  # |A| = 10^d - 1
    lambda d: f"q=3,r= -{'9' * d} ",  # |C| = 10^d - 1
    lambda d: f"r=1/{'9' * d},q=-5/{'9' * d}",
)
EVAL_COMMANDS = (
    ("triangle", "--kind", "w", "--format", "json"),
    ("triangle", "--kind", "W"),
    ("triangle", "--kind", "sr", "--r0", "2", "--format", "csv"),
    ("cauchy", "--kind", "first"),
    ("cauchy", "--kind", "second", "--format", "json"),
)


# Sizes from 3 up, so that each point stays within the digits that a
# literal on the command line may have.
@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(EVAL_COMMANDS),
    st.integers(3, MAX_EVAL_SIZE),
    st.integers(-3, 3),
    st.sampled_from(EVAL_POINTS_OF_DIGITS),
)
def test_eval_points_beyond_the_digit_limit_exit_2_before_any_work(prefix, size, offset, point):
    digits = MAX_EVAL_DIGITS // size + offset
    option = "--n" if prefix[0] == "cauchy" else "--n-max"
    started = []
    stubs = {name: lambda args: started.append(args) or 0 for name in COMMAND_NAMES}
    err = io.StringIO()
    with mock.patch.multiple(cli, **stubs), contextlib.redirect_stderr(err):
        code = main([*prefix, option, str(size), "--eval", point(digits)])
    if size * digits <= MAX_EVAL_DIGITS:
        assert (code, len(started)) == (0, 1)
    else:
        assert (code, started) == (2, [])
        want = (f"error: {option} {size} times the {digits} digits of the --eval point"
                f" is above the limit {MAX_EVAL_DIGITS}")
        assert want in err.getvalue()


# --r0 values with exactly the given number of digits.
R0_OF_DIGITS = (lambda d: "9" * d, lambda d: f"1{'0' * (d - 1)}")

# A size for --kind sr, alone or with an --eval point whose digits differ
# from those of --r0 by the given offset (at least one digit).
SR_CASES = st.one_of(
    st.tuples(st.integers(3, MAX_SYMBOLIC_SIZE), st.none()),
    st.tuples(
        st.integers(3, MAX_EVAL_SIZE),
        st.tuples(st.sampled_from(EVAL_POINTS_OF_DIGITS), st.integers(-2, 2)),
    ),
)


# The sr kind is computed at q = 1, r = --r0, so the digits of --r0 count
# toward the digit limit, with or without --eval; the longer of --r0 and
# the --eval point is the one reported.
@settings(deadline=None, max_examples=200)
@given(SR_CASES, st.integers(-3, 3), st.sampled_from(R0_OF_DIGITS))
@example((20, None), 0, R0_OF_DIGITS[0])  # 1000 digits at --n-max 20
@example((20, (EVAL_POINTS_OF_DIGITS[3], 0)), 0, R0_OF_DIGITS[0])  # --eval q=3,r=<same digits>
@example((20, None), -1, R0_OF_DIGITS[1])  # 10^498 at --n-max 20, within the limit
def test_r0_beyond_the_digit_limit_exits_2_before_any_work(case, offset, r0):
    size, with_eval = case
    digits = MAX_EVAL_DIGITS // size + offset
    argv = ["triangle", "--kind", "sr", "--n-max", str(size), "--r0", r0(digits)]
    counted, source = digits, "--r0"
    if with_eval is not None:
        point, shift = with_eval
        point_digits = max(1, digits + shift)
        argv += ["--eval", point(point_digits)]
        if point_digits >= digits:
            counted, source = point_digits, "the --eval point"
    started = []
    stubs = {name: lambda args: started.append(args) or 0 for name in COMMAND_NAMES}
    err = io.StringIO()
    with mock.patch.multiple(cli, **stubs), contextlib.redirect_stderr(err):
        code = main(argv)
    if size * counted <= MAX_EVAL_DIGITS:
        assert (code, len(started)) == (0, 1)
    else:
        assert (code, started) == (2, [])
        want = (f"error: --n-max {size} times the {counted} digits of {source}"
                f" is above the limit {MAX_EVAL_DIGITS}")
        assert want in err.getvalue()


def _run_stubbed(argv: list[str]) -> tuple[int, list, str]:
    """The exit code, the runs of a stubbed command and the error stream of main(argv)."""
    started = []
    stubs = {name: lambda args: started.append(args) or 0 for name in COMMAND_NAMES}
    err = io.StringIO()
    with mock.patch.multiple(cli, **stubs), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, started, err.getvalue()


# Shift values a/b whose largest of |a| and b has exactly the given number
# of digits.
SHIFTS_OF_DIGITS = (
    lambda d: "9" * d,
    lambda d: f"-1/{'7' * d}",
    lambda d: f"{'9' * d}/1{'0' * (d - 1)}",
)

# A size and the digits of each shift value, in total near the limit: the
# first value takes what the others, of one digit each, leave of it.
SHIFT_CASES = st.builds(
    lambda size, count, offset: (
        size,
        (max(1, MAX_VERIFY_DIGITS // size + offset - count + 1),) + (1,) * (count - 1),
    ),
    st.integers(1, MAX_VERIFY_SIZE),
    st.integers(1, 8),
    st.integers(-3, 3),
)


# Each shift value is one more pass over the shift laws, so the digits of
# the values add up.  The examples are inputs that ran long before the
# limit: one random 4000-digit fraction at --n-max 12 (36 s, against 0.3 s
# with the default shifts), one 312-digit fraction at --n-max 32 (98 s)
# and 50 one-digit values at --n-max 24, which is at the limit.
@settings(deadline=None, max_examples=200)
@given(SHIFT_CASES, st.sampled_from(SHIFTS_OF_DIGITS), st.booleans())
@example((12, (4000,)), SHIFTS_OF_DIGITS[2], False)
@example((32, (312,)), SHIFTS_OF_DIGITS[2], True)
@example((24, (1,) * 50), SHIFTS_OF_DIGITS[1], False)
@example((24, (1,) * 51), SHIFTS_OF_DIGITS[1], True)
def test_shift_values_beyond_the_digit_limit_exit_2_before_any_work(case, shift, joined):
    size, digits = case
    values = ",".join(shift(d) for d in digits)
    shift_args = [f"--shift-values={values}"] if joined else ["--shift-values", values]
    code, started, err = _run_stubbed(["verify", "--suite", "all", "--n-max", str(size), *shift_args])
    total = sum(digits)
    if size * total <= MAX_VERIFY_DIGITS:
        assert (code, len(started)) == (0, 1)
    else:
        assert (code, started) == (2, [])
        want = (f"error: --n-max {size} times the {total} digits of --shift-values"
                f" is above the limit {MAX_VERIFY_DIGITS}")
        assert want in err


# The default shifts at the largest --n-max, and the widest shift values of
# the benchmark's verify jobs (an integer of 2..9, then numerators below 29,
# 7 and 17 over those denominators) at their --n-max 12.
@pytest.mark.parametrize(
    "size, values",
    [(MAX_VERIFY_SIZE, ",".join(map(str, DEFAULT_SHIFTS))), (12, "-9,-28/29,-6/7,-16/17")],
)
def test_default_and_benchmark_shift_values_are_accepted(size, values):
    code, started, _ = _run_stubbed(["verify", "--suite", "all", "--n-max", str(size), f"--shift-values={values}"])
    assert (code, len(started)) == (0, 1)


# A value of each rational option type with the given number of digits.
RATIONAL_OF_DIGITS = {
    cli._parse_rational: lambda d: "9" * d,
    cli._parse_eval: lambda d: f"q={'9' * d},r=0",
    cli._parse_shifts: lambda d: "9" * d,
}


def _subcommands():
    (action,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices.items()


# Every option that parses a rational is counted by the digit limit of its
# subcommand: at the subcommand's size limit, one digit more than the limit
# allows exits 2 before any work, and one digit runs the command.  An
# option added without a bound fails here.
def test_every_rational_option_exits_2_before_any_work_when_too_long():
    checked = set()
    for command, parser in _subcommands():
        rational = [a for a in parser._actions if a.type in RATIONAL_OF_DIGITS]
        if not rational:
            continue
        size_option, size, digit_limit = parser.get_default("limits")
        required = []
        for a in parser._actions:
            if a.required:
                required += [a.option_strings[0], str(size) if a.option_strings[0] == size_option else a.choices[0]]
        for action in rational:
            option = action.option_strings[0]
            too_long = digit_limit // size + 1
            for digits in (1, too_long):
                value = RATIONAL_OF_DIGITS[action.type](digits)
                code, started, err = _run_stubbed([command, *required, f"{option}={value}"])
                if digits == 1:
                    assert (code, len(started)) == (0, 1), (command, option)
                else:
                    assert (code, started) == (2, []), (command, option)
                    assert f"{size_option} {size} times the" in err and option in err, err
            checked.add((command, option))
    assert {("triangle", "--eval"), ("cauchy", "--eval"), ("verify", "--shift-values")} <= checked
