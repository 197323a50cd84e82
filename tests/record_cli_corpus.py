"""The byte-identity corpus of the command line: a fixed argv list and the
sha256 of what each argv prints.

``tests/test_cli_corpus.py`` runs every argv in process and compares each
digest with ``cli_corpus.json``.  Regenerate that file only when an output is
meant to change, and name each argv whose output changed, and why, in
``CHANGES.md``:

    PYTHONPATH=src python3 tests/record_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path
from unittest import mock

from qwhitney.cli import FORMATS, main
from qwhitney.suites import suite_names
from test_cli import _EVAL_POINTS

CORPUS_PATH = Path(__file__).with_name("cli_corpus.json")

_SHIFTS = (None, "0,1/2,-3", "-1/2")

# One argv per documented usage error, plus the help texts.
_USAGE = (
    (),
    ("bogus",),
    ("--help",),
    ("triangle", "--help"),
    ("cauchy", "--help"),
    ("egf", "--help"),
    ("verify", "--help"),
    ("triangle", "--kind", "x", "--n-max", "2"),
    ("triangle", "--kind", "w"),
    ("triangle", "--kind", "w", "--n-max", "2", "--r0", "1"),
    ("triangle", "--kind", "w", "--n-max", "2", "--format", "xml"),
    ("triangle", "--kind", "w", "--n-max", "201"),
    ("triangle", "--kind", "w", "--n-max", "2001", "--eval", "q=1,r=0"),
    ("triangle", "--kind", "w", "--n-max", "51", "--eval", "q=1/1" + "0" * 200 + ",r=1"),
    ("triangle", "--kind", "sr", "--n-max", "200", "--r0", "1" + "0" * 59),
    ("cauchy", "--kind", "third", "--n", "2"),
    ("cauchy", "--kind", "first", "--n", "-3"),
    ("cauchy", "--kind", "first", "--n", "201"),
    *(
        ("cauchy", "--kind", "first", "--n", "2", "--eval", text)
        for text in ("q=1", "q=1,r=x", "q=1,q=2", "a=1,b=2", "q=1,r=1/0")
    ),
    *(
        ("cauchy", "--kind", "first", "--n", "2", "--eval", f"q={literal},r=0")
        for literal in ("1e1000000000", "1.5", "1e3", "1_000", "3/4.0")
    ),
    *(
        argv
        for literal in ("1_0", "٢", "+2", "-0", "2.0", "0x2", "")
        for argv in (
            ("triangle", "--kind", "w", "--n-max", literal),
            ("triangle", "--kind", "sr", "--n-max", "1", "--r0", literal),
            ("cauchy", "--kind", "first", "--n", literal),
            ("egf", "--which", "c", "--order", literal),
            ("egf", "--which", f"w:{literal}", "--order", "1"),
            ("verify", "--suite", "shift", "--n-max", literal),
        )
    ),
    *(("egf", "--which", which, "--order", "2") for which in ("x", "w:", "w:-1", "w:a")),
    ("egf", "--which", "c", "--order", "201"),
    ("verify", "--suite", "bogus", "--n-max", "1"),
    ("verify", "--suite", "shift", "--n-max", "201"),
    ("verify", "--suite", "shift", "--n-max", "2", "--shift-values", "1,,2"),
    ("verify", "--suite", "shift", "--n-max", "1", "--shift-values=1.5"),
)


def corpus_argvs() -> list[tuple[str, ...]]:
    """Every triangle kind x format at n in {0, 1, 2, 12}, symbolic and at each
    evaluation point; w and W at n = 60 at two evaluation points, in every
    format; cauchy and egf in every format; verify of every suite
    at n <= 6 with and without shift values; the usage errors."""
    argvs: list[tuple[str, ...]] = []
    for kind in ("w", "W", "s", "sr"):
        for r0 in ((), ("--r0", "3")) if kind == "sr" else ((),):
            for n in ("0", "1", "2", "12"):
                for fmt in FORMATS:
                    for point in (None, *_EVAL_POINTS):
                        at = ("--eval", point) if point else ()
                        argvs.append(("triangle", "--kind", kind, "--n-max", n, *r0, *at, "--format", fmt))
    # Rows long enough that a column's gcd with D repeats over many rows.
    for kind in ("w", "W"):
        for point in ("q=16/23,r=-17/29", "q=5/12,r=-7/18"):
            for fmt in FORMATS:
                argvs.append(("triangle", "--kind", kind, "--n-max", "60", "--eval", point, "--format", fmt))
    for kind in ("first", "second"):
        for n in ("0", "1", "2", "5", "12"):
            for fmt in FORMATS:
                for point in (None, *_EVAL_POINTS):
                    at = ("--eval", point) if point else ()
                    argvs.append(("cauchy", "--kind", kind, "--n", n, *at, "--format", fmt))
    for which in ("c", "chat", "w:0", "w:1", "w:3", "w:13"):
        for order in ("0", "1", "2", "6", "12"):
            for fmt in FORMATS:
                argvs.append(("egf", "--which", which, "--order", order, "--format", fmt))
    for suite in suite_names():
        for n in range(7):
            for shifts in _SHIFTS:
                extra = ("--shift-values", shifts) if shifts else ()
                argvs.append(("verify", "--suite", suite, "--n-max", str(n), *extra))
    argvs.extend(_USAGE)
    return argvs


def digest(argv: tuple[str, ...]) -> str:
    """sha256 of the exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def digests() -> dict[str, str]:
    """The digest of each corpus argv, keyed by the argv as a shell would write it."""
    # argparse wraps its usage and help texts to the terminal width, which it
    # reads from COLUMNS first.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return {shlex.join(argv): digest(argv) for argv in corpus_argvs()}


if __name__ == "__main__":
    CORPUS_PATH.write_text(json.dumps(digests(), indent=0, ensure_ascii=True) + "\n")
    print(f"wrote {CORPUS_PATH}")
