"""The README's examples and API names, run against the package."""

import builtins
import doctest
import importlib
import re
import shlex
from pathlib import Path

import pytest

import qwhitney
from qwhitney.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_quick_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert result.attempted == 8
    assert result.failed == 0


def _cli_examples() -> list[tuple[str, str]]:
    """(command line, expected output) of each "$ qwhitney ..." example in a sh block."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            if command.startswith("qwhitney "):
                examples.append((command, output.rstrip("\n") + "\n"))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_every_cli_example_is_collected():
    assert len(CLI_EXAMPLES) == 9


@pytest.mark.parametrize("command, output", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(capsys, command, output):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == output


def _list_after(heading: str) -> str:
    """The bulleted list that follows a line of the README."""
    start = TEXT.index("\n- ", TEXT.index(heading))
    return TEXT[start:TEXT.index("\n\n", start)]


def _resolve(name: str) -> bool:
    """Whether a name the README gives is there: a builtin, a dotted path
    from a module, a name importable from qwhitney, or a method of a class
    that is."""
    if hasattr(builtins, name):
        return True
    if "." in name:
        module, _, attr = name.rpartition(".")
        return hasattr(importlib.import_module(module), attr)
    if hasattr(qwhitney, name):
        return True
    return any(hasattr(getattr(qwhitney, cls), name) for cls in ("BiPoly", "Series"))


# Backticked identifiers, with or without an argument list; the single
# letters are the variables q, r and x.
API_LIST = _list_after("Highlights of the public API")
API_NAMES = sorted(
    {name for name in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", API_LIST) if len(name) > 1}
)
CLI_CONSTANTS = sorted(set(re.findall(r"`(MAX_\w+)`", TEXT)))


def test_the_readme_names_the_api():
    assert {"BiPoly", "qwhitney.triangles.decimal_rows", "eval_at", "integrate01"} <= set(API_NAMES)
    assert CLI_CONSTANTS == [
        "MAX_EVAL_DIGITS", "MAX_EVAL_SIZE", "MAX_SYMBOLIC_SIZE", "MAX_VERIFY_DIGITS", "MAX_VERIFY_SIZE",
    ]


@pytest.mark.parametrize("name", API_NAMES)
def test_api_name_exists(name):
    assert _resolve(name), name


@pytest.mark.parametrize("name", CLI_CONSTANTS)
def test_cli_constant_exists(name):
    assert hasattr(importlib.import_module("qwhitney.cli"), name)
