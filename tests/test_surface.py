"""The names ``qwhitney`` exports at the top level, and the one module that
reads the representation of a ``BiPoly``."""

import ast
from pathlib import Path

import qwhitney

PUBLIC_NAMES = [
    "BiPoly",
    "CauchyKind",
    "ONE",
    "Q",
    "R",
    "Series",
    "ZERO",
    "__version__",
    "cauchy_first",
    "cauchy_first_egf",
    "cauchy_first_integral",
    "cauchy_first_via_stirling",
    "cauchy_number",
    "cauchy_second",
    "cauchy_second_egf",
    "cauchy_second_integral",
    "egf_term",
    "q_cauchy_number",
    "r_stirling_first",
    "rising_factorial",
    "stirling_first",
    "stirling_first_row",
    "whitney_column_egf",
    "whitney_first",
    "whitney_first_cheon",
    "whitney_first_values",
    "whitney_second",
    "whitney_second_values",
]


def test_all_is_the_public_surface():
    assert sorted(qwhitney.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 28
    for name in PUBLIC_NAMES:
        assert hasattr(qwhitney, name), name


# What only poly.py may touch: the packed-key, common-denominator form of a
# BiPoly.  _terms and _den are read as attributes; the others are also
# names that an import could bind.
BIPOLY_ATTRIBUTES = {"_terms", "_den"}
POLY_INTERNALS = {"_of", "_of_products", "_accumulate", "_key", "FIELD", "_DR_MASK", "_Q_KEY", "_R_KEY"}


def _internals_used(tree: ast.AST) -> list[tuple[int, str]]:
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in BIPOLY_ATTRIBUTES | POLY_INTERNALS:
            used.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in POLY_INTERNALS:
            used.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            used += [(node.lineno, alias.name) for alias in node.names if alias.name in POLY_INTERNALS]
    return sorted(used)


def test_only_poly_reads_the_bipoly_representation():
    package = Path(qwhitney.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "poly.py" in modules
    found = {
        path.name: used
        for path in modules
        if path.name != "poly.py" and (used := _internals_used(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_internals_check_sees_each_kind_of_use():
    source = "from .poly import _key, FIELD as F\np._terms\nBiPoly._of(t, d)\nx = _DR_MASK\n"
    assert _internals_used(ast.parse(source)) == [
        (1, "FIELD"), (1, "_key"), (2, "_terms"), (3, "_of"), (4, "_DR_MASK")
    ]


def _imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(top-level function, or "" for module level; module) for each import, with package-relative
    names made absolute and ``from M import N`` listed as both M and M.N."""
    found = []
    for top in tree.body:
        scope = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                found += [(scope, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["qwhitney" if node.level else "", node.module]))
                found += [(scope, base)] + [(scope, f"{base}.{alias.name}") for alias in node.names]
    return found


def test_the_cli_prints_from_the_rows_and_runs_the_suites_in_verify_only():
    # The series products are the egf suite's oracle, not a route the CLI prints.
    imports = _imports(ast.parse((Path(qwhitney.__file__).parent / "cli.py").read_text()))
    assert [scope for scope, module in imports if module == "qwhitney.series"] == []
    assert {scope for scope, module in imports if module == "qwhitney.suites"} == {"_cmd_verify"}


def test_the_imports_check_sees_each_kind_of_import():
    source = "import qwhitney.series\ndef f():\n    from . import series\n    from .suites import run_suite\n"
    assert _imports(ast.parse(source)) == [
        ("", "qwhitney.series"), ("f", "qwhitney"), ("f", "qwhitney.series"),
        ("f", "qwhitney.suites"), ("f", "qwhitney.suites.run_suite"),
    ]


# Literals of the command line's output layout: the brackets and separators
# of a JSON triangle, the "entries" key of the JSON head, and the text labels
# "n=N k=K: " and "t^N: ".
LAYOUT_LITERALS = ("[[", "],[", "]]", ',"entries":', "n=", "t^")


def _layout_scopes(tree: ast.Module) -> set[str]:
    """The top-level functions (or "" for module level) with a string constant,
    not a docstring, that holds a layout literal; an f-string's literal parts count."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for top in tree.body:
        scope = top.name if isinstance(top, ast.FunctionDef) else ""
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and any(literal in node.value for literal in LAYOUT_LITERALS)
            ):
                found.add(scope)
    return found


def test_only_the_writer_knows_the_cli_output_layout():
    tree = ast.parse((Path(qwhitney.__file__).parent / "cli.py").read_text())
    assert _layout_scopes(tree) == {"_write_rows"}


def test_the_layout_check_sees_each_kind_of_literal():
    source = (
        'HEAD = \',"entries":\'\n'
        'def rows():\n    """n=N k=K: [[...]]"""\n    return "],["\n'
        'def label(n):\n    return f"t^{n}: "\n'
        'def plain():\n    return "[1, 2] n = 3"\n'
    )
    assert _layout_scopes(ast.parse(source)) == {"", "rows", "label"}
