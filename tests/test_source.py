"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alf"


def _nodes():
    """(file name, node) for every AST node of every package module."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # invariants are AlfErrors: `python -O` strips assert statements
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_bare_value_error_raised_in_package():
    # a refused input or precondition is an AlfError, which the CLI turns into one JSON line and an exit code;
    # `except ValueError` clauses that parse outside input are not raises and stay
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and raised_name(node) == "ValueError"
    ]
    assert found == []
