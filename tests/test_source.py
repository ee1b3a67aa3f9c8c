"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "alf"


def _modules():
    """(file name, AST) for every package module."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _nodes():
    """(file name, node) for every AST node of every package module."""
    for name, tree in _modules():
        for node in ast.walk(tree):
            yield name, node


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


def test_no_module_imports_mpmath_at_import_time():
    # `import alf` loads no mpmath: only the extended tiers and mpf values need it, and they import it inside
    # a function, on first use (`precision.lazy_mpmath`)
    def import_time_nodes(node):
        # a function body runs when the function is called, not when its module is imported
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from import_time_nodes(child)

    def imports_mpmath(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            return False
        return any(name == "mpmath" or name.startswith("mpmath.") for name in names)

    found = [f"{name}:{node.lineno}" for name, tree in _modules() for node in import_time_nodes(tree)
             if imports_mpmath(node)]
    assert found == []


def test_every_lazy_mpmath_binding_is_read():
    # `_LazyMpmath.__getattr__` binds the mpmath names alf calls; a name no module reads, as
    # `lazy_mpmath.<name>` or through an alias such as `lib = lazy_mpmath`, is dead code
    (lazy,) = [node for _, node in _nodes() if isinstance(node, ast.ClassDef) and node.name == "_LazyMpmath"]
    (update,) = [node for node in ast.walk(lazy)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "update"]
    bound = {keyword.arg for keyword in update.keywords}
    assert bound

    aliases = {"lazy_mpmath"} | {
        target.id for _, node in _nodes() if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name) and node.value.id == "lazy_mpmath"
        for target in node.targets if isinstance(target, ast.Name)
    }
    read = {node.attr for _, node in _nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert sorted(bound - read) == []
