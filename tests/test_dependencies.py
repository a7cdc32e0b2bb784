"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import conicfree

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "conicfree"}


def _imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]
        elif (
            # linalg imports numpy on first use, through _DeferredModule("numpy")
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_DeferredModule"
        ):
            for arg in node.args:
                yield node.lineno, arg.value.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    # scipy and sympy may be installed next to it, so an import of either
    # would pass locally and fail for users who have only the declared deps
    package = Path(conicfree.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) >= 10
    roots = {root for path in sources for _, root in _imported_roots(path)}
    assert "numpy" in roots  # the deferred import is seen
    found = {
        f"{path.name}:{line} imports {root}"
        for path in sources
        for line, root in _imported_roots(path)
        if root not in ALLOWED
    }
    assert not found
