"""Source hygiene checks.

Every module-level import in ``src/``, ``tests/`` and ``scripts/`` is used.
An import counts as used when the name it binds appears anywhere else in
the module.  Package ``__init__.py`` files re-export what they import, and
``__future__`` imports bind no name, so both are skipped.

No check in ``src/`` is an ``assert`` statement or a raised
``AssertionError``: ``python -O`` strips the first, and the package reports
a failed check as ``InvariantViolation``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_module_level_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in ("src", "tests", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def assertions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"
        elif isinstance(node, ast.Assert):
            yield node.lineno, "assert"


def test_no_assertions_in_src():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, what in assertions(path)
    ]
    assert not found, "assertions in src/:\n" + "\n".join(found)
