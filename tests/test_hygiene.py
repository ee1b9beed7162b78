"""Source hygiene checks.

Every module-level import in ``src/``, ``tests/`` and ``scripts/`` is used.
An import counts as used when the name it binds appears anywhere else in
the module.  Package ``__init__.py`` files re-export what they import, and
``__future__`` imports bind no name, so both are skipped.

No check in ``src/`` is an ``assert`` statement or a raised
``AssertionError``: ``python -O`` strips the first, and the package reports
a failed check as ``InvariantViolation``.

Every public module-level function and class in ``src/`` has a caller in
``src/``, ``scripts/``, ``bench/`` or the acceptance suite: no API serves
only its own unit test.
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


# Kept on purpose with no caller outside the tests: the oracle's raw tally
# as a library call, with no formula input (the CLI and the scripts compare
# it with the formula through verify_against_formula).
NO_CALLER_ON_PURPOSE = {"brute_force_restriction"}


def public_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.lineno, node.name


def referenced_names(path):
    """Every name a module reads, as a name, an attribute or an import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_has_a_caller_outside_the_tests():
    src = sorted((ROOT / "src" / "springerbc").glob("*.py"))
    src = [path for path in src if path.name != "__init__.py"]
    callers = src + sorted((ROOT / "scripts").glob("*.py"))
    callers += sorted((ROOT / "bench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    used = {name for path in callers for name in referenced_names(path)}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in src
        for line, name in public_definitions(path)
        if name not in used and name not in NO_CALLER_ON_PURPOSE
    ]
    assert not found, "no caller outside the tests:\n" + "\n".join(found)
