"""Source hygiene checks.

Every module-level import in ``src/``, ``tests/`` and ``scripts/`` is used.
An import counts as used when the name it binds appears anywhere else in
the module.  Package ``__init__.py`` files re-export what they import, and
``__future__`` imports bind no name, so both are skipped.

No test module imports another: references that several test modules
read live in plain modules (``tests/reference.py``, ``tests/listmat.py``),
so no ``tests/test_*.py`` imports a ``test_*`` module.

No function body in ``src/`` contains an import: every import is at
module level, where the unused-import check above sees it.

``python -O`` runs the same code in ``src/``: no module there holds an
``assert`` statement or a raised ``AssertionError`` (``-O`` strips the
first, and the package reports a failed check as ``InvariantViolation``),
the name ``__debug__`` (``-O`` compiles out what it guards), a read of
``sys.flags`` or the string ``PYTHONOPTIMIZE`` (either would let code read
the level).  So each check that holds in-process holds under ``-O`` too,
and no test needs to re-run one in a ``python -O`` child.

The package raises two exception types, the two that ``errors.py``
defines: every ``raise`` in ``src/`` names ``InvalidParam`` (bad input) or
``InvariantViolation`` (a broken result), or re-raises bare.

Every public module-level function and class in ``src/`` has a caller in
``src/``, ``scripts/``, ``bench/`` or the acceptance suite: no API serves
only its own unit test.  A caller names it by ``from ... import`` or as
``module.name``; a bare name counts only inside the defining module.

Every private module-level function, class and constant in ``src/`` is
read somewhere in ``src/``: a helper whose last caller is gone goes with it.

No module in ``src/`` imports a concurrency module (``threading``,
``_thread``, ``multiprocessing``, ``concurrent``, ``asyncio``): the package
runs on one thread, and the evaluator's memo relies on that.

Importing the package, or its command line, in a fresh isolated
interpreter loads none of ``dataclasses``, ``inspect``, ``ast``, ``dis``
and ``tokenize`` beyond what the interpreter's start-up already loaded:
together they cost about three quarters of the package's cold start.
"""

import ast
import subprocess
import sys
import textwrap
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


def imported_names(source):
    """The (line, name) of each module that this module text imports, and
    of each name it imports from a module; a relative module keeps its
    leading dots."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
            names += [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield node.lineno, name


def imports_of_tests(source):
    """The imported names of this module text with a part that starts
    ``test_``: the test modules it imports."""
    for line, name in imported_names(source):
        if any(part.startswith("test_") for part in name.split(".")):
            yield line, name


def test_no_test_module_imports_another():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        for line, name in imports_of_tests(path.read_text())
    ]
    assert not found, "test modules imported by tests:\n" + "\n".join(found)


def test_the_test_import_rule_reports_each_form():
    source = textwrap.dedent(
        """
        import test_cli
        from test_fast_paths import reference_value
        import springerbc.params as test_alias
        from tests import test_gf
        from reference import shift
        """
    )
    assert sorted(imports_of_tests(source)) == [
        (2, "test_cli"),
        (3, "test_fast_paths"),
        (5, "test_gf"),
    ]


def imports_in_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            )
    return sorted(found)


def test_no_imports_in_function_bodies_in_src():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in imports_in_functions(path)
    ]
    assert not found, "imports inside functions:\n" + "\n".join(found)


def optimize_dependent(source):
    """The (line, kind) of each place where this module text depends on
    ``python -O``: an ``assert`` or a raised ``AssertionError``, the name
    ``__debug__``, a read of ``sys.flags`` or the string
    ``PYTHONOPTIMIZE``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"
        elif isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "flags"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "sys"
            and any(alias.name == "flags" for alias in node.names)
        ):
            yield node.lineno, "sys.flags"
        elif isinstance(node, ast.Constant) and "PYTHONOPTIMIZE" in str(node.value):
            yield node.lineno, "PYTHONOPTIMIZE"


def test_no_assertions_in_src():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, what in optimize_dependent(path.read_text())
    ]
    assert not found, "code that python -O changes, in src/:\n" + "\n".join(found)


def test_the_optimize_rule_reports_each_kind():
    source = textwrap.dedent(
        """
        import os
        import sys
        from sys import flags
        assert x
        if __debug__:
            raise AssertionError("unreachable")
        level = sys.flags.optimize
        level = os.environ["PYTHONOPTIMIZE"]
        """
    )
    assert sorted(optimize_dependent(source)) == [
        (4, "sys.flags"),
        (5, "assert"),
        (6, "__debug__"),
        (7, "raise AssertionError"),
        (8, "sys.flags"),
        (9, "PYTHONOPTIMIZE"),
    ]


ERROR_TYPES = {"InvalidParam", "InvariantViolation"}


def foreign_raises(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in ERROR_TYPES):
                yield node.lineno, ast.unparse(node.exc)


def test_src_raises_only_the_two_error_types():
    found = [
        f"{path.relative_to(ROOT)}:{line}: raise {what}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, what in foreign_raises(path)
    ]
    assert not found, "raises of other types in src/:\n" + "\n".join(found)
    errors = ast.parse((ROOT / "src" / "springerbc" / "errors.py").read_text())
    defined = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    assert defined == ERROR_TYPES


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


def references(path):
    """What a module reads: its bare names in load context, its ``owner.attr``
    pairs (owner the last component of the expression before the dot) and
    the names it imports with ``from ... import``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bare, qualified, imported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                qualified.add((owner.id, node.attr))
            elif isinstance(owner, ast.Attribute):
                qualified.add((owner.attr, node.attr))
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
    return bare, qualified, imported


def test_every_public_name_has_a_caller_outside_the_tests():
    # a bare name is a caller only in the defining module: elsewhere a
    # local variable of the same name would pass for a call
    src = sorted((ROOT / "src" / "springerbc").glob("*.py"))
    src = [path for path in src if path.name != "__init__.py"]
    callers = src + sorted((ROOT / "scripts").glob("*.py"))
    callers += sorted((ROOT / "bench").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    refs = {path: references(path) for path in callers}
    qualified = set().union(*(q for _, q, _ in refs.values()))
    imported = set().union(*(i for _, _, i in refs.values()))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in src
        for line, name in public_definitions(path)
        if name not in refs[path][0]
        and (path.stem, name) not in qualified
        and name not in imported
        and name not in NO_CALLER_ON_PURPOSE
    ]
    assert not found, "no caller outside the tests:\n" + "\n".join(found)


def private_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_name_is_read_in_src():
    src = sorted((ROOT / "src" / "springerbc").glob("*.py"))
    refs = {path: references(path) for path in src}
    qualified = set().union(*(q for _, q, _ in refs.values()))
    imported = set().union(*(i for _, _, i in refs.values()))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in src
        for line, name in private_definitions(path)
        if name not in refs[path][0]
        and (path.stem, name) not in qualified
        and name not in imported
    ]
    assert not found, "private names read nowhere in src/:\n" + "\n".join(found)


CONCURRENCY = {"threading", "_thread", "multiprocessing", "concurrent", "asyncio"}


def test_src_starts_no_threads():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in imported_names(path.read_text())
        if name.split(".")[0] in CONCURRENCY
    ]
    assert not found, "concurrency imports in src/:\n" + "\n".join(found)


SLOW_TO_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

IMPORT_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import springerbc
import springerbc.cli
print(*sorted(set(sys.modules) - before))
"""


def test_import_loads_no_slow_stdlib_module():
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_CHILD, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"springerbc", "springerbc.cli"} <= loaded
    assert not loaded & SLOW_TO_IMPORT, sorted(loaded & SLOW_TO_IMPORT)
