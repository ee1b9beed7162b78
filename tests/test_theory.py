"""The theory records, and the imports they depend on."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import springerbc
from springerbc import fforacle
from springerbc.gf import field
from springerbc.params import iota
from springerbc.theory import EXOTIC, SP2, THEORIES, of

SRC = Path(springerbc.__file__).resolve().parent


def test_every_module_imports_on_its_own():
    # theory and fforacle import each other, so each module is imported
    # first, into an empty package that skips __init__, and then the package
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert "theory" in modules
    script = textwrap.dedent(
        f"""
        import importlib, sys, types
        failed = []
        for name in {modules!r}:
            for key in [k for k in sys.modules if k.split(".")[0] == "springerbc"]:
                del sys.modules[key]
            pkg = types.ModuleType("springerbc")
            pkg.__path__ = [{str(SRC)!r}]
            sys.modules["springerbc"] = pkg
            try:
                importlib.import_module("springerbc." + name)
            except Exception as exc:
                failed.append(f"{{name}}: {{exc!r}}")
        for key in [k for k in sys.modules if k.split(".")[0] == "springerbc"]:
            del sys.modules[key]
        sys.path.insert(0, {str(SRC.parent)!r})
        import springerbc.theory
        print(failed)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_record_serves_its_parameters(name):
    th = THEORIES[name]
    assert th.name == name
    for n in range(5):
        for p in th.enumerate(n):
            assert type(p) is th.param_type and of(p) is th
    assert sorted(th.rank1, key=lambda p: p.sort_key()) == th.enumerate(1)


def test_rank1_parameters_correspond_under_iota():
    assert tuple(iota(p) for p in SP2.rank1) == EXOTIC.rank1


@pytest.mark.parametrize("name, q, attr", [
    ("sp2", 2, "chi_invariant"),
    ("exotic", 3, "exotic_invariant"),
])
def test_invariant_recovers_the_parameter_of_its_model(name, q, attr, monkeypatch):
    th = THEORIES[name]
    for n in range(5):
        for p in th.enumerate(n):
            assert th.invariant(th.standard_model(p, field(q))) == p
    # read off fforacle at call time, so that a wrapped invariant is called
    monkeypatch.setattr(fforacle, attr, lambda model, memo=None: ("wrapped", model))
    assert th.invariant("model") == ("wrapped", "model")
