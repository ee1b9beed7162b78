"""Run the scripts under scripts/ end to end, each in its own interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )


def test_character_tables():
    done = run_script("character_tables.py", "--theory", "exotic", "--n", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "# restriction identities, rank 2"
    assert "Res(mu=[1,1] nu=[]) = (q^2 + q)·(mu=[1] nu=[]) + (mu=[] nu=[1])" in lines
    assert "# character values, rank 2" in lines


def test_oracle_sweep():
    done = run_script("oracle_sweep.py", "--max-n", "2")
    assert done.returncode == 0, done.stderr
    first = json.loads(done.stdout.splitlines()[0])
    assert (first["param"], first["q"], first["pass"]) == ("2^1_1", 2, True)
    assert done.stderr.startswith("# 0 failures")
