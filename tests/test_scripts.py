"""Run the scripts under scripts/ end to end, each in its own interpreter,
and the command line too where the test is about the pipe it writes to or
the memory an input could make it take."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# stdout block-buffered, as it is on a pipe unless the environment says not
BUFFERED = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=ENV,
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


def test_oracle_sweep_summary_counts_the_lines_of_its_reports():
    done = run_script("oracle_sweep.py", "--max-n", "3", "--exotic-fields", "3")
    assert done.returncode == 0, done.stderr
    reports = [json.loads(line) for line in done.stdout.splitlines()]
    walked = sum(sum(r["tally"].values()) + r["empty_fiber"] for r in reports)
    assert any(r["empty_fiber"] for r in reports)
    match = re.fullmatch(
        r"# 0 failures, [0-9.]+s, (\d+) kernel lines, (\d+) lines/s\n", done.stderr
    )
    assert match, done.stderr
    assert int(match[1]) == walked
    assert int(match[2]) > 0


def test_restrict_pairs_times_both_sides_on_the_same_calls():
    src = str(ROOT / "src")
    done = run_script("restrict_pairs.py", src, src, "--pairs", "1")
    assert done.returncode == 0, done.stderr
    row, summary = map(json.loads, done.stdout.splitlines())
    assert (row["pair"], row["first"]) == (1, "parent")
    assert summary["pairs"] == 1 and summary["restrict_calls"] > 0
    for metric in ("point_sp2_s", "restrict_s"):
        assert set(row[metric]) == {"parent", "change"}
        assert all(t > 0 for t in row[metric].values())
        assert summary[metric]["change_won"] in ("0 of 1", "1 of 1")
        # one pair: each side's three quartiles are its one time
        for side in ("parent", "change"):
            assert summary[metric][f"{side}_quartiles"] == [row[metric][side]] * 3
        assert summary[metric]["verdict"] in ("gain", "REGRESSION", "same")
    # no pair to summarise is refused before either tree loads
    done = run_script("restrict_pairs.py", src, src, "--pairs", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: --pairs must be >= 1, got 0\n")


def test_restrict_pairs_times_the_exotic_kernel():
    src = str(ROOT / "src")
    done = run_script("restrict_pairs.py", src, src, "--theory", "exotic", "--pairs", "1")
    assert done.returncode == 0, done.stderr
    row, summary = map(json.loads, done.stdout.splitlines())
    assert set(row) == {"pair", "first", "point_exotic_s", "restrict_s"}
    assert summary["restrict_calls"] > 0
    for metric in ("point_exotic_s", "restrict_s"):
        assert all(t > 0 for t in row[metric].values())
        assert set(summary[metric]) == {
            "parent_quartiles", "change_quartiles", "change_won", "verdict"
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle_sweep.py", "--max-n", "1", "--sp2-fields", "3"],  # odd field
        ["oracle_sweep.py", "--max-n", "1", "--exotic-fields", "6"],  # no field
        ["character_tables.py", "--theory", "sp2", "--n", "-1"],
        ["character_tables.py", "--theory", "exotic", "--n", "0"],
        ["character_tables.py", "--theory", "exotic", "--n", "30"],
        ["oracle_sweep.py", "--max-n", "30"],
        # a field of the wrong characteristic after one that sweeps
        ["oracle_sweep.py", "--max-n", "2", "--exotic-fields", "4"],
        ["oracle_sweep.py", "--max-n", "2", "--sp2-fields", "2", "9"],
    ],
    ids=["sp2_field_3", "exotic_field_6", "negative_rank", "zero_rank",
         "oversized_rank", "oversized_sweep", "exotic_field_4_after_sp2",
         "sp2_field_9_after_2"],
)
def test_bad_input_exits_2_without_traceback(argv):
    done = run_script(*argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_oracle_sweep_names_the_oracle_when_the_rank_is_too_large():
    done = run_script("oracle_sweep.py", "--max-n", "21")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: rank 21 is above the largest oracle rank, 20\n"


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


# A few characters that once expanded to a list of 10^8 entries, or a
# matrix model of dimension 800 or 6000, before any check ran.
TOO_MANY_PARTS = "parameter '1^100000000_0' has more than 1000000 parts"
OVERSIZED = [
    ("iota --param 1^100000000_0", TOO_MANY_PARTS),
    ("paving --param 1^100000000_0", TOO_MANY_PARTS),
    ("restrict --theory sp2 --param 1^100000000_0", TOO_MANY_PARTS),
    ("oracle --theory sp2 --param 1^100000000_0 --q 2", TOO_MANY_PARTS),
    (
        "symbol --mu [] --nu [] --r 100000000 --s 50000000 --m 50000000",
        "m=50000000 makes symbol rows of more than 1000000 parts",
    ),
    (
        "oracle --theory exotic --mu [400] --nu [] --q 3",
        "rank 400 is above the largest oracle rank, 20",
    ),
    (
        "oracle --theory exotic --mu [3000] --nu [] --q 3",
        "rank 3000 is above the largest oracle rank, 20",
    ),
]


@pytest.mark.parametrize("line,message", OVERSIZED, ids=[c[:40] for c, _ in OVERSIZED])
def test_oversized_input_exits_2_quickly_in_bounded_memory(line, message):
    # the child's address space is capped at 1 GiB, so a regression fails
    # with a MemoryError or the timeout instead of filling the host's memory
    done = subprocess.run(
        [sys.executable, "-m", "springerbc.cli", *line.split()],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=10,
        preexec_fn=_cap_memory,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, first",
    [
        # one print of about 300 kB, more than a pipe holds
        (["-m", "springerbc.cli", "enumerate", "--theory", "exotic", "--n", "18"],
         "mu=[18] nu=[]"),
        # about 180 kB, printed line by line
        ([str(ROOT / "scripts" / "character_tables.py"), "--theory", "exotic", "--n", "9"],
         "# restriction identities, rank 9"),
        # a sweep of some seconds; unbuffered, so its first report reaches
        # the pipe while the rest still runs
        (["-u", str(ROOT / "scripts" / "oracle_sweep.py"), "--max-n", "4"],
         '{"param": "2^1_1"'),
    ],
    ids=["cli", "character_tables", "oracle_sweep"],
)
def test_closed_pipe_exits_1_quietly(argv, first):
    # as ``| head -1`` does: read one line, then close the pipe
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=BUFFERED,
    )
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert line.startswith(first)
    assert (proc.returncode, err) == (1, "")


def test_reader_gone_before_the_flush():
    # the output waits in stdout's buffer until the flush, which finds the
    # pipe closed; the flush at exit must then not raise again
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "springerbc.cli", "value", "--theory", "sp2",
             "--param", "2^2_1", "--at", "id"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=BUFFERED,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")
