#!/usr/bin/env python3
"""springerbc benchmark: one workload, measured end to end or traced per module.

    python3 bench/run.py --workload table|point|oracle --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports springerbc from that
checkout's ``src/`` and nothing else, and exits 2 without a result when
there is none.  The load is a closed loop: one process, one thread, each
operation starts when the previous one returned, and the oracle runs with
``jobs=1`` (a process pool on a small shared host would measure the
scheduler).  Passes repeat until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their
times are in reference seconds: a calibration kernel runs from a timer
every 0.1 s, outside the operations' clocks, and each call's raw time is
scaled by the host speed it measured around that call (set-up time by the
kernel timed in each set-up child; see calibration.py).  Medians over
passes are reported; the raw figures go into the provenance.  ``--trace
1`` times a few untraced passes, then repeats the same pass with every
springerbc module wrapped (see tracer.py), and prints the per-layer
metrics per pass, the tracing overhead and the closed-form checks on the
counters.  The last stdout line is the result; the line before it carries
the provenance.  Both are also appended to ``--results`` (one JSON line per
run) for ``bench/compare.py``, and a traced run writes the spans of its
first traced pass next to it.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracer as tracing
from workloads import ORACLE_SWEEPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
FIELDS = sorted({q for *_, q in ORACLE_SWEEPS})
SETUP_REPEATS = 21

# Set-up as a fresh process pays it: import the package and build the
# finite-field tables the oracle uses.  Run in a child, timed inside it,
# between calibration samples taken in the same child.
SETUP_CODE = """
import sys, time
src, bench = sys.argv[1], sys.argv[2]
sys.path.insert(0, bench)
import calibration
calib = [calibration.sample() for _ in range(3)]
sys.path.insert(0, src)
t0 = time.perf_counter()
import springerbc
from springerbc.gf import field
for q in map(int, sys.argv[3:]):
    field(q)
dt = time.perf_counter() - t0
calib += [calibration.sample() for _ in range(3)]
if not springerbc.__file__.startswith(src):
    sys.exit(f"imported springerbc from {springerbc.__file__}")
print(repr(dt), repr(calibration.scale(calib)))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    if not (SRC / "springerbc" / "__init__.py").is_file():
        raise BenchError(f"no springerbc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import springerbc
    import springerbc.cli  # noqa: F401  (every module, so tracing sees all namespaces)

    if not Path(springerbc.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported springerbc from {springerbc.__file__}")
    return springerbc


def measure_setup():
    """Median over SETUP_REPEATS fresh processes, after one untimed warm-up
    that compiles the bytecode, scaled by the calibration in each child;
    and the raw median."""
    bench = Path(__file__).resolve().parent
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(bench), *map(str, FIELDS)]
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise BenchError(f"set-up child failed: {out.stderr.strip()}")
        if i:
            dt, scale = map(float, out.stdout.split())
            scaled.append(dt * scale)
            raw.append(dt)
    return statistics.median(scaled), statistics.median(raw), len(raw)


def field_build_s(sb):
    """In-process time to build the oracle's field tables (median of 5)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for q in FIELDS:
            sb.gf.FieldCtx(q)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(wl, seconds, inputs):
    """Run passes on ``inputs(k)`` for about ``seconds``: at least one, and
    none that would end past the deadline if it took as long as the last."""
    passes = []
    start = last = time.perf_counter()
    while True:
        passes.append(wl.run_pass(inputs(len(passes))))
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            return passes
        last = now


def percentile_ms(samples, pct):
    """``pct``-th percentile in ms, inclusive interpolation; with the count
    of samples above it."""
    cut = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return cut * 1e3, sum(1 for s in samples if s > cut)


def timings(passes, scale):
    """Timing metrics of a run whose calls took ``scale(start, seconds)``
    reference seconds per second; with the percentiles' sample counts."""
    scaled = [[(th, dt * scale(t0, dt)) for th, t0, dt in p.ops] for p in passes]
    sp2 = [sum(s for th, s in ops if th == "sp2") for ops in scaled]
    exotic = [sum(s for th, s in ops if th == "exotic") for ops in scaled]
    rates = [p.items / (a + b) for p, a, b in zip(passes, sp2, exotic)]
    ops = [s for pass_ops in scaled for _, s in pass_ops]
    p50, p50_beyond = percentile_ms(ops, 50)
    p90, p90_beyond = percentile_ms(ops, 90)
    metrics = {
        "sp2_s": (statistics.median(sp2), "s"),
        "exotic_s": (statistics.median(exotic), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
    }
    samples = {
        "sp2_s": len(passes),
        "exotic_s": len(passes),
        "op_p50_ms": {"samples": len(ops), "beyond": p50_beyond},
        "op_p90_ms": {"samples": len(ops), "beyond": p90_beyond},
    }
    return metrics, samples


def end_to_end(wl, seconds):
    setup_s, setup_raw_s, setup_n = measure_setup()
    with calibration.Calibrator() as cal:
        wl.clock = cal.clock
        passes = run_passes(wl, seconds, wl.pass_input)
    scaled, samples = timings(passes, cal.scale_of)
    raw, _ = timings(passes, lambda start, seconds: 1.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        **scaled,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    prov = {
        "passes": len(passes),
        "pass_s": [p.total_s for p in passes],
        "calibration": {
            "ref_s": calibration.REF_S,
            "interval_s": cal.interval_s,
            "samples": len(cal.samples),
            "harmonic_mean_s": statistics.harmonic_mean(cal.samples),
        },
        "raw": {"setup_s": setup_raw_s, **{k: v for k, (v, _) in raw.items()}},
        "samples": {"setup_s": setup_n, **samples},
        "tracing_overhead": None,
    }
    return metrics, passes, prov


def traced(wl, seconds, spans_path):
    build_s = field_build_s(wl.sb)
    # every pass repeats the first input, made before tracing starts
    first = wl.pass_input(0)
    plain = run_passes(wl, seconds / 4, lambda k: first)
    tr = tracing.Tracer()
    wl.episode = tr.episode
    tr.install(wl.sb)
    try:
        # spans of the first traced pass are enough to see its call tree
        passes = [wl.run_pass(first)]
        tr.keep_spans = False
        left = seconds - sum(p.total_s for p in plain + passes)
        if left > passes[0].total_s:
            passes += run_passes(wl, left, lambda k: first)
    finally:
        tr.uninstall()
        wl.episode = lambda: None
    n = len(passes)
    metrics = tracing.per_layer_metrics(tr, n, build_s)
    checks = tracing.closed_form_checks(tr, n, wl.lines_per_pass)
    plain_s = statistics.median(p.total_s for p in plain)
    traced_s = statistics.median(p.total_s for p in passes)
    prov = {
        "passes": len(plain) + n,
        "untraced_passes": len(plain),
        "traced_passes": n,
        "closed_form_checks": checks,
        "tracing_overhead": {
            "untraced_pass_s": plain_s,
            "traced_pass_s": traced_s,
            "overhead_s": traced_s - plain_s,
            "overhead_share": (traced_s - plain_s) / plain_s,
        },
        "spans": tr.write_spans(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, plain + passes, prov, sum(not ok for ok in checks.values())


def git_head():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=OUT / "results.jsonl")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if "SPRINGERBC_MEMO_CAP" in os.environ:
            raise BenchError("SPRINGERBC_MEMO_CAP is set; a capped memo is another program")
        sb = load_package()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    wl = WORKLOADS[args.workload](sb, args.seed)
    OUT.mkdir(exist_ok=True)
    check_failures = 0
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        metrics, passes, prov, check_failures = traced(wl, args.seconds, spans)
    else:
        metrics, passes, prov = end_to_end(wl, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + check_failures
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_head": git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_model": "closed loop, 1 client, 1 thread",
        "jobs": 1,
        "SPRINGERBC_MEMO_CAP": "unset",
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        **prov,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as out:
        out.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
