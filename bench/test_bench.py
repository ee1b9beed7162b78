"""Tests of the benchmark itself: seeded inputs, the calibration kernel, the
tracer, the closed forms it relies on and its refusal to run a capped memo.

    python3 -m pytest bench -q
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import springerbc  # noqa: E402
from springerbc import evaluator, fforacle, gf, params  # noqa: E402

import calibration  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PARAM_TYPES = (params.OmegaParam, params.Bipartition)


@pytest.fixture(scope="module")
def point_by_seed():
    return {seed: workloads.Point(springerbc, seed) for seed in (3, 4)}


def query_list(wl, passes=3):
    return [q for k in range(passes) for q in wl.pass_input(k)]


def test_same_seed_same_point_queries(point_by_seed):
    again = workloads.Point(springerbc, 3)
    assert query_list(again) == query_list(point_by_seed[3])


def test_other_seed_other_point_queries(point_by_seed):
    assert query_list(point_by_seed[3]) != query_list(point_by_seed[4])


def test_point_pass_queries_the_grid_and_twins(point_by_seed):
    wl = point_by_seed[3]
    assert len(set(wl.grid)) == workloads.POINT_PER_RANK * len(workloads.POINT_RANKS)
    for n in workloads.POINT_RANKS:
        assert sum(p.rank == n for p in wl.grid) == workloads.POINT_PER_RANK
    for k in range(3):
        queries = wl.pass_input(k)
        sp2 = [(str(p), w) for theory, p, w in queries if theory == "sp2"]
        assert sorted(sp2) == sorted((str(p), w) for p in wl.grid for w in ("id", "s1"))
        assert all(
            exo == ("exotic", params.iota(p), w)
            for (_, p, w), exo in zip(queries[::2], queries[1::2])
        )


def test_point_program_gets_only_parameter_objects(point_by_seed, monkeypatch):
    seen = []
    monkeypatch.setattr(evaluator, "clear_cache", lambda: None)
    monkeypatch.setattr(evaluator, "value", lambda param, w: seen.append((param, w)) or 0)
    wl = point_by_seed[4]
    res = wl.run_pass(wl.pass_input(0))
    assert len(seen) == res.attempted == 4 * len(workloads.POINT_RANKS) * workloads.POINT_PER_RANK
    assert all(isinstance(p, PARAM_TYPES) and w in ("id", "s1") for p, w in seen)


def test_oracle_program_gets_only_parameter_objects(monkeypatch):
    seen = []

    def fake_verify(param, F):
        seen.append((param, F))
        return {"pass": True, "tally": {}, "empty_fiber": 0}

    monkeypatch.setattr(fforacle, "verify_against_formula", fake_verify)
    wl = workloads.Oracle(springerbc, 1)
    res = wl.run_pass(wl.pass_input(0))
    assert len(seen) == 76
    assert all(isinstance(p, PARAM_TYPES) and isinstance(F, gf.FieldCtx) for p, F in seen)
    # the fake reports no lines, so every line-count check fails
    assert res.failed == 76


def test_calibration_kernel_is_fixed():
    assert calibration.kernel() == calibration.KERNEL_RESULT
    assert calibration.sample() > 0


def test_calibrator_clock_leaves_out_the_kernel():
    with calibration.Calibrator(interval_s=0.02) as cal:
        t0, c0 = time.perf_counter(), cal.clock()
        while len(cal.samples) < 5:
            sum(range(1000))
        t1, c1 = time.perf_counter(), cal.clock()
    assert cal.kernel_s >= sum(cal.samples[:5]) > 0
    assert abs((t1 - t0) - (c1 - c0) - cal.kernel_s) < 0.01
    n = len(cal.samples)
    time.sleep(0.05)
    assert len(cal.samples) == n  # the timer stopped with the block


def test_scale_of_uses_the_samples_near_a_call():
    cal = calibration.Calibrator()
    cal.stamps, cal.samples = [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 8.0]
    # the window reaches WINDOW_S = 0.5 s either side of the call: 0.9 to 2.1
    assert cal.scale_of(1.4, 0.2) == pytest.approx(calibration.REF_S / (8 / 3))
    assert cal.scale_of(10.0, 1.0) == pytest.approx(calibration.scale(cal.samples))


def test_oracle_order_depends_on_seed():
    a, b = workloads.Oracle(springerbc, 1), workloads.Oracle(springerbc, 2)
    assert a.pass_input(0) != b.pass_input(0)
    assert sorted(map(str, (p for _, p, _, _ in a.pass_input(0)))) == sorted(
        map(str, (p for _, p, _, _ in b.pass_input(0)))
    )


@pytest.mark.parametrize("theory,q", [("sp2", 2), ("exotic", 3)])
def test_kernel_dim_closed_form(theory, q):
    F = gf.field(q)
    for n in range(1, 4):
        if theory == "sp2":
            models = [(p, fforacle.standard_model_symplectic(p, F)) for p in params.enumerate_omega(n)]
        else:
            models = [(b, fforacle.standard_model_exotic(b, F)) for b in params.enumerate_bipartitions(n)]
        for p, model in models:
            assert workloads.kernel_dim(p) == len(gf.nullspace(F, model.N))


def test_self_times_add_up_to_wall_time():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.wrap("qpoly.leaf", lambda: None, aggregated=True)
    mid = tr.wrap("restrict.mid", lambda: leaf() or leaf(), aggregated=False)
    top = tr.wrap("evaluator.top", lambda: mid(), aggregated=False)
    top()
    # clock reads: top 0, mid 1, leaf 2-3, leaf 4-5, mid 6, top 7
    assert tr.self_s == {"qpoly.leaf": 2.0, "restrict.mid": 3.0, "evaluator.top": 2.0}
    assert tr.root[2] == 7.0 == sum(tr.self_s.values())
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["restrict.mid", "evaluator.top"]  # aggregated calls keep no span
    assert list(tr.span_parent) == [tr.span_id[1], 0]


def test_install_wraps_every_namespace_and_uninstall_restores():
    original_value, original_new = evaluator.value, springerbc.QPoly.__new__
    tr = tracer.Tracer()
    tr.install(springerbc)
    try:
        assert evaluator.value is not original_value
        assert springerbc.value is evaluator.value
        evaluator.clear_cache()
        p = params.enumerate_omega(4)[0]
        v = evaluator.value(p, "id")
        tr.episode()
    finally:
        tr.uninstall()
    assert evaluator.value is original_value and springerbc.value is original_value
    assert springerbc.QPoly.__new__ is original_new
    evaluator.clear_cache()
    assert v == evaluator.value(p, "id")
    checks = tracer.closed_form_checks(tr, 1, 0)
    assert all(checks.values()), checks
    assert tr.extra["evaluator.memo_misses"] > 0


def test_capped_memo_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("SPRINGERBC_MEMO_CAP", "10")
    rc = run.main(["--workload", "point", "--seed", "1", "--seconds", "1"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_compare_verdicts():
    import compare

    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    assert compare.verdict(parent, faster, 1.0, 0.1, lower=True) == "gain"
    assert compare.verdict(parent, slower, 0.0, 0.1, lower=True) == "REGRESSION"
    assert compare.verdict(parent, [x * 1.05 for x in parent], 0.0, 0.1, lower=True) == "same"
    # higher-is-better metrics read the other way round
    assert compare.verdict(parent, slower, 1.0, 0.1, lower=False) == "gain"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [x * 1.2 for x in noisy], 0.0, 0.1, lower=True) == "unresolved"
