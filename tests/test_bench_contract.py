"""What the benchmark's tracer needs of the package, checked in tier-1.

``bench/tracer.py`` wraps the public functions and listed methods of every
layer module by name, and its closed-form checks count the restrictions
made directly under ``evaluator.value``.  A deleted name it wraps makes
``install`` fail; a dispatch that calls a restriction other than through
its module attribute hides the call from the counts.  The oracle's check
that every kernel line gets one quotient counts the calls to
``fforacle.quotient_model`` made through its module attribute.
"""

import sys
from pathlib import Path

import springerbc
from springerbc import evaluator, fforacle, gf, theory
from springerbc.params import bipartition_from_text, omega_from_text

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracer  # noqa: E402


def test_traced_cold_tables_and_oracle_keep_the_counter_identities():
    tr = tracer.Tracer()
    tr.install(springerbc)
    try:
        for theory in ("sp2", "exotic"):
            evaluator.clear_cache()
            evaluator.value_table(5, theory)
            tr.episode()
        param = omega_from_text("2^2_1 1^2_0")
        report = fforacle.verify_against_formula(param, gf.field(2))
    finally:
        tr.uninstall()
        evaluator.clear_cache()
    assert report["pass"]
    extra = tr.extra
    assert extra["evaluator.memo_misses"] > 0
    assert (
        extra["evaluator.memo_misses"]
        == extra["restrict.from_value"]
        == extra["evaluator.memo_entries"]
    )
    # the oracle's own restriction and model build are seen too
    restricts = tr.calls("restrict.restrict_symplectic", "restrict.restrict_exotic")
    assert restricts == extra["restrict.from_value"] + 1
    assert tr.calls("fforacle.standard_model_symplectic") == 1
    # uninstall put every original back
    assert not hasattr(gf.FieldCtx.pow, "__wrapped__")
    assert not hasattr(evaluator.value, "__wrapped__")



def test_traced_oracle_takes_one_counted_quotient_per_kernel_line():
    cases = [
        (omega_from_text("2^2_1 1^2_0"), 2),
        (bipartition_from_text("mu=[2,1] nu=[1]"), 3),  # with empty fibres
    ]
    for param, q in cases:
        F = gf.field(q)
        model = theory.of(param).standard_model(param, F)
        lines = fforacle.line_count(q, len(gf.nullspace(F, model.N)))
        tr = tracer.Tracer()
        tr.install(springerbc)
        try:
            report = fforacle.verify_against_formula(param, F)
        finally:
            tr.uninstall()
        assert report["pass"], param
        assert tr.calls("fforacle.quotient_model") == tr.extra["fforacle.lines"] == lines
    assert report["empty_fiber"] > 0
