import sys

import pytest

from golden_data import IOTA_PAIRS, VALUES_1, VALUES_2, VALUES_3
from reference import reference_value
import springerbc.evaluator as evaluator
import springerbc.restrict as restrict_module
import springerbc.theory as theory
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.evaluator import GROUP_ELEMENTS, value, value_table
from springerbc.params import (
    Bipartition,
    OmegaParam,
    bipartition_from_text,
    check_rank,
    enumerate_bipartitions,
    enumerate_omega,
    iota,
    omega_from_text,
)
from springerbc.partitions import Partition
from springerbc.qpoly import QPoly


def test_base_table():
    assert value(bipartition_from_text("mu=[1] nu=[]"), "id") == (1,)
    assert value(bipartition_from_text("mu=[1] nu=[]"), "s1") == (1,)
    assert value(bipartition_from_text("mu=[] nu=[1]"), "id") == (1, 1)
    assert value(bipartition_from_text("mu=[] nu=[1]"), "s1") == (1, -1)
    assert value(omega_from_text("2^1_1"), "id") == (1,)
    assert value(omega_from_text("1^2_0"), "s1") == (1, -1)


def test_rank0_and_errors():
    assert value(bipartition_from_text("mu=[] nu=[]"), "id") == (1,)
    assert value(omega_from_text(""), "s1") == (1,)
    for w in ("w0", None, "id+s1"):  # the table key is not a caller's to pass
        with pytest.raises(InvalidParam):
            value(bipartition_from_text("mu=[] nu=[1]"), w)
    with pytest.raises(InvalidParam):
        # rank-1 pair built without validation; not a real parameter
        value(OmegaParam(Partition([1, 1]), (1,)), "id")


def test_too_deep_for_the_recursion_is_invalid():
    # rank 495 already ran out of stack frames; the outermost call says so
    with pytest.raises(InvalidParam, match="rank 1000 is too deep"):
        value(bipartition_from_text("mu=[1000] nu=[]"), "id")


def _check_table(golden):
    for text, (vid, vs1) in golden.items():
        b = bipartition_from_text(text)
        assert value(b, "id") == vid, text
        assert value(b, "s1") == vs1, text


def test_golden_values_exotic():
    _check_table(VALUES_1)
    _check_table(VALUES_2)
    _check_table(VALUES_3)


def test_golden_values_symplectic_via_pairing():
    golden = {**VALUES_1, **VALUES_2, **VALUES_3}
    for sp_text, exo_text in IOTA_PAIRS:
        vid, vs1 = golden[exo_text]
        p = omega_from_text(sp_text)
        assert value(p, "id") == vid, sp_text
        assert value(p, "s1") == vs1, sp_text


def test_value_table_shapes():
    rows = value_table(1, "exotic")
    assert [(str(p), tuple(a), tuple(b)) for p, a, b in rows] == [
        ("mu=[1] nu=[]", (1,), (1,)),
        ("mu=[] nu=[1]", (1, 1), (1, -1)),
    ]
    rows = value_table(2, "sp2")
    assert len(rows) == 5
    with pytest.raises(InvalidParam):
        value_table(2, "springer")


def test_constant_term_is_one():
    for n in range(1, 6):
        for b in enumerate_bipartitions(n):
            assert value(b, "id")[0] == 1, b
            assert value(b, "s1")[0] == 1, b


def test_id_values_have_nonnegative_coefficients():
    for n in range(1, 7):
        for b in enumerate_bipartitions(n):
            assert all(c >= 0 for c in value(b, "id")), b


def _value_q1(param):
    # independent recursion through the ungraded formulas
    n = param.rank
    if n == 0:
        return 1
    if n == 1:
        return value(param, "id")(1)
    terms = theory.of(param).restrict_q1(param)
    return sum(coeff(1) * _value_q1(sub) for sub, coeff in terms.terms.items())


def test_value_at_q1_matches_ungraded_recursion():
    for n in range(1, 6):
        for p in enumerate_omega(n):
            assert value(p, "id")(1) == _value_q1(p), p
        for b in enumerate_bipartitions(n):
            assert value(b, "id")(1) == _value_q1(b), b


@pytest.mark.parametrize("theory", ["sp2", "exotic"])
def test_cold_table_restricts_once_per_memo_entry(monkeypatch, theory):
    # the identities the benchmark's traced runs check on their counters
    calls = []
    for name in ("restrict_symplectic", "restrict_exotic"):
        original = getattr(restrict_module, name)

        def counted(param, original=original):
            calls.append(param)
            return original(param)

        monkeypatch.setattr(restrict_module, name, counted)
    memo = evaluator._memo
    evaluator.clear_cache()
    assert evaluator._memo is memo and not memo
    value_table(6, theory)
    assert len(calls) == len(memo) > 0
    evaluator.clear_cache()
    assert evaluator._memo is memo and not memo


@pytest.mark.parametrize("theory", ["sp2", "exotic"])
def test_cold_table_evaluates_each_formula_once_per_parameter(monkeypatch, theory):
    # a table row carries both values under one memo entry, so a cold table
    # restricts each parameter once and stores one entry for it
    memo = evaluator._memo
    calls = []
    for name in ("restrict_symplectic", "restrict_exotic"):
        original = getattr(restrict_module, name)

        def counted(param, original=original):
            calls.append(param)
            return original(param)

        monkeypatch.setattr(restrict_module, name, counted)
    try:
        for n in range(9):
            calls.clear()
            evaluator.clear_cache()
            value_table(n, theory)
            distinct = {param for param, _ in memo}
            assert len(calls) == len(set(calls)) == len(memo) == len(distinct)
            assert set(calls) == distinct
    finally:
        evaluator.clear_cache()


@pytest.mark.parametrize("theory", ["sp2", "exotic"])
@pytest.mark.parametrize("k", [1, 7, 40])
def test_a_failing_restriction_leaves_an_exact_memo(monkeypatch, theory, k):
    evaluator.clear_cache()
    expected = value_table(6, theory)
    name = {"sp2": "restrict_symplectic", "exotic": "restrict_exotic"}[theory]
    original = getattr(restrict_module, name)
    seen = []

    def failing(param):
        seen.append(param)
        if len(seen) == k:
            raise InvariantViolation(f"injected at {param}")
        return original(param)

    monkeypatch.setattr(restrict_module, name, failing)
    evaluator.clear_cache()
    try:
        with pytest.raises(InvariantViolation, match="injected"):
            value_table(6, theory)
        assert len(evaluator._memo) < k  # at most one entry per restriction
        monkeypatch.undo()
        # the memo the failed table left behind, then a cold one
        assert value_table(6, theory) == expected
        evaluator.clear_cache()
        assert value_table(6, theory) == expected
    finally:
        monkeypatch.undo()
        evaluator.clear_cache()


@pytest.mark.parametrize("theory", ["sp2", "exotic"])
def test_table_slots_widen_mid_table_to_exact_values(monkeypatch, theory):
    # 8-bit slots overflow within the rank-6 table: the slots widen, the
    # memo is cleared and the row is computed again
    monkeypatch.setattr(evaluator, "_slot", 8)
    evaluator.clear_cache()
    try:
        rows = value_table(6, theory)
        assert evaluator._slot > 8
    finally:
        monkeypatch.undo()
        evaluator.clear_cache()
    for param, vid, vs1 in rows:
        for w, got in (("id", vid), ("s1", vs1)):
            evaluator.clear_cache()
            assert type(got) is QPoly
            assert got == value(param, w), (param, w)
    evaluator.clear_cache()


@pytest.mark.parametrize("theory", ["sp2", "exotic"])
def test_table_entries_keep_the_single_value_bounds(theory):
    # the fold changes no bound, so the slots widen at the same ranks: every
    # table entry holds the packed id entry, the s1 bound is the id bound,
    # and id - 2q * (reg part) is the packed s1 entry
    memo, slot = evaluator._memo, evaluator._slot
    evaluator.clear_cache()
    try:
        for n in range(2, 11):
            for p, _, _ in value_table(n, theory):
                value(p, "id")
                value(p, "s1")
        assert evaluator._slot == slot
        rows = [(p, entry) for (p, key), entry in memo.items() if key is evaluator._TABLE]
        for p, (packed, bound, reg) in rows:
            assert (packed, bound) == memo[p, "id"], p
            s1, s1_bound = memo[p, "s1"]
            assert bound == s1_bound, p
            assert packed - (reg << (slot + 1)) == s1, p
        assert len(memo) == 3 * len(rows) > 0
    finally:
        evaluator.clear_cache()


def _all_values(max_rank):
    return {
        (param, w): value(param, w)
        for n in range(max_rank + 1)
        for param in enumerate_omega(n) + enumerate_bipartitions(n)
        for w in ("id", "s1")
    }


def test_narrow_slots_widen_to_exact_values(monkeypatch):
    # 8-bit slots overflow from rank 4 on: each overflowing value widens
    # the slots and is computed again, and every value stays exact
    monkeypatch.setattr(evaluator, "_slot", 8)
    evaluator.clear_cache()
    try:
        got = _all_values(7)
        assert evaluator._slot > 8
    finally:
        # the memo holds one width, so restore the slot before clearing it
        monkeypatch.undo()
        evaluator.clear_cache()
    memo = {}
    for (param, w), v in got.items():
        assert type(v) is QPoly
        assert v == reference_value(param, w, memo), (param, w)


@pytest.mark.parametrize("theory", ["sp2", "exotic"])
def test_traced_counter_identities(monkeypatch, theory):
    # every sub-value lookup, hit or miss, goes through the module
    # attribute ``value``, which the benchmark's tracer wraps
    memo = evaluator._memo
    counts = {"calls": 0, "top": 0, "misses": 0, "restricts": 0, "miss_terms": 0}
    depth = [0]
    original_value = evaluator.value

    def wrapped_value(param, w, **kwargs):
        counts["calls"] += 1
        counts["top"] += depth[0] == 0
        miss = param.rank >= 2 and (param, w) not in memo
        counts["misses"] += miss
        depth[0] += 1
        try:
            return original_value(param, w, **kwargs)
        finally:
            depth[0] -= 1

    for name in ("restrict_symplectic", "restrict_exotic"):
        original = getattr(restrict_module, name)

        def counted(param, original=original):
            terms = original(param)
            counts["restricts"] += 1
            counts["miss_terms"] += len(terms)
            return terms

        monkeypatch.setattr(restrict_module, name, counted)
    monkeypatch.setattr(evaluator, "value", wrapped_value)
    evaluator.clear_cache()
    try:
        rows = evaluator.value_table(6, theory)
        assert counts["top"] == len(rows)
        assert counts["misses"] == counts["restricts"] == len(memo) > 0
        assert counts["calls"] == counts["top"] + counts["miss_terms"]
    finally:
        evaluator.clear_cache()


@pytest.mark.parametrize("w", GROUP_ELEMENTS)
@pytest.mark.parametrize("sp2_first", [True, False], ids=["sp2-first", "exotic-first"])
def test_the_theories_share_one_memo_without_mixing(w, sp2_first):
    # the same field tuples in both theories: (lam, chi) = (mu, nu)
    sp2 = OmegaParam(Partition([2, 2]), (1,))
    exotic = Bipartition(Partition([2, 2]), Partition([1]))
    cold = {}
    for param in (sp2, exotic):
        evaluator.clear_cache()
        cold[param] = value(param, w)
    assert cold[sp2] != cold[exotic]
    evaluator.clear_cache()
    for param in (sp2, exotic) if sp2_first else (exotic, sp2):
        assert value(param, w) == cold[param]


def test_table_size_is_checked_before_enumerating():
    # both theories have one parameter per bipartition, and their number
    # grows with the rank, so a cap on the rank caps the table
    counts = []
    for n in range(9):
        check_rank(n)
        counts.append(len(enumerate_bipartitions(n)))
        assert len(enumerate_omega(n)) == counts[-1]
    assert counts == sorted(set(counts))
    check_rank(20)  # 24 842 parameters, the cap itself
    above = "^rank 21 is above the largest table rank, 20$"
    for theory_name in ("sp2", "exotic"):
        with pytest.raises(InvalidParam, match=above):
            value_table(21, theory_name)
    with pytest.raises(InvalidParam, match="^rank must be >= 0, got -1$"):
        check_rank(-1)
    with pytest.raises(InvalidParam, match="above the largest table rank"):
        value_table(10**9, "exotic")


def _memoized():
    """Every function of the package that keeps a cache, found by its
    ``cache_clear``, in a fixed order."""
    found = {
        f"{module.__name__}.{name}": obj
        for module in list(sys.modules.values())
        if module is not None and module.__name__.startswith("springerbc.")
        for name, obj in vars(module).items()
        if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__
    }
    return dict(sorted(found.items()))


# a rank-12 parameter whose cold values, with its image under iota, make
# every kind of part move and coefficient
RANK12 = omega_from_text("8^1_4 4^1_2 2^4_1 1^4_0")


def test_the_memoized_functions_are_the_part_moves_and_coefficients():
    assert list(_memoized()) == [
        "springerbc.partitions._drop",
        "springerbc.partitions._lower",
        "springerbc.partitions._shift",
        "springerbc.qpoly._step",
        "springerbc.qpoly.geometric_sum",
        "springerbc.qpoly.monomial",
    ]
    assert set(_memoized().values()) == set(evaluator._MEMOIZED)
    # bounded: a long run of queries without clear_cache cannot grow them
    for fn in evaluator._MEMOIZED:
        assert fn.cache_info().maxsize is not None


@pytest.mark.parametrize("w", GROUP_ELEMENTS)
def test_clear_cache_empties_every_memoized_function(w):
    evaluator.clear_cache()
    for param in (RANK12, iota(RANK12)):
        value(param, w)
    sizes = {name: fn.cache_info().currsize for name, fn in _memoized().items()}
    assert all(sizes.values()), sizes  # both theories together make every move
    evaluator.clear_cache()
    sizes = {name: fn.cache_info().currsize for name, fn in _memoized().items()}
    assert set(sizes.values()) == {0}, sizes


@pytest.mark.parametrize("param", [RANK12, iota(RANK12)], ids=["sp2", "exotic"])
def test_cold_queries_make_the_same_cache_misses(param):
    # nothing memoized outlives clear_cache, so a repeated cold query pays
    # for every move and coefficient again, as a fresh process would
    infos = []
    for _ in range(2):
        evaluator.clear_cache()
        value(param, "s1")
        infos.append([fn.cache_info() for fn in evaluator._MEMOIZED])
    evaluator.clear_cache()
    assert infos[0] == infos[1]
    assert sum(info.misses for info in infos[0]) > 0
