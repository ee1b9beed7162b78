"""The restriction formulas: golden tables, targets and coefficients, the
q = 1 forms, and the guards of both case analyses.  The kernels' terms and
their order are checked against ``reference``'s plain formulas in
``test_fast_paths``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import springerbc.restrict as restrict_module
from golden_data import (
    EXOTIC_RESTRICTION_2,
    EXOTIC_RESTRICTION_3,
    IOTA_PAIRS,
    SP2_RESTRICTION_2,
)
from reference import unsorted
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.params import (
    Bipartition,
    OmegaParam,
    _violations,
    bipartition_from_text,
    bipartition_to_text,
    enumerate_bipartitions,
    enumerate_omega,
    iota,
    iota_inv,
    omega_from_text,
    psi,
    validate_omega,
)
from springerbc.partitions import Partition, underlying_set
from springerbc.qpoly import QPoly, ZERO
from springerbc.restrict import (
    CharSum,
    check_equivalence,
    restrict_exotic,
    restrict_exotic_q1,
    restrict_symplectic,
    restrict_symplectic_q1,
)


def exotic_charsum(table):
    return CharSum(
        {bipartition_from_text(k): QPoly(v) for k, v in table.items()}
    )


def sp2_charsum(table):
    return CharSum({omega_from_text(k): QPoly(v) for k, v in table.items()})


def test_golden_exotic_tables():
    for src, table in {**EXOTIC_RESTRICTION_2, **EXOTIC_RESTRICTION_3}.items():
        got = restrict_exotic(bipartition_from_text(src))
        assert got == exotic_charsum(table), src


def test_golden_sp2_table_rank2():
    for src, table in SP2_RESTRICTION_2.items():
        got = restrict_symplectic(omega_from_text(src))
        assert got == sp2_charsum(table), src


def test_golden_sp2_table_rank3_via_bijection():
    # the rank-3 rows transported through the inverse bijection
    for src, table in EXOTIC_RESTRICTION_3.items():
        p = iota_inv(bipartition_from_text(src))
        expected = CharSum(
            {
                iota_inv(bipartition_from_text(k)): QPoly(v)
                for k, v in table.items()
            }
        )
        assert restrict_symplectic(p) == expected, src


def test_iota_pairing_table():
    for sp_text, exo_text in IOTA_PAIRS:
        assert iota(omega_from_text(sp_text)) == bipartition_from_text(exo_text)
        assert iota_inv(bipartition_from_text(exo_text)) == omega_from_text(sp_text)


def test_rank1_restrictions():
    assert restrict_symplectic(omega_from_text("2^1_1")).items() == [
        (omega_from_text(""), QPoly((1,)))
    ]
    assert restrict_symplectic(omega_from_text("1^2_0")).items() == [
        (omega_from_text(""), QPoly((1, 1)))
    ]
    assert restrict_exotic(bipartition_from_text("mu=[1] nu=[]")).items() == [
        (bipartition_from_text("mu=[] nu=[]"), QPoly((1,)))
    ]
    assert restrict_exotic(bipartition_from_text("mu=[] nu=[1]")).items() == [
        (bipartition_from_text("mu=[] nu=[]"), QPoly((1, 1)))
    ]


def test_rank0_rejected():
    with pytest.raises(InvalidParam):
        restrict_symplectic(omega_from_text(""))
    with pytest.raises(InvalidParam):
        restrict_exotic(bipartition_from_text("mu=[] nu=[]"))


def test_rank_drop_and_validity():
    for n in range(1, 6):
        for p in enumerate_omega(n):
            for sub in restrict_symplectic(p).terms:
                assert sub.rank == n - 1
                assert validate_omega(sub.lam, sub.chi_map()) == []
        for b in enumerate_bipartitions(n):
            for sub in restrict_exotic(b).terms:
                assert sub.rank == n - 1


def test_coefficients_positive_at_prime_powers():
    for n in range(1, 7):
        for p in enumerate_omega(n):
            for coeff in restrict_symplectic(p).terms.values():
                assert all(coeff(q) > 0 for q in (2, 3, 4, 5)), (p, coeff)
        for b in enumerate_bipartitions(n):
            for coeff in restrict_exotic(b).terms.values():
                assert all(coeff(q) > 0 for q in (2, 3, 4, 5)), (b, coeff)


def test_q1_matches_graded():
    for n in range(1, 13):
        for p in enumerate_omega(n):
            assert restrict_symplectic(p).at_q1() == restrict_symplectic_q1(p), p
        for b in enumerate_bipartitions(n):
            assert restrict_exotic(b).at_q1() == restrict_exotic_q1(b), b


def test_q1_examples():
    got = restrict_symplectic_q1(omega_from_text("2^2_1"))
    assert got == sp2_charsum({"2^1_1": (1,), "1^2_0": (1,)})
    got = restrict_symplectic_q1(omega_from_text("1^4_0"))
    assert got == sp2_charsum({"1^2_0": (4,)})
    got = restrict_symplectic_q1(omega_from_text("2^1_1 1^2_0"))
    assert got == sp2_charsum({"2^1_1": (2,), "1^2_0": (1,)})
    got = restrict_exotic_q1(bipartition_from_text("mu=[1] nu=[1]"))
    assert got == exotic_charsum({"mu=[1] nu=[]": (1,), "mu=[] nu=[1]": (1,)})
    got = restrict_exotic_q1(bipartition_from_text("mu=[] nu=[1,1]"))
    assert got == exotic_charsum({"mu=[] nu=[1]": (4,)})
    got = restrict_exotic_q1(bipartition_from_text("mu=[1,1] nu=[]"))
    assert got == exotic_charsum({"mu=[1] nu=[]": (2,), "mu=[] nu=[1]": (1,)})


def test_symplectic_line_count_sum():
    # total coefficient mass counts the rational points of a projective space
    for n in range(1, 5):
        for p in enumerate_omega(n):
            total = sum(restrict_symplectic(p).terms.values(), ZERO)
            d = len(p.lam)
            for q in (2, 4):
                assert total(q) == (q**d - 1) // (q - 1), (p, q)


def test_check_equivalence_small():
    for n in range(1, 5):
        report = check_equivalence(n)
        assert report.passed
        assert len(report.rows) == len(enumerate_omega(n))
        assert all(detail == "" for _, _, detail in report.rows)


def test_charsum_collects_like_terms():
    b = bipartition_from_text("mu=[1] nu=[]")
    cs = CharSum()
    cs.add(b, QPoly((1, 1)))
    cs.add(b, QPoly((0, 2)))
    assert cs.terms[b] == (1, 3)
    cs.add(b, QPoly((-1, -3)))
    assert not cs  # cancelled to zero


def test_charsum_term_order_is_enumeration_order():
    cs = restrict_exotic(bipartition_from_text("mu=[1,1] nu=[1]"))
    got = [bipartition_to_text(param) for param, _ in cs.items()]
    assert got == ["mu=[1,1] nu=[]", "mu=[1] nu=[1]", "mu=[] nu=[2]"]


def test_case_analysis_guards_raise():
    with pytest.raises(InvariantViolation, match="cases 3 and 4 both hold at r=1"):
        restrict_exotic(Bipartition(unsorted((1, 2, 1)), Partition([2])))
    with pytest.raises(InvariantViolation, match="below"):
        restrict_exotic(Bipartition(unsorted((1, 1)), unsorted((1, 2))))
    # parts (4, 2) with chi (2, 1), as (part, (chi, slack)) pairs: the part
    # with chi 1 lies below r = 4
    pairs = ((4, (2, 2)), (2, (1, 1)))
    with pytest.raises(InvariantViolation, match="below"):
        restrict_module._largest_j(pairs, 4, 1)
    with pytest.raises(InvariantViolation, match="no valid j"):
        restrict_module._largest_j(pairs, 2, 0)


def _keep_partition(p, x, copies=1):
    # a broken part move: the target keeps the rank of the source
    return p


def test_wrong_rank_target_raises(monkeypatch):
    # both rank-1 parameters below restrict by lowering parts
    monkeypatch.setattr(restrict_module, "_lower", _keep_partition)
    with pytest.raises(InvariantViolation):
        restrict_exotic(bipartition_from_text("mu=[] nu=[1]"))
    with pytest.raises(InvariantViolation):
        restrict_symplectic(omega_from_text("1^2_0"))


# A target that breaks a defining condition, the parameter it is restricted
# from, the corners the patched scan returns for it (None: unpatched), and
# the target's partition and point set.  Condition 1 concerns lam alone,
# and a target's odd parts keep the parity of their multiplicity, so only
# a source built unchecked reaches it.  No point set breaks condition 3:
# psi never rises, nor its slack, from a part to a smaller one (pinned by
# the property test below).
BROKEN_TARGETS = {
    "condition 1": (
        OmegaParam(Partition((4, 3, 1)), (2, 0, 0)), None, (3, 2, 1), [(2, 1)]
    ),
    "condition 2": (omega_from_text("2^2_1"), [], (1, 1), [(1, 1)]),
    "condition 2, odd multiplicity": (
        omega_from_text("6^1_3 2^1_1"), [(6, 3)], (4, 2), [(4, 2)]
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_TARGETS))
def test_broken_target_raises_its_violations(monkeypatch, case):
    source, corners, lam, points = BROKEN_TARGETS[case]
    if corners is not None:
        monkeypatch.setattr(restrict_module, "_corners", lambda und, vec: corners)
    lam = Partition(lam)
    und = underlying_set(lam)
    expected = "; ".join(_violations(lam, und, tuple(psi(lam, points).values())))
    assert expected.startswith(case.split(",")[0])
    with pytest.raises(InvalidParam) as info:
        restrict_symplectic(source)
    assert str(info.value) == expected


@st.composite
def parts_and_points(draw):
    """A partition of 2n for n <= 20 (every multiplicity even in half the
    draws) and up to six points (a, b), mostly with 2b <= a like corners."""
    n = draw(st.integers(0, 20))
    doubled = draw(st.booleans())
    rest, parts = (n if doubled else 2 * n), []
    while rest:
        parts.append(draw(st.integers(1, rest)))
        rest -= parts[-1]
    lam = Partition(parts * 2 if doubled else parts)
    point = st.integers(0, 41).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, a // 2 + 1))
    )
    return lam, draw(st.lists(point, max_size=6))


@given(parts_and_points())
def test_checked_chi_is_psi_exactly_where_the_conditions_hold(data):
    lam, points = data
    und = underlying_set(lam)
    chi = tuple(psi(lam, points).values())
    bad = _violations(lam, und, chi)
    assert not any(msg.startswith("condition 3") for msg in bad)
    if bad:
        with pytest.raises(InvalidParam) as info:
            restrict_module._checked_chi(lam, und, points)
        assert str(info.value) == "; ".join(bad)
    else:
        assert restrict_module._checked_chi(lam, und, points) == chi


def counted_lower(monkeypatch):
    """The list of (partition, part) of every call of restrict's _lower,
    which records them from here on."""
    lower = restrict_module._lower
    calls = []

    def counted(p, x, copies=1):
        calls.append((p, x))
        return lower(p, x, copies)

    monkeypatch.setattr(restrict_module, "_lower", counted)
    return calls


def test_zero_coefficient_target_is_not_built(monkeypatch):
    # the part 2 of mu=[2] nu=[] is marked and occurs once: its lowered
    # target has the zero coefficient, so _lower is never called
    calls = counted_lower(monkeypatch)
    got = restrict_exotic(bipartition_from_text("mu=[2] nu=[]"))
    assert got == exotic_charsum({"mu=[1] nu=[]": [1]})
    assert calls == []


def test_zero_constant_target_is_not_built_at_q1(monkeypatch):
    # the same part at q = 1: its lowered target has the constant
    # 2 * 1 - 2 = 0, so _lower is never called there either
    calls = counted_lower(monkeypatch)
    got = restrict_exotic_q1(bipartition_from_text("mu=[2] nu=[]"))
    assert got == exotic_charsum({"mu=[1] nu=[]": [1]})
    assert calls == []


# A bipartition whose first shifted term is a growth term (mu up, nu down),
# and one with no growth term, whose first is a chain term (mu down, nu up).
SHIFTED_FIRST = {"growth": ("mu=[1] nu=[1]", [1, -1]), "chain": ("mu=[1] nu=[]", [-1, 1])}


@pytest.mark.parametrize("term", sorted(SHIFTED_FIRST))
def test_broken_shift_raises(monkeypatch, term):
    text, steps = SHIFTED_FIRST[term]
    called = []

    def keep_parts(p, a, b, step):
        # a broken part move: it shifts nothing, so the target keeps the rank
        called.append(step)
        return p

    monkeypatch.setattr(restrict_module, "_shift", keep_parts)
    with pytest.raises(InvariantViolation, match="emitted"):
        restrict_exotic(bipartition_from_text(text))
    assert called == steps
