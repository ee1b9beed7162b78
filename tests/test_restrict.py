import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

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
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.params import (
    Bipartition,
    OmegaParam,
    _components,
    _marked,
    _psi_vec,
    _violations,
    bipartition_from_text,
    bipartition_to_text,
    enumerate_bipartitions,
    enumerate_omega,
    iota,
    iota_inv,
    omega_from_text,
    validate_omega,
)
from springerbc.partitions import (
    Partition,
    _lower,
    _run_end,
    _shift,
    sum_partitions,
    underlying_set,
)
from springerbc.qpoly import QPoly, ZERO, _step, geometric_sum, monomial
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


def _unsorted(parts):
    # skips the constructor's sort: only broken code could pass such a value
    return tuple.__new__(Partition, parts)


def test_case_analysis_guards_raise():
    with pytest.raises(InvariantViolation, match="cases 3 and 4"):
        restrict_exotic(Bipartition(_unsorted((1, 2, 1)), Partition([2])))
    with pytest.raises(InvariantViolation, match="below"):
        restrict_exotic(Bipartition(_unsorted((1, 1)), _unsorted((1, 2))))
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


def reference_chi(lam, und, points):
    """The two-walk reference for ``_checked_chi``: psi of the points, then
    every defining condition of the target."""
    chi = _psi_vec(und, points)
    bad = _violations(lam, und, chi)
    if bad:
        raise InvalidParam("; ".join(bad))
    return chi


def sp2_sample():
    """Every sp2 parameter of rank <= 12, then 40 seeded ones of each rank
    14-18."""
    params = [p for n in range(1, 13) for p in enumerate_omega(n)]
    rng = random.Random(14)
    for n in range(14, 19):
        params += rng.sample(enumerate_omega(n), 40)
    return params


def test_one_pass_chi_gives_the_reference_terms_in_order(monkeypatch):
    params = sp2_sample()
    got = [list(restrict_symplectic(p).terms.items()) for p in params]
    monkeypatch.setattr(restrict_module, "_checked_chi", reference_chi)
    for p, terms in zip(params, got):
        assert terms == list(restrict_symplectic(p).terms.items()), p


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
    expected = "; ".join(_violations(lam, und, _psi_vec(und, points)))
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
    chi = _psi_vec(und, points)
    bad = _violations(lam, und, chi)
    assert not any(msg.startswith("condition 3") for msg in bad)
    if bad:
        with pytest.raises(InvalidParam) as info:
            restrict_module._checked_chi(lam, und, points)
        assert str(info.value) == "; ".join(bad)
    else:
        assert restrict_module._checked_chi(lam, und, points) == chi


def test_wrong_rank_target_raises_under_python_O():
    code = textwrap.dedent(
        """
        import springerbc.restrict as r
        from springerbc.errors import InvalidParam, InvariantViolation
        from springerbc.params import (
            Bipartition, OmegaParam, _psi_vec, _violations,
            bipartition_from_text, omega_from_text,
        )
        from springerbc.partitions import Partition, underlying_set

        def attempt(fn, *args):
            try:
                fn(*args)
            except InvariantViolation:
                print("raised")

        def refused(source, lam, points):
            und = underlying_set(Partition(lam))
            expected = "; ".join(_violations(Partition(lam), und, _psi_vec(und, points)))
            try:
                r.restrict_symplectic(source)
            except InvalidParam as e:
                if str(e) == expected:
                    print("raised")

        assert False, "asserts must be stripped"
        unsorted = tuple.__new__(Partition, (1, 2, 1))
        attempt(r.restrict_exotic, Bipartition(unsorted, Partition([2])))  # cases 3, 4
        attempt(r._largest_j, ((4, (2, 2)), (2, (1, 1))), 4, 1)
        # targets breaking conditions 1 and 2 (see BROKEN_TARGETS)
        refused(OmegaParam(Partition((4, 3, 1)), (2, 0, 0)), (3, 2, 1), [(2, 1)])
        corners = r._corners
        r._corners = lambda und, vec: []
        refused(omega_from_text("2^2_1"), (1, 1), [(1, 1)])
        r._corners = corners
        r._lower = lambda p, x, copies=1: p
        attempt(r.restrict_exotic, bipartition_from_text("mu=[] nu=[1]"))
        attempt(r.restrict_symplectic, omega_from_text("1^2_0"))
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 6


def reference_exotic(b):
    """The five-walk reference for ``_exotic``: the rank, the components,
    the sum's runs and the marks each from a walk of their own, and each
    run end in mu or nu from ``_run_end``."""
    n = b.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    mu, nu = b.mu, b.nu
    comps = _components(b)
    runs = restrict_module._runs(sum_partitions(mu, nu))
    marked = set(_marked(comps))
    out = CharSum()

    def emit(coeff, mu2, nu2):
        if not coeff:
            return
        if sum(mu2) + sum(nu2) != n - 1:
            raise InvariantViolation(
                f"restriction of {b} (rank {n}) emitted mu={mu2} nu={nu2}"
            )
        out.add(Bipartition(mu2, nu2), coeff)

    mus_above, nus_above = set(), set()
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = runs[r]
        case3 = delt in nus_above
        case4 = nab in mus_above
        mus_above.add(nab)
        nus_above.add(delt)
        if r not in marked:
            emit(geometric_sum(2 * m_ge, 2 * m_gt), mu, _lower(nu, delt))
            continue
        if case3 and case4:
            raise InvariantViolation(f"cases 3 and 4 both hold at r={r} in {b}")
        if delt > 0:
            m_nu = _run_end(nu, delt)
            grown = (_shift(mu, m_ge, m_nu, 1), _shift(nu, m_ge - 1, m_nu, -1))
            if case3:
                emit(_step(2 * m_ge - 1, 2 * m_gt - 1), *grown)
            else:
                emit(monomial(2 * m_ge - 1), *grown)
        lowered = _lower(mu, nab)
        if case3:
            emit(geometric_sum(2 * m_ge - 1, 2 * m_gt - 1), lowered, nu)
            continue
        emit(geometric_sum(2 * m_ge - 1, 2 * m_gt + 1), lowered, nu)
        j = restrict_module._largest_j(comps.items(), r, nab) if case4 else r
        m_mu = _run_end(mu, nab)
        m_gt_j = runs[j][0]
        emit(
            monomial(2 * m_gt_j),
            _shift(mu, m_gt_j, m_mu, -1),
            _shift(nu, m_gt_j, m_mu - 1, 1),
        )
        for k in comps if j > r else ():
            if r < k <= j:
                m_gt_k, m_ge_k = runs[k]
                emit(
                    _step(2 * m_ge_k, 2 * m_gt_k),
                    _shift(mu, m_ge_k, m_mu, -1),
                    _shift(nu, m_ge_k, m_mu - 1, 1),
                )
    return out


def exotic_sample():
    """Every bipartition of rank <= 12, then 40 seeded ones of each rank
    14-18."""
    params = [b for n in range(1, 13) for b in enumerate_bipartitions(n)]
    rng = random.Random(14)
    for n in range(14, 19):
        params += rng.sample(enumerate_bipartitions(n), 40)
    return params


def test_one_scan_gives_the_reference_exotic_terms_in_order():
    for b in exotic_sample():
        got = list(restrict_exotic(b).terms.items())
        assert got == list(reference_exotic(b).terms.items()), b


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


def test_broken_shift_raises_under_python_O():
    code = textwrap.dedent(
        """
        import springerbc.restrict as r
        from springerbc.errors import InvariantViolation
        from springerbc.params import bipartition_from_text

        assert False, "asserts must be stripped"
        r._shift = lambda p, a, b, step: p
        for text in ("mu=[1] nu=[1]", "mu=[1] nu=[]"):  # growth, then chain
            try:
                r.restrict_exotic(bipartition_from_text(text))
            except InvariantViolation:
                print("raised")
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 2
