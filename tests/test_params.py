import copy
import hashlib
import pickle

import pytest

from reference import components, marks, run_end, runs, seeded_sample, unsorted
from springerbc import params
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.params import (
    Bipartition,
    LimitSymbol,
    OmegaParam,
    bipartition_from_text,
    bipartition_from_text as bp,
    bipartition_to_text,
    enumerate_bipartitions,
    enumerate_omega,
    hat_lambda,
    iota,
    iota_inv,
    omega_from_text,
    omega_from_text as om,
    omega_to_text,
    paving_predicates,
    phi,
    psi,
    recover_bipartition,
    to_limit_symbol,
    validate_omega,
    x_crit,
)
from springerbc.partitions import EMPTY, Partition, sum_partitions

# the running example: a rank-28 parameter with four corner points
EX1_LAM = Partition([10, 10, 8, 8, 6, 5, 5, 4, 4, 2, 2, 1, 1])
EX1_CHI = {10: 4, 8: 3, 6: 3, 5: 2, 4: 2, 2: 1, 1: 0}
EX1 = OmegaParam.make(EX1_LAM, EX1_CHI)

EXO1 = Bipartition(Partition([4, 3, 2, 2, 2, 2, 1]), Partition([3, 3, 3, 2, 1, 1]))


def all_params(nmax):
    for n in range(nmax + 1):
        yield from enumerate_omega(n)


def all_biparts(nmax):
    for n in range(nmax + 1):
        yield from enumerate_bipartitions(n)


# --- validation --------------------------------------------------------------


def test_validate_omega_examples():
    assert validate_omega(EX1_LAM, EX1_CHI) == []
    assert validate_omega(Partition([2, 2]), {2: 1}) == []
    bad = validate_omega(Partition([3, 1]), {3: 1, 1: 0})
    assert any("condition 1" in msg for msg in bad)


def test_validate_omega_other_violations():
    assert any(
        "condition 2" in m for m in validate_omega(Partition([4, 4]), {4: 3})
    )
    assert any(
        "condition 2" in m for m in validate_omega(Partition([2]), {2: 0})
    )
    # chi must not decrease, slack must not decrease with the part
    assert any(
        "condition 3" in m
        for m in validate_omega(Partition([4, 4, 2, 2]), {4: 0, 2: 1})
    )
    assert any(
        "condition 3" in m
        for m in validate_omega(Partition([6, 6, 4, 4]), {6: 3, 4: 0})
    )
    with pytest.raises(InvalidParam, match="^chi domain"):
        validate_omega(Partition([2, 2]), {2: 1, 4: 1})


def test_make_rejects_invalid():
    with pytest.raises(InvalidParam):
        OmegaParam.make(Partition([3, 1]), {3: 1, 1: 0})


# --- critical values ----------------------------------------------------------


def test_x_crit_examples():
    assert x_crit(EX1) == frozenset({(2, 1), (4, 2), (6, 3), (10, 4)})
    assert x_crit(om("2^2_1")) == frozenset({(2, 1)})
    assert x_crit(om("1^2_0")) == frozenset()


def test_x_crit_points_on_or_below_main_line():
    for p in all_params(6):
        for r, c in x_crit(p):
            assert r >= 2 * c


def test_psi_examples():
    assert psi(EX1_LAM, x_crit(EX1)) == EX1_CHI
    assert psi(EX1_LAM, frozenset()) == {r: 0 for r in EX1_CHI}
    assert psi(Partition([1, 1]), {(2, 1)}) == {1: 0}


def test_phi_examples():
    assert phi(om("2^2_1")) == frozenset({(2, 1)})
    assert phi(om("1^2_0")) == frozenset()
    assert len(phi(EX1)) == 15  # one dot per column of the staircase


def test_psi_recovers_chi_exhaustive():
    for p in all_params(6):
        chi = p.chi_map()
        assert psi(p.lam, phi(p)) == chi
        assert psi(p.lam, x_crit(p)) == chi


# --- enumeration --------------------------------------------------------------


def test_enumerate_omega_small():
    assert [omega_to_text(p) for p in enumerate_omega(1)] == ["2^1_1", "1^2_0"]
    assert len(enumerate_omega(2)) == 5
    assert len(enumerate_omega(3)) == 10
    assert enumerate_omega(0) == [OmegaParam(Partition(), ())]
    with pytest.raises(InvalidParam):
        enumerate_omega(-1)


def test_enumerate_bipartitions_small():
    got = [bipartition_to_text(b) for b in enumerate_bipartitions(2)]
    assert got == [
        "mu=[2] nu=[]",
        "mu=[1,1] nu=[]",
        "mu=[1] nu=[1]",
        "mu=[] nu=[2]",
        "mu=[] nu=[1,1]",
    ]
    assert len(enumerate_bipartitions(3)) == 10
    assert enumerate_bipartitions(0) == [Bipartition(Partition(), Partition())]
    with pytest.raises(InvalidParam):
        enumerate_bipartitions(-1)


def test_enumeration_counts_agree():
    for n in range(11):
        assert len(enumerate_omega(n)) == len(enumerate_bipartitions(n))


def test_sort_keys_match_enumeration_order():
    for n in range(6):
        for params in (enumerate_omega(n), enumerate_bipartitions(n)):
            assert sorted(params, key=lambda p: p.sort_key()) == params


def test_enumerated_omegas_are_valid_and_distinct():
    for n in range(7):
        params = enumerate_omega(n)
        assert len(set(params)) == len(params)
        for p in params:
            assert validate_omega(p.lam, p.chi_map()) == []
            assert p.lam.size == 2 * n


# --- the bijection ------------------------------------------------------------


def test_iota_examples():
    assert iota(om("2^2_1")) == bp("mu=[1] nu=[1]")
    assert iota(om("4^1_2")) == bp("mu=[2] nu=[]")
    assert iota(om("1^4_0")) == bp("mu=[] nu=[1,1]")


def reference_iota(p):
    """``iota`` by the block-cutting definition: walk lam with one 0
    appended; a part r with chi(r) = r/2 is the entry r/2, any other part
    pairs with the next, equal, part and gives chi(r), r - chi(r)."""
    lam = list(p.lam) + [0]
    chi = p.chi_map()
    entries, i = [], 0
    while i < len(lam):
        r = lam[i]
        c = chi[r] if r else 0
        if 2 * c == r:
            entries.append(c)
            i += 1
        else:
            assert lam[i + 1] == r, p
            entries += [c, r - c]
            i += 2
    return Bipartition(Partition(entries[0::2]), Partition(entries[1::2]))


def test_iota_cuts_blocks_run_by_run():
    for n in range(15):
        for p in enumerate_omega(n):
            assert iota(p) == reference_iota(p), p
    # an odd run off the ceiling: its last copy, part m(>= r), has no partner
    with pytest.raises(InvalidParam, match=r"^4\^3_1 2\^2_1: part 3 has no equal"):
        iota(OmegaParam(Partition([4, 4, 4, 2, 2]), (1, 1)))


def test_iota_inv_examples():
    assert iota_inv(bp("mu=[1] nu=[1]")) == om("2^2_1")
    assert iota_inv(bp("mu=[] nu=[2]")) == om("2^2_0")
    big = iota_inv(bp("mu=[5,3,1] nu=[4,2]"))
    assert big.lam.size == 30
    assert iota(big) == bp("mu=[5,3,1] nu=[4,2]")


def test_bijection_checks_raise():
    with pytest.raises(InvariantViolation, match="unsorted"):
        iota_inv(Bipartition(EMPTY, unsorted((1, 2))))
    with pytest.raises(InvariantViolation, match="carry chi"):
        iota_inv(Bipartition(unsorted((1, 2)), EMPTY))
    with pytest.raises(InvalidParam, match="no equal partner"):
        iota(OmegaParam(Partition([3]), (1,)))


# sha256 of the lines "p|iota(p)" for every sp2 parameter and "b|iota_inv(b)"
# for every bipartition, rank by rank for n <= 12, in enumeration order.
# Round trips alone would still pass if both directions changed in step.
BIJECTION_SHA256 = "3a2d9f01d1bb4fb3f9cbd3b45ec335f6d870252d7415b3d951a67a51fa5ecfa5"


def test_bijection_is_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(13):
        for p in enumerate_omega(n):
            digest.update(f"{p}|{iota(p)}\n".encode())
            count += 1
        for b in enumerate_bipartitions(n):
            digest.update(f"{b}|{iota_inv(b)}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == (6264, BIJECTION_SHA256)


# sha256 of the lines "p" for every sp2 parameter of rank 13 to 16, in
# enumeration order; ranks up to 12 are pinned through the bijection above.
ENUMERATION_SHA256 = "5f42eff7ab31d14d5cb3a49d4c14c4b139ec7ced9bbbe5df8ca4ca6c967750df"


def test_enumeration_is_pinned_for_ranks_13_to_16():
    digest, count = hashlib.sha256(), 0
    for n in range(13, 17):
        for p in enumerate_omega(n):
            digest.update(f"{p}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == (14213, ENUMERATION_SHA256)


def test_iota_round_trips():
    for p in all_params(6):
        assert iota_inv(iota(p)) == p
    for b in all_biparts(6):
        assert iota(iota_inv(b)) == b


# --- limit symbols -------------------------------------------------------------


def test_limit_symbol_examples():
    sym = to_limit_symbol(bp("mu=[] nu=[]"), 4, 2, 1)
    assert (sym.top, sym.bottom) == ((4, 0), (2,))
    sym = to_limit_symbol(bp("mu=[1] nu=[1]"), 4, 2, 1)
    assert (sym.top, sym.bottom) == ((5, 0), (3,))
    assert sym.recover() == bp("mu=[1] nu=[1]")


def test_limit_symbol_equivalence_across_m():
    b = bp("mu=[1] nu=[1]")
    s1 = to_limit_symbol(b, 8, 4, 1)
    s2 = to_limit_symbol(b, 8, 4, 3)
    assert s1.recover() == s2.recover() == b
    other = to_limit_symbol(bp("mu=[2] nu=[]"), 8, 4, 2)
    assert other.recover() != s1.recover()


def test_limit_symbol_bounds():
    with pytest.raises(InvalidParam, match=r"^need r >= s \+ n >= 2n"):
        to_limit_symbol(bp("mu=[1] nu=[1]"), 3, 1, 1)  # r < s + n
    with pytest.raises(InvalidParam, match=r"^need r >= s \+ n >= 2n"):
        to_limit_symbol(bp("mu=[1] nu=[1]"), 4, 1, 1)  # s + n < 2n
    with pytest.raises(InvalidParam, match="^need l\\(mu\\) <= m\\+1"):
        to_limit_symbol(bp("mu=[1,1] nu=[]"), 8, 4, 0)  # l(mu) > m + 1


def test_limit_symbol_injective_per_m():
    seen = {}
    for b in all_biparts(4):
        sym = to_limit_symbol(b, 12, 6, 4)
        key = (sym.top, sym.bottom)
        assert key not in seen
        seen[key] = b
        assert sym.recover() == b


def test_parts_cap_applies_to_parameter_text_and_symbol_rows(monkeypatch):
    monkeypatch.setattr(params, "MAX_PARTS", 4)
    assert om("1^4_0").lam == Partition([1] * 4)
    assert om("2^2_1 1^2_0").lam.size == 6
    with pytest.raises(InvalidParam, match=r"^parameter '2\^2_1 1\^4_0' has more"):
        om("2^2_1 1^4_0")
    with pytest.raises(InvalidParam, match="has more than 4 parts"):
        om("1^5_0")
    empty = bp("mu=[] nu=[]")
    assert len(to_limit_symbol(empty, 1, 0, 3).top) == 4
    with pytest.raises(InvalidParam, match="^m=4 makes symbol rows of more than 4 parts$"):
        to_limit_symbol(empty, 1, 0, 4)
    with pytest.raises(InvalidParam, match="^m=4 makes"):
        LimitSymbol((4, 3, 2, 1, 0), (3, 2, 1, 0), 1, 0, 4).recover()


SYMBOLS = [
    to_limit_symbol(bp("mu=[1] nu=[1]"), 4, 2, 1),
    to_limit_symbol(bp("mu=[2,1] nu=[1]"), 12, 6, 4),
    to_limit_symbol(bp("mu=[] nu=[]"), 0, 0, 0),
]


def test_limit_symbol_pickle_and_copy_round_trips():
    for sym in SYMBOLS:
        copies = [copy.copy(sym), copy.deepcopy(sym)] + [
            pickle.loads(pickle.dumps(sym, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for back in copies:
            assert back == sym and hash(back) == hash(sym)
            assert type(back) is LimitSymbol
            assert (back.top, back.bottom, back.r, back.s, back.m) == (
                sym.top, sym.bottom, sym.r, sym.s, sym.m
            )
            assert back.recover() == sym.recover()


def test_limit_symbol_equality_and_hash_follow_the_fields():
    a, b, _ = SYMBOLS
    same = LimitSymbol(top=a.top, bottom=a.bottom, r=a.r, s=a.s, m=a.m)
    assert same == a and hash(same) == hash(a) and not same != a
    assert a != b and len({a, b, same}) == 2
    for field in range(5):
        fields = [a.top, a.bottom, a.r, a.s, a.m]
        fields[field] = fields[field] + ((9,) if field < 2 else 1)
        assert LimitSymbol(*fields) != a


def test_limit_symbol_repr_text():
    assert repr(SYMBOLS[0]) == "LimitSymbol(top=(5, 0), bottom=(3,), r=4, s=2, m=1)"
    assert str(SYMBOLS[0]) == repr(SYMBOLS[0])


def test_limit_symbols_are_immutable():
    sym = SYMBOLS[0]
    for name in ("top", "bottom", "r", "s", "m"):
        with pytest.raises(AttributeError):
            setattr(sym, name, getattr(sym, name))
        with pytest.raises(AttributeError):
            delattr(sym, name)
    with pytest.raises(AttributeError):
        sym.extra = 1


# --- bookkeeping ---------------------------------------------------------------


def test_hat_lambda_examples():
    assert hat_lambda(EXO1) == (7, 6, 6, 5, 5, 5, 4, 4, 3, 3, 3, 2, 1)
    assert hat_lambda(bp("mu=[1] nu=[1]")) == (2, 1)
    assert hat_lambda(bp("mu=[] nu=[1]")) == (1, 1)


def test_recover_bipartition_examples():
    lam = sum_partitions(EXO1.mu, EXO1.nu)
    assert recover_bipartition(lam, hat_lambda(EXO1), 29) == EXO1
    assert recover_bipartition(Partition([1]), Partition([1, 1]), 1) == bp(
        "mu=[] nu=[1]"
    )
    assert recover_bipartition(Partition([2]), Partition([2]), 2) == bp(
        "mu=[2] nu=[]"
    )


def test_recover_bipartition_rejects_garbage():
    with pytest.raises(InvalidParam, match="recovering from"):
        recover_bipartition(Partition([2]), Partition([1]), 2)


def test_recover_round_trips():
    for n in range(7):
        for b in enumerate_bipartitions(n):
            lam = sum_partitions(b.mu, b.nu)
            assert recover_bipartition(lam, hat_lambda(b), n) == b


# The paper's (nabla, Delta) and Und_v are read from their definitions in
# ``reference``; the formulas read them from ``params._scan``.


def test_nabla_delta_examples():
    comps = components(EXO1)
    assert comps[3] == (2, 1)
    assert comps[7] == (4, 3)
    assert 2 not in comps


def test_und_v_examples():
    assert marks(EXO1) == (7, 6, 3, 1)
    assert marks(bp("mu=[] nu=[1]")) == ()
    assert marks(bp("mu=[1] nu=[1]")) == (2,)


def test_marked_case_classification_exclusive():
    # every marked part falls in exactly one of the three classes
    for b in all_biparts(8):
        comps = components(b)
        for r in marks(b):
            nab, delt = comps[r]
            bigger = [pair for rp, pair in comps.items() if rp > r]
            case3 = any(d == delt for _, d in bigger)
            case4 = any(m == nab for m, _ in bigger)
            case2 = all(m > nab and d > delt for m, d in bigger)
            assert [case2, case3, case4].count(True) == 1, (b, r)


def test_scan_matches_the_definitions():
    # every bipartition of rank <= 12, 40 seeded ones of each rank 14-20,
    # and one with mu out of order, which the scan reads as it stands
    sample = seeded_sample(enumerate_bipartitions, 31, range(13), range(14, 21))
    for b in [*sample, Bipartition(unsorted((1, 2, 1)), Partition([2]))]:
        n, comps, runs_at, marked, mu_end, nu_end = params._scan(b)
        assert n == sum(b.mu) + sum(b.nu), b
        assert list(comps.items()) == list(components(b).items()), b
        lam = sum_partitions(b.mu, b.nu)
        assert list(runs_at.items()) == list(runs(lam).items()), b
        assert sorted(marked, reverse=True) == list(marks(b)), b
        for part, end in ((b.mu, mu_end), (b.nu, nu_end)):
            # an end is read only at a positive value
            got = {x: i for x, i in end.items() if x}
            assert got == {x: run_end(part, x) for x in set(part)}, b


# --- paving predicates -----------------------------------------------------------


def test_paving_examples():
    assert paving_predicates(om("2^2_1")) == (True, True)
    assert paving_predicates(om("1^4_0")) == (True, True)
    lemma, _ = paving_predicates(EX1)
    assert lemma is False


def test_paving_theorem_clause():
    # third part >= 2 with nonzero chi
    p = om("2^3_1")
    lemma, theorem = paving_predicates(p)
    assert theorem is False
    assert lemma is False  # m(2) = 3 odd and > 1
    # chi identically zero always qualifies
    assert paving_predicates(om("2^2_0 1^2_0"))[1] is True


# --- grammar round trips ----------------------------------------------------------


def test_omega_text_round_trip():
    for p in all_params(5):
        assert omega_from_text(omega_to_text(p)) == p
    assert omega_to_text(om("4^1_2 1^2_0")) == "4^1_2 1^2_0"
    with pytest.raises(ValueError):
        omega_from_text("1^2_0 4^1_2")  # not decreasing
    with pytest.raises(ValueError):
        omega_from_text("4^1")


def test_bipartition_text_round_trip():
    for b in all_biparts(5):
        assert bipartition_from_text(bipartition_to_text(b)) == b
    with pytest.raises(ValueError):
        bipartition_from_text("mu=[1]")


# --- parameters as values ----------------------------------------------------


def test_parameters_built_by_every_route_are_equal_with_equal_hashes():
    text = "4^1_2 1^2_0"
    p = OmegaParam(Partition([4, 1, 1]), (2, 0))
    b = iota(p)
    [enumerated_p] = [x for x in enumerate_omega(3) if str(x) == text]
    [enumerated_b] = [x for x in enumerate_bipartitions(3) if str(x) == str(b)]
    omegas = [
        p,
        OmegaParam.make([4, 1, 1], {4: 2, 1: 0}),
        om(text),
        om(omega_to_text(p)),
        enumerated_p,
        iota_inv(b),
    ]
    biparts = [
        b,
        Bipartition(Partition(list(b.mu)), Partition(list(b.nu))),
        bp(bipartition_to_text(b)),
        enumerated_b,
        iota(iota_inv(b)),
    ]
    for same in (omegas, biparts):
        assert all(x == same[0] for x in same)
        assert {hash(x) for x in same} == {hash(same[0])}
        assert len(set(same)) == 1


@pytest.mark.parametrize("sp2,exotic", [
    (OmegaParam(Partition([2, 2]), (1,)), Bipartition(Partition([2, 2]), Partition([1]))),
    (OmegaParam(EMPTY, ()), Bipartition(EMPTY, EMPTY)),
])
def test_sp2_and_exotic_parameters_with_the_same_fields_differ(sp2, exotic):
    assert (sp2.lam, sp2.chi) == (exotic.mu, exotic.nu)
    assert sp2 != exotic and exotic != sp2
    keys = {sp2: "sp2", exotic: "exotic"}
    assert len(keys) == 2
    assert (keys[sp2], keys[exotic]) == ("sp2", "exotic")


def test_parameters_are_immutable():
    for param, names in ((EX1, ("lam", "chi")), (EXO1, ("mu", "nu"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(param, name, getattr(param, name))
        with pytest.raises(AttributeError):
            param.extra = 1


def test_repr_text():
    assert repr(om("2^2_1")) == "OmegaParam(lam=Partition([2, 2]), chi=(1,))"
    assert repr(bp("mu=[2,2] nu=[1]")) == (
        "Bipartition(mu=Partition([2, 2]), nu=Partition([1]))"
    )


def test_pickle_and_copy_round_trips():
    for param in (EX1, EXO1, OmegaParam(EMPTY, ()), Bipartition(EMPTY, EMPTY)):
        copies = [copy.copy(param), copy.deepcopy(param)] + [
            pickle.loads(pickle.dumps(param, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for back in copies:
            assert back == param and hash(back) == hash(param)
            assert type(back) is type(param)
            assert repr(back) == repr(param)
