import hashlib

import pytest

import springerbc.theory as theory
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.fforacle import (
    FieldModel,
    V_NOT_PERP,
    brute_force_restriction,
    chi_invariant,
    exotic_invariant,
    jordan_type,
    line_count,
    quotient_model,
    standard_model_exotic,
    standard_model_symplectic,
    verify_against_formula,
)
from springerbc.gf import field, nullspace
from springerbc.params import (
    Bipartition,
    bipartition_from_text as bp,
    enumerate_bipartitions,
    enumerate_omega,
    omega_from_text,
    omega_from_text as om,
    underlying_set,
)
from springerbc.partitions import (
    Partition,
    sum_partitions,
    union_partitions,
)

from listmat import kernel_lines, mat_mul, mat_vec, packed, unpacked

GF2, GF3, GF4, GF5 = field(2), field(3), field(4), field(5)
EXO1 = Bipartition(Partition([4, 3, 2, 2, 2, 2, 1]), Partition([3, 3, 3, 2, 1, 1]))


# --- models ------------------------------------------------------------------


def test_symplectic_model_with_correction():
    model = standard_model_symplectic(om("2^2_1"), GF2)
    assert model.dim == 4
    i = model.basis_index
    # the first string turns at height chi(2)=1 into both strings
    col = [row[i[(2, 1, 1)]] for row in unpacked(GF2, model.N, 4)]
    assert col[i[(2, 1, 2)]] == 1 and col[i[(2, 2, 2)]] == 1
    assert jordan_type(GF2, model.N)[0] == (2, 2)


def test_symplectic_model_trivial_nilpotent():
    model = standard_model_symplectic(om("1^2_0"), GF2)
    assert model.dim == 2
    assert all(x == 0 for row in unpacked(GF2, model.N, 2) for x in row)


def test_symplectic_model_single_block_no_correction():
    model = standard_model_symplectic(om("4^1_2"), GF4)
    assert model.dim == 4
    assert jordan_type(GF4, model.N)[0] == (4,)
    # odd multiplicity: plain shift, one nonzero per column
    for col in zip(*unpacked(GF4, model.N, 4)):
        assert sum(1 for x in col if x) <= 1


def test_symplectic_model_needs_char2():
    with pytest.raises(InvalidParam, match="^need characteristic 2, got 3$"):
        standard_model_symplectic(om("2^2_1"), GF3)


def test_exotic_model_vector():
    model = standard_model_exotic(bp("mu=[1] nu=[1]"), GF3)
    assert model.dim == 4
    assert model.v == [
        1 if k == model.basis_index[(2, 1, 2)] else 0 for k in range(4)
    ]
    model = standard_model_exotic(bp("mu=[] nu=[1]"), GF3)
    assert all(x == 0 for x in model.v)


def test_exotic_model_big_example_vector():
    model = standard_model_exotic(EXO1, GF3)
    lam = sum_partitions(EXO1.mu, EXO1.nu)
    assert model.dim == 2 * lam.size
    support = [k for k, x in enumerate(model.v) if x]
    expected = [
        model.basis_index[(7, 1, 4)],
        model.basis_index[(6, 1, 4)],
        model.basis_index[(3, 1, 2)],
        model.basis_index[(1, 1, 1)],
    ]
    assert sorted(support) == sorted(expected)


def test_exotic_model_needs_odd_char():
    with pytest.raises(InvalidParam, match="^need odd characteristic$"):
        standard_model_exotic(bp("mu=[1] nu=[1]"), GF2)


def test_model_check_rejects_bad_adjointness():
    model = standard_model_exotic(bp("mu=[1] nu=[]"), GF3)
    broken = FieldModel(GF3, model.dim, model.gram, mat_mul(GF3, model.N, model.N), model.v)
    broken.N[0][0] = 1  # no longer self-adjoint (nor nilpotent-compatible)
    with pytest.raises(InvariantViolation, match="^nilpotent not self-adjoint for the form$"):
        broken.check()


# --- jordan types -------------------------------------------------------------


def test_jordan_type_examples():
    zero = [[0] * 4 for _ in range(4)]
    assert jordan_type(GF2, packed(GF2, zero))[0] == (1, 1, 1, 1)
    single = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert jordan_type(GF5, single)[0] == (3,)
    assert jordan_type(GF4, packed(GF4, single))[0] == (3,)
    assert jordan_type(GF3, []) == ((), [])


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(InvalidParam, match="^rank stabilized at 1 > 0$"):
        jordan_type(GF3, [[1, 0], [0, 0]])


# --- invariants ----------------------------------------------------------------


def test_chi_invariant_round_trip_small():
    for n in range(1, 4):
        for p in enumerate_omega(n):
            for F in (GF2, GF4):
                assert chi_invariant(standard_model_symplectic(p, F)) == p, (p, F)


def test_chi_invariant_zero_nilpotent():
    model = standard_model_symplectic(om("1^4_0"), GF2)
    assert chi_invariant(model) == om("1^4_0")


def test_exotic_invariant_round_trip_small():
    for n in range(1, 4):
        for b in enumerate_bipartitions(n):
            assert exotic_invariant(standard_model_exotic(b, GF3)) == b, b


def test_exotic_invariant_big_example():
    model = standard_model_exotic(EXO1, GF3)
    assert exotic_invariant(model) == EXO1


def test_exotic_invariant_rejects_unhalved():
    model = standard_model_exotic(bp("mu=[1] nu=[]"), GF3)
    single = [[0, 0], [1, 0]]
    broken = FieldModel(GF3, 2, [[0, 1], [2, 0]], single, [0, 0])
    with pytest.raises(InvalidParam, match="is not doubled"):
        exotic_invariant(broken)


# sha256 of repr((dim, gram, N, v, basis_index items)) over every model of
# rank n <= 5, in enumeration order: sp2 over GF(2) then GF(4), exotic over
# GF(3) then GF(5), with the rows unpacked to lists.  Any change to any
# matrix or index changes it.
MODELS_SHA256 = "335409b9fd6fad29bb094a2bbce517bd22cdfad64d53795dc244571ffc93a1be"


def test_standard_models_are_pinned():
    digest, count = hashlib.sha256(), 0
    for th, qs in ((theory.SP2, (2, 4)), (theory.EXOTIC, (3, 5))):
        for q in qs:
            for n in range(6):
                for param in th.enumerate(n):
                    F = field(q)
                    m = th.standard_model(param, F)
                    gram, N = unpacked(F, m.gram, m.dim), unpacked(F, m.N, m.dim)
                    v = F.rows.unpack(m.v, m.dim)
                    entry = (m.dim, gram, N, v, list(m.basis_index.items()))
                    digest.update(repr(entry).encode())
                    count += 1
    assert (count, digest.hexdigest()) == (296, MODELS_SHA256)


# --- lines ----------------------------------------------------------------------


def test_enumerate_lines_counts():
    # one nonzero kernel vector on each line: scaled to a leading 1, no two
    # coincide, and there are as many as the lines of ker N
    for model, count in [
        (standard_model_symplectic(om("2^2_1"), GF2), 3),
        (standard_model_symplectic(om("1^4_0"), GF2), 15),
        (standard_model_exotic(bp("mu=[1] nu=[1]"), GF3), 4),
    ]:
        F = model.field
        lines = [F.rows.unpack(vec, model.dim) for vec in kernel_lines(model)]
        assert len(lines) == count == line_count(F.q, len(nullspace(F, model.N)))
        normalized = set()
        for vec in lines:
            assert any(vec)
            assert mat_vec(F, unpacked(F, model.N, model.dim), vec) == [0] * model.dim
            lead = F.inv(next(x for x in vec if x))
            normalized.add(tuple(F.mul(lead, x) for x in vec))
        assert len(normalized) == len(lines)


# --- quotients -------------------------------------------------------------------


def test_quotient_classes_spec_example():
    # two lines drop one box twice, one line collapses a block by two
    model = standard_model_symplectic(om("2^2_1"), GF2)
    types = []
    for line in kernel_lines(model):
        qm = quotient_model(model, line)
        types.append(jordan_type(GF2, qm.N)[0])
    assert sorted(types) == [(1, 1), (2,), (2,)]


def test_quotient_structural_invariants():
    for param, F in [(om("2^2_1 1^2_0"), GF2), (bp("mu=[1,1] nu=[1]"), GF3)]:
        model = theory.of(param).standard_model(param, F)
        for line in kernel_lines(model):
            qm = quotient_model(model, line)
            if qm is V_NOT_PERP:
                continue
            assert qm.dim == model.dim - 2
            # the reduced model satisfies every parent invariant
            qm.check()


def lowered(lam, jt):
    """(lam minus jt, jt minus lam) as sorted multisets of parts."""
    rest = list(jt)
    gone = []
    for r in lam:
        if r in rest:
            rest.remove(r)
        else:
            gone.append(r)
    return tuple(gone), tuple(rest)


def depth_lines(lam, r, q):
    """The number of lines of ker N at depth r: in the image of N^(r-1) but
    not of N^r.  That image meets ker N in one dimension per part >= r."""
    ge_r = sum(x >= r for x in lam)
    gt_r = sum(x > r for x in lam)
    return (q**ge_r - q**gt_r) // (q - 1)


def test_quotient_types_obey_lemma():
    # symplectic: each line either drops one box from two copies of a part r
    # or shrinks a single r by two, and the lines lowering r are exactly the
    # lines at depth r; r is read off the Jordan types alone
    for F in (GF2, GF4):
        for n in range(1, 5):
            for p in enumerate_omega(n):
                model = standard_model_symplectic(p, F)
                types = {}
                counts = {}
                for line in kernel_lines(model):
                    qm = quotient_model(model, line)
                    key = repr(qm.N)
                    if key not in types:
                        types[key] = lowered(p.lam, jordan_type(F, qm.N)[0])
                    gone, new = types[key]
                    r = gone[0]
                    assert (gone, new) in {
                        ((r, r), (r - 1, r - 1) if r > 1 else ()),
                        ((r,), (r - 2,) if r > 2 else ()),
                    }, (p, gone, new)
                    counts[r] = counts.get(r, 0) + 1
                assert counts == {
                    r: depth_lines(p.lam, r, F.q) for r in underlying_set(p.lam)
                }, (p, F.q)


def test_exotic_quotient_type_is_doubled_shrink():
    # every nonempty exotic quotient has type (lam with one part r shrunk by
    # one box), doubled; at most the lines at depth r lower r
    for n in range(1, 5):
        for b in enumerate_bipartitions(n):
            model = standard_model_exotic(b, GF3)
            lam = sum_partitions(b.mu, b.nu)
            doubled = union_partitions(lam, lam)
            types = {}
            counts = {}
            empty = 0
            for line in kernel_lines(model):
                qm = quotient_model(model, line)
                if qm is V_NOT_PERP:
                    empty += 1
                    continue
                key = repr(qm.N)
                if key not in types:
                    types[key] = lowered(doubled, jordan_type(GF3, qm.N)[0])
                gone, new = types[key]
                r = gone[0]
                assert (gone, new) == ((r, r), (r - 1, r - 1) if r > 1 else ()), b
                counts[r] = counts.get(r, 0) + 1
            for r, count in counts.items():
                assert count <= depth_lines(doubled, r, 3), (b, r)
            dim_ker = len(nullspace(GF3, model.N))
            assert sum(counts.values()) + empty == line_count(3, dim_ker), b


def test_quotient_empty_fiber_marker():
    model = standard_model_exotic(bp("mu=[1] nu=[]"), GF3)
    results = [quotient_model(model, line) for line in kernel_lines(model)]
    assert sum(1 for r in results if r is V_NOT_PERP) == 3


# --- tallies ----------------------------------------------------------------------


def test_brute_force_spec_examples():
    tally, empty = brute_force_restriction(om("2^2_1"), GF2)
    assert empty == 0
    assert {str(k): v for k, v in tally.items()} == {"2^1_1": 2, "1^2_0": 1}

    tally, empty = brute_force_restriction(bp("mu=[1] nu=[1]"), GF3)
    assert empty == 0
    assert {str(k): v for k, v in tally.items()} == {
        "mu=[1] nu=[]": 3,
        "mu=[] nu=[1]": 1,
    }

    tally, empty = brute_force_restriction(bp("mu=[] nu=[1,1]"), GF3)
    assert (empty, {str(k): v for k, v in tally.items()}) == (
        0,
        {"mu=[] nu=[1]": 40},
    )


def test_verify_examples():
    rep = verify_against_formula(om("1^2_0"), GF2)
    assert rep["pass"] and rep["formula"] == {"": 3} and rep["tally"] == {"": 3}
    rep = verify_against_formula(om("2^2_1"), GF4)
    assert rep["pass"] and rep["tally"] == {"2^1_1": 4, "1^2_0": 1}
    rep = verify_against_formula(bp("mu=[1,1] nu=[1]"), GF3)
    assert rep["pass"] and rep["empty_fiber"] == 27 and rep["totals_match"]
    assert set(rep) == {
        "param",
        "q",
        "tally",
        "formula",
        "empty_fiber",
        "totals_match",
        "pass",
    }


def test_empty_fibres_must_match_the_closed_form(monkeypatch):
    # mu=[1,1] nu=[1] has 27 empty lines over GF(3); a rule expecting none fails it
    b = bp("mu=[1,1] nu=[1]")
    assert theory.EXOTIC.empty_lines(b, 3) == 27
    assert verify_against_formula(b, GF3)["pass"]
    monkeypatch.setattr(theory.EXOTIC, "empty_lines", lambda param, q: 0)
    rep = verify_against_formula(b, GF3)
    assert rep["totals_match"] and not rep["pass"]


def test_rank_below_one_rejected():
    for param, F in ((om(""), GF2), (bp("mu=[] nu=[]"), GF3)):
        with pytest.raises(InvalidParam):
            brute_force_restriction(param, F)
        with pytest.raises(InvalidParam):
            verify_against_formula(param, F)


def test_oversized_walk_is_refused_before_it_starts():
    # (64^10 - 1) / 63 kernel lines; the refusal comes before any of them
    param = omega_from_text("1^10_0")
    with pytest.raises(InvalidParam, match="18300341342965825 kernel lines.*10000000"):
        brute_force_restriction(param, field(64))
    with pytest.raises(InvalidParam):
        verify_against_formula(param, field(64))
