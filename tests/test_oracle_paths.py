"""Differential tests for the oracle's fast paths.

Each fast path in ``fforacle`` is compared with a plain reference kept here:
Jordan types from the ranks of explicit matrix powers, the chi search over
rebuilt powers and the form x^T G y on each kernel basis vector, the
exotic invariant from the matrix of N on V modulo the cyclic span of v,
quotient matrices built column by column, and a tally with no invariant
memo.  The line walk is pinned against one combination of the basis per
tuple of the plain pivot-then-product enumeration, and the quotient
against every rescaling of its line.
"""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.fforacle import (
    V_NOT_PERP,
    FieldModel,
    _lines,
    _type_of_ranks,
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
from springerbc.gf import Echelon, field, nullspace
from springerbc.params import (
    OmegaParam,
    bipartition_from_text,
    enumerate_bipartitions,
    enumerate_omega,
    omega_from_text,
    recover_bipartition,
    underlying_set,
)
from springerbc.partitions import Partition, partitions_of

from listmat import mat_mul, mat_vec, packed, rank, unpacked, vec_dot, vec_mat

GF2, GF3, GF4, GF5 = field(2), field(3), field(4), field(5)
# larger prime fields, and an odd extension field
GF7, GF9, GF11, GF13 = field(7), field(9), field(11), field(13)


# --- references ------------------------------------------------------------------


def ref_jordan_type(F, mat, dim):
    """Jordan type from rank(N^k), with every power built by mat_mul."""
    if dim == 0:
        return Partition()
    ranks = [dim]
    power = mat
    while ranks[-1] > 0:
        r = rank(F, power)
        if r == ranks[-1]:
            raise InvalidParam(f"rank stabilized at {r} > 0")
        ranks.append(r)
        power = mat_mul(F, power, mat)
    at_least = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    parts = []
    for i, cnt in enumerate(at_least, start=1):
        nxt = at_least[i] if i < len(at_least) else 0
        parts.extend([i] * (cnt - nxt))
    return Partition(parts)


def ref_chi_invariant(model):
    """The chi search over rebuilt powers N^1 .. N^(l+1), testing the form
    pairing of N^(2i+1)b against b for every kernel basis vector b."""
    F, dim = model.field, model.dim
    N, gram = unpacked(F, model.N, dim), unpacked(F, model.gram, dim)
    lam = ref_jordan_type(F, N, dim)
    if not lam:
        return OmegaParam.make(lam, {})
    powers = [N]
    for _ in range(lam.part_at(1)):
        powers.append(mat_mul(F, powers[-1], N))
    chi = {}
    for r in underlying_set(lam):
        kernel = unpacked(F, nullspace(F, packed(F, powers[r - 1])), dim)
        for i in range(0, r // 2 + 1):
            odd = powers[2 * i]
            if not any(
                vec_dot(F, mat_vec(F, odd, b), mat_vec(F, gram, b))
                for b in kernel
            ):
                chi[r] = i
                break
        else:
            raise AssertionError(f"chi search exceeded r/2 at r={r}")
    return OmegaParam.make(lam, chi)


def ref_exotic_invariant(model):
    """lam halved from the Jordan type of N, and hat the Jordan type of the
    matrix of N on V/S, S the cyclic span of v, in the coordinates off the
    pivots of S; both from the ranks of rebuilt powers."""
    F, dim = model.field, model.dim
    doubled = ref_jordan_type(F, model.N, dim)
    lam = Partition(r for r in doubled[::2])
    assert Partition(r for r in doubled[1::2]) == lam, doubled
    span = Echelon(F)
    x = list(model.v)
    while span.add(x):
        x = mat_vec(F, model.N, x)
    free = [j for j in range(dim) if j not in span.pivots]
    induced = []  # column j of N reduced modulo S, on the free coordinates
    for j in free:
        red = span.reduce([row[j] for row in model.N])
        induced.append([red[i] for i in free])
    hat = ref_jordan_type(F, [list(row) for row in zip(*induced)], len(free))
    return recover_bipartition(lam, hat, lam.size)


def ref_quotient_model(model, line):
    """(line-perp)/line built column by column: each kept basis vector
    e_a - alpha_a e_jstar is mapped by N, then reduced modulo the line."""
    F = model.field
    d = model.dim
    gram, N = unpacked(F, model.gram, d), unpacked(F, model.N, d)
    v = F.rows.unpack(model.v, d)
    w = list(line)
    f = mat_vec(F, gram, w)
    if vec_dot(F, v, f) != 0:
        return V_NOT_PERP
    jstar = next(i for i, x in enumerate(f) if x)
    istar = next(i for i, x in enumerate(w) if x and i != jstar)
    keep = [i for i in range(d) if i != jstar and i != istar]
    alpha = [F.mul(x, F.inv(f[jstar])) for x in f]

    def basis_vector(a):
        e = [0] * d
        e[a] = 1
        e[jstar] = F.sub(e[jstar], alpha[a])
        return e

    def project(x):
        c = F.mul(x[istar], F.inv(w[istar]))
        return [F.sub(x[i], F.mul(c, w[i])) for i in keep]

    basis = [basis_vector(a) for a in keep]
    gram2 = [[vec_dot(F, x, mat_vec(F, gram, y)) for y in basis] for x in basis]
    cols = [project(mat_vec(F, N, x)) for x in basis]
    n2 = [list(row) for row in zip(*cols)] if cols else []
    return model_of_lists(F, gram2, n2, project(v))


def model_of_lists(F, gram, N, v):
    """The model with these list matrices, packed to the field's rows."""
    return FieldModel(F, len(v), packed(F, gram), packed(F, N), F.rows.pack(v))


def ref_tally(model):
    """brute_force_restriction without the per-call invariant memo."""
    invariant = chi_invariant if model.field.p == 2 else exotic_invariant
    tally, empty = {}, 0
    for line in kernel_lines(model):
        qm = quotient_model(model, line)
        if qm is V_NOT_PERP:
            empty += 1
            continue
        sub = invariant(qm)
        tally[sub] = tally.get(sub, 0) + 1
    return tally, empty


def kernel_lines(model):
    """The oracle's walk over the lines of ker N, in the field's row
    representation."""
    F = model.field
    return _lines(F, nullspace(F, model.N))


def as_list(model, row):
    return model.field.rows.unpack(row, model.dim)


def ref_projective_tuples(q, d):
    for pivot in range(d):
        for rest in itertools.product(range(q), repeat=d - pivot - 1):
            yield (0,) * pivot + (1,) + rest


def _models(max_n, sp2_fields, exotic_fields):
    for n in range(1, max_n + 1):
        for F in sp2_fields:
            for p in enumerate_omega(n):
                yield p, standard_model_symplectic(p, F)
        for F in exotic_fields:
            for b in enumerate_bipartitions(n):
                yield b, standard_model_exotic(b, F)


# --- jordan types ------------------------------------------------------------------


@st.composite
def lower_triangular(draw):
    """A strictly lower-triangular matrix (nilpotent) with a drawn set of
    its rows zero, conjugated by a permutation so that it need not stay
    triangular and its zero rows fall among the others.  GF(2) and GF(4)
    have packed rows, GF(3) and GF(5) lists."""
    F = draw(st.sampled_from([GF2, GF3, GF4, GF5]))
    dim = draw(st.integers(0, 8))
    zero = draw(st.sets(st.integers(0, max(dim - 1, 0))))
    mat = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        if i not in zero:
            for j in range(i):
                mat[i][j] = draw(st.integers(0, F.q - 1))
    perm = draw(st.permutations(range(dim)))
    mat = [[mat[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]
    return F, mat, dim, perm


@settings(max_examples=300, deadline=None)
@given(lower_triangular())
def test_jordan_type_matches_power_ranks(case):
    F, mat, dim, _ = case
    jt, chain = jordan_type(F, packed(F, mat))
    assert jt == ref_jordan_type(F, mat, dim)
    assert jt.size == dim
    # the row space of N^k has dimension rank(N^k), for k up to the largest part
    assert [ech.size for ech in chain] == [
        sum(max(r - k, 0) for r in jt) for k in range(1, max(jt, default=0) + 1)
    ]
    # and chain[k - 1] spans the row space of N^k, the power built by mat_mul
    power = mat
    for ech in chain:
        assert ech.size == rank(F, power)
        assert all(ech.contains(row) for row in packed(F, power))
        power = mat_mul(F, power, mat)


@settings(max_examples=200, deadline=None)
@given(lower_triangular(), st.data())
def test_jordan_type_rejects_non_nilpotent_input(case, data):
    F, mat, dim, perm = case
    if dim == 0:
        return
    # a nonzero diagonal entry gives a nonzero eigenvalue
    k = data.draw(st.integers(0, dim - 1))
    mat[k][k] = data.draw(st.integers(1, F.q - 1))
    with pytest.raises(InvalidParam, match="^rank stabilized at"):
        ref_jordan_type(F, mat, dim)
    with pytest.raises(InvalidParam, match="^rank stabilized at"):
        jordan_type(F, packed(F, mat))


def test_type_of_ranks_gives_back_every_partition():
    # the ranks of the powers of a nilpotent of type lam are
    # sum_i max(lam_i - k, 0), for k from 0 to the largest part; one memo
    # is shared by every call, as in a tally, and gives back what a fresh
    # call gives
    memo = {}
    for n in range(13):
        for parts in partitions_of(n):
            lam = Partition(parts)
            ranks = [sum(max(r - k, 0) for r in lam) for k in range(lam.part_at(1) + 1)]
            jt = _type_of_ranks(ranks)
            assert type(jt) is Partition and jt == lam, ranks
            for _ in range(2):  # the call that fills the memo, then one that reads it
                kept = _type_of_ranks(ranks, memo)
                assert type(kept) is Partition and kept == lam, ranks
    assert len(memo) == sum(1 for n in range(13) for _ in partitions_of(n))


@pytest.mark.parametrize("ranks", [[4, 3, 1, 0], [3, 2, 0], [5, 4, 2, 1, 0]])
def test_type_of_ranks_rejects_drops_that_increase(ranks):
    # a nilpotent's rank drops never increase; a sequence whose drops do is
    # no nilpotent's, and a memo never keeps it, so it raises on every call
    with pytest.raises(InvariantViolation, match="does not have size"):
        _type_of_ranks(ranks)
    memo = {}
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="does not have size"):
            _type_of_ranks(ranks, memo)
    assert memo == {}


@pytest.mark.parametrize("F", [GF2, GF4, GF3, GF5])
@pytest.mark.parametrize("dim", [1, 2, 5])
def test_jordan_type_of_the_zero_matrix(F, dim):
    zero = [[0] * dim for _ in range(dim)]
    jt, chain = jordan_type(F, packed(F, zero))
    assert jt == Partition([1] * dim)
    assert [ech.size for ech in chain] == [0]


@pytest.mark.parametrize(
    "param, F",
    [(omega_from_text("2^2_1 1^2_0"), GF4), (bipartition_from_text("mu=[1,1] nu=[1]"), GF3)],
    ids=["sp2", "exotic"],
)
def test_no_zero_row_reaches_echelon_add(monkeypatch, param, F):
    # the Jordan chains of a whole oracle call eliminate nonzero rows only
    add = Echelon.add
    rows = zeros = 0

    def counted(self, vec):
        nonlocal rows, zeros
        rows += 1
        zeros += not self.F.rows.nonzero(vec)
        return add(self, vec)

    monkeypatch.setattr(Echelon, "add", counted)
    assert verify_against_formula(param, F)["pass"]
    assert rows and not zeros


# --- invariants and quotients --------------------------------------------------------


def test_chi_invariant_matches_reference_on_every_quotient():
    # each model's quotients share one memo, as in a tally, and each
    # quotient's invariant is also recovered without one
    checked = 0
    for _, model in _models(3, (GF2, GF4), ()):
        memo = {}
        for line in kernel_lines(model):
            qm = quotient_model(model, line)
            want = ref_chi_invariant(qm)
            assert chi_invariant(qm) == want, line
            assert chi_invariant(qm, memo) == want, line
            checked += 1
        assert chi_invariant(model) == ref_chi_invariant(model)
    assert checked > 0


def test_exotic_invariant_matches_reference_on_every_quotient():
    # each model's distinct quotients share one memo, as in a tally; the
    # models run up to exotic n = 4 over GF(3), the benchmark's largest
    # exotic sweep
    checked = 0
    models = itertools.chain(
        _models(3, (), (GF3, GF5)),
        _models(2, (), (GF7, GF9, GF13)),
        ((b, standard_model_exotic(b, GF3)) for b in enumerate_bipartitions(4)),
    )
    for param, model in models:
        memo, seen = {}, set()
        for line in kernel_lines(model):
            qm = quotient_model(model, line)
            if qm is V_NOT_PERP:
                continue
            key = repr((qm.N, qm.gram, qm.v))
            if key in seen:
                continue
            seen.add(key)
            assert exotic_invariant(qm, memo) == ref_exotic_invariant(qm), (param, line)
            checked += 1
        assert exotic_invariant(model) == ref_exotic_invariant(model) == param
    assert checked > 1000


def test_quotient_model_matches_columnwise_reference():
    # each model's lines in a shuffled order, so that the base cached for a
    # pivot pair is not always built by the same line
    checked = 0
    models = itertools.chain(
        _models(3, (GF2, GF4), (GF3, GF5)), _models(2, (), (GF7, GF9, GF11, GF13))
    )
    for param, model in models:
        lines = list(kernel_lines(model))
        random.Random(str(param)).shuffle(lines)
        for line in lines:
            got = quotient_model(model, line)
            want = ref_quotient_model(model, as_list(model, line))
            if want is V_NOT_PERP:
                assert got is V_NOT_PERP, (param, line)
                continue
            assert (got.dim, got.gram, got.N, got.v) == (
                want.dim,
                want.gram,
                want.N,
                want.v,
            ), (param, line)
            checked += 1
    assert checked > 0


def test_quotient_model_finds_exactly_the_empty_fibres():
    # the fibre over a kernel line w is empty when <v, w^T G> != 0, here
    # from list matrices; quotient_model tests w against its cached v^T G,
    # on the models and on the kernel lines of a quotient that lines share
    def check(model):
        F, d = model.field, model.dim
        gram, v = unpacked(F, model.gram, d), F.rows.unpack(model.v, d)
        empty = 0
        for line in kernel_lines(model):
            want = vec_dot(F, v, vec_mat(F, as_list(model, line), gram)) != 0
            assert (quotient_model(model, line) is V_NOT_PERP) == want, line
            empty += want
        return empty

    empty, shared = 0, None
    for param, model in _models(3, (), (GF3, GF5, GF9)):
        empty += check(model)
        taken = {}  # id -> quotient, kept alive so that no id is reused
        for line in kernel_lines(model) if shared is None else ():
            qm = quotient_model(model, line)
            if qm is V_NOT_PERP:
                continue
            if id(qm) in taken and check(qm):  # shared, with an empty fibre
                shared = qm
                break
            taken[id(qm)] = qm
    assert empty > 1000 and shared is not None

    # v^T G with two nonzero entries, so that the pairing is a sum that
    # cancels on a hyperplane of lines: with N = 0 every line of GF(q)^4 is
    # a kernel line, and the q^3 lines off that hyperplane have empty fibres
    for F in (GF3, GF9):
        minus = F.neg(1)
        gram = [[0, 0, 0, 1], [0, 0, 1, 0], [0, minus, 0, 0], [minus, 0, 0, 0]]
        v = [1, F.q - 1, 0, 0]  # v^T G = (0, 0, v[1], 1)
        model = model_of_lists(F, gram, [[0] * 4 for _ in range(4)], v).check()
        assert check(model) == F.q**3, F

    # every sp2 model vector is zero, so no line has an empty fibre
    for param, model in _models(4, (GF2, GF4), ()):
        for line in kernel_lines(model):
            assert quotient_model(model, line) is not V_NOT_PERP, (param, line)


def ref_pivots(model, line):
    """The pivot pair (istar, jstar) that ref_quotient_model takes for a
    line, given as a list."""
    F = model.field
    f = mat_vec(F, unpacked(F, model.gram, model.dim), line)
    jstar = next(i for i, x in enumerate(f) if x)
    istar = next(i for i, x in enumerate(line) if x and i != jstar)
    return istar, jstar


def ref_pivots_fix_the_quotient(model, istar, jstar):
    """Whether no line with these pivots corrects the rows it keeps: column
    jstar of G and N and rows jstar of G and istar of N vanish off the
    pivots, and so do N[istar][jstar] and v[istar]."""
    F, d = model.field, model.dim
    gram, N = unpacked(F, model.gram, d), unpacked(F, model.N, d)
    keep = [a for a in range(d) if a not in (istar, jstar)]
    return not (
        any(gram[a][jstar] or N[a][jstar] or gram[jstar][a] or N[istar][a] for a in keep)
        or N[istar][jstar]
        or F.rows.unpack(model.v, d)[istar]
    )


def test_quotient_model_shares_the_quotient_its_pivots_fix():
    # every line of such a pivot pair returns one quotient, which equals the
    # reference on each of those lines; the quotients taken from it, the
    # next step of a walk over quotients, equal the reference too
    repeats = nested = 0  # lines after the first of their pivots; nested quotients
    models = itertools.chain(
        _models(3, (GF2, GF4), (GF3, GF5)), _models(2, (), (GF7, GF9, GF11, GF13))
    )
    for param, model in models:
        shared = {}
        for line in kernel_lines(model):
            want = ref_quotient_model(model, as_list(model, line))
            if want is V_NOT_PERP:
                continue
            pivots = ref_pivots(model, as_list(model, line))
            if not ref_pivots_fix_the_quotient(model, *pivots):
                continue
            got = quotient_model(model, line)
            assert got is shared.setdefault(pivots, got), (param, line)
            assert (got.dim, got.gram, got.N, got.v) == (
                want.dim,
                want.gram,
                want.N,
                want.v,
            ), (param, line)
            repeats += 1
        repeats -= len(shared)
        for qm in shared.values():
            for line in kernel_lines(qm):
                got = quotient_model(qm, line)
                want = ref_quotient_model(qm, as_list(qm, line))
                assert got == want, (param, line)
                nested += 1
    assert repeats > 1000 and nested > 1000


def test_chi_invariant_matches_reference_on_every_rank_4_quotient():
    # each distinct quotient of the rank-5 models over GF(2) once
    seen = set()
    for p in enumerate_omega(5):
        model = standard_model_symplectic(p, GF2)
        for line in kernel_lines(model):
            qm = quotient_model(model, line)
            key = repr((qm.N, qm.gram))
            if key not in seen:
                seen.add(key)
                assert chi_invariant(qm) == ref_chi_invariant(qm), (p, line)
    assert len(seen) > 1000


def test_memoized_tally_matches_unmemoized():
    # the exotic tallies also share Jordan types and recovered bipartitions
    # between quotients; ref_tally computes every invariant afresh
    models = itertools.chain(
        _models(3, (GF2, GF4), (GF3, GF5)), _models(2, (), (GF7, GF9))
    )
    for param, model in models:
        assert brute_force_restriction(param, model.field) == ref_tally(model), param
    for p in enumerate_omega(4):
        model = standard_model_symplectic(p, GF2)
        assert brute_force_restriction(p, GF2) == ref_tally(model), p


# --- line enumeration ----------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_unranked_tuple_is_kth_tuple(q, d):
    # the k-th line is the reference's k-th tuple, over the unit basis
    full = list(ref_projective_tuples(q, d))
    assert len(full) == line_count(q, d)
    R = field(q).rows
    identity = [R.pack([int(i == j) for j in range(d)]) for i in range(d)]
    lines = [R.unpack(line, d) for line in _lines(field(q), identity)]
    assert lines == [list(t) for t in full]


def test_line_walk_matches_plain_combinations_on_kernel_bases():
    # each distinct kernel basis of the models of rank <= 4 once
    bases = {}
    for _, model in _models(4, (GF2, GF4), (GF3, GF5)):
        F = model.field
        basis = unpacked(F, nullspace(F, model.N), model.dim)
        bases[F.q, repr(basis)] = F, basis
    for F, basis in bases.values():
        want = [
            vec_mat(F, coeffs, basis)
            for coeffs in ref_projective_tuples(F.q, len(basis))
        ]
        packed = [F.rows.pack(b) for b in basis]
        dim = len(basis[0]) if basis else 0
        got = [F.rows.unpack(line, dim) for line in _lines(F, packed)]
        assert got == want, (F, basis)
    assert len(bases) > 50


def test_quotient_model_ignores_the_scale_of_the_line():
    # the walk does not normalize its lines, so every nonzero multiple of a
    # kernel line must give the same quotient
    checked = 0
    for param, model in _models(3, (GF4,), (GF3, GF5)):
        F = model.field
        for line in kernel_lines(model):
            want = quotient_model(model, line)
            for c in range(1, F.q):
                multiple = [F.mul(c, x) for x in as_list(model, line)]
                got = quotient_model(model, F.rows.pack(multiple))
                if want is V_NOT_PERP:
                    assert got is V_NOT_PERP, (param, line, c)
                else:
                    assert got == want, (param, line, c)
                    checked += 1
    assert checked > 0


# --- checks under python -O --------------------------------------------------------------


def test_type_of_ranks_raises_again_through_its_memo_under_python_O():
    code = textwrap.dedent(
        """
        from springerbc.errors import InvariantViolation
        from springerbc.fforacle import _type_of_ranks

        assert False, "asserts must be stripped"
        memo = {}
        for _ in range(2):
            try:
                _type_of_ranks([4, 3, 1, 0], memo)
            except InvariantViolation:
                print("raised")
        print(len(memo))
        """
    )
    assert run_optimized(code) == ["raised", "raised", "0"]


def test_model_check_raises_under_python_O():
    code = textwrap.dedent(
        """
        from springerbc.errors import InvariantViolation
        from springerbc.fforacle import FieldModel, standard_model_exotic
        from springerbc.gf import field
        from springerbc.params import bipartition_from_text

        assert False, "asserts must be stripped"
        F = field(3)
        model = standard_model_exotic(bipartition_from_text("mu=[1] nu=[]"), F)
        N = [row[:] for row in model.N]
        N[0][0] = 1  # no longer self-adjoint for the form
        try:
            FieldModel(F, model.dim, model.gram, N, model.v).check()
        except InvariantViolation:
            print("raised")
        """
    )
    assert run_optimized(code) == ["raised"]


def test_model_check_rejects_odd_form():
    model = standard_model_exotic(
        next(b for b in enumerate_bipartitions(1) if b.mu), GF3
    )
    gram = [row[:] for row in model.gram]
    gram[0][0] = 1
    with pytest.raises(InvariantViolation):
        FieldModel(GF3, model.dim, gram, model.N, model.v).check()


def split_form(F):
    """The alternating form on e_0 .. e_3 that pairs e_0 with e_3 and e_1
    with e_2."""
    minus = F.neg(1)
    return [[0, 0, 0, 1], [0, 0, 1, 0], [0, minus, 0, 0], [minus, 0, 0, 0]]


@pytest.mark.parametrize(
    "q, broken, message",
    [
        (2, "diagonal", "form not alternating"),
        (4, "diagonal", "form not alternating"),
        (2, "degenerate", "form degenerate"),
        (4, "degenerate", "form degenerate"),
        (2, "adjoint", "nilpotent not self-adjoint for the form"),
        (4, "adjoint", "nilpotent not self-adjoint for the form"),
        (3, "skew", "form not skew-symmetric"),
    ],
)
def test_model_check_rejections_on_the_field_rows(q, broken, message):
    # each broken model differs from a valid one in one or two entries
    F = field(q)
    gram = split_form(F)
    nilp = [[0] * 4 for _ in range(4)]
    model_of_lists(F, gram, nilp, [0] * 4).check()
    if broken == "diagonal":
        gram[1][1] = q - 1
    elif broken == "degenerate":
        gram[0][3] = gram[3][0] = 0
    elif broken == "adjoint":
        nilp[1][0] = 1  # G N has an entry at (2, 0), N^T G one at (0, 2)
    else:
        gram[3][0] = 1
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        model_of_lists(F, gram, nilp, [0] * 4).check()


def test_quotient_model_rejects_a_pivot_off_the_alternating_form():
    # G[0][0] = 1 and otherwise alternating: the line e_3 has f = -e_0, so
    # the pivot pair is (3, 0), and the quotient on e_1, e_2 would come out
    # alternating if quotient_model did not look at G[0][0]
    gram = [[1, 0, 0, 1], [0, 0, 1, 0], [0, 2, 0, 0], [2, 0, 0, 0]]
    zero = [[0] * 4 for _ in range(4)]
    model = FieldModel(GF3, 4, gram, zero, [0] * 4)
    with pytest.raises(InvariantViolation, match="^form not alternating"):
        quotient_model(model, [0, 0, 0, 1])


def test_quotient_model_rejects_a_pivot_off_the_alternating_form_in_characteristic_2():
    # the twin over GF(4) on packed rows: G[0][0] = 3 and otherwise
    # alternating; the line e_3 has f = 2 e_0, so the pivot pair is (3, 0)
    gram = [[3, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 0]]
    zero = [[0] * 4 for _ in range(4)]
    model = model_of_lists(GF4, gram, zero, [0] * 4)
    with pytest.raises(InvariantViolation, match="^form not alternating"):
        quotient_model(model, GF4.rows.pack([0, 0, 0, 1]))


@pytest.mark.parametrize("F", [GF3, GF4, GF7])
def test_quotient_model_rejects_a_line_that_pairs_with_itself(F):
    # G[0][0] = 1: the line e_0 has f = e_0 + e_3, so the pivot jstar = 0 is
    # the line's only nonzero index and no istar is left
    minus = F.neg(1)
    gram = [[1, 0, 0, 1], [0, 0, 1, 0], [0, minus, 0, 0], [minus, 0, 0, 0]]
    zero = [[0] * 4 for _ in range(4)]
    model = model_of_lists(F, gram, zero, [0] * 4)
    with pytest.raises(InvariantViolation, match="^form not alternating"):
        quotient_model(model, F.rows.pack([1, 0, 0, 0]))


def test_pivot_check_in_characteristic_2_raises_under_python_O():
    code = textwrap.dedent(
        """
        from springerbc.errors import InvariantViolation
        from springerbc.fforacle import FieldModel, quotient_model
        from springerbc.gf import field

        assert False, "asserts must be stripped"
        F = field(4)
        gram = [[3, 0, 0, 2], [0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 0]]
        gram = [F.rows.pack(row) for row in gram]
        zero = [0] * 4
        try:
            quotient_model(FieldModel(F, 4, gram, zero, 0), F.rows.pack([0, 0, 0, 1]))
        except InvariantViolation as exc:
            print("raised", exc)
        """
    )
    assert run_optimized(code) == ["raised", "form", "not", "alternating"]


def test_quotient_checks_over_a_prime_field_raise_under_python_O():
    # over GF(7): the line e_0 pairs with itself (G[0][0] = 1); the line e_3 has f = -e_0 and pivots (3, 0), and
    # leaves G[1][1] = 1 on the quotient's diagonal
    code = textwrap.dedent(
        """
        from springerbc.errors import InvariantViolation
        from springerbc.fforacle import FieldModel, quotient_model
        from springerbc.gf import field

        assert False, "asserts must be stripped"
        F = field(7)
        zero = [[0] * 4 for _ in range(4)]
        cases = [
            ([[1, 0, 0, 1], [0, 0, 1, 0], [0, 6, 0, 0], [6, 0, 0, 0]], [1, 0, 0, 0]),
            ([[0, 0, 0, 1], [0, 1, 1, 0], [0, 6, 0, 0], [6, 0, 0, 0]], [0, 0, 0, 1]),
        ]
        for gram, line in cases:
            try:
                quotient_model(FieldModel(F, 4, gram, zero, [0] * 4), F.rows.pack(line))
            except InvariantViolation as exc:
                print("raised:", exc)
        """
    )
    assert run_optimized(code) == [
        "raised:", "form", "not", "alternating",
        "raised:", "quotient", "form", "not", "alternating",
    ]


@pytest.mark.parametrize("F", [GF4, GF7], ids=["packed_rows", "list_rows"])
@pytest.mark.parametrize("moves", ["nothing", "nilpotent", "form"])
def test_quotient_diagonal_check_runs_for_every_line_of_its_pivots(F, moves):
    # G[1][1] != 0 and otherwise alternating; the lines e_3 and e_0 + e_3
    # both have the pivots (3, 0), and each leaves G[1][1] on the quotient's
    # diagonal: with N = 0 and v = 0 no correction depends on the line, the
    # entry N[1][0] makes the nilpotent's column correction nonzero, and
    # G[0][1] the form's; a check that failed must not be skipped for a
    # later line of the same pivots
    minus = F.neg(1)
    gram = [[0, 0, 0, 1], [0, 2, 1, 0], [0, minus, 0, 0], [minus, 0, 0, 0]]
    nilp = [[0] * 4 for _ in range(4)]
    if moves == "nilpotent":
        nilp[1][0] = 1
    elif moves == "form":
        gram[0][1], gram[1][0] = 1, minus
    model = model_of_lists(F, gram, nilp, [0] * 4)
    for line in ([0, 0, 0, 1], [1, 0, 0, 1], [0, 0, 0, 1]):
        with pytest.raises(InvariantViolation, match="^quotient form not alternating$"):
            quotient_model(model, F.rows.pack(line))


def run_optimized(code):
    """The words that code prints when run by ``python -O``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()
