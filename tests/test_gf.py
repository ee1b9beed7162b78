import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from springerbc.gf import (
    Echelon,
    FieldCtx,
    field,
    mat_mul,
    mat_vec,
    normalize_vector,
    nullspace,
    rank,
    vec_dot,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms(q):
    F = field(q)
    elems = range(q)
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64])
def test_frobenius_fixes_every_point(q):
    F = field(q)
    assert all(F.pow(a, q) == a for a in range(q))


def test_field_size_limits():
    with pytest.raises(ValueError):
        FieldCtx(6)
    with pytest.raises(ValueError):
        FieldCtx(128)
    with pytest.raises(ValueError):
        FieldCtx(1)


def test_multiplicative_group_cyclic():
    for q in (4, 8, 9):
        F = field(q)
        units = set(range(1, q))
        assert any({F.pow(g, e) for e in range(q - 1)} == units for g in units)


def test_matrix_basics():
    F = field(5)
    A = [[1, 2], [3, 4]]
    B = [[0, 1], [1, 0]]
    assert mat_mul(F, A, B) == [[2, 1], [4, 3]]
    assert mat_vec(F, A, [1, 1]) == [3, 2]
    assert vec_dot(F, [1, 2], [3, 4]) == 1  # 11 mod 5
    assert mat_mul(F, A, [[1, 0], [0, 1]]) == A


def test_rank_rref_nullspace():
    F = field(3)
    M = [[1, 2, 0], [2, 2, 0], [0, 0, 0]]
    assert rank(F, M) == 2
    ns = nullspace(F, M)
    assert len(ns) == 1
    assert mat_vec(F, M, ns[0]) == [0, 0, 0]


def test_nullspace_dimension_theorem():
    F = field(4)
    M = [[1, 2, 3, 0], [2, 3, 1, 0]]
    assert rank(F, M) + len(nullspace(F, M)) == 4
    for v in nullspace(F, M):
        assert mat_vec(F, M, v) == [0, 0]


def reference_kernel(F, mat):
    """The right kernel read off a reduced row-echelon form computed by
    plain Gauss-Jordan elimination: one vector per free column."""
    M = [list(row) for row in mat]
    cols = len(M[0])
    pivots = []
    for c in range(cols):
        r = len(pivots)
        sel = next((i for i in range(r, len(M)) if M[i][c]), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(M[i][fc])
        basis.append(v)
    return basis


@st.composite
def matrices(draw):
    F = field(draw(st.sampled_from([2, 3, 4, 5, 8, 9])))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["random", "zero", "full rank"]))
    if shape == "zero":
        return F, [[0] * cols for _ in range(rows)]
    entry = st.integers(0, F.q - 1)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    if shape == "full rank":
        # unit lower triangle at the left of a random matrix
        for i in range(min(rows, cols)):
            mat[i][:i + 1] = [*mat[i][:i], 1]
            for k in range(i + 1, min(rows, cols)):
                mat[i][k] = 0
    return F, mat


@given(matrices())
def test_nullspace_equals_reference_kernel(case):
    F, mat = case
    kernel = nullspace(F, mat)
    assert kernel == reference_kernel(F, mat)
    assert rank(F, mat) + len(kernel) == len(mat[0])


def test_echelon_membership_and_reduce():
    F = field(5)
    e = Echelon(F, 3)
    assert e.add([1, 2, 3])
    assert e.add([0, 1, 1])
    assert not e.add([1, 3, 4])  # dependent: sum of the two
    assert e.contains([2, 4, 1])  # 2 * first
    assert not e.contains([0, 0, 1])
    red = e.reduce([1, 2, 4])
    assert red[0] == 0 and red[1] == 0  # pivot coordinates cleared


def test_normalize_vector():
    F = field(5)
    assert normalize_vector(F, [0, 3, 1]) == [0, 1, 2]
    assert normalize_vector(F, [0, 0]) == [0, 0]
