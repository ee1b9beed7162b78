import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import springerbc.gf as gf
from springerbc.errors import InvariantViolation
from springerbc.gf import Echelon, FieldCtx, field, nullspace

from listmat import mat_mul, mat_vec, packed, rank, unpacked, vec_dot


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


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
def test_square_root_table_inverts_squaring(q):
    F = field(q)
    assert sorted(F.sqrt_table) == list(range(q))
    assert all(F.sqrt_table[F.mul(a, a)] == a for a in range(q))


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_mod(a, m, p):
    """a modulo the monic m over GF(p); coefficients ascending."""
    a = list(a)
    while len(a) >= len(m):
        c, shift = a[-1], len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()  # now zero, as m is monic
    return a


def reference_modulus(p, k):
    """The first monic irreducible of degree k over GF(p) with nonzero
    constant term, by trial division, tails in ``itertools.product`` order."""
    lower = [
        [*tail, 1]
        for d in range(1, k // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    ]
    for tail in itertools.product(range(p), repeat=k):
        if tail[0] and all(any(poly_mod([*tail, 1], m, p)) for m in lower):
            return [*tail, 1]


PRIMES = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
PRIME_POWERS = sorted(p**k for p in PRIMES for k in range(1, 7) if p**k <= 64)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_are_polynomial_arithmetic(q):
    F = FieldCtx(q)
    p, k = F.p, F.k
    assert p**k == q
    modulus = reference_modulus(p, k)
    digits = [[a // p**i % p for i in range(k)] for a in range(q)]

    def code(d):
        return sum(x * p**i for i, x in enumerate(d))

    assert F.add_table == [
        [code([(x + y) % p for x, y in zip(da, db)]) for db in digits] for da in digits
    ]
    assert F.mul_table == [
        [code(poly_mod(poly_mul(da, db, p), modulus, p)) for db in digits]
        for da in digits
    ]
    assert F.neg_table == [code([-x % p for x in d]) for d in digits]
    assert F.sub_table == [
        [F.add_table[a][F.neg_table[b]] for b in range(q)] for a in range(q)
    ]
    assert F.inv_table == [0] + [F.mul_table[a].index(1) for a in range(1, q)]


def test_no_field_among_the_candidates_is_an_invariant_violation(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over GF(2): 1 + x has no inverse
    monkeypatch.setattr(gf.itertools, "product", lambda *_, **__: iter([(1, 0)]))
    with pytest.raises(InvariantViolation, match="degree 2 over GF"):
        FieldCtx(4)


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
    # the row primitives that took over the list kernels' bodies
    assert [F.rows.combine(row, B) for row in A] == [[2, 1], [4, 3]]
    assert F.rows.dot([1, 2], [3, 4]) == 1


def test_rank_rref_nullspace():
    F = field(3)
    M = [[1, 2, 0], [2, 2, 0], [0, 0, 0]]
    assert rank(F, M) == 2
    ns = nullspace(F, M)
    assert len(ns) == 1
    assert mat_vec(F, M, ns[0]) == [0, 0, 0]


def kernel(F, mat):
    """nullspace of the square list matrix mat, as lists."""
    return unpacked(F, nullspace(F, packed(F, mat)), len(mat))


def test_nullspace_dimension_theorem():
    F = field(4)
    M = [[1, 2, 3, 0], [2, 3, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert rank(F, M) + len(kernel(F, M)) == 4
    for v in kernel(F, M):
        assert mat_vec(F, M, v) == [0, 0, 0, 0]


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
    # nullspace takes a square matrix: pad with zero rows or columns
    d = max(rows, cols)
    shape = draw(st.sampled_from(["random", "zero", "full rank"]))
    if shape == "zero":
        return F, [[0] * d for _ in range(d)]
    entry = st.integers(0, F.q - 1)
    mat = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    if shape == "full rank":
        # unit lower triangle at the left of a random matrix
        for i in range(min(rows, cols)):
            mat[i][:i + 1] = [*mat[i][:i], 1]
            for k in range(i + 1, min(rows, cols)):
                mat[i][k] = 0
    return F, [row + [0] * (d - cols) for row in mat] + [[0] * d for _ in range(d - rows)]


@given(matrices())
def test_nullspace_equals_reference_kernel(case):
    F, mat = case
    basis = kernel(F, mat)
    assert basis == reference_kernel(F, mat)
    assert rank(F, mat) + len(basis) == len(mat[0])


def test_echelon_membership_and_reduce():
    F = field(5)
    e = Echelon(F)
    assert e.add([1, 2, 3])
    assert e.add([0, 1, 1])
    assert not e.add([1, 3, 4])  # dependent: sum of the two
    assert e.contains([2, 4, 1])  # 2 * first
    assert not e.contains([0, 0, 1])
    red = e.reduce([1, 2, 4])
    assert red[0] == 0 and red[1] == 0  # pivot coordinates cleared

