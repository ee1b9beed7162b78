"""The row representations of ``gf`` against the field tables.

Over GF(2^k) a row is one int with k bits per entry; in odd characteristic
it is a list of element codes.  Every packed primitive is checked entry by
entry against the field's addition, subtraction, multiplication and square
root tables, for every q = 2^k <= 64.  ``Echelon`` has one body for both
representations, so running it on the list rows of the same field
(``_ListRows`` over GF(2^k)) gives a reference for its packed run.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerbc.gf import Echelon, _ListRows, field

from listmat import rank, vec_dot, vec_mat

CHAR2 = [2, 4, 8, 16, 32, 64]


@st.composite
def rows_over(draw, qs=CHAR2, count=1, max_len=12):
    """A field GF(q) with q in qs and ``count`` lists of entries of one length."""
    F = field(draw(st.sampled_from(qs)))
    d = draw(st.integers(0, max_len))
    entry = st.integers(0, F.q - 1)
    rows = [draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(count)]
    return F, d, rows


def list_first(row, start=0):
    return next(((a, x) for a, x in enumerate(row) if x and a >= start), None)


@settings(max_examples=300, deadline=None)
@given(rows_over(count=2))
def test_packed_primitives_follow_the_field_tables(case):
    F, d, (r, s) = case
    R = F.rows
    add, sub, mul = F.add_table, F.sub_table, F.mul_table
    pr, ps = R.pack(r), R.pack(s)
    assert R.unpack(pr, d) == r
    assert R.pack(R.unpack(pr, d)) == pr
    assert [R.entry(pr, a) for a in range(d)] == r
    assert R.unpack(R.add(pr, ps), d) == [add[a][b] for a, b in zip(r, s)]
    for c in range(F.q):
        assert R.unpack(R.scale(c, pr), d) == [mul[c][x] for x in r], c
        assert R.unpack(R.sub_mul(pr, c, ps), d) == [
            sub[a][mul[c][b]] for a, b in zip(r, s)
        ], c
    for start in range(d + 1):
        assert R.first(pr, start) == list_first(r, start), start
    assert R.items(pr) == [(a, x) for a, x in enumerate(r) if x]
    assert R.nonzero(pr) == any(r)
    assert R.unpack(R.mul_slots(pr, ps), d) == [mul[a][b] for a, b in zip(r, s)]
    assert R.unpack(R.sqrt(pr), d) == [F.sqrt_table[x] for x in r]
    dot = 0
    for a, b in zip(r, s):
        dot = add[dot][mul[a][b]]
    assert R.dot(pr, ps) == dot
    lead = list_first(r)
    if lead is None:
        assert R.monic(pr) is None
    else:
        scaled = [mul[F.inv_table[lead[1]]][x] for x in r]
        assert R.monic(pr) == (lead[0], R.pack(scaled))


@settings(max_examples=200, deadline=None)
@given(rows_over(max_len=8), st.data())
def test_packed_matrix_primitives_follow_the_field_tables(case, data):
    F, d, (coeffs,) = case
    R = F.rows
    add, mul = F.add_table, F.mul_table
    entry = st.integers(0, F.q - 1)
    mat = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    rows = [R.pack(row) for row in mat]
    combined = [0] * d
    for c, row in zip(coeffs, mat):
        combined = [add[a][mul[c][b]] for a, b in zip(combined, row)]
    assert R.unpack(R.combine(R.pack(coeffs), rows), d) == combined
    assert R.unpack(R.apply(R.multiples(rows), R.pack(coeffs)), d) == combined
    assert R.unpack(R.diagonal(rows), d) == [mat[a][a] for a in range(d)]
    kept = data.draw(st.lists(st.sampled_from(range(d)), unique=True)) if d else []
    kept.sort()
    sel = R.selector(kept)
    assert R.unpack(R.take(R.pack(coeffs), sel), len(kept)) == [coeffs[a] for a in kept]
    unit = st.integers(1, F.q - 1)
    touched = data.draw(st.lists(st.tuples(st.sampled_from(range(d)), unit))) if d else []
    got = list(rows)
    R.sub_outer(got, touched, R.pack(coeffs))
    want = [list(row) for row in mat]
    for k, c in touched:
        want[k] = [F.sub_table[a][mul[c][b]] for a, b in zip(want[k], coeffs)]
    assert [R.unpack(row, d) for row in got] == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 32, 64])
def test_apply_combines_the_rows_like_vec_mat(q):
    # apply on the rows' multiples and combine on the rows are the row
    # vector times the matrix, and dot the list kernel's dot product, in
    # either row representation, for dense and sparse entries alike
    F = field(q)
    R = F.rows
    rng = random.Random(q)

    def draw(d, density):
        return [rng.randrange(q) if rng.random() < density else 0 for _ in range(d)]

    for d in range(1, 9):
        for density in (0.3, 1.0):
            mat = [draw(d, density) for _ in range(d)]
            rows = [R.pack(row) for row in mat]
            multiples = R.multiples(rows)
            for _ in range(4):
                coeffs = draw(d, density)
                want = vec_mat(F, coeffs, mat)
                got = R.unpack(R.apply(multiples, R.pack(coeffs)), d)
                assert got == want, (d, mat, coeffs)
                got = R.unpack(R.combine(R.pack(coeffs), rows), d)
                assert got == want, (d, mat, coeffs)
                assert R.dot(R.pack(coeffs), rows[0]) == vec_dot(F, coeffs, mat[0])


def list_rows_of(F):
    """The field F with list rows in place of its own representation."""
    listed = copy.copy(F)
    listed.rows = _ListRows(F)
    return listed


@settings(max_examples=200, deadline=None)
@given(rows_over(qs=[2, 4, 8], count=10, max_len=8), st.integers(0, 10))
def test_packed_echelon_matches_the_list_echelon(case, size):
    # the first size rows span the echelon; all ten are reduced modulo it
    F, d, rows = case
    L = list_rows_of(F)
    R = F.rows
    packed, listed = Echelon(F), Echelon(L)
    for row in rows[:size]:
        assert packed.add(R.pack(row)) == listed.add(list(row))
    assert packed.pivots == listed.pivots
    assert [R.unpack(row, d) for row in packed.rows] == listed.rows
    assert rank(F, rows[:size]) == rank(L, rows[:size]) == packed.size
    for row in rows:
        assert R.unpack(packed.reduce(R.pack(row)), d) == listed.reduce(list(row))
        assert packed.contains(R.pack(row)) == listed.contains(list(row))


def test_rows_longer_than_the_first_masks_widen_them():
    # the slot masks start at 64 entries and widen when a longer row is packed
    for q in CHAR2:
        F = field(q)
        R, mul = F.rows, F.mul_table
        row = [(7 * a + 3) % q for a in range(150)]
        packed = R.pack(row)
        assert R.unpack(packed, 150) == row
        assert R.unpack(R.scale(q - 1, packed), 150) == [mul[q - 1][x] for x in row]
        assert R.unpack(R.mul_slots(packed, packed), 150) == [mul[x][x] for x in row]
        assert R.unpack(R.sqrt(packed), 150) == [F.sqrt_table[x] for x in row]
