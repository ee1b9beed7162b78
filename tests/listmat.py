"""Plain list-matrix kernels over a ``gf`` field, kept as test references.

A matrix here is a list of row lists of element codes, whatever the
field's own row representation.  The package computes on rows alone; these
are the list kernels it used before, so that tests can check its row
computations against an independent route.  ``kernel_lines`` is the
oracle's own walk over the lines of ker N, which the oracle tests read.
"""

from springerbc.fforacle import _lines
from springerbc.gf import Echelon, nullspace


def kernel_lines(model):
    """The oracle's walk over the lines of ker N, in the field's row
    representation."""
    F = model.field
    return _lines(F, nullspace(F, model.N))


def mat_vec(F, mat, vec):
    add = F.add_table
    mul = F.mul_table
    terms = [(j, mul[x]) for j, x in enumerate(vec) if x]  # vec is often sparse
    out = []
    for row in mat:
        acc = 0
        for j, mx in terms:
            a = row[j]
            if a:
                acc = add[acc][mx[a]]
        out.append(acc)
    return out


def vec_mat(F, vec, mat):
    """The row vector vec times mat: a combination of the rows of mat."""
    add = F.add_table
    mul = F.mul_table
    out = [0] * len(mat[0])
    for c, row in zip(vec, mat):
        if c == 1:
            out = [add[a][b] if b else a for a, b in zip(out, row)]
        elif c:
            mc = mul[c]
            out = [add[a][mc[b]] if b else a for a, b in zip(out, row)]
    return out


def mat_mul(F, A, B):
    return [vec_mat(F, row, B) for row in A]


def vec_dot(F, x, y):
    add = F.add_table
    mul = F.mul_table
    acc = 0
    for a, b in zip(x, y):
        if a and b:
            acc = add[acc][mul[a][b]]
    return acc


def rank(F, mat):
    ech = Echelon(F)
    for row in mat:
        ech.add(F.rows.pack(row))
    return ech.size


def packed(F, mat):
    """The rows of mat in the field's row representation."""
    return list(map(F.rows.pack, mat))


def unpacked(F, rows, dim):
    """The rows, each in the field's row representation, as a list matrix
    with dim columns."""
    return [F.rows.unpack(row, dim) for row in rows]
