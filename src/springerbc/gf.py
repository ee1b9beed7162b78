"""Small finite fields GF(p^k) with p^k <= 64, and exact dense linear algebra.

Field elements are integers in [0, q) encoding base-p digit vectors, i.e.
coefficients of the residue polynomial modulo a fixed irreducible.  All
field operations are dense table lookups, built once per field; the
inverse of a is read off a's row of the multiplication table.  Matrices
are lists of row lists of element codes.  Gaussian elimination pivots on
the first nonzero entry, so every computation is reproducible.
"""

import itertools

from .errors import InvalidParam, InvariantViolation


def _smallest_prime_factor(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _prime_power(q):
    if not (2 <= q <= 64):
        raise InvalidParam(f"field size must be in [2, 64], got {q}")
    p = _smallest_prime_factor(q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise InvalidParam(f"{q} is not a prime power")
    return p, k


class FieldCtx:
    """A fixed small finite field with dense operation tables.

    GF(p^k) is GF(p)[x] modulo the first monic x^k + tail(x) with
    tail(0) != 0 whose quotient ring is a field, that is, whose
    multiplication table has a 1 in every nonzero row.  The candidate tails
    are tried in the order ``itertools.product(range(p), repeat=k)`` lists
    their ascending coefficients.  With b = x * b' + b0 for a constant b0,
    a * b = x * (a * b') + a * b0: one "times x" step per digit of b.
    """

    def __init__(self, q):
        p, k = _prime_power(q)
        self.q, self.p, self.k = q, p, k
        digits = [self._digits(a) for a in range(q)]
        add = self.add_table = [
            [self._encode([(x + y) % p for x, y in zip(da, db)]) for db in digits]
            for da in digits
        ]
        self.neg_table = [self._encode([(-x) % p for x in d]) for d in digits]
        self.sub_table = [
            [add[a][self.neg_table[b]] for b in range(q)] for a in range(q)
        ]
        # a * d for each constant d < p: the table's first p columns
        scaled = [
            [self._encode([d * x % p for x in da]) for d in range(p)] for da in digits
        ]
        top = q // p  # the code of x^(k-1)
        for tail in itertools.product(range(p), repeat=k):
            if tail[0] == 0:
                continue  # divisible by x
            # x^k = -tail(x), so x * a shifts a's digits up and adds its top
            # digit times -tail(x)
            minus_tail = scaled[self.neg_table[self._encode(tail)]]
            times_x = [add[a % top * p][minus_tail[a // top]] for a in range(q)]
            mul = []
            for row in map(list, scaled):
                for b in range(p, q):
                    row.append(add[times_x[row[b // p]]][row[b % p]])
                mul.append(row)
            if all(1 in row for row in mul[1:]):
                break
        else:
            raise InvariantViolation(f"no monic irreducible of degree {k} over GF({p})")
        self.mul_table = mul
        self.inv_table = [0] + [row.index(1) for row in mul[1:]]
        # in characteristic 2 squaring is a bijection; a -> a^(q/2) inverts it
        self.sqrt_table = [self.pow(a, q // 2) for a in range(q)] if p == 2 else None

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.sub_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise InvalidParam("inverse of 0")
        return self.inv_table[a]

    def pow(self, a, e):
        out = 1
        base = a
        while e:
            if e & 1:
                out = self.mul_table[out][base]
            base = self.mul_table[base][base]
            e >>= 1
        return out

    def __repr__(self):
        return f"FieldCtx(GF({self.q}))"


_FIELDS = {}


def field(q):
    """Cached field constructor."""
    if q not in _FIELDS:
        _FIELDS[q] = FieldCtx(q)
    return _FIELDS[q]


# ---------------------------------------------------------------------------
# Dense exact linear algebra


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


def scale_vec(F, c, vec):
    mc = F.mul_table[c]
    return [mc[x] for x in vec]


class Echelon:
    """Incrementally built row-echelon basis of a subspace of F^dim.

    Each stored row has leading coefficient 1 at its pivot column and is
    reduced against all previously stored rows, which makes ``reduce`` a
    single forward pass.  The reduced vector of x is the canonical
    representative of x modulo the subspace: zero at every pivot column.
    """

    def __init__(self, F, dim):
        self.F = F
        self.dim = dim
        self.rows = []
        self.pivots = []

    @property
    def size(self):
        return len(self.rows)

    def reduce(self, vec):
        """The representative of vec modulo the span, zero at every pivot.
        vec is never changed; when no stored row touches it, it is returned
        itself rather than copied."""
        sub = self.F.sub_table
        mul = self.F.mul_table
        v = vec
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                mc = mul[c]
                v = [sub[a][mc[b]] if b else a for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec):
        """Insert vec; return True if it enlarged the span."""
        v = self.reduce(vec)
        for piv, x in enumerate(v):
            if x:
                break
        else:
            return False
        if x != 1:
            mx = self.F.mul_table[self.F.inv_table[x]]
            v = [mx[y] for y in v]
        elif v is vec:
            v = list(v)  # a stored row is never the caller's list
        self.rows.append(v)
        self.pivots.append(piv)
        return True


def rank(F, mat):
    if not mat:
        return 0
    ech = Echelon(F, len(mat[0]))
    for row in mat:
        ech.add(row)
    return ech.size


def nullspace(F, mat):
    """Deterministic basis of the right kernel of mat: for each free column
    c in increasing order, the kernel vector with 1 at c and 0 at every
    other free column."""
    if not mat:
        return []
    ech = Echelon(F, len(mat[0]))
    for row in mat:
        if any(row):  # most rows of a nilpotent's powers are zero
            ech.add(row)
    # to reduced row-echelon form, last row first: a row is zero at the
    # pivots of the rows stored before it, so clearing it at those of the
    # rows after it leaves it zero at every pivot but its own
    reduced = Echelon(F, ech.dim)
    for row, piv in zip(ech.rows[::-1], ech.pivots[::-1]):
        reduced.rows.append(reduced.reduce(row))
        reduced.pivots.append(piv)
    neg = F.neg_table
    pivots = set(ech.pivots)
    basis = []
    for c in range(ech.dim):
        if c not in pivots:
            v = [0] * ech.dim
            v[c] = 1
            for row, piv in zip(reduced.rows, reduced.pivots):
                v[piv] = neg[row[c]]
            basis.append(v)
    return basis
