"""Small finite fields GF(p^k) with p^k <= 64, and exact dense linear algebra.

Field elements are integers in [0, q) encoding base-p digit vectors, i.e.
coefficients of the residue polynomial modulo a fixed irreducible.  All
field operations are dense table lookups, built once per field; the
inverse of a is read off a's row of the multiplication table.

A matrix is the list of its rows, each in the field's row representation,
``FieldCtx.rows``.  In odd characteristic a row is a list of element
codes.  Over GF(2^k) a row is one int with entry a in bits k*a ..
k*a + k - 1, so that adding or subtracting two rows is one XOR and the
first nonzero entry is the lowest set bit.  Both representations have the
same primitives, and ``Echelon``, ``nullspace`` and everything built on
them have one body for both.  Gaussian elimination pivots on the first
nonzero entry, so every computation is reproducible.
"""

import itertools
import operator

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
        self.rows = _ListRows(self) if p > 2 else _PackedRows(self)

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
# Rows and elimination


class _ListRows:
    """Rows as lists of element codes: the row representation in odd
    characteristic.  Every row made here is a new list."""

    def __init__(self, F):
        self.add_table, self.sub_table = F.add_table, F.sub_table
        self.mul_table, self.inv_table = F.mul_table, F.inv_table

    pack = staticmethod(list)
    entry = staticmethod(operator.getitem)
    nonzero = staticmethod(any)

    @staticmethod
    def unpack(row, d):
        return list(row)

    @staticmethod
    def first(row, start=0):
        """(index, entry) of the first nonzero entry from start on, or None."""
        x = next(filter(None, row[start:] if start else row), 0)
        return (row.index(x, start), x) if x else None

    def monic(self, row):
        """(index of the first nonzero entry, a new row: row scaled to 1
        there), or None for the zero row."""
        x = next(filter(None, row), 0)
        if not x:
            return None
        if x == 1:
            return row.index(1), row[:]
        return row.index(x), list(map(self.mul_table[self.inv_table[x]].__getitem__, row))

    @staticmethod
    def items(row):
        """The (index, entry) of every nonzero entry, in index order."""
        return list(itertools.compress(enumerate(row), row))

    def add(self, r, s):
        add = self.add_table
        return [add[a][b] for a, b in zip(r, s)]

    def scale(self, c, row):
        return list(map(self.mul_table[c].__getitem__, row))

    def sub_mul(self, r, c, s):
        """r - c * s"""
        sub, mc = self.sub_table, self.mul_table[c]
        return [sub[a][mc[b]] if b else a for a, b in zip(r, s)]

    def sub_outer(self, rows, coeffs, vec):
        """rows[k] -= c * vec for every (k, c) in coeffs (c != 0), each by a
        new row."""
        if not coeffs:
            return
        sub, mul = self.sub_table, self.mul_table
        terms = list(itertools.compress(enumerate(vec), vec))
        for k, c in coeffs:
            row = rows[k] = rows[k][:]
            mc = mul[c]
            for a, x in terms:
                row[a] = sub[row[a]][mc[x]]

    def combine(self, coeffs, rows):
        """The combination sum_b coeffs[b] * rows[b]."""
        add, mul = self.add_table, self.mul_table
        out = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c == 1:
                out = [add[a][b] if b else a for a, b in zip(out, row)]
            elif c:
                mc = mul[c]
                out = [add[a][mc[b]] if b else a for a, b in zip(out, row)]
        return out

    def multiples(self, rows):
        """The rows of a square matrix prepared for ``apply``: the nonzero
        entries of each."""
        return list(map(self.items, rows))

    def apply(self, multiples, vec):
        """The combination sum_b vec[b] * rows[b] of the rows that
        ``multiples`` was made from."""
        add, mul = self.add_table, self.mul_table
        out = [0] * len(vec)
        for b, x in enumerate(vec):
            if x:
                mx = mul[x]
                for a, y in multiples[b]:
                    out[a] = add[out[a]][mx[y]]
        return out

    @staticmethod
    def selector(kept):
        """take's argument for the entries at the increasing indices kept."""
        return kept

    @staticmethod
    def take(row, kept):
        return list(map(row.__getitem__, kept))

    @staticmethod
    def diagonal(rows):
        return list(map(operator.getitem, rows, itertools.count()))


class _PackedRows:
    """Rows over GF(2^k) as ints: entry a of a row is bits k*a .. k*a + k - 1.

    Adding or subtracting rows is XOR, and the first nonzero entry is at the
    lowest set bit.  Multiplying every entry by x shifts each k-bit slot up
    by one bit and folds the slot's top bit back in as x^k, whose code is t;
    so c * row takes one such step per binary digit of c.  The masks over
    all slots (``ones``, ``top``) are widened to the longest row packed so
    far; every other row is made from packed rows and is no longer.
    """

    def __init__(self, F):
        k = self.k = F.k
        self.q = F.q
        self.inv_table = F.inv_table
        self.mask = (1 << k) - 1
        self.t = F.mul_table[2][1 << (k - 1)] if k > 1 else 1  # x = 1 in GF(2)
        # square roots are additive: the root of a is the sum of those of its bits
        self.bit_roots = [F.sqrt_table[1 << j] for j in range(k)]
        self._widen(64)

    add = staticmethod(operator.xor)
    nonzero = staticmethod(bool)

    def _widen(self, width):
        self.width = width
        self.ones = ((1 << self.k * width) - 1) // self.mask  # bit 0 of each slot
        self.top = self.ones << (self.k - 1)  # the top bit of each slot

    def pack(self, entries):
        if len(entries) > self.width:
            self._widen(max(len(entries), 2 * self.width))
        row = 0
        for x in reversed(entries):
            row = (row << self.k) | x
        return row

    def unpack(self, row, d):
        k, mask = self.k, self.mask
        return [(row >> k * a) & mask for a in range(d)]

    def entry(self, row, a):
        return (row >> self.k * a) & self.mask

    def monic(self, row):
        """(index of the first nonzero entry, row scaled to 1 there), or None
        for the zero row."""
        if not row:
            return None
        k = self.k
        a = ((row & -row).bit_length() - 1) // k
        x = (row >> k * a) & self.mask
        return a, row if x == 1 else self.scale(self.inv_table[x], row)

    def first(self, row, start=0):
        """(index, entry) of the first nonzero entry from start on, or None."""
        k = self.k
        row >>= k * start
        if not row:
            return None
        a = ((row & -row).bit_length() - 1) // k
        return start + a, (row >> k * a) & self.mask

    def items(self, row):
        """The (index, entry) of every nonzero entry, in index order."""
        k, mask = self.k, self.mask
        out = []
        while row:
            shift = (row & -row).bit_length() - 1
            shift -= shift % k
            x = (row >> shift) & mask
            row ^= x << shift
            out.append((shift // k, x))
        return out

    def scale(self, c, row):
        top, up, t = self.top, self.k - 1, self.t
        out = 0
        while True:
            if c & 1:
                out ^= row
            c >>= 1
            if not c:
                return out
            high = row & top
            row = ((row ^ high) << 1) ^ ((high >> up) * t)

    def sub_mul(self, r, c, s):
        """r - c * s"""
        return r ^ (s if c == 1 else self.scale(c, s))

    def sub_outer(self, rows, coeffs, vec):
        """rows[k] -= c * vec for every (k, c) in coeffs (c != 0)."""
        scale = self.scale
        for k, c in coeffs:
            rows[k] ^= vec if c == 1 else scale(c, vec)

    def combine(self, coeffs, rows):
        """The combination sum_b coeffs[b] * rows[b]."""
        k, mask, scale = self.k, self.mask, self.scale
        acc = 0
        while coeffs:
            shift = (coeffs & -coeffs).bit_length() - 1
            shift -= shift % k
            c = (coeffs >> shift) & mask
            coeffs ^= c << shift
            row = rows[shift // k]
            acc ^= row if c == 1 else scale(c, row)
        return acc

    def mul_slots(self, r, s):
        """The entrywise product of r and s."""
        ones, mask, top, up, t = self.ones, self.mask, self.top, self.k - 1, self.t
        out = r & ((s & ones) * mask)
        for j in range(1, self.k):
            high = r & top
            r = ((r ^ high) << 1) ^ ((high >> up) * t)
            out ^= r & (((s >> j) & ones) * mask)  # x^j r where s has bit j
        return out

    def sqrt(self, row):
        """The entrywise square root."""
        out = 0
        for j, root in enumerate(self.bit_roots):
            out ^= ((row >> j) & self.ones) * root
        return out

    def multiples(self, rows):
        """The rows of a square matrix prepared for ``apply``: the q
        multiples of each."""
        return [[self.scale(c, row) for c in range(self.q)] for row in rows]

    def apply(self, multiples, vec):
        """The combination sum_b vec[b] * rows[b] of the rows that
        ``multiples`` was made from."""
        k, mask = self.k, self.mask
        acc = 0
        while vec:
            b = ((vec & -vec).bit_length() - 1) // k
            c = (vec >> k * b) & mask
            vec ^= c << k * b
            acc ^= multiples[b][c]
        return acc

    def selector(self, kept):
        """take's argument for the entries at the increasing indices kept:
        per run of consecutive kept entries, the shift that brings it to its
        new place and the mask of that place."""
        runs = {}
        for i, a in enumerate(kept):
            shift = self.k * (a - i)
            runs[shift] = runs.get(shift, 0) | (self.mask << self.k * i)
        return list(runs.items())

    @staticmethod
    def take(row, runs):
        out = 0
        for shift, mask in runs:
            out |= (row >> shift) & mask
        return out

    def diagonal(self, rows):
        k, mask = self.k, self.mask
        out = 0
        for a, row in enumerate(rows):
            out |= row & (mask << k * a)
        return out


class Echelon:
    """Incrementally built row-echelon basis of the span of the rows added.

    Rows are in the field's row representation (``F.rows``).  Each stored
    row has leading coefficient 1 at its pivot column and is reduced
    against all previously stored rows, which makes ``reduce`` a single
    forward pass.  The reduced vector of x is the canonical representative
    of x modulo the subspace: zero at every pivot column.
    """

    def __init__(self, F):
        self.F = F
        self.rows = []
        self.pivots = []

    @property
    def size(self):
        return len(self.rows)

    def reduce(self, vec):
        """The representative of vec modulo the span, zero at every pivot.
        vec is never changed; when no stored row touches it, it is returned
        itself rather than copied."""
        R = self.F.rows
        entry, sub_mul = R.entry, R.sub_mul
        v = vec
        for row, piv in zip(self.rows, self.pivots):
            c = entry(v, piv)
            if c:
                v = sub_mul(v, c, row)
        return v

    def contains(self, vec):
        return not self.F.rows.nonzero(self.reduce(vec))

    def add(self, vec):
        """Insert vec; return True if it enlarged the span."""
        lead = self.F.rows.monic(self.reduce(vec))
        if lead is None:
            return False
        piv, v = lead
        self.rows.append(v)
        self.pivots.append(piv)
        return True


def nullspace(F, rows):
    """Deterministic basis of the right kernel of the square matrix with
    these rows: for each free column c in increasing order, the kernel
    vector with 1 at c and 0 at every other free column.  The rows and the
    basis are in the field's row representation."""
    R = F.rows
    ech = Echelon(F)
    for row in rows:
        if R.nonzero(row):  # most rows of a nilpotent's powers are zero
            ech.add(row)
    # to reduced row-echelon form, last row first: a row is zero at the
    # pivots of the rows stored before it, so clearing it at those of the
    # rows after it leaves it zero at every pivot but its own
    reduced = Echelon(F)
    for row, piv in zip(ech.rows[::-1], ech.pivots[::-1]):
        reduced.rows.append(reduced.reduce(row))
        reduced.pivots.append(piv)
    neg, entry = F.neg_table, R.entry
    dim = len(rows)
    pivots = set(ech.pivots)
    basis = []
    for c in range(dim):
        if c not in pivots:
            v = [0] * dim
            v[c] = 1
            for row, piv in zip(reduced.rows, reduced.pivots):
                v[piv] = neg[entry(row, c)]
            basis.append(R.pack(v))
    return basis
