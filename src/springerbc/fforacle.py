"""Brute-force geometric verification of the restriction formulas.

Builds the standard matrix models of the orbit parameters over an explicit
finite field, enumerates the rational lines in the kernel of the nilpotent,
computes the orbit invariant of every 2-codimensional quotient, and checks
the resulting tallies against the formula coefficients evaluated at q.

Everything here is deliberately independent of the formulas it verifies:
the invariants are recomputed from matrices alone.

A model is its rows, in the field's row representation (``gf``): over
GF(2^k) one int per row, so the line walk, the quotients, the rank chains
and the chi invariant add rows by XOR; in odd characteristic a list per
row.  The functions here have one body for both, and the split between
them lies in the row primitives alone.  The builders write list matrices
and pack them once, and one constructor makes every model from its rows.
Every computation after that, from ``check`` and the kernel basis of N to
the invariants, reads rows; only ``repr`` unpacks them.

A tally computes the invariant once per quotient object within one call:
lines that share a quotient (see below) share its invariant, which the
tally keeps on the quotient.  This is sound because the invariant is a
function of the model's matrices alone: two quotients with equal N, form
and vector have equal Jordan types, kernel chains and cyclic spans, hence
equal invariants, and a quotient's rows never change.  Nothing is keyed
by the line or the parameter, and nothing takes formula input.  Quotients
that are equal but not shared are few (in the benchmark's oracle sweeps,
172 of 4 855 per pass), and their invariants reuse the smaller results
below instead of a key made of every row.

The invariants share smaller results between the quotients of one tally,
in a dict that the tally passes to each call.  Both keep there the Jordan
type of each sequence of ranks, keyed by the sequence, so its size check
runs once per distinct sequence (the benchmark's oracle sweeps ask for
7 775 types of 183 sequences, counted per tally).  The chi invariant keeps
the checked parameter of each (lam, chi), keyed by lam and chi's values,
so the parameter's validation runs 113 times instead of 1 935.  The exotic
invariant keeps the bipartition recovered from a pair (halved type, Jordan
type on V modulo the cyclic span of v), whose round-trip check so runs
once per distinct pair (63 times instead of 2 920).  Nothing is keyed by
a matrix: the Jordan type and rank chain of N are computed on each call,
as they are as large as the quotient and a large walk has about one N
per line.  Each result is a function of its key alone, keys of different
kinds never compare equal (a tuple of ints, a pair led by a partition),
and a key whose check fails is never stored, so it raises again on every
call.  The dict has the memo's lifetime.

The invariants eliminate as little as they can.  A Jordan chain passes
only nonzero rows to ``Echelon.add``: in the benchmark's oracle sweeps,
half the rows it was given were zero, rows of a nilpotent or images that
vanish.  The exotic invariant reads hat from one walk along v, Nv,
N^2 v, ..., testing each vector's membership in the chain's images of
the powers of N, and builds no echelon basis of its own (see
``exotic_invariant``).

Each model also caches, for the quotients taken from it, the multiples of
the form's rows and the nonzero entries of v^T G (each made when first
read) and, per pivot pair, the rows of G and N that every quotient with
those pivots starts from.  The empty-fibre test sums a line against those
entries alone, and a line with an empty fibre forms no other product.
v^T G has at most two nonzero entries on the benchmark's exotic models
(of dimension 7.3 on average), and none on an sp2 model, whose vector is
zero, so there a line takes no test at all.  When the pivot pair zeroes
every correction a line could make to those rows, the pair's entry is
instead the quotient itself, built for its first line, and every line with
those pivots returns that one model (half the kernel lines of the
benchmark's sweeps).  The cached rows live as long as the model, which is
one call for the models a tally builds.  Nothing is cached across models
or calls.  Quotients share rows with the cache and with each other, and
lines share whole quotients, so callers must not change a quotient's rows.
"""

import functools

from . import theory  # which imports this module, so not ``from .theory``
from .errors import InvalidParam, InvariantViolation
from .gf import Echelon, nullspace
from .params import (
    OmegaParam,
    _corners,
    _runs,
    _scan,
    check_rank,
    recover_bipartition,
    underlying_set,
)
from .partitions import Partition, _canonical


class VNotPerp:
    """Marker: the chosen line is not orthogonal to the model vector, so the
    fiber over it is empty (bipartition theory only)."""

    def __repr__(self):
        return "VNotPerp"


V_NOT_PERP = VNotPerp()

# The most kernel lines one oracle call walks.  At model dimension 40 (rank
# 20, the largest accepted) a call does 3 300 to 4 300 lines/s on a shared
# 2-vCPU x86-64 host (the exotic mu=[4,4,3,3,3,3] over GF(3): 265 720
# lines in 62 s, at a 15 MB peak), so 10^7 lines take 40 to 50 minutes
# there; the memory does not grow with the lines walked.  A larger walk is
# refused before it starts.
LINE_CAP = 10**7


class FieldModel:
    """Explicit matrix model: an alternating form, a nilpotent, a vector.

    A model is its rows: ``gram`` and ``N``, the rows of the form and of
    the nilpotent, and the vector ``v``, all in the field's row
    representation (lists of element codes in odd characteristic, ints
    over GF(2^k)).
    """

    invariant = None  # the tally's invariant of this quotient, once computed

    def __init__(self, field, dim, gram, N, v, basis_index=None):
        self.field, self.dim, self.basis_index = field, dim, basis_index
        self.gram, self.N, self.v = gram, N, v
        self._pivot_bases = {}  # quotient_model's _pivot_base per pivot pair

    def __eq__(self, other):
        if not isinstance(other, FieldModel):
            return NotImplemented
        mine, theirs = (
            (m.field, m.dim, m.gram, m.N, m.v, m.basis_index) for m in (self, other)
        )
        return mine == theirs

    def __repr__(self):
        unpack, dim = self.field.rows.unpack, self.dim
        gram, N = ([unpack(row, dim) for row in rows] for rows in (self.gram, self.N))
        return (
            f"FieldModel(field={self.field!r}, dim={dim}, gram={gram},"
            f" N={N}, v={unpack(self.v, dim)}, basis_index={self.basis_index})"
        )

    @functools.cached_property
    def _form_multiples(self):
        """The form's rows, prepared for products with vectors."""
        return self.field.rows.multiples(self.gram)

    @functools.cached_property
    def _v_form(self):
        """The (index, entry) of every nonzero entry of v^T G, the
        combination of the form's rows by the vector: their sum against a
        line w is v^T G w, the form's pairing of v with w."""
        R = self.field.rows
        return R.items(R.apply(self._form_multiples, self.v))

    def check(self):
        """Check the structural invariants, raising InvariantViolation: the
        form is alternating and invertible, and the nilpotent is self-adjoint
        for it (in both theories the nilpotent pairs as <Nx, y> = <x, Ny>).
        The form G being skew, N^T G = G N holds exactly when G N is skew."""
        F, G = self.field, self.gram
        R = F.rows
        if R.nonzero(R.diagonal(G)):
            raise InvariantViolation("form not alternating")
        if not _is_skew(F, G):
            raise InvariantViolation("form not skew-symmetric")
        ech = Echelon(F)
        for row in G:
            ech.add(row)
        if ech.size != self.dim:
            raise InvariantViolation("form degenerate")
        if not _is_skew(F, [R.combine(row, self.N) for row in G]):
            raise InvariantViolation("nilpotent not self-adjoint for the form")
        return self


def _is_skew(F, rows):
    """Whether the square matrix with these rows equals minus its
    transpose."""
    entry, neg = F.rows.entry, F.neg_table
    return all(
        entry(rows[i], j) == neg[entry(rows[j], i)]
        for i in range(len(rows))
        for j in range(i + 1)
    )


def _paired_strings(fieldctx, pairs):
    """The basis index and the lists of the form and the nilpotent of the
    model on Jordan strings that the form pairs.

    Each (r, s, s2) in ``pairs`` names strings s and s2 of length r, and
    s2 = s pairs a string with itself.  The basis vector (r, s, t) is
    position t in [1, r] of string s, indexed in the order the pairs first
    name the strings.  N moves every string up by one, (r, s, t) to
    (r, s, t + 1), and the form pairs position t of string s with position
    r + 1 - t of string s2: G[a][b] = 1 and G[b][a] = -1.
    """
    index = {}
    for r, s, s2 in pairs:
        for string in dict.fromkeys((s, s2)):
            for t in range(1, r + 1):
                index[(r, string, t)] = len(index)
    dim = len(index)
    gram = [[0] * dim for _ in range(dim)]
    nilp = [[0] * dim for _ in range(dim)]
    minus_one = fieldctx.neg(1)
    for r, s, s2 in pairs:
        for t in range(1, r + 1):
            a, b = index[(r, s, t)], index[(r, s2, r + 1 - t)]
            gram[a][b] = 1
            gram[b][a] = minus_one
    for (r, s, t), a in index.items():
        if t < r:
            nilp[index[(r, s, t + 1)]][a] = 1
    return index, gram, nilp


def _packed_model(fieldctx, index, gram, nilp, v):
    """The checked model with these list matrices on the basis index."""
    pack = fieldctx.rows.pack
    return FieldModel(
        fieldctx, len(index), list(map(pack, gram)), list(map(pack, nilp)), pack(v), index
    ).check()


def standard_model_symplectic(p, fieldctx):
    """Matrix model over a characteristic-2 field for a (lam, chi) parameter."""
    if fieldctx.p != 2:
        raise InvalidParam(f"need characteristic 2, got {fieldctx.p}")
    runs = _runs(p.lam)
    pairs = []
    for r, (m_gt, m_ge) in runs.items():
        m_r = m_ge - m_gt
        if m_r % 2:
            pairs.append((r, 1, 1))
        pairs.extend((r, s, s + 1) for s in range(1 + m_r % 2, m_r, 2))
    at, gram, nilp = _paired_strings(fieldctx, pairs)
    for r, c in _corners(tuple(runs), p.chi):
        m_gt, m_ge = runs[r]
        if (m_ge - m_gt) % 2 == 0:
            # correction on the first string at height chi(r)
            nilp[at[(r, 2, r + 1 - c)]][at[(r, 1, c)]] = 1
    return _packed_model(fieldctx, at, gram, nilp, [0] * len(at))


def standard_model_exotic(b, fieldctx):
    """Matrix model over an odd-characteristic field for a bipartition."""
    if fieldctx.p == 2:
        raise InvalidParam("need odd characteristic")
    _, comps, runs, marked, _, _ = _scan(b)
    at, gram, nilp = _paired_strings(fieldctx, [
        (r, s, s + 1)
        for r, (m_gt, m_ge) in runs.items()
        for s in range(1, 2 * (m_ge - m_gt), 2)
    ])
    v = [0] * len(at)
    for r in marked:
        v[at[(r, 1, comps[r][1] + 1)]] = 1
    return _packed_model(fieldctx, at, gram, nilp, v)


def jordan_type(fieldctx, rows, memo=None):
    """Jordan type of the nilpotent square matrix with these rows, in the
    field's row representation, and the chain of its row spaces: chain[k - 1]
    is an echelon basis of the row space of N^k, for k up to the largest
    part, where it is 0.  That row space is the image of the one of N^(k-1)
    under x -> xN, so no power of N is formed.  Only nonzero rows are
    eliminated: a nilpotent's rows and their images are often zero, and a
    zero row adds nothing to a span.  ``memo`` is passed on to
    ``_type_of_ranks``."""
    if not rows:
        return Partition(), []
    R = fieldctx.rows
    combine, nonzero = R.combine, R.nonzero
    ranks = [len(rows)]
    chain = []
    ech = Echelon(fieldctx)
    for row in filter(nonzero, rows):
        ech.add(row)
    while True:
        r = ech.size
        if r == ranks[-1]:
            raise InvalidParam(f"rank stabilized at {r} > 0")
        ranks.append(r)
        chain.append(ech)
        if r == 0:
            break
        image = [combine(row, rows) for row in ech.rows]
        ech = Echelon(fieldctx)
        for row in filter(nonzero, image):
            ech.add(row)
    return _type_of_ranks(ranks, memo), chain


def _type_of_ranks(ranks, memo=None):
    """The Jordan type of a nilpotent map whose k-th power has rank
    ranks[k], for k from 0 (the dimension) to the first k where it is 0.

    ranks[i - 1] - ranks[i] parts are at least i, so the parts equal to i
    are the difference of two such drops; they are emitted largest first,
    which is the partition's own order.  Drops that increase somewhere
    give a negative count there, which emits nothing, and then the parts
    add up to more than ranks[0]: the size check rejects them.

    ``memo``, a dict, keeps each checked type under the tuple of its
    ranks, so a sequence seen before is looked up, not rebuilt.  A
    sequence that fails the check is never stored and raises on every
    call.
    """
    if memo is None:
        memo = {}
    key = tuple(ranks)
    jt = memo.get(key)
    if jt is not None:
        return jt
    at_least = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))] + [0]
    parts = []
    for i in range(len(at_least) - 1, 0, -1):
        parts.extend([i] * (at_least[i - 1] - at_least[i]))
    jt = _canonical(parts)
    if jt.size != ranks[0]:
        raise InvariantViolation(f"Jordan type {jt} does not have size {ranks[0]}")
    memo[key] = jt
    return jt


def chi_invariant(model, memo=None):
    """Recover the (lam, chi) parameter of a characteristic-2 model.

    chi(r) is the least i >= 0 such that <N^(2i+1)x, x> vanishes on ker N^r.
    As N is self-adjoint for the form G, P = (N^(2i+1))^T G is symmetric,
    so in characteristic 2 the cross terms of x^T P x cancel in pairs:
    x^T P x = sum_a P[a][a] x_a^2 = (s . x)^2 with s_a^2 = P[a][a].  The
    pairing thus vanishes on ker N^r exactly when s lies in (ker N^r)^perp,
    the row space of N^r, which the rank chain holds.  From 2i + 1 = top
    on, N^(2i+1) = 0 and so is the pairing.  In characteristic 2, G is
    symmetric, so the diagonal of P is the sum over b of the entrywise
    products of row b of N^(2i+1) and row b of G.

    ``memo`` is a dict shared by the invariants of one tally (see the
    module docstring): ``jordan_type`` keeps the Jordan type of each rank
    sequence in it, and this the checked parameter of each (lam, chi),
    under lam and the values of chi in lam's order.
    """
    F = model.field
    if F.p != 2:
        raise InvalidParam("invariant defined in characteristic 2")
    if memo is None:
        memo = {}
    R = F.rows
    gram, N = model.gram, model.N
    lam, chain = jordan_type(F, N, memo)
    if not lam:
        return OmegaParam.make(lam, {})
    top = lam.part_at(1)
    square = [R.combine(row, N) for row in N] if top > 3 else None
    roots = []  # roots[i] = s for the pairing of N^(2i+1), while 2i + 1 < top
    odd = N
    for i in range(top // 2):
        if i:
            odd = [R.combine(row, square) for row in odd]  # N^(2i+1)
        diag = functools.reduce(R.add, map(R.mul_slots, odd, gram))
        roots.append(R.sqrt(diag))
    chi = {}
    for r in underlying_set(lam):
        for i in range(0, r // 2 + 1):
            if i == len(roots) or chain[r - 1].contains(roots[i]):
                chi[r] = i
                break
        else:
            raise InvariantViolation(f"chi search exceeded r/2 at r={r}")
    key = (lam, tuple(chi.values()))
    p = memo.get(key)
    if p is None:
        p = memo[key] = OmegaParam.make(lam, chi)
    return p


def exotic_invariant(model, memo=None):
    """Recover the bipartition of an odd-characteristic model, whose rows
    are lists.

    The model gives lam, the halved Jordan type of N, and hat, the Jordan
    type of N on V/S for the cyclic span S of v.  The rank of N^k on V/S
    is dim(N^k V + S) - dim S.  N^k V meets S in an N-stable subspace of
    the cyclic space S, which is N^j S for the least j with N^j v in
    N^k V (N^(dim S) v = 0), so dim(N^k V + S) = dim N^k V + j.  As N^k V
    shrinks with k, j never decreases, and one walk along v, Nv, N^2 v,
    ... finds j for every k by membership tests alone.  The chain of row
    spaces of N's transpose N^T holds an echelon basis of each N^k V, and
    Nx is the combination of the rows of N^T by x.

    ``memo`` is a dict shared by the invariants of one tally (see the
    module docstring): it maps each pair (lam, hat) to the bipartition
    recovered from it and, through ``_type_of_ranks``, each rank sequence
    to its Jordan type.  Nothing is kept per N: the tally calls this once
    per quotient object, and N's chain is as large as the quotient.
    """
    F = model.field
    if F.p == 2:
        raise InvalidParam("invariant defined in odd characteristic")
    if memo is None:
        memo = {}
    R = F.rows
    nt = list(map(list, zip(*model.N)))
    doubled, chain = jordan_type(F, nt, memo)
    halved = []
    for r in underlying_set(doubled):
        m_r = doubled.count(r)
        if m_r % 2:
            raise InvalidParam(f"Jordan type {doubled} is not doubled")
        halved.extend([r] * (m_r // 2))
    lam = Partition(halved)
    sums = []  # dim(N^k V + S) for k = 1, 2, ...: the last, N^k V = 0, is dim S
    x, j = model.v, 0  # x = N^j v
    for image in chain:  # N^k V
        while not image.contains(x):
            x = R.combine(x, nt)
            j += 1
        sums.append(image.size + j)
    dim_s = sums[-1] if sums else 0
    hat = _type_of_ranks([model.dim - dim_s] + [size - dim_s for size in sums], memo)
    b = memo.get((lam, hat))
    if b is None:
        b = memo[lam, hat] = recover_bipartition(lam, hat, lam.size)
    return b


def line_count(q, d):
    return (q**d - 1) // (q - 1)


def _lines(F, basis):
    """One vector on each line of the span of basis, in the field's row
    representation, as are the basis vectors.

    Each line is the combination of the basis by one coefficient tuple
    whose first nonzero entry is 1, its pivot, and that combination is the
    vector yielded; it is not rescaled.  The tuples are ordered by
    pivot, then by the digits after the pivot as ``itertools.product``
    lists them.  Along the walk, prefix[K] is the partial sum
    head + sum_{k<K} t_k b_k of the current tuple (1, t_0, t_1, ...) over
    the basis vectors (head, b_0, b_1, ...).  The next tuple raises one
    digit t_K and resets the digits after it to 0, so one vector addition
    gives prefix[K + 1], and the later partial sums are the same vector.
    The yielded rows are the walk's own (the first of each pivot is the
    basis vector itself), so callers must not mutate them.
    """
    q = F.q
    R = F.rows
    add = R.add
    multiples = [[R.scale(c, b) for c in range(q)] for b in basis]
    for pivot, head in enumerate(basis):
        rest = multiples[pivot + 1 :]
        m = len(rest)
        digits = [0] * m
        prefix = [head] * (m + 1)
        while True:
            yield prefix[m]
            k = m - 1
            while k >= 0 and digits[k] == q - 1:
                digits[k] = 0
                k -= 1
            if k < 0:
                break
            t = digits[k] = digits[k] + 1
            vec = add(prefix[k], rest[k][t])
            for j in range(k + 1, m + 1):
                prefix[j] = vec


def quotient_model(model, line):
    """Model induced on (line-perp)/line, or V_NOT_PERP when the model vector
    pairs nontrivially with the line (empty fiber, bipartition theory).
    The line is a vector of the field's row representation, and so are the
    rows the quotient is made of.

    With f = w^T G, the combination of the form's rows by the line w, jstar
    the first index where f is nonzero and istar the first index other than
    jstar where w is, the quotient has the basis e_a - alpha_a e_jstar
    (a != istar, jstar; alpha = f / f_jstar), taken modulo w to
    representatives with istar coordinate 0.  With j = jstar and i = istar,
    its form and nilpotent are

        gram2[a][b] = G[a][b] - G[a][j] alpha_b - alpha_a G[j][b]
        n2[a][b] = N[a][b] - N[a][j] alpha_b - w_a / w_i (N[i][b] - N[i][j] alpha_b)

    (the term alpha_a G[j][j] alpha_b is absent: G[j][j] = 0 on an
    alternating form).  The fibre is empty when <v, w> = v^T G w is
    nonzero: the sum of w_a x over the model's cached nonzero entries
    (a, x) of v^T G, added by the field's tables.  That test comes first,
    so an empty-fibre line never forms f, and a model with no such entry,
    as every sp2 model is, takes no test.  The form being skew, the
    pairing is -<v, f>, and f = -Gw = -<-, w> enters only through
    the index jstar and alpha, and neither sees its sign.  So the line
    enters only through alpha, w / w_i and that zero test, and every
    nonzero multiple of it gives the same quotient.  Everything but alpha
    and w depends only on the pivot pair (i, j), so it is taken from the
    model once per pair (``_pivot_base``) and each line applies its
    rank-one corrections to those rows, skipping each one whose column and
    row factors are zero.
    When G[a][j], G[j][b], N[a][j], N[i][b], N[i][j] and v_i all vanish
    off the pivots, no correction is left: the quotient does not depend on
    the line, and every line with those pivots gets the same model, built
    once.  Either way the rows of a quotient are shared, with the model's
    cache, with other quotients or whole, so neither they nor the model's
    rows may change once a quotient has been taken.
    """
    F = model.field
    R = F.rows
    w = line
    v_form = model._v_form
    if v_form:
        add, mul, entry = F.add_table, F.mul_table, R.entry
        pairing = 0
        for a, x in v_form:
            pairing = add[pairing][mul[x][entry(w, a)]]
        if pairing:
            return V_NOT_PERP
    f = R.apply(model._form_multiples, w)
    jstar, f_j = R.first(f)
    istar, w_i = R.first(w)
    if istar == jstar:
        lead = R.first(w, jstar + 1)
        if lead is None:  # w = c e_j, and <w, w> = c^2 G[j][j] != 0
            raise InvariantViolation("form not alternating")
        istar, w_i = lead
    bases = model._pivot_bases
    base = bases.get((istar, jstar))
    if base is None:
        base = bases[istar, jstar] = _pivot_base(model, istar, jstar)
    if base.__class__ is FieldModel:  # the quotient of every line with these pivots
        return base
    sel, g0, n0, g_col, n_col, g_row, n_row, n_ij, v0, v_i = base

    def over(row, c):  # row / c
        return row if c == 1 else R.scale(F.inv(c), row)

    alpha = over(R.take(f, sel), f_j)
    w_kept = R.take(w, sel)
    gram2 = g0  # its diagonal checked by _pivot_base, unless the form moves
    if g_col or g_row is not None:
        gram2 = list(g0)
        R.sub_outer(gram2, g_col, alpha)
        if g_row is not None:
            R.sub_outer(gram2, R.items(alpha), g_row)
        if R.nonzero(R.diagonal(gram2)):
            raise InvariantViolation("quotient form not alternating")
    n2 = n0
    if n_col or n_row is not None:
        n2 = list(n0)
        R.sub_outer(n2, n_col, alpha)
        if n_row is not None:
            if n_ij:  # row istar of N less N[i][j] alpha
                n_row = R.sub_mul(n_row, n_ij, alpha)
            R.sub_outer(n2, R.items(over(w_kept, w_i)), n_row)
    v2 = R.sub_mul(v0, F.mul(v_i, F.inv(w_i)), w_kept) if v_i else v0
    return FieldModel(F, len(g0), gram2, n2, v2)


def _pivot_base(model, istar, jstar):
    """The part of quotient_model shared by every line with pivots (istar,
    jstar): take's argument for the kept indices, the rows of G and N on
    the kept rows and columns, the nonzero entries of column jstar of G
    and of N on the kept rows, rows jstar of G and istar of N on the kept
    columns, N[i][j], the model vector on the kept indices and v[i].
    Row jstar of G is None when it is zero on the kept columns, and row
    istar of N when it is and N[i][j] = 0, so that no line applies a
    correction that is zero.  When no correction depends on the line
    (both columns empty, both rows None and v[i] = 0), the quotient is
    the same for every line with these pivots, and this returns that
    quotient itself.  Raises InvariantViolation when G[j][j] != 0, and
    when the form takes no correction and has a nonzero diagonal on the
    kept indices; a raise leaves nothing cached for the pivot pair.
    """
    R = model.field.rows
    entry = R.entry
    G, N, v = model.gram, model.N, model.v
    if entry(G[jstar], jstar):
        raise InvariantViolation("form not alternating")
    kept = [a for a in range(model.dim) if a != istar and a != jstar]
    sel = R.selector(kept)

    def column(rows, b):
        return [(k, x) for k, a in enumerate(kept) if (x := entry(rows[a], b))]

    g0 = [R.take(G[a], sel) for a in kept]
    n0 = [R.take(N[a], sel) for a in kept]
    g_col, n_col = column(G, jstar), column(N, jstar)
    g_row, n_row = R.take(G[jstar], sel), R.take(N[istar], sel)
    n_ij = entry(N[istar], jstar)
    v0, v_i = R.take(v, sel), entry(v, istar)
    if not R.nonzero(g_row):
        g_row = None
    if not (n_ij or R.nonzero(n_row)):
        n_row = None
    if not g_col and g_row is None:  # every line's quotient has the form g0
        if R.nonzero(R.diagonal(g0)):
            raise InvariantViolation("quotient form not alternating")
        if not n_col and n_row is None and not v_i:
            return FieldModel(model.field, len(kept), g0, n0, v0)
    return sel, g0, n0, g_col, n_col, g_row, n_row, n_ij, v0, v_i


def brute_force_restriction(param, fieldctx):
    """Tally of quotient invariants over every rational kernel line.

    Returns (tally, empty_fiber) where tally maps rank n-1 parameters to
    line counts and empty_fiber counts the lines whose fiber is empty.
    The lines are walked one after another in this process.
    """
    tally, empty, _ = _tally(param, fieldctx)
    return tally, empty


def _tally(param, fieldctx):
    """brute_force_restriction plus the number of kernel lines: build the
    model, take the kernel basis of N, and compute one invariant per
    distinct quotient (see the module docstring)."""
    if param.rank < 1:
        raise InvalidParam("oracle needs rank >= 1")
    check_rank(param.rank, "oracle")  # so the model below has dimension <= 40
    th = theory.of(param)
    model = th.standard_model(param, fieldctx)
    basis = nullspace(fieldctx, model.N)
    lines = line_count(fieldctx.q, len(basis))
    if lines > LINE_CAP:
        raise InvalidParam(
            f"{param} over GF({fieldctx.q}) has {lines} kernel lines,"
            f" above the oracle's cap of {LINE_CAP}"
        )
    memo = {}
    tally = {}
    empty = 0
    for w in _lines(fieldctx, basis):
        qm = quotient_model(model, w)
        if qm is V_NOT_PERP:
            empty += 1
            continue
        sub = qm.invariant
        if sub is None:  # kept on the quotient, for the lines that share it
            sub = qm.invariant = th.invariant(qm, memo)
        tally[sub] = tally.get(sub, 0) + 1
    return tally, empty, lines


def verify_against_formula(param, fieldctx):
    """Compare the brute-force tally against the restriction formula at q.

    The report separates per-parameter mismatches from total-count
    mismatches: matching totals with differing tallies indicate a case
    transcription bug rather than a wrong line count.  A pass also needs
    the number of empty fibres to equal the theory's ``empty_lines``.
    """
    q = fieldctx.q
    th = theory.of(param)
    tally, empty, lines = _tally(param, fieldctx)  # its rank check comes first
    formula = {sub: coeff(q) for sub, coeff in th.restrict(param).terms.items()}
    totals_match = sum(formula.values()) + empty == lines
    ok = tally == formula and totals_match and empty == th.empty_lines(param, q)
    ordered = sorted(set(tally) | set(formula), key=lambda k: k.sort_key())
    keyed = [(str(k), k) for k in ordered]  # each key's text made once
    return {
        "param": str(param),
        "q": q,
        "tally": {text: tally.get(k, 0) for text, k in keyed},
        "formula": {text: formula.get(k, 0) for text, k in keyed},
        "empty_fiber": empty,
        "totals_match": totals_match,
        "pass": ok,
    }
