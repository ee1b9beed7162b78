"""Brute-force geometric verification of the restriction formulas.

Builds the standard matrix models of the orbit parameters over an explicit
finite field, enumerates the rational lines in the kernel of the nilpotent,
computes the orbit invariant of every 2-codimensional quotient, and checks
the resulting tallies against the formula coefficients evaluated at q.

Everything here is deliberately independent of the formulas it verifies:
the invariants are recomputed from matrices alone.
"""

import itertools
import os
from dataclasses import dataclass

from .errors import BadCharacteristic, HalvingFailed, InvalidParam, NotNilpotent
from .gf import (
    Echelon,
    FieldCtx,
    field,
    mat_mul,
    mat_vec,
    normalize_vector,
    nullspace,
    pair,
    rank,
    vec_dot,
    zero_vector,
)
from .params import (
    OmegaParam,
    bipartition_to_text,
    omega_to_text,
    param_sort_key,
    nabla_delta,
    recover_bipartition,
    und_v,
    underlying_set,
    x_crit,
)
from .partitions import Partition, multiplicity, sum_partitions
from .restrict import restrict_exotic, restrict_symplectic


class VNotPerp:
    """Marker: the chosen line is not orthogonal to the model vector, so the
    fiber over it is empty (bipartition theory only)."""

    def __repr__(self):
        return "VNotPerp"


V_NOT_PERP = VNotPerp()


@dataclass
class FieldModel:
    """Explicit matrix model: an alternating form, a nilpotent, a vector."""

    field: FieldCtx
    dim: int
    gram: list
    N: list
    v: list
    basis_index: dict | None = None

    def check(self):
        """Assert the structural invariants: the form is alternating and
        invertible, and the nilpotent is self-adjoint for it (in both
        theories the nilpotent pairs as <Nx, y> = <x, Ny>)."""
        F, G, N = self.field, self.gram, self.N
        assert all(G[i][i] == 0 for i in range(self.dim)), "form not alternating"
        for i in range(self.dim):
            for j in range(i):
                assert G[i][j] == F.neg(G[j][i]), "form not skew-symmetric"
        assert rank(F, G) == self.dim, "form degenerate"
        nt_g = mat_mul(F, [list(col) for col in zip(*N)], G)
        g_n = mat_mul(F, G, N)
        assert nt_g == g_n, "nilpotent not self-adjoint for the form"
        return self


def _model_skeleton(lam, widths, fieldctx):
    """Index the basis vectors (r, s, t) with r a distinct part, s a string
    index in [1, widths(r)], t a position in [1, r]."""
    index = {}
    for r in underlying_set(lam):
        for s in range(1, widths(r) + 1):
            for t in range(1, r + 1):
                index[(r, s, t)] = len(index)
    dim = len(index)
    gram = [[0] * dim for _ in range(dim)]
    nilp = [[0] * dim for _ in range(dim)]
    return index, dim, gram, nilp


def standard_model_symplectic(p, fieldctx):
    """Matrix model over a characteristic-2 field for a (lam, chi) parameter."""
    if fieldctx.p != 2:
        raise BadCharacteristic(f"need characteristic 2, got {fieldctx.p}")
    lam = p.lam
    chi = p.chi_map()
    crit = {r for r, _ in x_crit(p)}
    index, dim, gram, nilp = _model_skeleton(lam, lambda r: multiplicity(lam, r), fieldctx)

    def set_pair(a, b):
        gram[index[a]][index[b]] = 1
        gram[index[b]][index[a]] = 1  # char 2: skew = symmetric

    for r in underlying_set(lam):
        m_r = multiplicity(lam, r)
        if m_r % 2 == 0:
            for k in range(1, m_r // 2 + 1):
                for t in range(1, r + 1):
                    set_pair((r, 2 * k - 1, t), (r, 2 * k, r + 1 - t))
        else:
            for t in range(1, r + 1):
                set_pair((r, 1, t), (r, 1, r + 1 - t))
            for k in range(1, (m_r - 1) // 2 + 1):
                for t in range(1, r + 1):
                    set_pair((r, 2 * k, t), (r, 2 * k + 1, r + 1 - t))
        for s in range(1, m_r + 1):
            for t in range(1, r):
                nilp[index[(r, s, t + 1)]][index[(r, s, t)]] = 1
        if r in crit and m_r % 2 == 0:
            # correction on the first string at height chi(r)
            nilp[index[(r, 2, r + 1 - chi[r])]][index[(r, 1, chi[r])]] = 1
    model = FieldModel(fieldctx, dim, gram, nilp, zero_vector(dim), index)
    return model.check()


def standard_model_exotic(b, fieldctx):
    """Matrix model over an odd-characteristic field for a bipartition."""
    if fieldctx.p == 2:
        raise BadCharacteristic("need odd characteristic")
    lam = sum_partitions(b.mu, b.nu)
    index, dim, gram, nilp = _model_skeleton(
        lam, lambda r: 2 * multiplicity(lam, r), fieldctx
    )
    for r in underlying_set(lam):
        for k in range(1, multiplicity(lam, r) + 1):
            for t in range(1, r + 1):
                gram[index[(r, 2 * k - 1, t)]][index[(r, 2 * k, r + 1 - t)]] = 1
                gram[index[(r, 2 * k, r + 1 - t)]][index[(r, 2 * k - 1, t)]] = (
                    fieldctx.neg(1)
                )
        for s in range(1, 2 * multiplicity(lam, r) + 1):
            for t in range(1, r):
                nilp[index[(r, s, t + 1)]][index[(r, s, t)]] = 1
    vec = zero_vector(dim)
    for r in und_v(b):
        vec[index[(r, 1, nabla_delta(b, r)[1] + 1)]] = 1
    model = FieldModel(fieldctx, dim, gram, nilp, vec, index)
    return model.check()


def jordan_type(fieldctx, mat, dim):
    """Jordan type of a nilpotent matrix from its rank sequence."""
    if dim == 0:
        return Partition()
    ranks = [dim]
    power = mat
    while ranks[-1] > 0:
        r = rank(fieldctx, power)
        if r == ranks[-1]:
            raise NotNilpotent(f"rank stabilized at {r} > 0")
        ranks.append(r)
        if r == 0:
            break
        power = mat_mul(fieldctx, power, mat)
    at_least = [ranks[i - 1] - ranks[i] for i in range(1, len(ranks))]
    parts = []
    for i, cnt in enumerate(at_least, start=1):
        nxt = at_least[i] if i < len(at_least) else 0
        parts.extend([i] * (cnt - nxt))
    jt = Partition(parts)
    assert jt.size == dim
    return jt


def _matrix_powers(fieldctx, mat, top):
    """[mat^0 is skipped] list powers mat^1 .. mat^top."""
    out = [mat]
    for _ in range(top - 1):
        out.append(mat_mul(fieldctx, out[-1], mat))
    return out


def chi_invariant(model):
    """Recover the (lam, chi) parameter of a characteristic-2 model.

    chi(r) is the least i >= 0 such that the form pairing of N^(2i+1)x
    against x vanishes on a basis of ker N^r; basis vanishing suffices
    because the pairing is additive in x here and scales by squares.
    """
    F = model.field
    if F.p != 2:
        raise BadCharacteristic("invariant defined in characteristic 2")
    lam = jordan_type(F, model.N, model.dim)
    if not lam:
        return OmegaParam.make(lam, {})
    powers = _matrix_powers(F, model.N, lam.part_at(1) + 1)  # powers[j] = N^(j+1)
    chi = {}
    for r in underlying_set(lam):
        kernel = nullspace(F, powers[r - 1])
        for i in range(0, r // 2 + 1):
            odd = powers[2 * i]  # N^(2i+1)
            if all(
                pair(F, model.gram, mat_vec(F, odd, bvec), bvec) == 0
                for bvec in kernel
            ):
                chi[r] = i
                break
        else:
            raise AssertionError(f"chi search exceeded r/2 at r={r}")
    return OmegaParam.make(lam, chi)


def exotic_invariant(model):
    """Recover the bipartition of an odd-characteristic model."""
    F = model.field
    if F.p == 2:
        raise BadCharacteristic("invariant defined in odd characteristic")
    doubled = jordan_type(F, model.N, model.dim)
    halved = []
    for r in underlying_set(doubled):
        m_r = multiplicity(doubled, r)
        if m_r % 2:
            raise HalvingFailed(f"Jordan type {doubled} is not doubled")
        halved.extend([r] * (m_r // 2))
    lam = Partition(halved)
    n = lam.size
    # cyclic subspace generated by v
    span = Echelon(F, model.dim)
    x = model.v
    while span.add(x):
        x = mat_vec(F, model.N, x)
    free = [j for j in range(model.dim) if j not in span.pivots]
    hat_dim = len(free)
    cols = []
    for j in free:
        col_in = [model.N[i][j] for i in range(model.dim)]
        red = span.reduce(col_in)
        cols.append([red[i] for i in free])
    induced = [list(row) for row in zip(*cols)] if cols else []
    hat = jordan_type(F, induced, hat_dim)
    return recover_bipartition(lam, hat, n)


def _standard_model(param, fieldctx):
    if isinstance(param, OmegaParam):
        return standard_model_symplectic(param, fieldctx)
    return standard_model_exotic(param, fieldctx)


def _kernel_basis(model):
    return nullspace(model.field, model.N)


def _projective_tuples(q, d):
    """One coefficient tuple per line of GF(q)^d, first nonzero entry 1."""
    for pivot in range(d):
        for rest in itertools.product(range(q), repeat=d - pivot - 1):
            yield (0,) * pivot + (1,) + rest


def _combine(F, basis, coeffs):
    add = F.add_table
    mul = F.mul_table
    out = [0] * len(basis[0])
    for c, bvec in zip(coeffs, basis):
        if c:
            mc = mul[c]
            out = [add[a][mc[x]] if x else a for a, x in zip(out, bvec)]
    return out


def line_count(q, d):
    return (q**d - 1) // (q - 1)


def enumerate_lines(model, within="full", r=None):
    """Yield one normalized vector per rational line of ker N.

    ``within="full"`` runs over the whole kernel; ``within="stratum"``
    restricts to lines inside the depth-r kernel layer but not the deeper
    one (depth-r layer: kernel vectors that are (r-1)-fold images).
    """
    F = model.field
    if within == "full":
        basis = _kernel_basis(model)
        for coeffs in _projective_tuples(F.q, len(basis)):
            yield normalize_vector(F, _combine(F, basis, coeffs))
        return
    if within != "stratum":
        raise ValueError(f"within must be 'full' or 'stratum', got {within!r}")
    deep = _layer_basis(model, r)
    deeper = _layer_basis(model, r + 1)
    skip = Echelon(F, model.dim)
    for bvec in deeper:
        skip.add(bvec)
    for coeffs in _projective_tuples(F.q, len(deep)):
        vec = normalize_vector(F, _combine(F, deep, coeffs))
        if not skip.contains(vec):
            yield vec


def _layer_basis(model, r):
    """Basis of ker N intersected with the image of N^(r-1), computed as the
    (r-1)-fold image of ker N^r."""
    F = model.field
    if r <= 1:
        return _kernel_basis(model)
    power = model.N
    for _ in range(r - 2):
        power = mat_mul(F, power, model.N)
    # power == N^(r-1)
    ker_r = nullspace(F, mat_mul(F, power, model.N))
    ech = Echelon(F, model.dim)
    out = []
    for bvec in ker_r:
        img = mat_vec(F, power, bvec)
        if ech.add(img):
            out.append(img)
    return out


def quotient_model(model, line):
    """Model induced on (line-perp)/line, or V_NOT_PERP when the model vector
    pairs nontrivially with the line (empty fiber, bipartition theory)."""
    F = model.field
    d = model.dim
    w = list(line)
    f = mat_vec(F, model.gram, w)  # f[i] = <e_i, w>
    if vec_dot(F, model.v, f) != 0:
        return V_NOT_PERP
    jstar = next(i for i, x in enumerate(f) if x)
    istar = next(i for i, x in enumerate(w) if x and i != jstar)
    keep = [i for i in range(d) if i != jstar and i != istar]
    finv = F.inv(f[jstar])
    alpha = [F.mul(x, finv) for x in f]
    winv = F.inv(w[istar])
    sub, mul, add = F.sub_table, F.mul_table, F.add_table

    def project(x):
        # x in line-perp; canonical representative with istar coordinate 0
        c = mul[x[istar]][winv]
        if c:
            mc = mul[c]
            return [sub[x[i]][mc[w[i]]] if w[i] else x[i] for i in keep]
        return [x[i] for i in keep]

    G = model.gram
    gjj = G[jstar][jstar]
    gram2 = []
    for a in keep:
        row = []
        ga = G[a]
        aa = alpha[a]
        for bcol in keep:
            val = ga[bcol]
            if alpha[bcol]:
                val = sub[val][mul[alpha[bcol]][ga[jstar]]]
            if aa:
                val = sub[val][mul[aa][G[jstar][bcol]]]
                if alpha[bcol] and gjj:
                    val = add[val][mul[mul[aa][alpha[bcol]]][gjj]]
            row.append(val)
        gram2.append(row)
    ncols_keep = {i: [model.N[rr][i] for rr in range(d)] for i in keep}
    ncol_j = [model.N[rr][jstar] for rr in range(d)]
    new_cols = []
    for a in keep:
        aa = alpha[a]
        if aa:
            mc = mul[aa]
            y = [sub[u][mc[vj]] if vj else u for u, vj in zip(ncols_keep[a], ncol_j)]
        else:
            y = ncols_keep[a]
        new_cols.append(project(y))
    n2 = [list(row) for row in zip(*new_cols)] if new_cols else []
    v2 = project(model.v) if any(model.v) else zero_vector(d - 2)
    out = FieldModel(F, d - 2, gram2, n2, v2, None)
    assert all(gram2[i][i] == 0 for i in range(d - 2)), "quotient form not alternating"
    return out


def brute_force_restriction(param, fieldctx, jobs=1):
    """Tally of quotient invariants over every rational kernel line.

    Returns (tally, empty_fiber) where tally maps rank n-1 parameters to
    line counts and empty_fiber counts the lines whose fiber is empty.
    ``jobs`` must be at least 1; at most one process per CPU (and per
    line) is started.
    """
    if jobs < 1:
        raise InvalidParam(f"jobs must be >= 1, got {jobs}")
    if param.rank < 1:
        raise InvalidParam("oracle needs rank >= 1")
    model = _standard_model(param, fieldctx)
    d = len(_kernel_basis(model))
    total = line_count(fieldctx.q, d)
    jobs = min(jobs, total, os.cpu_count() or 1)
    if jobs <= 1:
        return _tally_range(param, fieldctx.q, 0, total)
    bounds = [(total * i) // jobs for i in range(jobs + 1)]
    chunks = [
        (param, fieldctx.q, bounds[i], bounds[i + 1])
        for i in range(jobs)
        if bounds[i] < bounds[i + 1]
    ]
    import multiprocessing

    with multiprocessing.Pool(processes=len(chunks)) as pool:
        results = pool.map(_oracle_worker, chunks)
    tally = {}
    empty = 0
    for part_tally, part_empty in results:
        empty += part_empty
        for key, cnt in part_tally.items():
            tally[key] = tally.get(key, 0) + cnt
    return tally, empty


def _oracle_worker(args):
    return _tally_range(*args)


def _tally_range(param, q, lo, hi):
    fieldctx = field(q)
    model = _standard_model(param, fieldctx)
    basis = _kernel_basis(model)
    symplectic = isinstance(param, OmegaParam)
    tally = {}
    empty = 0
    it = itertools.islice(_projective_tuples(q, len(basis)), lo, hi)
    for coeffs in it:
        w = normalize_vector(fieldctx, _combine(fieldctx, basis, coeffs))
        qm = quotient_model(model, w)
        if qm is V_NOT_PERP:
            empty += 1
            continue
        sub = chi_invariant(qm) if symplectic else exotic_invariant(qm)
        tally[sub] = tally.get(sub, 0) + 1
    return tally, empty


def _param_text(param):
    if isinstance(param, OmegaParam):
        return omega_to_text(param)
    return bipartition_to_text(param)


def verify_against_formula(param, fieldctx, jobs=1):
    """Compare the brute-force tally against the restriction formula at q.

    The report separates per-parameter mismatches from total-count
    mismatches: matching totals with differing tallies indicate a case
    transcription bug rather than a wrong line count.
    """
    q = fieldctx.q
    symplectic = isinstance(param, OmegaParam)
    formula_cs = restrict_symplectic(param) if symplectic else restrict_exotic(param)
    formula = {
        sub: coeff(q)
        for sub, coeff in sorted(
            formula_cs.terms.items(), key=lambda kv: param_sort_key(kv[0])
        )
    }
    tally, empty = brute_force_restriction(param, fieldctx, jobs=jobs)
    model = _standard_model(param, fieldctx)
    total = line_count(q, len(_kernel_basis(model)))
    formula_total = sum(formula.values())
    totals_match = formula_total + empty == total
    if symplectic:
        ok = tally == formula and empty == 0 and totals_match
    else:
        ok = tally == formula and empty == total - formula_total
    ordered = sorted(set(tally) | set(formula), key=param_sort_key)
    return {
        "param": _param_text(param),
        "q": q,
        "tally": {_param_text(k): tally.get(k, 0) for k in ordered},
        "formula": {_param_text(k): formula.get(k, 0) for k in ordered},
        "empty_fiber": empty,
        "totals_match": totals_match,
        "pass": ok,
    }
