"""Restriction of graded characters to the rank n-1 parabolic, as formal sums.

Both theories restrict by a case analysis over the distinct parts r of the
relevant partition.  Each case emits finitely many terms: an integer
polynomial coefficient in q times a rank n-1 parameter.  Terms whose
coefficient is the zero polynomial are skipped before their target
parameter is even constructed, and like terms are collected.  Both sp2
formulas read a source (lam, chi) by ``params._runs`` and
``params._corners``, and a target's chi is ``psi`` of a point set, which
``params._checked_chi`` reads off in one pass over the target's distinct
parts and checks against the defining conditions, so every target is
validated as it is built.  An exotic source (mu, nu) is read by one
``params._scan`` of its columns, which gives both exotic formulas the rank
and, for each distinct part of mu + nu, its components, its run and its
mark, and where each component value's run ends in mu and in nu.

A restriction depends on the parameter alone.  While ``_kept`` is a dict,
which ``evaluator.value_table`` sets for the length of one table, each
graded formula runs once for two calls of ``restrict_symplectic`` or
``restrict_exotic``: the table restricts each parameter once at id and once
at s1, and the second call returns the first call's CharSum.  Every other
caller gets a fresh evaluation, and nothing is kept past the table.
"""

from operator import sub

from .errors import InvalidParam, InvariantViolation
from .params import (
    Bipartition,
    OmegaParam,
    _checked_chi,
    _corners,
    _runs,
    _scan,
    enumerate_omega,
    iota,
)
from .partitions import _drop, _lower, _shift, underlying_set
from .qpoly import QPoly, ZERO, _step, geometric_sum, monomial


class CharSum:
    """Formal finite sum of orbit parameters with QPoly coefficients.

    Terms with zero coefficient are never stored; iteration order is the
    deterministic enumeration order of the parameters.
    """

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for param, coeff in terms.items():
                self.add(param, coeff)

    def add(self, param, coeff):
        if not coeff:
            return
        terms = self.terms
        size = len(terms)
        old = terms.setdefault(param, coeff)  # one hash when param is new
        if len(terms) == size:  # param was there already: collect
            total = old + coeff
            if total:
                terms[param] = total
            else:
                del terms[param]

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def map_params(self, fn):
        out = CharSum()
        for param, coeff in self.terms.items():
            out.add(fn(param), coeff)
        return out

    def at_q1(self):
        out = CharSum()
        for param, coeff in self.terms.items():
            out.add(param, QPoly((coeff(1),)))
        return out

    def __eq__(self, other):
        return isinstance(other, CharSum) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        body = " + ".join(f"({coeff})*({param})" for param, coeff in self.items())
        return f"CharSum[{body}]"


def _largest_j(pairs, r, first):
    """The j rule: the largest part j whose first component is ``first``
    (r's) and whose second component is not repeated at any larger part.
    ``pairs`` yields (part, (first, second)) for the parts, decreasing: (chi,
    slack) for sp2 at a corner, (mu-, nu-component) for exotic in case 4."""
    larger = set()  # second components of the parts above j
    for j, (a, b) in pairs:
        if a == first and b not in larger:
            if j < r:
                raise InvariantViolation(f"j={j} below r={r}, first={first}")
            return j
        larger.add(b)
    raise InvariantViolation(f"no valid j for r={r}, first={first}")


_kept = None  # param -> CharSum, while evaluator.value_table runs


def _reused(formula, p):
    """``formula(p)`` for the first of two calls, kept in ``_kept`` until
    the second takes it back.  In a value table the second call comes from
    the same row's s1 pass, unless the slots widen in between; the table
    drops whatever is left when it ends."""
    out = _kept.pop(p, None)
    if out is None:
        out = _kept[p] = formula(p)
    return out


def restrict_symplectic(p):
    """Graded restriction for a (lam, chi) parameter of rank n >= 1."""
    return _symplectic(p) if _kept is None else _reused(_symplectic, p)


def _symplectic(p):
    """One scan of lam gives its runs; each target partition is lam with a
    part moved by slicing, and each target's chi is ``psi`` of its point
    set, computed and validated together by ``_checked_chi``."""
    n = p.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    lam, vec = p.lam, p.chi
    runs = _runs(lam)
    und = tuple(runs)
    crit_pts = _corners(und, vec)
    crit = dict(crit_pts)
    out = CharSum()

    def target(lam_new):
        if sum(lam_new) != 2 * n - 2:
            raise InvariantViolation(
                f"restriction of {p} (rank {n}) emitted {lam_new} of size {sum(lam_new)}"
            )
        return lam_new, underlying_set(lam_new)

    def emit(coeff, tgt, points):
        # zero-coefficient skip happens before the target is built
        if not coeff:
            return
        lam_new, und_new = tgt
        out.add(OmegaParam(lam_new, _checked_chi(lam_new, und_new, points)), coeff)

    def step(k):  # q^m(>=k) - q^m(>k)
        m_gt_k, m_ge_k = runs[k]
        return _step(m_ge_k, m_gt_k)

    for i, r in enumerate(und):
        m_gt, m_ge = runs[r]
        c = vec[i]
        if r not in crit:
            pair = target(_lower(lam, r, 2))
            if c == 0 or c in vec[i + 1 :]:
                # the two would-be targets coincide; merged coefficient
                emit(geometric_sum(m_ge, m_gt), pair, crit_pts)
            else:
                # slack is repeated at some larger part, so m(>r) >= 1
                emit(geometric_sum(m_ge - 1, m_gt - 1), pair, crit_pts)
                emit(_step(m_ge - 1, m_gt - 1), pair, crit_pts + [(r - 1, c)])
            continue

        j = _largest_j(zip(und, zip(vec, map(sub, und, vec))), r, c)
        m_gt_j = runs[j][0]
        ks = und[und.index(j) : i]  # the parts k with r < k <= j
        others = [pt for pt in crit_pts if pt[0] != r]
        # each case ends with the chain: a term at j, then one for each part
        # k with r < k <= j, on one target from one base point set
        if 2 * c != r:
            # corner with chi below the ceiling; multiplicity is even >= 2
            chain = target(_lower(lam, r, 2))
            base = others + [(r - 1, c - 1)]
            emit(monomial(m_ge - 1), chain, crit_pts + [(r - 1, c)])
            emit(geometric_sum(m_ge - 1, m_gt + 1), chain, crit_pts)
        elif (m_ge - m_gt) % 2 == 1:
            # corner at the ceiling, odd multiplicity (r even)
            low = (r - 2, (r - 2) // 2)
            base = others + [low]
            coeff = geometric_sum(m_ge - 1, m_gt)
            if coeff:  # zero exactly when the part occurs once
                emit(coeff, target(_lower(lam, r, 2)), crit_pts)
            chain = target(_drop(lam, r))
            emit(_step(m_ge - 1, m_gt), chain, crit_pts + [low])
        else:
            # corner at the ceiling, even multiplicity (r even)
            base = others + [(r - 1, (r - 2) // 2)]
            drop = target(_drop(lam, r))
            chain = target(_lower(lam, r, 2))
            emit(monomial(m_ge - 1), drop, crit_pts + [(r - 2, (r - 2) // 2)])
            emit(geometric_sum(m_ge - 1, m_gt + 1), chain, crit_pts)
        emit(monomial(m_gt_j), chain, base)
        for k in ks:
            emit(step(k), chain, base + [(k, c)])
    return out


def restrict_symplectic_q1(p):
    """Ungraded (q = 1) restriction, computed by its own closed formula."""
    n = p.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    lam, vec = p.lam, p.chi
    runs = _runs(lam)
    crit_pts = _corners(tuple(runs), vec)
    crit = dict(crit_pts)
    out = CharSum()

    def emit(const, lam_new, points):
        if const == 0:
            return
        chi = _checked_chi(lam_new, underlying_set(lam_new), points)
        out.add(OmegaParam(lam_new, chi), QPoly((const,)))

    for c, (r, (m_gt, m_ge)) in zip(vec, runs.items()):
        m_r = m_ge - m_gt
        if r not in crit:
            emit(m_r, _lower(lam, r, 2), crit_pts)
            continue
        others = [pt for pt in crit_pts if pt[0] != r]
        if 2 * c != r:
            pair = _lower(lam, r, 2)
            emit(1, pair, crit_pts + [(r - 1, c)])
            emit(m_r - 2, pair, crit_pts)
            emit(1, pair, others + [(r - 1, c - 1)])
        elif m_r % 2 == 1:
            if m_r > 1:
                emit(m_r - 1, _lower(lam, r, 2), crit_pts)
            emit(1, _drop(lam, r), others + [(r - 2, (r - 2) // 2)])
        else:
            drop = _drop(lam, r)
            pair = _lower(lam, r, 2)
            emit(1, drop, crit_pts + [(r - 2, (r - 2) // 2)])
            emit(m_r - 2, pair, crit_pts)
            emit(1, pair, others + [(r - 1, (r - 2) // 2)])
    return out


def restrict_exotic(b):
    """Graded restriction for a bipartition of rank n >= 1."""
    return _exotic(b) if _kept is None else _reused(_exotic, b)


def _exotic(b):
    """The case analysis over the distinct parts r of mu + nu, on the
    bookkeeping of one ``_scan`` of b (see there).  Each target moves parts
    of mu and nu by slicing; every such move keeps the order by the case
    that emits it (see ``_shift``)."""
    n, comps, runs, marked, mu_end, nu_end = _scan(b)
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    mu, nu = b.mu, b.nu
    out = CharSum()

    def emit(coeff, mu2, nu2):
        if not coeff:
            return
        if sum(mu2) + sum(nu2) != n - 1:
            raise InvariantViolation(
                f"restriction of {b} (rank {n}) emitted mu={mu2} nu={nu2}"
            )
        out.add(Bipartition(mu2, nu2), coeff)

    mus_above, nus_above = set(), set()  # the components of the parts above r
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = runs[r]
        case3 = delt in nus_above
        case4 = nab in mus_above
        mus_above.add(nab)
        nus_above.add(delt)
        if r not in marked:
            # unmarked parts have a positive nu-component
            emit(geometric_sum(2 * m_ge, 2 * m_gt), mu, _lower(nu, delt))
            continue
        if case3 and case4:
            raise InvariantViolation(f"cases 3 and 4 both hold at r={r} in {b}")
        if delt > 0:
            # growth term; dropped when the nu-component is 0 (empty fiber)
            m_nu = nu_end[delt]
            grown = (_shift(mu, m_ge, m_nu, 1), _shift(nu, m_ge - 1, m_nu, -1))
            if case3:
                emit(_step(2 * m_ge - 1, 2 * m_gt - 1), *grown)
            else:
                emit(monomial(2 * m_ge - 1), *grown)
        if case3:
            emit(geometric_sum(2 * m_ge - 1, 2 * m_gt - 1), _lower(mu, nab), nu)
            continue
        coeff = geometric_sum(2 * m_ge - 1, 2 * m_gt + 1)
        if coeff:  # zero exactly when the part occurs once
            emit(coeff, _lower(mu, nab), nu)
        # the chain: a term at j, then one for each part k with r < k <= j;
        # outside case 4 it is the term at j = r alone
        j = _largest_j(comps.items(), r, nab) if case4 else r
        m_mu = mu_end[nab]
        m_gt_j = runs[j][0]
        emit(
            monomial(2 * m_gt_j),
            _shift(mu, m_gt_j, m_mu, -1),
            _shift(nu, m_gt_j, m_mu - 1, 1),
        )
        for k in comps if j > r else ():
            if r < k <= j:
                m_gt_k, m_ge_k = runs[k]
                emit(
                    _step(2 * m_ge_k, 2 * m_gt_k),
                    _shift(mu, m_ge_k, m_mu, -1),
                    _shift(nu, m_ge_k, m_mu - 1, 1),
                )
    return out


def restrict_exotic_q1(b):
    """Ungraded (q = 1) restriction, computed by its own closed formula."""
    n, comps, runs, marked, mu_end, nu_end = _scan(b)
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    mu, nu = b.mu, b.nu
    out = CharSum()

    def emit(const, mu2, nu2):
        if const == 0:
            return
        out.add(Bipartition(mu2, nu2), QPoly((const,)))

    above = []  # (mu-component, nu-component) of the parts above r
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = runs[r]
        m_r = m_ge - m_gt
        case3 = any(d == delt for _, d in above)
        case4 = any(m == nab for m, _ in above)
        above.append((nab, delt))
        if r not in marked:
            emit(2 * m_r, mu, _lower(nu, delt))
            continue
        if case3:
            emit(2 * m_r, _lower(mu, nab), nu)
            continue
        if delt > 0:
            m_nu = nu_end[delt]
            emit(1, _shift(mu, m_ge, m_nu, 1), _shift(nu, m_ge - 1, m_nu, -1))
        const = 2 * m_r - 2
        if const:  # zero exactly when the part occurs once
            emit(const, _lower(mu, nab), nu)
        m_mu = mu_end[nab]
        j = _largest_j(comps.items(), r, nab) if case4 else r
        m_gt_j = runs[j][0]
        emit(1, _shift(mu, m_gt_j, m_mu, -1), _shift(nu, m_gt_j, m_mu - 1, 1))
    return out


class EquivalenceReport:
    """Per-parameter outcome of transporting one restriction formula onto the
    other through the block bijection."""

    def __init__(self, n, rows):
        self.n = n
        self.rows = rows  # list of (param, ok, detail)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.rows)

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"EquivalenceReport(n={self.n}, {len(self.rows)} params, {state})"


def check_equivalence(n):
    """Transport every rank-n restriction through the bijection and compare
    term-for-term against the bipartition-side formula."""
    rows = []
    for p in enumerate_omega(n):
        transported = restrict_symplectic(p).map_params(iota)
        direct = restrict_exotic(iota(p))
        ok = transported == direct
        detail = ""
        if not ok:
            keys = sorted(
                set(transported.terms) | set(direct.terms), key=lambda k: k.sort_key()
            )
            for key in keys:
                lhs = transported.terms.get(key, ZERO)
                rhs = direct.terms.get(key, ZERO)
                if lhs != rhs:
                    detail = f"first differing term {key}: {lhs} vs {rhs}"
                    break
        rows.append((p, ok, detail))
    return EquivalenceReport(n, rows)
