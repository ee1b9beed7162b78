"""Restriction of graded characters to the rank n-1 parabolic, as formal sums.

Both theories restrict by a case analysis over the distinct parts r of the
relevant partition.  Each case emits finitely many terms: an integer
polynomial coefficient in q times a rank n-1 parameter.  Terms whose
coefficient is the zero polynomial are skipped before their target
parameter is even constructed, and like terms are collected.
"""

from collections import Counter

from .errors import InvalidParam, InvariantViolation
from .params import (
    Bipartition,
    OmegaParam,
    _components,
    param_sort_key,
    psi,
    und_v,
    x_crit,
)
from .partitions import (
    multiplicity,
    shift,
    substitute,
    sum_partitions,
)
from .qpoly import QPoly, ZERO, geometric_sum, monomial

__all__ = [
    "CharSum",
    "geometric_sum",
    "restrict_symplectic",
    "restrict_exotic",
    "restrict_symplectic_q1",
    "restrict_exotic_q1",
    "check_equivalence",
    "EquivalenceReport",
]


class CharSum:
    """Formal finite sum of orbit parameters with QPoly coefficients.

    Terms with zero coefficient are never stored; iteration order is the
    deterministic enumeration order of the parameters.
    """

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for param, coeff in items:
                self.add(param, coeff)

    def add(self, param, coeff):
        if not isinstance(coeff, QPoly):
            coeff = QPoly(coeff)
        old = self.terms.get(param)
        total = coeff if old is None else old + coeff
        if total:
            self.terms[param] = total
        else:
            self.terms.pop(param, None)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: param_sort_key(kv[0]))

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

    def evaluate(self, q):
        return {param: coeff(q) for param, coeff in self.terms.items()}

    def __eq__(self, other):
        return isinstance(other, CharSum) and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        body = " + ".join(f"({coeff})*({param})" for param, coeff in self.items())
        return f"CharSum[{body}]"


def _counts(lam):
    """(m(> r), m(>= r)) for each distinct part r of lam, in decreasing
    order of r: the multiplicities every case below reads."""
    out = {}
    gt = 0
    for r, m in Counter(lam).items():
        out[r] = (gt, gt + m)
        gt += m
    return out


def _check_rank(sub, n, param):
    if sub.rank != n - 1:
        raise InvariantViolation(
            f"restriction of {param} (rank {n}) emitted {sub} of rank {sub.rank}"
        )


def _largest_j_sp(und, chi, r):
    """Largest part value with the same chi as r whose slack is not repeated
    at any larger part.  Exists whenever r is a corner."""
    c = chi[r]
    for i, j in enumerate(und):  # decreasing
        if chi[j] != c:
            continue
        if all(rp - chi[rp] != j - c for rp in und[:i]):
            if j < r:
                raise InvariantViolation(f"j={j} below r={r}, chi={chi}")
            return j
    raise InvariantViolation(f"no valid j for r={r}, chi={chi}")


def restrict_symplectic(p):
    """Graded restriction for a (lam, chi) parameter of rank n >= 1."""
    n = p.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    lam = p.lam
    counts = _counts(lam)
    und = tuple(counts)
    chi = p.chi_map()
    crit_pts = x_crit(p)
    crit = {r for r, _ in crit_pts}
    out = CharSum()

    def emit(coeff, lam_new, points):
        # zero-coefficient skip happens before the target is built
        if not coeff:
            return
        sub = OmegaParam.make(lam_new, psi(lam_new, points))
        _check_rank(sub, n, p)
        out.add(sub, coeff)

    def step(k):  # q^m(>=k) - q^m(>k)
        m_gt_k, m_ge_k = counts[k]
        return monomial(m_ge_k) - monomial(m_gt_k)

    for r in und:
        m_gt, m_ge = counts[r]
        c = chi[r]
        if r not in crit:
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            if c == 0 or any(chi[rp] == c for rp in und if rp < r):
                # the two would-be targets coincide; merged coefficient
                emit(geometric_sum(m_ge, m_gt), pair, crit_pts)
            else:
                # slack is repeated at some larger part, so m(>r) >= 1
                emit(geometric_sum(m_ge - 1, m_gt - 1), pair, crit_pts)
                emit(
                    monomial(m_ge - 1) - monomial(m_gt - 1),
                    pair,
                    crit_pts | {(r - 1, c)},
                )
            continue

        j = _largest_j_sp(und, chi, r)
        m_gt_j = counts[j][0]
        ks = [k for k in und if r < k <= j]
        if 2 * c != r:
            # corner with chi below the ceiling; multiplicity is even >= 2
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            star = (crit_pts | {(r - 1, c - 1)}) - {(r, c)}
            emit(monomial(m_ge - 1), pair, crit_pts | {(r - 1, c)})
            emit(geometric_sum(m_ge - 1, m_gt + 1), pair, crit_pts)
            emit(monomial(m_gt_j), pair, star)
            for k in ks:
                emit(step(k), pair, star | {(k, c)})
        elif (m_ge - m_gt) % 2 == 1:
            # corner at the ceiling, odd multiplicity (r even)
            dstar = (crit_pts | {(r - 2, (r - 2) // 2)}) - {(r, c)}
            coeff = geometric_sum(m_ge - 1, m_gt)
            if coeff:  # zero exactly when the part occurs once
                emit(coeff, substitute(lam, (r, r), (r - 1, r - 1)), crit_pts)
            drop = substitute(lam, (r,), (r - 2,))
            emit(
                monomial(m_ge - 1) - monomial(m_gt),
                drop,
                crit_pts | {(r - 2, (r - 2) // 2)},
            )
            emit(monomial(m_gt_j), drop, dstar)
            for k in ks:
                emit(step(k), drop, dstar | {(k, c)})
        else:
            # corner at the ceiling, even multiplicity (r even)
            tstar = (crit_pts | {(r - 1, (r - 2) // 2)}) - {(r, c)}
            drop = substitute(lam, (r,), (r - 2,))
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            emit(monomial(m_ge - 1), drop, crit_pts | {(r - 2, (r - 2) // 2)})
            emit(geometric_sum(m_ge - 1, m_gt + 1), pair, crit_pts)
            emit(monomial(m_gt_j), pair, tstar)
            for k in ks:
                emit(step(k), pair, tstar | {(k, c)})
    return out


def restrict_symplectic_q1(p):
    """Ungraded (q = 1) restriction, computed by its own closed formula."""
    n = p.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    lam = p.lam
    chi = p.chi_map()
    crit_pts = x_crit(p)
    crit = {r for r, _ in crit_pts}
    out = CharSum()

    def emit(const, lam_new, points):
        if const == 0:
            return
        sub = OmegaParam.make(lam_new, psi(lam_new, points))
        out.add(sub, QPoly((const,)))

    for r, m_r in Counter(lam).items():
        c = chi[r]
        if r not in crit:
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            emit(m_r, pair, crit_pts)
            continue
        if 2 * c != r:
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            star = (crit_pts | {(r - 1, c - 1)}) - {(r, c)}
            emit(1, pair, crit_pts | {(r - 1, c)})
            emit(m_r - 2, pair, crit_pts)
            emit(1, pair, star)
        elif m_r % 2 == 1:
            dstar = (crit_pts | {(r - 2, (r - 2) // 2)}) - {(r, c)}
            if m_r > 1:
                emit(m_r - 1, substitute(lam, (r, r), (r - 1, r - 1)), crit_pts)
            emit(1, substitute(lam, (r,), (r - 2,)), dstar)
        else:
            tstar = (crit_pts | {(r - 1, (r - 2) // 2)}) - {(r, c)}
            drop = substitute(lam, (r,), (r - 2,))
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            emit(1, drop, crit_pts | {(r - 2, (r - 2) // 2)})
            emit(m_r - 2, pair, crit_pts)
            emit(1, pair, tstar)
    return out


def _largest_j_exo(comps, r):
    """Largest part with the same mu-component as r whose nu-component is not
    repeated at any larger part.  ``comps`` maps each part, decreasing, to
    its (mu-component, nu-component)."""
    nab = comps[r][0]
    larger = []  # nu-components of the parts above j
    for j, (nab_j, delt_j) in comps.items():
        if nab_j == nab and delt_j not in larger:
            if j < r:
                raise InvariantViolation(f"j={j} below r={r} in {comps}")
            return j
        larger.append(delt_j)
    raise InvariantViolation(f"no valid j for r={r} in {comps}")


def restrict_exotic(b):
    """Graded restriction for a bipartition of rank n >= 1."""
    n = b.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    mu, nu = b.mu, b.nu
    comps = _components(b)
    counts = _counts(sum_partitions(mu, nu))
    marked = set(und_v(b))
    out = CharSum()

    def emit(coeff, mu2, nu2):
        if not coeff:
            return
        sub = Bipartition(mu2, nu2)
        _check_rank(sub, n, b)
        out.add(sub, coeff)

    above = []  # (mu-component, nu-component) of the parts above r
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = counts[r]
        case3 = any(d == delt for _, d in above)
        case4 = any(m == nab for m, _ in above)
        above.append((nab, delt))
        if r not in marked:
            # unmarked parts have a positive nu-component
            emit(
                geometric_sum(2 * m_ge, 2 * m_gt),
                mu,
                substitute(nu, (delt,), (delt - 1,)),
            )
            continue
        if case3 and case4:
            raise InvariantViolation(f"cases 3 and 4 both hold at r={r} in {b}")
        if delt > 0:
            # growth term; dropped when the nu-component is 0 (empty fiber)
            m_nu = multiplicity(nu, delt, "geq")
            grown = (shift(mu, "up", m_ge + 1, m_nu), shift(nu, "down", m_ge, m_nu))
            if case3:
                emit(monomial(2 * m_ge - 1) - monomial(2 * m_gt - 1), *grown)
            else:
                emit(monomial(2 * m_ge - 1), *grown)
        if case3:
            emit(
                geometric_sum(2 * m_ge - 1, 2 * m_gt - 1),
                substitute(mu, (nab,), (nab - 1,)),
                nu,
            )
            continue
        emit(
            geometric_sum(2 * m_ge - 1, 2 * m_gt + 1),
            substitute(mu, (nab,), (nab - 1,)),
            nu,
        )
        m_mu = multiplicity(mu, nab, "geq")
        if case4:
            j = _largest_j_exo(comps, r)
            m_gt_j = counts[j][0]
            emit(
                monomial(2 * m_gt_j),
                shift(mu, "down", m_gt_j + 1, m_mu),
                shift(nu, "up", m_gt_j + 1, m_mu - 1),
            )
            for k in comps:
                if not (r < k <= j):
                    continue
                m_gt_k, m_ge_k = counts[k]
                emit(
                    monomial(2 * m_ge_k) - monomial(2 * m_gt_k),
                    shift(mu, "down", m_ge_k + 1, m_mu),
                    shift(nu, "up", m_ge_k + 1, m_mu - 1),
                )
        else:
            emit(
                monomial(2 * m_gt),
                shift(mu, "down", m_gt + 1, m_mu),
                shift(nu, "up", m_gt + 1, m_mu - 1),
            )
    return out


def restrict_exotic_q1(b):
    """Ungraded (q = 1) restriction, computed by its own closed formula."""
    n = b.rank
    if n < 1:
        raise InvalidParam("restriction needs rank >= 1")
    mu, nu = b.mu, b.nu
    comps = _components(b)
    counts = _counts(sum_partitions(mu, nu))
    marked = set(und_v(b))
    out = CharSum()

    def emit(const, mu2, nu2):
        if const == 0:
            return
        out.add(Bipartition(mu2, nu2), QPoly((const,)))

    above = []  # (mu-component, nu-component) of the parts above r
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = counts[r]
        m_r = m_ge - m_gt
        case3 = any(d == delt for _, d in above)
        case4 = any(m == nab for m, _ in above)
        above.append((nab, delt))
        if r not in marked:
            emit(2 * m_r, mu, substitute(nu, (delt,), (delt - 1,)))
            continue
        if case3:
            emit(2 * m_r, substitute(mu, (nab,), (nab - 1,)), nu)
            continue
        if delt > 0:
            m_nu = multiplicity(nu, delt, "geq")
            emit(1, shift(mu, "up", m_ge + 1, m_nu), shift(nu, "down", m_ge, m_nu))
        emit(2 * m_r - 2, substitute(mu, (nab,), (nab - 1,)), nu)
        m_mu = multiplicity(mu, nab, "geq")
        if case4:
            j = _largest_j_exo(comps, r)
            m_gt_j = counts[j][0]
            emit(
                1,
                shift(mu, "down", m_gt_j + 1, m_mu),
                shift(nu, "up", m_gt_j + 1, m_mu - 1),
            )
        else:
            emit(
                1,
                shift(mu, "down", m_gt + 1, m_mu),
                shift(nu, "up", m_gt + 1, m_mu - 1),
            )
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
    from .params import enumerate_omega, iota

    rows = []
    for p in enumerate_omega(n):
        transported = restrict_symplectic(p).map_params(iota)
        direct = restrict_exotic(iota(p))
        ok = transported == direct
        detail = ""
        if not ok:
            keys = sorted(
                set(transported.terms) | set(direct.terms), key=param_sort_key
            )
            for key in keys:
                lhs = transported.terms.get(key, ZERO)
                rhs = direct.terms.get(key, ZERO)
                if lhs != rhs:
                    detail = f"first differing term {key}: {lhs} vs {rhs}"
                    break
        rows.append((p, ok, detail))
    return EquivalenceReport(n, rows)
