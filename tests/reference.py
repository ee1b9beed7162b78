"""Plain references for the package's rules, each written once for the tests.

Each function reads one rule off its definition alone, with none of the
package's shared scans, slice moves or one-pass checks, so that tests can
check those fast paths against an independent route: the naive part moves
(through the ``Partition`` constructor), the runs, components, marks and
run ends of a parameter, the pairwise corner points and conditions of
(lam, chi), the two graded restriction formulas (terms in the package's
order, each term naming its case), and the value recursion.
"""

import random
from collections import Counter
from functools import cache
from itertools import zip_longest

from springerbc.evaluator import value
from springerbc.params import Bipartition, OmegaParam, psi
from springerbc.partitions import Partition, sum_partitions
from springerbc.qpoly import QPoly, geometric_sum, monomial
from springerbc.restrict import CharSum
from springerbc.theory import of


def substitute(p, olds, news):
    """Replace the multiset ``olds`` of parts of p by ``news`` through the
    constructor, which sorts and drops zeros."""
    rest = Counter(p)
    rest.subtract(olds)
    assert min(rest.values(), default=0) >= 0, (p, olds)
    return Partition(list(rest.elements()) + list(news))


def shift(p, step, a, b):
    """Add ``step`` to the parts a..b of p, 1-based and inclusive, a part
    beyond the length reading as 0, through the constructor."""
    parts = list(p) + [0] * max(0, b - len(p))
    for i in range(a - 1, b):
        parts[i] += step
    assert min(parts, default=0) >= 0, (p, step, a, b)
    return Partition(parts)


def runs(p):
    """(m(> r), m(>= r)) at each distinct part r of the partition p,
    decreasing: the numbers of parts of p above r and at least r."""
    return {
        r: (sum(x > r for x in p), sum(x >= r for x in p))
        for r in sorted(set(p), reverse=True)
    }


def components(b):
    """The (mu-part, nu-part) at each distinct part r of mu + nu: the first
    column (mu_i, nu_i) that sums to r, in the order of the columns."""
    out = {}
    for a, c in zip_longest(b.mu, b.nu, fillvalue=0):
        out.setdefault(a + c, (a, c))
    return out


def marks(b):
    """Marked parts: values r of mu + nu whose mu-component strictly exceeds
    the mu-component of every smaller part, including the sentinel 0 (so
    the mu-component must be at least 1).  Decreasing order."""
    comps = components(b)
    return tuple(
        r
        for r, (nab, _) in sorted(comps.items(), reverse=True)
        if all(nab > m for s, (m, _) in comps.items() if s < r) and nab > 0
    )


def run_end(p, x):
    """One past the index of the last copy of x in p; in a partition, the
    number of parts >= x."""
    return len(p) - p[::-1].index(x)


def pairwise_x_crit(und, chi):
    """The corner points of chi on the distinct parts ``und``: each (r, c)
    with c = chi(r) > 0 above chi at every smaller part, and the slack
    r - c below the slack at every larger part."""
    pts = set()
    for r in und:
        c = chi[r]
        if c == 0:
            continue
        if any(chi[rp] >= c for rp in und if rp < r):
            continue
        if any(rp - chi[rp] <= r - c for rp in und if rp > r):
            continue
        pts.add((r, c))
    return frozenset(pts)


def pairwise_validate(lam, chi):
    """The messages of every broken defining condition of (lam, chi), with
    condition 3 checked at every pair of distinct parts."""
    und = tuple(sorted(set(lam), reverse=True))
    bad = []
    for r in und:
        c = chi[r]
        odd_mult = lam.count(r) % 2 == 1
        if r % 2 == 1 and odd_mult:
            bad.append(f"condition 1 at r={r}: odd part with odd multiplicity")
        if not (0 <= c and 2 * c <= r):
            bad.append(f"condition 2 at r={r}: chi={c} outside [0, {r}/2]")
        if odd_mult and 2 * c != r:
            bad.append(
                f"condition 2 at r={r}: odd multiplicity forces chi={r}/2, got {c}"
            )
    for i, r in enumerate(und):
        for rp in und[i + 1 :]:
            if chi[rp] > chi[r]:
                bad.append(f"condition 3 at r'={rp}, r={r}: chi({rp}) > chi({r})")
            if rp - chi[rp] > r - chi[r]:
                bad.append(
                    f"condition 3 at r'={rp}, r={r}: slack({rp}) > slack({r})"
                )
    return bad


def largest_j(pairs, r):
    """The j rule on the map ``pairs`` from each distinct part, decreasing,
    to a pair: the largest part j whose first component is r's and whose
    second component no larger part has.  The pairs are (chi, slack) for
    sp2 and the (mu-, nu-) components for exotic."""
    larger = [second for _, second in pairs.values()]
    for i, (j, (first, second)) in enumerate(pairs.items()):
        if first == pairs[r][0] and second not in larger[:i]:
            assert j >= r
            return j
    raise AssertionError("no valid j")


def ref_restrict_symplectic(p, cases=None):
    """The graded sp2 restriction of (lam, chi), case by case over the
    distinct parts r of lam, each target's chi ``psi`` of its point set.
    Each term with a nonzero coefficient adds the label of its case to the
    set ``cases``, when one is given."""
    n, lam, chi = p.rank, p.lam, p.chi_map()
    counts = runs(lam)
    und = tuple(counts)
    crit_pts = pairwise_x_crit(und, chi)
    crit = {r for r, _ in crit_pts}
    out = CharSum()

    def emit(term, coeff, lam_new, points):
        if coeff:
            sub = OmegaParam.make(lam_new, psi(lam_new, points))
            assert sub.rank == n - 1, (p, case, term)
            out.add(sub, coeff)
            if cases is not None:
                cases.add(f"{case}: {term}")

    for r in und:
        m_gt, m_ge = counts[r]
        c = chi[r]
        pair = substitute(lam, (r, r), (r - 1, r - 1)) if m_ge - m_gt > 1 else None
        if r not in crit:
            case = "not a corner"
            if c == 0 or any(chi[rp] == c for rp in und if rp < r):
                emit("merged", geometric_sum(m_ge, m_gt), pair, crit_pts)
            else:
                emit("split", geometric_sum(m_ge - 1, m_gt - 1), pair, crit_pts)
                emit(
                    "split at (r - 1, c)",
                    monomial(m_ge - 1) - monomial(m_gt - 1),
                    pair,
                    crit_pts | {(r - 1, c)},
                )
            continue
        j = largest_j({k: (chi[k], k - chi[k]) for k in und}, r)
        low = (r - 2, (r - 2) // 2)
        if 2 * c != r:
            case = "corner below the ceiling"
            chain, base = pair, (crit_pts | {(r - 1, c - 1)}) - {(r, c)}
            emit("at (r - 1, c)", monomial(m_ge - 1), pair, crit_pts | {(r - 1, c)})
            emit("pair", geometric_sum(m_ge - 1, m_gt + 1), pair, crit_pts)
        elif (m_ge - m_gt) % 2 == 1:
            case = "ceiling, odd multiplicity"
            chain, base = substitute(lam, (r,), (r - 2,)), (crit_pts | {low}) - {(r, c)}
            emit("pair", geometric_sum(m_ge - 1, m_gt), pair, crit_pts)
            emit("drop", monomial(m_ge - 1) - monomial(m_gt), chain, crit_pts | {low})
        else:
            case = "ceiling, even multiplicity"
            chain, base = pair, (crit_pts | {(r - 1, (r - 2) // 2)}) - {(r, c)}
            drop = substitute(lam, (r,), (r - 2,))
            emit("drop", monomial(m_ge - 1), drop, crit_pts | {low})
            emit("pair", geometric_sum(m_ge - 1, m_gt + 1), pair, crit_pts)
        at_j = "chain at j = r" if j == r else "chain at j > r"
        emit(at_j, monomial(counts[j][0]), chain, base)
        for k in und:
            if r < k <= j:
                m_gt_k, m_ge_k = counts[k]
                step = monomial(m_ge_k) - monomial(m_gt_k)
                emit("chain at k", step, chain, base | {(k, c)})
    return out


def ref_restrict_exotic(b, cases=None):
    """The graded exotic restriction of (mu, nu), case by case over the
    distinct parts r of mu + nu: case 1 when r is unmarked; else case 3
    when its nu-component, case 4 when its mu-component, occurs at a
    larger part, and case 2 otherwise.  Each term with a nonzero
    coefficient adds the label of its case to the set ``cases``, when one
    is given."""
    n, mu, nu = b.rank, b.mu, b.nu
    counts = runs(sum_partitions(mu, nu))
    comps = components(b)
    marked = set(marks(b))
    out = CharSum()

    def emit(term, coeff, mu2, nu2):
        if coeff:
            sub = Bipartition(mu2, nu2)
            assert sub.rank == n - 1, (b, case, term)
            out.add(sub, coeff)
            if cases is not None:
                cases.add(f"{case}: {term}")

    above = []
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = counts[r]
        case3 = any(d == delt for _, d in above)
        case4 = any(m == nab for m, _ in above)
        above.append((nab, delt))
        if r not in marked:
            case = "case 1"
            lowered = substitute(nu, (delt,), (delt - 1,))
            emit("nu lowered", geometric_sum(2 * m_ge, 2 * m_gt), mu, lowered)
            continue
        assert not (case3 and case4)
        case = "case 3" if case3 else "case 4" if case4 else "case 2"
        if delt > 0:
            m_nu = run_end(nu, delt)
            grown = (shift(mu, 1, m_ge + 1, m_nu), shift(nu, -1, m_ge, m_nu))
            minus = monomial(2 * m_gt - 1) if case3 else QPoly()
            emit("growth", monomial(2 * m_ge - 1) - minus, *grown)
        lowered = substitute(mu, (nab,), (nab - 1,))
        if case3:
            emit("mu lowered", geometric_sum(2 * m_ge - 1, 2 * m_gt - 1), lowered, nu)
            continue
        emit("mu lowered", geometric_sum(2 * m_ge - 1, 2 * m_gt + 1), lowered, nu)
        m_mu = run_end(mu, nab)

        def moved(m):
            return shift(mu, -1, m + 1, m_mu), shift(nu, 1, m + 1, m_mu - 1)

        j = largest_j(comps, r) if case4 else r
        at_j = "chain at j = r" if j == r else "chain at j > r"
        emit(at_j, monomial(2 * counts[j][0]), *moved(counts[j][0]))
        for k in comps:
            if r < k <= j:
                m_gt_k, m_ge_k = counts[k]
                step = monomial(2 * m_ge_k) - monomial(2 * m_gt_k)
                emit("chain at k", step, *moved(m_ge_k))
    return out


def reference_value(param, w, memo):
    """The value recursion written with public QPoly arithmetic only."""
    if param.rank <= 1:
        return value(param, w)  # fixed base data
    key = (param, w)
    if key not in memo:
        total = QPoly()
        for sub, coeff in of(param).restrict(param).terms.items():
            total = total + coeff * reference_value(sub, w, memo)
        memo[key] = total
    return memo[key]


@cache
def seeded_sample(enumerate_rank, seed, every, sampled):
    """Every parameter of the ranks ``every``, then 40 of each rank of
    ``sampled``, drawn rank by rank by one ``random.Random(seed)``."""
    params = [p for n in every for p in enumerate_rank(n)]
    rng = random.Random(seed)
    for n in sampled:
        params += rng.sample(enumerate_rank(n), 40)
    return params


def unsorted(parts):
    """A Partition that skips the constructor's sort: only internal code
    could build one, so the checks it trips guard results."""
    return tuple.__new__(Partition, parts)
