"""Differential tests for the internal fast paths.

The partition helpers and QPoly operators build their results without
re-normalizing; each must return exactly what the public constructor
returns on the same data, of exactly the same type.  The evaluator
accumulates its weighted sums as big ints, packed at q = 2^slot; it must
agree with a plain recursion through public QPoly arithmetic.  The restriction kernels
move parts by slicing and validate their targets in one pass; they must
agree with the plain formulas kept below, and their helpers with naive
part moves through the constructor and the pairwise definitions.  The one-pass
validation compares adjacent distinct parts only, so it must find a
violation exactly when the pairwise definition does, with the same
messages save the condition-3 ones at non-adjacent parts.
"""

from collections import Counter
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

import springerbc.evaluator as evaluator
import springerbc.restrict as restrict_module
import springerbc.theory as theory
from bipartition_ref import components, marks, run_end, runs
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.evaluator import GROUP_ELEMENTS, value
from springerbc.params import (
    Bipartition,
    OmegaParam,
    _corners,
    bipartition_from_text,
    enumerate_bipartitions,
    enumerate_omega,
    validate_omega,
    x_crit,
)
from springerbc.partitions import (
    Partition,
    _drop,
    _lower,
    _run_end,
    _shift,
    sum_partitions,
    underlying_set,
)
from springerbc.qpoly import QPoly, _step, geometric_sum, monomial
from springerbc.restrict import CharSum, restrict_exotic, restrict_symplectic

parts_st = st.lists(st.integers(1, 9), max_size=8).map(Partition)
poly_st = st.lists(st.integers(-9, 9), max_size=6).map(QPoly)


def same(result, reference):
    assert type(result) is type(reference)
    assert all(type(x) is int for x in result)
    assert tuple(result) == tuple(reference)


def substitute(p, olds, news):
    """Naive reference: replace the multiset ``olds`` of parts of p by
    ``news`` through the constructor, which sorts and drops zeros."""
    rest = Counter(p)
    rest.subtract(olds)
    assert min(rest.values(), default=0) >= 0, (p, olds)
    return Partition(list(rest.elements()) + list(news))


def shift(p, step, a, b):
    """Naive reference: add ``step`` to the parts a..b of p, 1-based and
    inclusive, a part beyond the length reading as 0, through the
    constructor."""
    parts = list(p) + [0] * max(0, b - len(p))
    for i in range(a - 1, b):
        parts[i] += step
    assert min(parts, default=0) >= 0, (p, step, a, b)
    return Partition(parts)


@given(parts_st, st.integers(1, 10))
def test_multiplicity_matches_naive_count(p, r):
    # m(>= r) is where the run of r ends, read only at a part of p
    if r in p:
        assert _run_end(p, r) == sum(x >= r for x in p)
    else:
        with pytest.raises(InvalidParam, match="not contained in"):
            _run_end(p, r)


@given(parts_st)
def test_underlying_set_matches_sorted_set(p):
    assert underlying_set(p) == tuple(sorted(set(p), reverse=True))


@given(parts_st, parts_st)
def test_sum_partitions_matches_constructor(a, b):
    n = max(len(a), len(b))
    reference = Partition(a.part_at(i) + b.part_at(i) for i in range(1, n + 1))
    same(sum_partitions(a, b), reference)


@given(st.integers(0, 8))
def test_monomial_matches_constructor(e):
    same(monomial(e), QPoly((0,) * e + (1,)))


@given(st.integers(0, 8), st.integers(0, 8))
def test_geometric_sum_matches_constructor(a, b):
    a, b = max(a, b), min(a, b)
    same(geometric_sum(a, b), QPoly((0,) * b + (1,) * (a - b)))


@given(st.integers(0, 8), st.integers(0, 8))
def test_step_matches_monomial_difference(a, b):
    a, b = max(a, b), min(a, b)
    same(_step(a, b), monomial(a) - monomial(b))


@given(poly_st, poly_st)
def test_add_and_neg_match_constructor(p, q):
    same(p + q, QPoly(x + y for x, y in zip_longest(p, q, fillvalue=0)))
    same(p - q, QPoly(x - y for x, y in zip_longest(p, q, fillvalue=0)))
    same(-p, QPoly(-c for c in p))


@given(poly_st, poly_st, st.integers(-3, 3))
def test_mul_matches_constructor(p, q, k):
    out = [0] * (len(p) + len(q))
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    same(p * q, QPoly(out))
    same(p * k, QPoly(c * k for c in p))


def reference_value(param, w, memo):
    """The value recursion written with public QPoly arithmetic only."""
    if param.rank <= 1:
        return value(param, w)  # fixed base data
    key = (param, w)
    if key not in memo:
        total = QPoly()
        for sub, coeff in theory.of(param).restrict(param).terms.items():
            total = total + coeff * reference_value(sub, w, memo)
        memo[key] = total
    return memo[key]


def test_value_matches_reference_recursion():
    memo = {}
    for n in range(8):
        for param in enumerate_omega(n) + enumerate_bipartitions(n):
            for w in GROUP_ELEMENTS:
                got = value(param, w)
                assert type(got) is QPoly
                assert got == reference_value(param, w, memo), (param, w)


def test_value_accumulates_any_coefficient(monkeypatch):
    # the formulas' coefficients are 0 and +-1 in practice; a stand-in
    # restriction also covers larger ones and a cancelling leading term
    top = bipartition_from_text("mu=[1] nu=[]")  # value 1
    reg = bipartition_from_text("mu=[] nu=[1]")  # value 1 + q or 1 - q
    coeffs = {reg: QPoly((3, -1, 2)), top: QPoly((-5, 0, 0, -2))}
    monkeypatch.setattr(restrict_module, "restrict_exotic", lambda b: CharSum(coeffs))
    param = bipartition_from_text("mu=[1,1] nu=[]")
    evaluator.clear_cache()
    try:
        for w in GROUP_ELEMENTS:
            expected = coeffs[reg] * value(reg, w) + coeffs[top] * value(top, w)
            same(value(param, w), expected)
        assert value(param, "id") == (-2, 2, 1)  # the q^3 terms cancel
    finally:
        evaluator.clear_cache()


# ---------------------------------------------------------------------------
# Slice-based part moves against the naive substitute and shift above


@given(parts_st, st.integers(1, 10), st.integers(1, 3))
def test_lower_matches_substitute(p, x, copies):
    if p.count(x) < copies:
        with pytest.raises(InvalidParam, match="not contained in"):
            _lower(p, x, copies)
        return
    same(_lower(p, x, copies), substitute(p, (x,) * copies, (x - 1,) * copies))


@given(st.data())
def test_substitute_matches_constructor(data):
    # a chain of slice moves is one multiset substitution through the constructor
    p = q = data.draw(parts_st)
    counts = Counter(p)
    for _ in range(data.draw(st.integers(0, 6))):
        if not q:
            break
        x = data.draw(st.sampled_from(sorted(set(q))))
        moves = [(1, 1)] + [(1, 2)] * (q.count(x) >= 2) + [(2, 1)] * (x >= 2)
        by, copies = data.draw(st.sampled_from(moves))
        q = _lower(q, x, copies) if by == 1 else _drop(q, x)
        counts[x] -= copies
        counts[x - by] += copies
    del counts[0]
    same(q, Partition(list(counts.elements())))


@given(parts_st, st.integers(1, 10))
def test_drop_matches_substitute(p, x):
    if x < 2:
        with pytest.raises(InvalidParam, match="^cannot drop the part 1 by 2"):
            _drop(p, x)
    elif x not in p:
        with pytest.raises(InvalidParam, match="not contained in"):
            _drop(p, x)
    else:
        same(_drop(p, x), substitute(p, (x,), (x - 2,)))


def _at(p, i):
    return p[i] if i < len(p) else 0


@given(st.data())
def test_shift_by_slicing_matches_shift(data):
    p = data.draw(parts_st)
    step = data.draw(st.sampled_from((1, -1)))
    a = data.draw(st.integers(0, len(p) + 1))
    hi = len(p) if step < 0 else len(p) + 3
    b = data.draw(st.integers(max(0, a - 1), max(a - 1, hi, 0)))
    # the order condition the callers guarantee
    keeps_order = b <= a or (
        (a == 0 or _at(p, a - 1) > _at(p, a)) if step > 0 else _at(p, b - 1) > _at(p, b)
    )
    if keeps_order:
        same(_shift(p, a, b, step), shift(p, step, a + 1, b))
    else:
        with pytest.raises(InvariantViolation):
            _shift(p, a, b, step)


@given(st.data())
def test_shift_matches_constructor(data):
    # 1-based a..b as the formulas write it; a result the constructor would
    # have to re-sort must raise instead
    p = data.draw(parts_st)
    step = data.draw(st.sampled_from((1, -1)))
    a = data.draw(st.integers(1, len(p) + 2))
    hi = len(p) if step < 0 else len(p) + 3
    b = data.draw(st.integers(a - 1, max(a - 1, hi)))
    parts = list(p) + [0] * max(0, b - len(p))
    for i in range(a - 1, b):
        parts[i] += step
    if all(x >= y for x, y in zip(parts, parts[1:])):
        same(_shift(p, a - 1, b, step), Partition(parts))
    else:
        with pytest.raises(InvariantViolation):
            _shift(p, a - 1, b, step)


def test_shift_by_slicing_rejects_down_past_the_end():
    with pytest.raises(InvalidParam, match="exceeds length 2"):
        _shift(Partition([2, 1]), 1, 3, -1)


# ---------------------------------------------------------------------------
# Corner points and validation against the pairwise definitions


def pairwise_x_crit(und, chi):
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
    und = underlying_set(lam)
    if set(chi) != set(und):
        raise InvalidParam("domain")
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


@st.composite
def lam_and_chi(draw):
    """A nonempty partition and any small chi on its distinct parts; about
    one draw in three is a valid parameter."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        p = draw(st.sampled_from(enumerate_omega(n)))
        return p.lam, p.chi_map()
    lam = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8).map(Partition))
    und = underlying_set(lam)
    vec = draw(st.lists(st.integers(-2, 5), min_size=len(und), max_size=len(und)))
    return lam, dict(zip(und, vec))


@given(lam_and_chi())
def test_corners_match_pairwise_definition(data):
    lam, chi = data
    und = underlying_set(lam)
    vec = tuple(chi[r] for r in und)
    assert frozenset(_corners(und, vec)) == pairwise_x_crit(und, chi)
    assert x_crit(OmegaParam(lam, vec)) == pairwise_x_crit(und, chi)


@given(lam_and_chi())
def test_validate_omega_matches_pairwise_definition(data):
    lam, chi = data
    got = validate_omega(lam, chi)
    reference = pairwise_validate(lam, chi)
    assert bool(got) == bool(reference)
    und = underlying_set(lam)
    adjacent = tuple(f" at r'={rp}, r={r}:" for r, rp in zip(und, und[1:]))
    kept = [
        msg for msg in reference
        if not msg.startswith("condition 3") or any(a in msg for a in adjacent)
    ]
    assert Counter(got) == Counter(kept)


# ---------------------------------------------------------------------------
# The restriction kernels against the plain formulas


def ref_counts(lam):
    out = {}
    gt = 0
    for r, m in Counter(lam).items():
        out[r] = (gt, gt + m)
        gt += m
    return out


def ref_psi(lam, points):
    out = {}
    for r in underlying_set(lam):
        best = 0
        for a, b in points:
            cand = r - (a - b) if a >= r else b
            if cand > best:
                best = cand
        out[r] = best
    return out


def ref_restrict_symplectic(p):
    n = p.rank
    lam = p.lam
    counts = ref_counts(lam)
    und = tuple(counts)
    chi = p.chi_map()
    crit_pts = pairwise_x_crit(und, chi)
    crit = {r for r, _ in crit_pts}
    out = CharSum()

    def emit(coeff, lam_new, points):
        if not coeff:
            return
        sub = OmegaParam.make(lam_new, ref_psi(lam_new, points))
        assert sub.rank == n - 1
        out.add(sub, coeff)

    def step(k):
        m_gt_k, m_ge_k = counts[k]
        return monomial(m_ge_k) - monomial(m_gt_k)

    def largest_j(r):
        c = chi[r]
        for i, j in enumerate(und):
            if chi[j] == c and all(rp - chi[rp] != j - c for rp in und[:i]):
                assert j >= r
                return j
        raise AssertionError("no valid j")

    for r in und:
        m_gt, m_ge = counts[r]
        c = chi[r]
        if r not in crit:
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            if c == 0 or any(chi[rp] == c for rp in und if rp < r):
                emit(geometric_sum(m_ge, m_gt), pair, crit_pts)
            else:
                emit(geometric_sum(m_ge - 1, m_gt - 1), pair, crit_pts)
                emit(
                    monomial(m_ge - 1) - monomial(m_gt - 1),
                    pair,
                    crit_pts | {(r - 1, c)},
                )
            continue
        j = largest_j(r)
        m_gt_j = counts[j][0]
        ks = [k for k in und if r < k <= j]
        if 2 * c != r:
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            star = (crit_pts | {(r - 1, c - 1)}) - {(r, c)}
            emit(monomial(m_ge - 1), pair, crit_pts | {(r - 1, c)})
            emit(geometric_sum(m_ge - 1, m_gt + 1), pair, crit_pts)
            emit(monomial(m_gt_j), pair, star)
            for k in ks:
                emit(step(k), pair, star | {(k, c)})
        elif (m_ge - m_gt) % 2 == 1:
            dstar = (crit_pts | {(r - 2, (r - 2) // 2)}) - {(r, c)}
            coeff = geometric_sum(m_ge - 1, m_gt)
            if coeff:
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
            tstar = (crit_pts | {(r - 1, (r - 2) // 2)}) - {(r, c)}
            drop = substitute(lam, (r,), (r - 2,))
            pair = substitute(lam, (r, r), (r - 1, r - 1))
            emit(monomial(m_ge - 1), drop, crit_pts | {(r - 2, (r - 2) // 2)})
            emit(geometric_sum(m_ge - 1, m_gt + 1), pair, crit_pts)
            emit(monomial(m_gt_j), pair, tstar)
            for k in ks:
                emit(step(k), pair, tstar | {(k, c)})
    return out


def ref_restrict_exotic(b):
    n = b.rank
    mu, nu = b.mu, b.nu
    counts = runs(b)
    comps = components(b)
    marked = set(marks(b))
    out = CharSum()

    def emit(coeff, mu2, nu2):
        if not coeff:
            return
        sub = Bipartition(mu2, nu2)
        assert sub.rank == n - 1
        out.add(sub, coeff)

    def largest_j(r):
        nab = comps[r][0]
        larger = []
        for j, (nab_j, delt_j) in comps.items():
            if nab_j == nab and delt_j not in larger:
                assert j >= r
                return j
            larger.append(delt_j)
        raise AssertionError("no valid j")

    above = []
    for r, (nab, delt) in comps.items():
        m_gt, m_ge = counts[r]
        case3 = any(d == delt for _, d in above)
        case4 = any(m == nab for m, _ in above)
        above.append((nab, delt))
        if r not in marked:
            emit(
                geometric_sum(2 * m_ge, 2 * m_gt),
                mu,
                substitute(nu, (delt,), (delt - 1,)),
            )
            continue
        assert not (case3 and case4)
        if delt > 0:
            m_nu = run_end(nu, delt)
            grown = (shift(mu, 1, m_ge + 1, m_nu), shift(nu, -1, m_ge, m_nu))
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
        m_mu = run_end(mu, nab)
        if case4:
            j = largest_j(r)
            m_gt_j = counts[j][0]
            emit(
                monomial(2 * m_gt_j),
                shift(mu, -1, m_gt_j + 1, m_mu),
                shift(nu, 1, m_gt_j + 1, m_mu - 1),
            )
            for k in comps:
                if not (r < k <= j):
                    continue
                m_gt_k, m_ge_k = counts[k]
                emit(
                    monomial(2 * m_ge_k) - monomial(2 * m_gt_k),
                    shift(mu, -1, m_ge_k + 1, m_mu),
                    shift(nu, 1, m_ge_k + 1, m_mu - 1),
                )
        else:
            emit(
                monomial(2 * m_gt),
                shift(mu, -1, m_gt + 1, m_mu),
                shift(nu, 1, m_gt + 1, m_mu - 1),
            )
    return out


def same_charsum(got, expected):
    assert got.terms == expected.terms
    for param, coeff in got.terms.items():
        same(coeff, expected.terms[param])
        for name in ("lam", "chi") if type(param) is OmegaParam else ("mu", "nu"):
            field = getattr(param, name)
            assert type(field) is (tuple if name == "chi" else Partition)
            assert all(type(x) is int for x in field)


@pytest.mark.parametrize("n", range(1, 11))
def test_restriction_kernels_match_plain_formulas(n):
    for p in enumerate_omega(n):
        same_charsum(restrict_symplectic(p), ref_restrict_symplectic(p))
    for b in enumerate_bipartitions(n):
        same_charsum(restrict_exotic(b), ref_restrict_exotic(b))
