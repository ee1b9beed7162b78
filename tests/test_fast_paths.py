"""Differential tests for the internal fast paths.

The partition helpers and QPoly operators build their results without
re-normalizing; each must return exactly what the public constructor
returns on the same data, of exactly the same type.  The evaluator
accumulates its weighted sums as big ints, packed at q = 2^slot; it must
agree with ``reference.reference_value``, a plain recursion through public
QPoly arithmetic.  The restriction kernels move parts by slicing and
validate their targets in one pass; they must give the terms of the plain
formulas of ``reference``, in the same order, and their helpers must agree
with its naive part moves through the constructor and its pairwise
definitions.  The one-pass validation compares adjacent distinct parts
only, so it must find a violation exactly when the pairwise definition
does, with the same messages save the condition-3 ones at non-adjacent
parts.
"""

from collections import Counter
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

import springerbc.evaluator as evaluator
import springerbc.restrict as restrict_module
from reference import (
    pairwise_validate,
    pairwise_x_crit,
    ref_restrict_exotic,
    ref_restrict_symplectic,
    reference_value,
    seeded_sample,
    substitute,
)
from springerbc.errors import InvalidParam, InvariantViolation
from springerbc.evaluator import GROUP_ELEMENTS, value
from springerbc.params import (
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
# Slice-based part moves against the naive substitute and the constructor


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


@given(st.data())
def test_shift_matches_constructor(data):
    # 1-based a..b as the formulas write it, empty when b < a; a result the
    # constructor would have to re-sort must raise instead
    p = data.draw(parts_st)
    step = data.draw(st.sampled_from((1, -1)))
    a = data.draw(st.integers(1, len(p) + 2))
    hi = len(p) if step < 0 else len(p) + 3
    b = data.draw(st.integers(max(0, a - 2), max(a - 1, hi)))
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


def same_charsum(got, expected):
    assert list(got.terms) == list(expected.terms)  # insertion order too
    assert got.terms == expected.terms
    for param, coeff in got.terms.items():
        same(coeff, expected.terms[param])
        for name in ("lam", "chi") if type(param) is OmegaParam else ("mu", "nu"):
            field = getattr(param, name)
            assert type(field) is (tuple if name == "chi" else Partition)
            assert all(type(x) is int for x in field)


# every parameter of rank <= 12, then 40 seeded ones of each rank 14-18
EVERY, SAMPLED = range(1, 13), range(14, 19)
KERNELS = [
    (enumerate_omega, restrict_symplectic, ref_restrict_symplectic),
    (enumerate_bipartitions, restrict_exotic, ref_restrict_exotic),
]


@pytest.mark.parametrize("n", [*EVERY, *SAMPLED])
def test_restriction_kernels_match_plain_formulas(n):
    for enumerate_rank, kernel, reference in KERNELS:
        for p in seeded_sample(enumerate_rank, 14, EVERY, SAMPLED):
            if p.rank == n:
                same_charsum(kernel(p), reference(p))
