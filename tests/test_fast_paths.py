"""Differential tests for the internal fast paths.

The partition helpers and QPoly operators build their results without
re-normalizing; each must return exactly what the public constructor
returns on the same data, of exactly the same type.  The evaluator
accumulates its weighted sums in a list of ints; it must agree with a
plain recursion through public QPoly arithmetic.
"""

from collections import Counter
from itertools import zip_longest

from hypothesis import given
from hypothesis import strategies as st

import springerbc.evaluator as evaluator
import springerbc.restrict as restrict_module
from springerbc.evaluator import GROUP_ELEMENTS, value
from springerbc.params import (
    OmegaParam,
    bipartition_from_text,
    enumerate_bipartitions,
    enumerate_omega,
)
from springerbc.partitions import (
    Partition,
    multiplicity,
    shift,
    substitute,
    sum_partitions,
    underlying_set,
)
from springerbc.qpoly import QPoly, geometric_sum, monomial
from springerbc.restrict import CharSum, restrict_exotic, restrict_symplectic

parts_st = st.lists(st.integers(1, 9), max_size=8).map(Partition)
poly_st = st.lists(st.integers(-9, 9), max_size=6).map(QPoly)


def same(result, reference):
    assert type(result) is type(reference)
    assert all(type(x) is int for x in result)
    assert tuple(result) == tuple(reference)


@given(parts_st, st.integers(1, 10))
def test_multiplicity_matches_naive_count(p, r):
    naive = {
        "eq": sum(1 for x in p if x == r),
        "geq": sum(1 for x in p if x >= r),
        "gt": sum(1 for x in p if x > r),
        "leq": sum(1 for x in p if x <= r),
        "lt": sum(1 for x in p if x < r),
    }
    for mode, count in naive.items():
        assert multiplicity(p, r, mode) == count, mode


@given(parts_st)
def test_underlying_set_matches_sorted_set(p):
    assert underlying_set(p) == tuple(sorted(set(p), reverse=True))


@given(st.data())
def test_substitute_matches_constructor(data):
    p = data.draw(parts_st)
    picked = data.draw(st.sets(st.integers(0, len(p) - 1))) if p else set()
    olds = [p[i] for i in sorted(picked)]
    news = data.draw(st.lists(st.integers(0, 9), min_size=len(olds), max_size=len(olds)))
    rest = Counter(p)
    rest.subtract(olds)
    same(substitute(p, olds, news), Partition(list(rest.elements()) + news))


@given(st.data())
def test_shift_matches_constructor(data):
    p = data.draw(parts_st)
    direction = data.draw(st.sampled_from(("up", "down")))
    a = data.draw(st.integers(1, len(p) + 2))
    hi = len(p) if direction == "down" else len(p) + 3
    b = data.draw(st.integers(a - 1, max(a - 1, hi)))
    step = 1 if direction == "up" else -1
    parts = list(p) + [0] * max(0, b - len(p))
    for i in range(a - 1, b):
        parts[i] += step
    same(shift(p, direction, a, b), Partition(parts))


@given(parts_st, parts_st)
def test_sum_partitions_matches_constructor(a, b):
    n = max(len(a), len(b))
    reference = Partition(a.part_at(i) + b.part_at(i) for i in range(1, n + 1))
    same(sum_partitions(a, b), reference)


@given(st.integers(0, 8), st.integers(-5, 5))
def test_monomial_matches_constructor(e, c):
    same(monomial(e, c), QPoly((0,) * e + (c,)))


@given(st.integers(0, 8), st.integers(0, 8))
def test_geometric_sum_matches_constructor(a, b):
    a, b = max(a, b), min(a, b)
    same(geometric_sum(a, b), QPoly((0,) * b + (1,) * (a - b)))


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
        restrict = (
            restrict_symplectic if isinstance(param, OmegaParam) else restrict_exotic
        )
        total = QPoly()
        for sub, coeff in restrict(param).terms.items():
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
