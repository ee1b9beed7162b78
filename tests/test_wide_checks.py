"""Independent checks at ranks beyond the acceptance suite's n <= 6.

The restriction formulas of the two theories must agree under the block
bijection term for term, and so must the character values they produce.
"""

import pytest

from springerbc.evaluator import GROUP_ELEMENTS, value
from springerbc.params import enumerate_omega, iota
from springerbc.restrict import check_equivalence

RANKS = range(1, 13)


@pytest.mark.parametrize("n", RANKS)
def test_formula_equivalence(n):
    report = check_equivalence(n)
    assert report.passed, [row for row in report.rows if not row[1]][:1]


@pytest.mark.parametrize("n", RANKS)
def test_cross_theory_value_equality(n):
    for p in enumerate_omega(n):
        b = iota(p)
        for w in GROUP_ELEMENTS:
            assert value(p, w) == value(b, w), (p, w)
