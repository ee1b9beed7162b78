"""The finite-field oracle on every parameter of wide sweeps.

The acceptance suite checks ranks n <= 3; these sweeps reach formula
branches that need more parts: sp2 at n = 4 and n = 5 over GF(2), and the
exotic theory at n = 4 and n = 5 over GF(3).  The growth term of exotic
case 3 (a marked part whose nu-component is repeated at a larger part)
needs rank 5, where mu=[2,1] nu=[1,1] alone reaches it, so the sweep at
n = 5 is the first to check it.  The sp2 sweep at n = 3 over GF(8) checks
the invariant where square roots in the field are not the identity (over
GF(2) every element is its own square root).  The sp2 sweeps over
GF(16), GF(32) and GF(64) run the oracle on rows of 4, 5 and 6 bits per
entry.  The exotic sweeps over GF(5), GF(7), GF(11) and GF(13) run it over
larger prime fields, and those over GF(9) and GF(25) over odd extension
fields.

The plain formulas of ``reference`` name the case of each term they emit.
``test_the_oracle_passes_where_each_case_is_first_reached`` pins the first
parameter whose restriction reaches each case, and runs the oracle on it.
The exotic case-4 chain whose j rule returns r itself is first reached at
rank 6, by mu=[2,1,1] nu=[1,1], which no sweep or slice here reaches.

The oracle's cost follows the dimension of the kernel of N more than the
rank: it is l(lam) for sp2 and 2 l(mu + nu) = 2 max(l(mu), l(nu)) for
exotic.  So the slices below bound the length as well, and reach ranks
whose whole sweep the oracle cannot afford: sp2 with l(lam) <= 3 at
rank 12 over GF(2) and GF(4), sp2 with l(lam) = 4 at rank 8 over GF(2),
and exotic with l(mu + nu) <= 2 at rank 8 over GF(3).
"""

import pytest

from reference import ref_restrict_exotic, ref_restrict_symplectic
from springerbc.fforacle import verify_against_formula
from springerbc.gf import field
from springerbc.params import Bipartition, bipartition_from_text, omega_from_text
from springerbc.theory import THEORIES

SWEEPS = [
    ("sp2", 4, 2),
    ("sp2", 5, 2),
    ("sp2", 3, 8),
    ("sp2", 1, 16),
    ("sp2", 2, 16),
    ("sp2", 1, 32),
    ("sp2", 2, 32),
    ("sp2", 1, 64),
    ("exotic", 4, 3),
    ("exotic", 5, 3),
    ("exotic", 3, 5),
    ("exotic", 3, 7),
    ("exotic", 2, 9),
    ("exotic", 2, 11),
    ("exotic", 2, 13),
    ("exotic", 2, 25),
]


# (theory, rank, field size, the lengths kept, the parameters kept)
SLICES = [
    pytest.param("sp2", 12, 2, range(4), 49, id="sp2-12-2-l<=3"),
    pytest.param("sp2", 12, 4, range(4), 49, id="sp2-12-4-l<=3"),
    pytest.param("sp2", 8, 2, (4,), 30, id="sp2-8-2-l=4"),
    pytest.param("exotic", 8, 3, range(3), 55, id="exotic-8-3-l<=2"),
]


def failures(params, q):
    reports = (verify_against_formula(param, field(q)) for param in params)
    return [rep for rep in reports if not rep["pass"]]


@pytest.mark.parametrize("theory, n, q", SWEEPS)
def test_every_parameter_passes(theory, n, q):
    failed = failures(THEORIES[theory].enumerate(n), q)
    assert not failed, failed


def length(param):
    """l(lam) for sp2, max(l(mu), l(nu)) for exotic."""
    if isinstance(param, Bipartition):
        return max(len(param.mu), len(param.nu))
    return len(param.lam)


@pytest.mark.parametrize("theory, n, q, lengths, count", SLICES)
def test_every_parameter_of_a_kernel_slice_passes(theory, n, q, lengths, count):
    params = [p for p in THEORIES[theory].enumerate(n) if length(p) in lengths]
    assert len(params) == count
    failed = failures(params, q)
    assert not failed, failed


# For each theory: its reference formula, the field its oracle runs over,
# how to read a parameter's text, and for each case label of the formula
# the first parameter, by rank and then in enumeration order, whose
# restriction has a nonzero term of that case.  Every label is first
# reached at rank <= 7.
CASES = {
    "sp2": (ref_restrict_symplectic, 2, omega_from_text, {
        "not a corner: merged": "1^2_0",
        "not a corner: split": "4^1_2 3^2_1",
        "not a corner: split at (r - 1, c)": "4^1_2 3^2_1",
        "corner below the ceiling: at (r - 1, c)": "3^2_1",
        "corner below the ceiling: pair": "3^4_1",
        "corner below the ceiling: chain at j = r": "3^2_1",
        "corner below the ceiling: chain at j > r": "4^2_1 3^2_1",
        "corner below the ceiling: chain at k": "4^2_1 3^2_1",
        "ceiling, odd multiplicity: pair": "2^3_1",
        "ceiling, odd multiplicity: drop": "2^3_1",
        "ceiling, odd multiplicity: chain at j = r": "2^1_1",
        "ceiling, odd multiplicity: chain at j > r": "3^2_1 2^1_1",
        "ceiling, odd multiplicity: chain at k": "3^2_1 2^1_1",
        "ceiling, even multiplicity: drop": "2^2_1",
        "ceiling, even multiplicity: pair": "2^4_1",
        "ceiling, even multiplicity: chain at j = r": "2^2_1",
        "ceiling, even multiplicity: chain at j > r": "3^2_1 2^2_1",
        "ceiling, even multiplicity: chain at k": "3^2_1 2^2_1",
    }),
    "exotic": (ref_restrict_exotic, 3, bipartition_from_text, {
        "case 1: nu lowered": "mu=[] nu=[1]",
        "case 2: growth": "mu=[1] nu=[1]",
        "case 2: mu lowered": "mu=[1,1] nu=[]",
        "case 2: chain at j = r": "mu=[1] nu=[]",
        "case 3: growth": "mu=[2,1] nu=[1,1]",
        "case 3: mu lowered": "mu=[2,1] nu=[]",
        "case 4: growth": "mu=[1,1] nu=[2,1]",
        "case 4: mu lowered": "mu=[1,1,1] nu=[1]",
        "case 4: chain at j = r": "mu=[2,1,1] nu=[1,1]",
        "case 4: chain at j > r": "mu=[1,1] nu=[1]",
        "case 4: chain at k": "mu=[1,1] nu=[1]",
    }),
}


@pytest.mark.parametrize("theory", sorted(CASES))
def test_the_oracle_passes_where_each_case_is_first_reached(theory):
    # no case is first reached, nor any new one reached, at ranks 8-10
    formula, q, parse, pinned = CASES[theory]
    first = {}
    for n in range(1, 11):
        for param in THEORIES[theory].enumerate(n):
            cases = set()
            formula(param, cases)
            for label in cases:
                first.setdefault(label, str(param))
    assert first == pinned
    failed = failures(map(parse, sorted(set(pinned.values()))), q)
    assert not failed, failed
