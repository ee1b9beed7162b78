"""The finite-field oracle on every parameter of wide sweeps.

The acceptance suite checks ranks n <= 3; these sweeps reach formula
branches that need more parts: sp2 at n = 4 and n = 5 over GF(2), and the
exotic theory at n = 4 and n = 5 over GF(3).  The growth term of exotic
case 3 (a marked part whose nu-component is repeated at a larger part)
needs rank 5, where mu=[2,1] nu=[1,1] alone reaches it, so the sweep at
n = 5 is the first to check it.  The sweeps are not shown to reach every
branch of either formula.  The sp2 sweep at n = 3 over GF(8) checks the
invariant where square roots in the field are not the identity (over
GF(2) every element is its own square root).  The sp2 sweeps over
GF(16), GF(32) and GF(64) run the oracle on rows of 4, 5 and 6 bits per
entry.  The exotic sweeps over GF(5), GF(7), GF(11) and GF(13) run it over
larger prime fields, and those over GF(9) and GF(25) over odd extension
fields.
"""

import pytest

from springerbc.fforacle import verify_against_formula
from springerbc.gf import field
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


@pytest.mark.parametrize("theory, n, q", SWEEPS)
def test_every_parameter_passes(theory, n, q):
    failures = []
    for param in THEORIES[theory].enumerate(n):
        rep = verify_against_formula(param, field(q))
        if not rep["pass"]:
            failures.append(rep)
    assert not failures, failures
