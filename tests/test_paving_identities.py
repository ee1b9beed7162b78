"""The paper's paving discussion as formula-only identities, for n <= 12.

These equivalences were observed, not proved; each is checked on every
parameter of ranks 1 to 12 and needs no matrices.

- sp2: ``lemma_hypothesis(p)`` holds exactly when every restriction
  coefficient of p has nonnegative coefficients, and ``theorem_applies(p)``
  exactly when that holds for p and for every parameter below p in the
  restriction DAG.
- sp2: the restriction coefficients sum to [l(lam)]_q, the number of lines
  of ker N.
- exotic: [2l]_q minus the coefficient sum, with l = l(mu+nu), is
  q^(2l-1) when len(mu) > len(nu) and 0 otherwise.  The oracle's
  ``empty_lines`` is that difference at q.
- exotic: every restriction coefficient of b has nonnegative coefficients
  exactly when ``lemma_hypothesis(iota_inv(b))`` holds.
- sp2: ``value(p, "id")`` has no negative coefficient, also where the
  lemma's hypothesis fails.
"""

import pytest

from springerbc.evaluator import value
from springerbc.params import iota_inv, paving_predicates
from springerbc.partitions import sum_partitions
from springerbc.qpoly import ZERO, geometric_sum, monomial
from springerbc.theory import EXOTIC, SP2

RANKS = range(1, 13)


def nonnegative(cs):
    return all(c >= 0 for coeff in cs.terms.values() for c in coeff)


@pytest.fixture(scope="module")
def sp2_restrictions():
    """Every sp2 parameter of RANKS with its restriction, by ascending rank."""
    return {p: SP2.restrict(p) for n in RANKS for p in SP2.enumerate(n)}


def test_lemma_hypothesis_is_nonnegativity(sp2_restrictions):
    for p, cs in sp2_restrictions.items():
        assert paving_predicates(p)[0] == nonnegative(cs), p


def test_theorem_is_nonnegativity_all_the_way_down(sp2_restrictions):
    down = {p: True for p in SP2.enumerate(0)}  # p and everything below it
    for p, cs in sp2_restrictions.items():
        down[p] = nonnegative(cs) and all(down[sub] for sub in cs.terms)
        assert paving_predicates(p)[1] == down[p], p


def test_sp2_coefficients_count_the_kernel_lines(sp2_restrictions):
    for p, cs in sp2_restrictions.items():
        assert sum(cs.terms.values(), ZERO) == geometric_sum(len(p.lam), 0), p


@pytest.mark.parametrize("n", RANKS)
def test_exotic_empty_lines(n):
    for b in EXOTIC.enumerate(n):
        ell = len(sum_partitions(b.mu, b.nu))
        covered = sum(EXOTIC.restrict(b).terms.values(), ZERO)
        missing = geometric_sum(2 * ell, 0) - covered
        assert missing == (monomial(2 * ell - 1) if len(b.mu) > len(b.nu) else ZERO), b
        for q in (3, 5, 9):
            assert EXOTIC.empty_lines(b, q) == missing(q), b


@pytest.mark.parametrize("n", RANKS)
def test_exotic_nonnegativity_is_the_lemma_through_iota(n):
    for b in EXOTIC.enumerate(n):
        assert paving_predicates(iota_inv(b))[0] == nonnegative(EXOTIC.restrict(b)), b


def test_sp2_values_at_id_are_nonnegative(sp2_restrictions):
    for p in sp2_restrictions:
        assert all(c >= 0 for c in value(p, "id")), p
