"""The top degree of the character values, for n <= 12 (formula only).

For an exotic bipartition b = (mu, nu) of rank n, the exotic Springer fibre
has dimension d_b = 2 n(mu) + 2 n(nu) + |nu|, with n(mu) = sum (i - 1) mu_i,
and its top cohomology is the irreducible W(B_n)-character of b.  So

- ``value(b, "id")`` has degree d_b and top coefficient C(n, |mu|) f^mu f^nu,
  the dimension of that character (f^mu counts the standard tableaux of
  shape mu);
- the q^(d_b) coefficient of ``value(b, "s1")`` is that character at s1,
  f^mu f^nu (C(n - 1, |mu| - 1) - C(n - 1, |nu| - 1)).

Observed on every bipartition of ranks 1 to 12, not proved here.  sp2 is
pinned through ``iota``: a parameter p has the top degree and coefficients
of ``iota(p)``.

The same degree holds term by term in one restriction (the local form):
over the terms c * b' of the restriction of b, the largest deg c + d_b' is
d_b, the terms that reach it are exactly the b' that remove one box from
mu or from nu, and each of those has leading coefficient 1.  Observed on
every exotic restriction of ranks 1 to 12, and on every sp2 restriction of
those ranks read through ``iota``, not proved here.
"""

from math import comb, factorial, prod

import pytest

from springerbc.evaluator import value
from springerbc.params import Bipartition, iota
from springerbc.partitions import Partition
from springerbc.restrict import restrict_exotic, restrict_symplectic
from springerbc.theory import EXOTIC, SP2

RANKS = range(1, 13)


def n_of(mu):
    return sum(i * part for i, part in enumerate(mu))


def tableaux(mu):
    """f^mu by the hook length formula."""
    hooks = prod(
        mu[i] - j + sum(1 for below in mu[i + 1 :] if below > j)
        for i in range(len(mu))
        for j in range(mu[i])
    )
    return factorial(mu.size) // hooks


def binom(n, k):
    return comb(n, k) if k >= 0 else 0


def fibre_dimension(b):
    """d_b = 2 n(mu) + 2 n(nu) + |nu|."""
    return 2 * n_of(b.mu) + 2 * n_of(b.nu) + b.nu.size


def top_terms(b):
    """(d_b, the top coefficient at id, the one at s1) of a bipartition."""
    n, a = b.rank, b.mu.size
    f = tableaux(b.mu) * tableaux(b.nu)
    d = fibre_dimension(b)
    return d, comb(n, a) * f, f * (binom(n - 1, a - 1) - binom(n - 1, n - a - 1))


def coefficient(poly, e):
    return poly[e] if e < len(poly) else 0


@pytest.mark.parametrize("theory", [EXOTIC, SP2], ids=["exotic", "sp2"])
@pytest.mark.parametrize("n", RANKS)
def test_top_degree_is_the_fibre_dimension(theory, n):
    for p in theory.enumerate(n):
        b = p if theory is EXOTIC else iota(p)
        d, at_id, at_s1 = top_terms(b)
        v_id, v_s1 = value(p, "id"), value(p, "s1")
        assert len(v_id) == d + 1 and v_id[d] == at_id, p
        assert len(v_s1) <= d + 1 and coefficient(v_s1, d) == at_s1, p


def box_removals(mu):
    """The partitions that remove one box from mu."""
    return {
        Partition(mu[:i] + (mu[i] - 1,) + mu[i + 1 :])
        for i in range(len(mu))
        if i + 1 == len(mu) or mu[i] > mu[i + 1]
    }


@pytest.mark.parametrize("theory", [EXOTIC, SP2], ids=["exotic", "sp2"])
def test_top_degree_is_local_to_one_restriction(theory):
    for n in RANKS:
        for p in theory.enumerate(n):
            if theory is EXOTIC:
                b, terms = p, restrict_exotic(p)
            else:
                b, terms = iota(p), restrict_symplectic(p).map_params(iota)
            degrees = {
                b2: len(c) - 1 + fibre_dimension(b2) for b2, c in terms.terms.items()
            }
            d = fibre_dimension(b)
            top = {b2 for b2, e in degrees.items() if e == d}
            removals = {Bipartition(mu, b.nu) for mu in box_removals(b.mu)} | {
                Bipartition(b.mu, nu) for nu in box_removals(b.nu)
            }
            assert max(degrees.values()) == d, p
            assert top == removals, p
            assert all(terms.terms[b2][-1] == 1 for b2 in top), p
