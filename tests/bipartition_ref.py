"""A bipartition's bookkeeping from its definitions, kept as test references.

The exotic formulas read the components, runs, marks and run ends of a
bipartition (mu, nu) from one scan of its columns (``params._scan``).
Each function here reads one of these facts off its definition alone, with
no shared walk, so that tests can check the scan and the formulas built
on it against an independent route.
"""

from itertools import zip_longest


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


def runs(b):
    """(m(> r), m(>= r)) at each distinct part r of mu + nu, in the order
    of ``components``: the numbers of parts of mu + nu above r and at
    least r."""
    lam = [a + c for a, c in zip_longest(b.mu, b.nu, fillvalue=0)]
    return {
        r: (sum(x > r for x in lam), sum(x >= r for x in lam))
        for r in components(b)
    }


def run_end(p, x):
    """One past the index of the last copy of x in p; in a partition, the
    number of parts >= x."""
    return len(p) - p[::-1].index(x)
