"""Orbit parameter sets for the two rank-n theories, and the maps between them.

The first theory is parametrized by pairs (lam, chi) where lam is a
partition of 2n and chi is a bounded monotone function on the distinct
parts; the second by ordered pairs of partitions of total size n.  This
module also provides the sp2 bookkeeping (``_runs`` gives each distinct
part r of lam its run of indices, and ``_corners`` the corner points that
compress chi to a finite point set, which ``psi`` recovers and
``_checked_chi`` recovers and checks), the explicit block bijection
between the two parameter sets, limit symbols, the bipartition
bookkeeping (one scan of the columns gives every formula on a bipartition
its components, runs, marks and run ends), and the affine-paving
predicates; every reader of an sp2 parameter takes its runs, chi vector
and corners from here.

A parameter is an immutable tuple subclass with no instance dict:
``OmegaParam(lam, chi)`` is the tuple (0, lam, chi) and
``Bipartition(mu, nu)`` the tuple (1, mu, nu), with the fields read-only
properties.  The value recursion builds every restriction target and looks
it up in its memo, so construction, hashing and equality are tuple's own C
code, not Python methods.  The leading tag keeps the theories apart where
their fields coincide: (lam, chi) = ([2,2], (1,)) and (mu, nu) = ([2,2],
[1]) are both valid and key the same evaluator memo.  The hash mixes ints
only, so it is the same in every process; no output depends on hash order
in any case, since every listing sorts by ``sort_key``.  A limit symbol is
an untagged tuple subclass in the same way, (top, bottom, r, s, m), so it
compares equal to the plain tuple of its fields.
"""

import re
from itertools import chain, product, zip_longest
from operator import itemgetter

from .errors import InvalidParam, InvariantViolation
from .partitions import (
    Partition,
    _canonical,
    partition_from_text,
    partition_to_text,
    partitions_of,
    sum_partitions,
    underlying_set,
    union_partitions,
)


# ---------------------------------------------------------------------------
# (lam, chi) parameters


class _Param(tuple):
    """Base of the parameter types: the tuple (tag, field, field).
    Subclasses give the constructor, the tag and the field names."""

    __slots__ = ()

    def __reduce__(self):
        # pickle and copy rebuild through the two-field constructor
        return type(self), self[1:]


class OmegaParam(_Param):
    """Pair (lam, chi); chi is stored as a vector aligned with the distinct
    parts of lam in decreasing order."""

    __slots__ = ()

    def __new__(cls, lam, chi):
        return tuple.__new__(cls, (0, lam, chi))

    lam = property(itemgetter(1))
    chi = property(itemgetter(2))

    def __repr__(self):
        return f"OmegaParam(lam={self.lam!r}, chi={self.chi!r})"

    @property
    def rank(self):
        return self.lam.size // 2

    def chi_map(self):
        return dict(zip(underlying_set(self.lam), self.chi))

    @classmethod
    def make(cls, lam, chi_mapping):
        """Construct after validating all defining conditions."""
        if type(lam) is not Partition:
            lam = Partition(lam)
        bad = validate_omega(lam, chi_mapping)
        if bad:
            raise InvalidParam("; ".join(bad))
        vec = tuple(chi_mapping[r] for r in underlying_set(lam))
        return cls(lam, vec)

    def sort_key(self):
        """Key of ``enumerate_omega``'s order."""
        return (tuple(-x for x in self.lam), tuple(-c for c in self.chi))

    def __str__(self):
        return omega_to_text(self)


def validate_omega(lam, chi):
    """Check the three defining conditions; return a list of violations.

    ``chi`` must be a mapping defined exactly on the distinct parts of
    ``lam`` (InvalidParam otherwise).  An empty list means valid.  The
    messages come in decreasing order of the parts; condition 3 is
    reported at pairs of adjacent distinct parts.
    """
    und = underlying_set(lam)
    if set(chi) != set(und):
        raise InvalidParam(
            f"chi domain {sorted(chi)} != distinct parts {sorted(und)}"
        )
    return _violations(lam, und, [chi[r] for r in und])


def _violations(lam, und, vec):
    """The defining conditions violated by lam and the chi values ``vec``
    aligned with its distinct parts ``und`` (decreasing), as messages.

    One pass compares each part with the next larger one: condition 3 is
    transitive, so adjacent parts suffice.
    """
    bad = []
    r = None  # the next larger part, with chi(r) = prev
    for rp, c in zip(und, vec):
        # an odd multiplicity needs rp even and chi = rp/2 (conditions 1, 2)
        forced = 2 * c != rp and lam.count(rp) % 2 == 1
        if forced and rp % 2 == 1:
            bad.append(f"condition 1 at r={rp}: odd part with odd multiplicity")
        if c < 0 or 2 * c > rp:
            bad.append(f"condition 2 at r={rp}: chi={c} outside [0, {rp}/2]")
        if forced:
            bad.append(
                f"condition 2 at r={rp}: odd multiplicity forces chi={rp}/2, got {c}"
            )
        if r is not None:
            if c > prev:
                bad.append(f"condition 3 at r'={rp}, r={r}: chi({rp}) > chi({r})")
            if rp - c > r - prev:
                bad.append(
                    f"condition 3 at r'={rp}, r={r}: slack({rp}) > slack({r})"
                )
        r, prev = rp, c
    return bad


# The most parts a parameter text or a limit-symbol row may expand to: a
# few characters such as "1^100000000_0" or m = 10^8 would otherwise build
# a list of that length.  Commands on 10^6 parts finish in about a second.
MAX_PARTS = 10**6

_OMEGA_TOKEN = re.compile(r"^([0-9]+)\^([0-9]+)_([0-9]+)$")


def omega_to_text(p):
    """Token form "r^m_c" per distinct part, decreasing, e.g. "4^1_2 1^2_0"."""
    lam = p.lam
    return " ".join(
        f"{r}^{lam.count(r)}_{c}" for r, c in zip(dict.fromkeys(lam), p.chi)
    )


def omega_from_text(text):
    tokens = text.split()
    parts = []
    chi = {}
    last_r = None
    for tok in tokens:
        m = _OMEGA_TOKEN.match(tok)
        if not m:
            raise InvalidParam(f"bad parameter token {tok!r}")
        try:
            r, mult, c = map(int, m.groups())
        except ValueError:  # more digits than int() converts
            raise InvalidParam(f"bad parameter token {tok!r}") from None
        if r < 1 or mult < 1:
            raise InvalidParam(f"bad parameter token {tok!r}")
        if last_r is not None and r >= last_r:
            raise InvalidParam(f"part values must be strictly decreasing: {text!r}")
        last_r = r
        if len(parts) + mult > MAX_PARTS:
            raise InvalidParam(f"parameter {text!r} has more than {MAX_PARTS} parts")
        parts.extend([r] * mult)
        chi[r] = c
    return OmegaParam.make(Partition(parts), chi)


# ---------------------------------------------------------------------------
# Critical values


def _runs(lam):
    """(m(> r), m(>= r)) for each distinct part r of the sorted lam, in
    decreasing order of r, from one pass: the run of r occupies the indices
    m(> r) .. m(>= r) - 1."""
    out = {}
    prev, start = None, 0
    for i, x in enumerate(lam):
        if x != prev:
            if i:
                out[prev] = (start, i)
            prev, start = x, i
    if lam:
        out[prev] = (start, len(lam))
    return out


def x_crit(p):
    """The corner points (r, chi(r)) where chi strictly exceeds every value at
    smaller parts and the slack r - chi(r) is strictly below every slack at
    larger parts.  This is the minimum data recovering chi via ``psi``."""
    return frozenset(_corners(underlying_set(p.lam), p.chi))


def _corners(und, vec):
    """``x_crit`` as a list in decreasing order of r, for the distinct parts
    ``und`` (decreasing) and their chi values ``vec``, in O(k): one pass up
    from the smallest part keeps the max chi below, one pass down from the
    largest keeps the min slack above."""
    k = len(und)
    if not k:
        return []
    exceeds = [False] * k  # chi above every chi at a smaller part
    best = vec[k - 1] - 1
    for i in range(k - 1, -1, -1):
        if vec[i] > best:
            exceeds[i] = True
            best = vec[i]
    out = []
    low = und[0] - vec[0] + 1  # the min slack at a larger part
    for i, r in enumerate(und):
        c = vec[i]
        if r - c < low:
            if exceeds[i] and c != 0:
                out.append((r, c))
            low = r - c
    return out


def psi(lam, points):
    """Recover a chi-like function on the distinct parts of lam from a point
    set: each value is the max of r - (a - b) over points with a >= r, of b
    over points with a < r, and of 0.  The restriction formulas read the
    same rule in ``_checked_chi``, which checks each value as it reads it
    off."""
    return {
        r: max([0] + [r - (a - b) if a >= r else b for a, b in points])
        for r in underlying_set(lam)
    }


def _checked_chi(lam, und, points):
    """``psi(lam, points)``'s values once lam with them passes the defining
    conditions, read off in one pass over the distinct parts ``und``
    (decreasing): each value is psi's max over the points, checked at once
    against the value at the next larger part.  On the first failure it
    raises InvalidParam with every message of ``_violations``.

    psi of any point set meets condition 3 (the value does not rise, nor
    the slack, from a part to a smaller one) and is never negative; the
    check is kept all the same, as a guard on the rule written out here.
    """
    out = []
    prev = slack = und[0] if und else 0  # no bound at the largest part
    for r in und:
        c = 0
        for a, b in points:
            cand = r - (a - b) if a >= r else b
            if cand > c:
                c = cand
        if (
            c > prev
            or r - c > slack
            or 2 * c > r
            or (2 * c != r and lam.count(r) % 2)
        ):
            bad = _violations(lam, und, tuple(psi(lam, points).values()))
            raise InvalidParam("; ".join(bad))
        out.append(c)
        prev, slack = c, r - c
    return tuple(out)


def phi(p):
    """The full staircase point set {(r, a) : 1 <= a <= chi(r)}."""
    chi = p.chi_map()
    return frozenset(
        (r, a) for r in underlying_set(p.lam) for a in range(1, chi[r] + 1)
    )


# ---------------------------------------------------------------------------
# Bipartitions


class Bipartition(_Param):
    """Ordered pair (mu, nu) of partitions."""

    __slots__ = ()

    def __new__(cls, mu, nu):
        return tuple.__new__(cls, (1, mu, nu))

    mu = property(itemgetter(1))
    nu = property(itemgetter(2))

    def __repr__(self):
        return f"Bipartition(mu={self.mu!r}, nu={self.nu!r})"

    @property
    def rank(self):
        return self.mu.size + self.nu.size

    def sort_key(self):
        """Key of ``enumerate_bipartitions``' order."""
        return (-self.mu.size, tuple(-x for x in self.mu), tuple(-x for x in self.nu))

    def __str__(self):
        return bipartition_to_text(self)


def bipartition_to_text(b):
    return f"mu={partition_to_text(b.mu)} nu={partition_to_text(b.nu)}"


def bipartition_from_text(text):
    m = re.match(r"^\s*mu=(\[[0-9, ]*\])\s+nu=(\[[0-9, ]*\])\s*$", text)
    if not m:
        raise InvalidParam(f"bad bipartition text {text!r}")
    return Bipartition(partition_from_text(m.group(1)), partition_from_text(m.group(2)))


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_omega(n):
    """All valid (lam, chi) with |lam| = 2n, in a fixed deterministic order:
    lam descending lexicographic, then chi vectors descending.

    A part r takes chi from r//2 down to 0; at an odd multiplicity only
    r/2, and nothing when r is odd.  Every combination with no violation
    is kept.
    """
    check_rank(n)
    out = []
    for parts in partitions_of(2 * n):
        lam = _canonical(parts)  # partitions_of yields them sorted
        und = underlying_set(lam)
        choices = [
            range(r // 2, -1, -1) if lam.count(r) % 2 == 0
            else [r // 2] if r % 2 == 0
            else []
            for r in und
        ]
        for vec in product(*choices):
            if not _violations(lam, und, vec):
                out.append(OmegaParam(lam, vec))
    return out


# The largest rank one enumeration, or one oracle model, takes on.  The
# number of rank-n parameters strictly increases with n: 24 842 at rank 20,
# 35 002 at rank 21.  Rank 16 has 5 822, and its value table takes about
# 1.3 s on a 2-vCPU host.  An oracle model at rank 20 has dimension 40.
MAX_RANK = 20


def check_rank(n, bounded="table"):
    """Raise InvalidParam when n < 0 or n > MAX_RANK, before any parameter
    is enumerated or model built; ``bounded`` names, in the message, what
    the rank is too large for."""
    if n < 0:
        raise InvalidParam(f"rank must be >= 0, got {n}")
    if n > MAX_RANK:
        raise InvalidParam(f"rank {n} is above the largest {bounded} rank, {MAX_RANK}")


def enumerate_bipartitions(n):
    """All (mu, nu) with |mu| + |nu| = n; |mu| descending, each side in
    descending lexicographic order."""
    check_rank(n)
    sized = [[_canonical(p) for p in partitions_of(k)] for k in range(n + 1)]
    return [
        Bipartition(mu, nu)
        for k in range(n, -1, -1)
        for mu in sized[k]
        for nu in sized[n - k]
    ]


# ---------------------------------------------------------------------------
# The block bijection


def iota(p):
    """Image of (lam, chi) in the bipartition world.

    Cuts lam into blocks run by run: each of the m copies of a part r with
    chi(r) = r/2 is a singleton block with entry r/2, and any other run
    pairs its copies into m/2 blocks, each with the entries
    (chi(r), r - chi(r)).  The entries, in order, are mu_1, nu_1, mu_2,
    nu_2, ...
    """
    entries = []
    for c, (r, (m_gt, m_ge)) in zip(p.chi, _runs(p.lam).items()):
        m = m_ge - m_gt
        if 2 * c == r:
            entries += [c] * m
        elif m % 2:
            # the defining conditions force an even multiplicity
            raise InvalidParam(f"{p}: part {m_ge} has no equal partner")
        else:
            entries += [c, r - c] * (m // 2)
    odds, evens = entries[0::2], entries[1::2]
    if odds != sorted(odds, reverse=True) or evens != sorted(evens, reverse=True):
        raise InvariantViolation(f"iota({p}): block values {odds}, {evens} unsorted")
    b = Bipartition(Partition(odds), Partition(evens))
    if b.rank != p.rank:
        raise InvariantViolation(f"iota({p}) = {b} has rank {b.rank}")
    return b


def iota_inv(b):
    """Preimage of a bipartition under ``iota``.

    Reads the blocks back off the entries mu_1, nu_1, mu_2, nu_2, ..., 0:
    an entry c below the next entry d opens a pair block, two parts c + d
    with chi c; any other entry c is one part 2c with chi c.  Parts of the
    same value must agree on chi (checked).
    """
    entries = [x for pair in zip_longest(b.mu, b.nu, fillvalue=0) for x in pair]
    entries.append(0)
    parts = []
    chi_at = {}
    i = 0
    while i < len(entries) - 1:
        c, d = entries[i], entries[i + 1]
        if c < d:
            block = [c + d] * 2
            i += 2
        else:
            block = [2 * c] if c else []
            i += 1
        for val in block:
            parts.append(val)
            if chi_at.setdefault(val, c) != c:
                raise InvariantViolation(
                    f"iota_inv({b}): slots of value {val}"
                    f" carry chi {chi_at[val]} and {c}"
                )
    if parts != sorted(parts, reverse=True):
        raise InvariantViolation(f"iota_inv({b}): slot values {parts} unsorted")
    p = OmegaParam.make(Partition(parts), chi_at)
    if p.rank != b.rank:
        raise InvariantViolation(f"iota_inv({b}) = {p} has rank {p.rank}")
    return p


# ---------------------------------------------------------------------------
# Limit symbols


class LimitSymbol(tuple):
    """A pair of strictly decreasing shifted rows encoding a bipartition,
    stored as the tuple (top, bottom, r, s, m)."""

    __slots__ = ()

    def __new__(cls, top, bottom, r, s, m):
        return tuple.__new__(cls, (top, bottom, r, s, m))

    top = property(itemgetter(0))
    bottom = property(itemgetter(1))
    r = property(itemgetter(2))
    s = property(itemgetter(3))
    m = property(itemgetter(4))

    def __reduce__(self):
        # pickle and copy rebuild through the five-field constructor
        return type(self), tuple(self)

    def __repr__(self):
        return (
            f"LimitSymbol(top={self.top!r}, bottom={self.bottom!r},"
            f" r={self.r!r}, s={self.s!r}, m={self.m!r})"
        )

    def recover(self):
        """The bipartition the symbol came from."""
        zeta = _zeta(self.r, self.m)
        eta = _eta(self.r, self.s, self.m)
        mu = [t - z for t, z in zip(self.top, zeta)]
        nu = [t - z for t, z in zip(self.bottom, eta)]
        if any(x < 0 for x in mu + nu):
            raise InvalidParam(f"symbol rows below the staircase: {self}")
        if mu != sorted(mu, reverse=True) or nu != sorted(nu, reverse=True):
            raise InvalidParam(f"symbol rows do not encode partitions: {self}")
        return Bipartition(Partition(mu), Partition(nu))


def _zeta(r, m):
    if m + 1 > MAX_PARTS:
        raise InvalidParam(f"m={m} makes symbol rows of more than {MAX_PARTS} parts")
    return [j * r for j in range(m, 0, -1)] + [0]


def _eta(r, s, m):
    return [s + j * r for j in range(m - 1, -1, -1)]


def to_limit_symbol(b, r, s, m):
    """Encode a bipartition of rank n as a symbol, for r >= s + n >= 2n."""
    n = b.rank
    if not (r >= s + n >= 2 * n):
        raise InvalidParam(f"need r >= s + n >= 2n, got r={r}, s={s}, n={n}")
    if len(b.mu) > m + 1 or len(b.nu) > m:
        raise InvalidParam(
            f"need l(mu) <= m+1 and l(nu) <= m, got {len(b.mu)}, {len(b.nu)}, m={m}"
        )
    zeta = _zeta(r, m)
    eta = _eta(r, s, m)
    top = tuple(z + b.mu.part_at(i + 1) for i, z in enumerate(zeta))
    bottom = tuple(e + b.nu.part_at(i + 1) for i, e in enumerate(eta))
    for row in (top, bottom):
        if any(x <= y for x, y in zip(row, row[1:])):
            raise InvariantViolation(f"symbol row {row} of {b} not strictly decreasing")
    return LimitSymbol(top, bottom, r, s, m)


# ---------------------------------------------------------------------------
# Bipartition bookkeeping


def hat_lambda(b):
    """The interleaved partition (mu+nu) joined with (mu_2+nu_1, mu_3+nu_2, ...)."""
    k = max(len(b.mu), len(b.nu)) + 1
    first = sum_partitions(b.mu, b.nu)
    second = Partition(
        b.mu.part_at(i + 1) + b.nu.part_at(i) for i in range(1, k + 1)
    )
    return union_partitions(first, second)


def recover_bipartition(lam, hat, n):
    """Invert ``hat_lambda``: recover (mu, nu) from lam = mu + nu and hat."""
    mu = [2 * n - hat.size]
    nu = []
    for i in range(1, len(lam) + 1):
        nu.append(lam.part_at(i) - mu[i - 1])
        mu.append(hat.part_at(2 * i) - nu[i - 1])
    if any(x < 0 for x in mu + nu):
        raise InvalidParam(f"negative entries recovering from {lam}, {hat}, n={n}")
    if mu != sorted(mu, reverse=True) or nu != sorted(nu, reverse=True):
        raise InvalidParam(f"non-monotone entries recovering from {lam}, {hat}")
    b = Bipartition(Partition(mu), Partition(nu))
    if sum_partitions(b.mu, b.nu) != lam or hat_lambda(b) != hat or b.rank != n:
        raise InvalidParam(f"round trip failed recovering from {lam}, {hat}, n={n}")
    return b


_LAST = ((0, 0),)  # a column past every part: it closes the last run


def _scan(b):
    """The bookkeeping of a bipartition (mu, nu), from one walk of its
    columns (mu_i, nu_i): ``(n, comps, runs, marked, mu_end, nu_end)``.

    For each distinct part r of mu + nu, decreasing, ``comps[r]`` is r's
    components (nab, delt), the column that opens its run, and ``runs[r]``
    that run [m(> r), m(>= r)) of indices.  ``marked`` holds the marked
    parts: r is marked when nab exceeds the next smaller part's nab (0 past
    the last part), so the nab of every smaller part.  The same walk sums
    the rank n and records, for each component value, the end of its run
    in mu and in nu (``mu_end``, ``nu_end``; read only for values > 0).
    Nothing is sorted or checked: columns out of order are read as they
    stand, and the formulas' own guards catch them.
    """
    mu, nu = b.mu, b.nu
    comps, runs, marked = {}, {}, set()
    mu_end, nu_end = {}, {}  # value -> one past its last index
    n = r = nab = delt = start = 0
    for i, (a, c) in enumerate(chain(zip_longest(mu, nu, fillvalue=0), _LAST)):
        s = a + c
        if s != r:
            if r:  # close the run of r
                comps[r] = nab, delt
                runs[r] = start, i
                n += r * (i - start)
                mu_end[nab] = nu_end[delt] = i
                if nab > a:
                    marked.add(r)
            r, nab, delt, start = s, a, c, i
    return n, comps, runs, marked, mu_end, nu_end


# ---------------------------------------------------------------------------
# Affine-paving predicates


def paving_predicates(p):
    """(lemma_hypothesis, theorem_applies) for the affine-paving criteria.

    lemma_hypothesis: every non-corner part either has chi zero or is
    sandwiched (equal chi at some smaller part, equal slack at some larger
    part), and every odd multiplicity is exactly 1.  theorem_applies: the
    third part is at most 1, or chi vanishes identically.
    """
    lam, vec = p.lam, p.chi
    runs = _runs(lam)
    pairs = list(zip(runs, vec))  # (r, chi(r))
    crit = dict(_corners(tuple(runs), vec))
    cond1 = True
    for r, c in pairs:
        if r in crit or c == 0:
            continue
        below = any(rp < r and cp == c for rp, cp in pairs)
        above = any(rp > r and rp - cp == r - c for rp, cp in pairs)
        if not (below and above):
            cond1 = False
            break
    cond2 = all(
        (m_ge - m_gt) % 2 == 0 or m_ge - m_gt == 1 for m_gt, m_ge in runs.values()
    )
    lemma_hypothesis = cond1 and cond2
    theorem_applies = lam.part_at(3) <= 1 or all(c == 0 for c in vec)
    return lemma_hypothesis, theorem_applies
