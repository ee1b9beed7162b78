"""Orbit parameter sets for the two rank-n theories, and the maps between them.

The first theory is parametrized by pairs (lam, chi) where lam is a
partition of 2n and chi is a bounded monotone function on the distinct
parts; the second by ordered pairs of partitions of total size n.  This
module also provides the critical-value machinery that compresses chi to
a finite point set and recovers it, the explicit block bijection between
the two parameter sets, limit symbols, the bookkeeping functions for the
bipartition theory, and the affine-paving predicates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

from .errors import (
    DomainMismatch,
    Inconsistent,
    InvalidParam,
    InvariantViolation,
    NotAPart,
    RankTooSmall,
)
from .partitions import (
    Partition,
    multiplicity,
    partition_from_text,
    partition_to_text,
    partitions_of,
    sum_partitions,
    underlying_set,
    union_partitions,
)


# ---------------------------------------------------------------------------
# (lam, chi) parameters


@dataclass(frozen=True)
class OmegaParam:
    """Pair (lam, chi); chi is stored as a vector aligned with the distinct
    parts of lam in decreasing order."""

    lam: Partition
    chi: tuple

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
    ``lam`` (DomainMismatch otherwise).  An empty list means valid.
    """
    und = underlying_set(lam)
    if set(chi) != set(und):
        raise DomainMismatch(
            f"chi domain {sorted(chi)} != distinct parts {sorted(und)}"
        )
    if _omega_ok(lam, und, [chi[r] for r in und]):
        return []
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
        for rp in und[i + 1 :]:  # rp < r
            if chi[rp] > chi[r]:
                bad.append(f"condition 3 at r'={rp}, r={r}: chi({rp}) > chi({r})")
            if rp - chi[rp] > r - chi[r]:
                bad.append(
                    f"condition 3 at r'={rp}, r={r}: slack({rp}) > slack({r})"
                )
    return bad


def _omega_ok(lam, und, vec):
    """Whether ``validate_omega`` finds no violation, in one pass over the
    distinct parts ``und`` of lam (decreasing) and their chi values ``vec``.
    Condition 3 is transitive, so comparing adjacent parts suffices."""
    if not und:
        return True
    prev_c, prev_slack = vec[0], und[0] - vec[0]
    for r, c in zip(und, vec):
        if c < 0 or 2 * c > r:
            return False
        # an odd multiplicity needs r even and chi = r/2 (conditions 1, 2)
        if 2 * c != r and lam.count(r) % 2 == 1:
            return False
        if c > prev_c or r - c > prev_slack:
            return False
        prev_c, prev_slack = c, r - c
    return True


_OMEGA_TOKEN = re.compile(r"^(\d+)\^(\d+)_(\d+)$")


def omega_to_text(p):
    """Token form "r^m_c" per distinct part, decreasing, e.g. "4^1_2 1^2_0"."""
    und = underlying_set(p.lam)
    chi = p.chi_map()
    return " ".join(f"{r}^{multiplicity(p.lam, r)}_{chi[r]}" for r in und)


def omega_from_text(text):
    tokens = text.split()
    parts = []
    chi = {}
    last_r = None
    for tok in tokens:
        m = _OMEGA_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad parameter token {tok!r}")
        r, mult, c = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if r < 1 or mult < 1:
            raise ValueError(f"bad parameter token {tok!r}")
        if last_r is not None and r >= last_r:
            raise ValueError(f"part values must be strictly decreasing: {text!r}")
        last_r = r
        parts.extend([r] * mult)
        chi[r] = c
    return OmegaParam.make(Partition(parts), chi)


# ---------------------------------------------------------------------------
# Critical values


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
    over points with a < r, and of 0."""
    und = underlying_set(lam)
    return dict(zip(und, _psi_vec(und, points)))


def _psi_vec(und, points):
    """``psi`` as a tuple aligned with the distinct parts ``und``."""
    out = []
    for r in und:
        best = 0
        for a, b in points:
            cand = r - (a - b) if a >= r else b
            if cand > best:
                best = cand
        out.append(best)
    return tuple(out)


def phi(p):
    """The full staircase point set {(r, a) : 1 <= a <= chi(r)}."""
    chi = p.chi_map()
    return frozenset(
        (r, a) for r in underlying_set(p.lam) for a in range(1, chi[r] + 1)
    )


# ---------------------------------------------------------------------------
# Bipartitions


@dataclass(frozen=True)
class Bipartition:
    mu: Partition
    nu: Partition

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
        raise ValueError(f"bad bipartition text {text!r}")
    return Bipartition(partition_from_text(m.group(1)), partition_from_text(m.group(2)))


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_omega(n):
    """All valid (lam, chi) with |lam| = 2n, in a fixed deterministic order:
    lam descending lexicographic, then chi vectors descending."""
    _check_rank(n)
    out = []
    for parts in partitions_of(2 * n):
        lam = Partition(parts)
        und = underlying_set(lam)
        if any(r % 2 == 1 and multiplicity(lam, r) % 2 == 1 for r in und):
            continue
        for vec in _chi_choices(lam, und):
            out.append(OmegaParam(lam, vec))
    return out


def _check_rank(n):
    if n < 0:
        raise InvalidParam(f"rank must be >= 0, got {n}")


def _chi_choices(lam, und):
    """All admissible chi vectors for lam, descending lexicographic."""

    def rec(i, prev_r, prev_c):
        if i == len(und):
            yield ()
            return
        r = und[i]
        if i == 0:
            lo, hi = 0, r // 2
        else:
            lo = max(0, prev_c - (prev_r - r))
            hi = min(r // 2, prev_c)
        if multiplicity(lam, r) % 2 == 1:
            cands = [r // 2] if lo <= r // 2 <= hi else []
        else:
            cands = range(hi, lo - 1, -1)
        for c in cands:
            for rest in rec(i + 1, r, c):
                yield (c,) + rest

    yield from rec(0, None, None)


def enumerate_bipartitions(n):
    """All (mu, nu) with |mu| + |nu| = n; |mu| descending, each side in
    descending lexicographic order."""
    _check_rank(n)
    out = []
    for k in range(n, -1, -1):
        for mu in partitions_of(k):
            for nu in partitions_of(n - k):
                out.append(Bipartition(Partition(mu), Partition(nu)))
    return out


# ---------------------------------------------------------------------------
# The block bijection


def iota(p, s=None):
    """Image of (lam, chi) in the bipartition world.

    Partitions the index range [1, 2s+1] into singleton blocks {i} (exactly
    when chi of the i-th part equals half that part) and pairs of consecutive
    indices, then reads off the two partitions from alternating block values.
    The result does not depend on the admissible choice of s.
    """
    lam = p.lam
    chi = p.chi_map()
    if s is None:
        s = (len(lam) + 1) // 2
    if 2 * s < len(lam):
        raise InvalidParam(f"s={s} too small for length {len(lam)}")
    total = 2 * s + 1
    c = [0] * (total + 1)
    i = 1
    while i <= total:
        li = lam.part_at(i)
        ci = chi[li] if li else 0
        if 2 * ci == li:
            c[i] = li // 2
            i += 1
        else:
            # paired block; the defining conditions force equal adjacent parts
            if i + 1 > total or lam.part_at(i + 1) != li:
                raise InvalidParam(f"{p}: part {i} has no equal partner")
            c[i] = ci
            c[i + 1] = li - ci
            i += 2
    odds = c[1::2]
    evens = c[2::2]
    if odds != sorted(odds, reverse=True) or evens != sorted(evens, reverse=True):
        raise InvariantViolation(f"iota({p}): block values {odds}, {evens} unsorted")
    b = Bipartition(Partition(odds), Partition(evens))
    if b.rank != p.rank:
        raise InvariantViolation(f"iota({p}) = {b} has rank {b.rank}")
    return b


def iota_inv(b):
    """Preimage of a bipartition under ``iota``.

    The k-th slot value is built from the case rules below; the k-th block
    entry is mu_i at odd slots 2i-1 and nu_i at even slots 2i, and chi at a
    slot value v with entry c is min(c, v - c).  Slots carrying the same
    value always agree on chi (checked; paired slots see c and v - c).
    """
    mu, nu = b.mu, b.nu

    parts = []
    chi_at = {}

    def put(val, c):
        if val <= 0:
            return
        parts.append(val)
        c = min(c, val - c)
        if chi_at.setdefault(val, c) != c:
            raise InvariantViolation(
                f"iota_inv({b}): slots of value {val} carry chi {chi_at[val]} and {c}"
            )

    mu1, nu1 = mu.part_at(1), nu.part_at(1)
    put(mu1 + nu1 if mu1 < nu1 else 2 * mu1, mu1)
    i = 1
    while True:
        mi, mi1 = mu.part_at(i), mu.part_at(i + 1)
        ni, ni1 = nu.part_at(i), nu.part_at(i + 1)
        if ni < mi1:
            v_even = mi1 + ni
        elif ni > mi:
            v_even = mi + ni
        else:
            v_even = 2 * ni
        if mi1 > ni:
            v_odd = mi1 + ni
        elif mi1 < ni1:
            v_odd = mi1 + ni1
        else:
            v_odd = 2 * mi1
        put(v_even, ni)
        put(v_odd, mi1)
        if v_even == 0 and v_odd == 0:
            break
        i += 1
    if parts != sorted(parts, reverse=True):
        raise InvariantViolation(f"iota_inv({b}): slot values {parts} unsorted")
    p = OmegaParam.make(Partition(parts), chi_at)
    if p.rank != b.rank:
        raise InvariantViolation(f"iota_inv({b}) = {p} has rank {p.rank}")
    return p


# ---------------------------------------------------------------------------
# Limit symbols


@dataclass(frozen=True)
class LimitSymbol:
    """A pair of strictly decreasing shifted rows encoding a bipartition."""

    top: tuple
    bottom: tuple
    r: int
    s: int
    m: int

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
    return [j * r for j in range(m, 0, -1)] + [0]


def _eta(r, s, m):
    return [s + j * r for j in range(m - 1, -1, -1)]


def to_limit_symbol(b, r, s, m):
    """Encode a bipartition of rank n as a symbol, for r >= s + n >= 2n."""
    n = b.rank
    if not (r >= s + n >= 2 * n):
        raise RankTooSmall(f"need r >= s + n >= 2n, got r={r}, s={s}, n={n}")
    if len(b.mu) > m + 1 or len(b.nu) > m:
        raise RankTooSmall(
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
        raise Inconsistent(f"negative entries recovering from {lam}, {hat}, n={n}")
    if mu != sorted(mu, reverse=True) or nu != sorted(nu, reverse=True):
        raise Inconsistent(f"non-monotone entries recovering from {lam}, {hat}")
    b = Bipartition(Partition(mu), Partition(nu))
    if sum_partitions(b.mu, b.nu) != lam or hat_lambda(b) != hat or b.rank != n:
        raise Inconsistent(f"round trip failed recovering from {lam}, {hat}, n={n}")
    return b


def nabla_delta(b, r):
    """The (mu-part, nu-part) sitting at part value r of mu + nu; (0, 0) at r=0."""
    if r == 0:
        return (0, 0)
    for pair in zip_longest(b.mu, b.nu, fillvalue=0):
        if pair[0] + pair[1] == r:
            return pair
    raise NotAPart(f"{r} is not a part of {sum_partitions(b.mu, b.nu)}")


def _components(b):
    """``nabla_delta`` at every distinct part of mu + nu at once: a dict
    from each part value r, in decreasing order, to its (mu-part, nu-part)."""
    out = {}
    for pair in zip_longest(b.mu, b.nu, fillvalue=0):
        out.setdefault(pair[0] + pair[1], pair)
    return out


def und_v(b):
    """Marked parts: values r of mu + nu whose mu-component strictly exceeds
    the mu-component of every smaller part, including the sentinel 0 (so the
    mu-component must be at least 1).  Decreasing order."""
    return tuple(reversed(_marked(_components(b))))


def _marked(comps):
    """The marked parts of a ``_components`` table, in increasing order."""
    out = []
    best = 0
    for r, (nab, _) in reversed(comps.items()):
        if nab > best:
            out.append(r)
            best = nab
    return out


# ---------------------------------------------------------------------------
# Affine-paving predicates


def paving_predicates(p):
    """(lemma_hypothesis, theorem_applies) for the affine-paving criteria.

    lemma_hypothesis: every non-corner part either has chi zero or is
    sandwiched (equal chi at some smaller part, equal slack at some larger
    part), and every odd multiplicity is exactly 1.  theorem_applies: the
    third part is at most 1, or chi vanishes identically.
    """
    lam = p.lam
    und = underlying_set(lam)
    chi = p.chi_map()
    crit = {r for r, _ in x_crit(p)}
    cond1 = True
    for r in und:
        if r in crit or chi[r] == 0:
            continue
        below = any(rp < r and chi[rp] == chi[r] for rp in und)
        above = any(rp > r and rp - chi[rp] == r - chi[r] for rp in und)
        if not (below and above):
            cond1 = False
            break
    cond2 = all(
        multiplicity(lam, r) % 2 == 0 or multiplicity(lam, r) == 1 for r in und
    )
    lemma_hypothesis = cond1 and cond2
    theorem_applies = lam.part_at(3) <= 1 or all(c == 0 for c in p.chi)
    return lemma_hypothesis, theorem_applies
