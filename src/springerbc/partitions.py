"""Integer partitions and the exact part-level operations used everywhere else.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the unique partition of 0.  Indexing beyond the length reads as 0
(use ``part_at``).  All operations return canonically sorted values.
The restriction formulas move parts with the three slice moves below:
lower copies of a part by 1, drop one copy by 2, and shift a run of
indices up or down by 1.  The moves return shared immutable values,
memoized until ``evaluator.clear_cache``: one cold value query makes the
same move many times, and the cache keeps each move's result once.
"""

import re
from functools import lru_cache
from operator import add

from .errors import InvalidParam, InvariantViolation


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    The constructor accepts any iterable of nonnegative integers, sorts it
    descending and drops zeros, so every stored value is canonical.
    """

    def __new__(cls, parts=()):
        parts = sorted((int(x) for x in parts), reverse=True)
        while parts and parts[-1] == 0:
            parts.pop()
        if parts and parts[-1] < 0:
            raise InvalidParam(f"negative part in {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self):
        return sum(self)

    def part_at(self, i):
        """1-indexed part, 0 beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __repr__(self):
        return f"Partition({list(self)})"

    def __str__(self):
        return partition_to_text(self)


def _canonical(parts):
    """Partition from ints already sorted descending and positive, without
    the constructor's re-normalization.  Internal: callers guarantee it."""
    return tuple.__new__(Partition, parts)


EMPTY = Partition()


def partition_to_text(p):
    """Bracketed comma-separated text form, "[]" for the empty partition."""
    return "[" + ",".join(map(str, p)) + "]"


_PART = re.compile(r"\s*[0-9]+\s*")  # ASCII digits only, unlike int()


def partition_from_text(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidParam(f"partition text must look like [3,1], got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return EMPTY
    tokens = body.split(",")
    try:
        parts = [int(tok) for tok in tokens if _PART.fullmatch(tok)]
    except ValueError:  # more digits than int() converts
        parts = []
    if len(parts) != len(tokens):
        raise InvalidParam(f"partition parts must be integers: {text!r}")
    if any(x < 1 for x in parts):
        raise InvalidParam(f"partition parts must be positive: {text!r}")
    if parts != sorted(parts, reverse=True):
        raise InvalidParam(f"partition parts must be weakly decreasing: {text!r}")
    return Partition(parts)


def underlying_set(p):
    """Distinct part values of the partition p, in decreasing order."""
    return tuple(dict.fromkeys(p))


def union_partitions(a, b):
    """Multiset union: multiplicities add."""
    return Partition(tuple(a) + tuple(b))


def sum_partitions(a, b):
    """Componentwise sum, shorter argument padded with zeros."""
    if len(a) < len(b):
        a, b = b, a
    # the sum of two decreasing positive sequences is decreasing and positive
    return _canonical(tuple(map(add, a, b)) + a[len(b):])


# Part moves by slicing.  Each keeps the sorted prefix and suffix of p as
# they are and rebuilds only the parts it moves, so the result is never
# sorted again; a move whose result would be out of order raises instead.
# Each is memoized by its arguments (p a Partition), up to 2^14 entries;
# a raise is never cached, so a bad move raises on every call.


def _run_end(p, x, copies=1):
    """Index one past the last copy of x in p, which is the number of parts
    >= x; InvalidParam unless x occurs at least ``copies`` times."""
    m = p.count(x)
    if m < copies:
        raise InvalidParam(f"{[x] * copies} not contained in {p}")
    return p.index(x) + m


@lru_cache(maxsize=1 << 14)
def _lower(p, x, copies=1):
    """The last ``copies`` copies of the part x become x - 1 (dropped at 0).
    Every later part is below x, so the result stays sorted."""
    i = _run_end(p, x, copies)
    mid = (x - 1,) * copies if x > 1 else ()
    return _canonical(p[: i - copies] + mid + p[i:])


@lru_cache(maxsize=1 << 14)
def _drop(p, x):
    """The last copy of the part x becomes x - 2, placed after the run of
    x - 1 (dropped at 0)."""
    if x < 2:
        raise InvalidParam(f"cannot drop the part {x} by 2: {x - 2} is below zero")
    i = _run_end(p, x)
    e = i + p.count(x - 1)  # the run of x - 1, if any, starts at i
    mid = (x - 2,) if x > 2 else ()
    return _canonical(p[: i - 1] + p[i:e] + mid + p[e:])


@lru_cache(maxsize=1 << 14)
def _shift(p, a, b, step):
    """Add ``step``, +1 or -1, to the parts at the 0-based indices a..b-1;
    an empty interval (b <= a) is the identity.  An up-shift past the
    length appends parts equal to 1; a down-shift must stay within the
    length, and turns parts equal to 1 into zeros, which are dropped.  The
    caller guarantees the order: before an up-shift the part at a - 1
    exceeds the part at a, after a down-shift the part at b - 1 exceeds the
    part at b (beyond the length a part is 0).  A move that would break the
    order raises InvariantViolation."""
    if b <= a:
        return p
    n = len(p)
    if step > 0:
        if a and (a > n or p[a - 1] == (p[a] if a < n else 0)):
            raise InvariantViolation(f"up-shift [{a + 1},{b}] unsorts {p}")
        mid = tuple([x + 1 for x in p[a:b]]) + (1,) * (b - max(a, n))
        return _canonical(p[:a] + mid + p[b:])
    if b > n:
        raise InvalidParam(f"down-shift [{a + 1},{b}] exceeds length {n} of {p}")
    if b < n and p[b - 1] == p[b]:
        raise InvariantViolation(f"down-shift [{a + 1},{b}] unsorts {p}")
    mid = tuple([x - 1 for x in p[a:b]])
    if b == n:  # parts that were 1 are now trailing zeros
        mid = mid[: len(mid) - mid.count(0)]
    return _canonical(p[:a] + mid + p[b:])


def partitions_of(n):
    """Yield all partitions of n (as tuples) in descending lexicographic order.

    Zoghbi and Stojmenovic's algorithm ZS1 on one list: the first m entries
    are the current partition, every entry after index h is 1, and the next
    partition lowers the part at h by one and refills the rest greedily.
    """
    if n == 0:
        yield ()
        return
    a = [1] * n
    a[0] = n
    m, h = 1, 0
    yield (n,)
    while a[0] != 1:
        if a[h] == 2:  # the 2 becomes 1 + 1
            a[h] = 1
            m += 1
            h -= 1
        else:
            r = a[h] - 1
            t = m - h  # what is left once a[h] is r: 1 plus the trailing 1s
            a[h] = r
            while t >= r:
                h += 1
                a[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    a[h] = t
        yield tuple(a[:m])
