"""Character values at the identity and at the order-2 generator s1.

Values are integer polynomials in q, computed by recursing through the
restriction formulas: both group elements lie in every parabolic of the
chain, so the value of a rank-n parameter is the coefficient-weighted sum
of the values of its rank n-1 restriction terms.  The recursion bottoms
out at rank 1, where the values are fixed base data; rank 0 carries the
trivial character.

The weighted sum is accumulated in one list of ints: restriction
coefficients are sparse (q^a, q^a - q^b, geometric sums), so each nonzero
coefficient c at degree e adds c times the sub-value into the slice
starting at e.  Only the finished sum becomes a QPoly.

The memo table is the only cache: a plain dict keyed by (parameter, w),
shared across calls.  Reads and inserts are atomic under the GIL and
recomputation is idempotent, so concurrent use from threads is safe.
SPRINGERBC_MEMO_CAP caps the number of cached entries (unbounded by
default; a negative cap is an InvalidParam); past the cap results are
still correct, just recomputed.
"""

import os
from itertools import repeat
from operator import add, mul, sub

from . import restrict
from .errors import InvalidParam
from .params import (
    Bipartition,
    OmegaParam,
    enumerate_bipartitions,
    enumerate_omega,
)
from .partitions import Partition
from .qpoly import ONE, QPoly, _canonical

GROUP_ELEMENTS = ("id", "s1")


def _base_table():
    sp_top = OmegaParam.make(Partition([2]), {2: 1})
    sp_reg = OmegaParam.make(Partition([1, 1]), {1: 0})
    ex_top = Bipartition(Partition([1]), Partition())
    ex_reg = Bipartition(Partition(), Partition([1]))
    qp1 = QPoly((1, 1))
    one_minus_q = QPoly((1, -1))
    return {
        (sp_top, "id"): ONE,
        (sp_top, "s1"): ONE,
        (sp_reg, "id"): qp1,
        (sp_reg, "s1"): one_minus_q,
        (ex_top, "id"): ONE,
        (ex_top, "s1"): ONE,
        (ex_reg, "id"): qp1,
        (ex_reg, "s1"): one_minus_q,
    }


_BASE = _base_table()
_memo = {}


def _memo_cap():
    raw = os.environ.get("SPRINGERBC_MEMO_CAP")
    if not raw:
        return None
    cap = int(raw)
    if cap < 0:
        raise InvalidParam(f"SPRINGERBC_MEMO_CAP must be >= 0, got {cap}")
    return cap


def clear_cache():
    _memo.clear()


def value(param, w):
    """Character value of the given parameter at w in {"id", "s1"}."""
    if w not in GROUP_ELEMENTS:
        raise InvalidParam(f"group element must be one of {GROUP_ELEMENTS}, got {w!r}")
    key = (param, w)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    n = param.rank
    if n == 0:
        return ONE
    if n == 1:
        try:
            return _BASE[key]
        except KeyError:
            raise InvalidParam(f"not a valid rank-1 parameter: {param}") from None
    # read off the module on every miss, so that a wrapped or patched
    # restriction is the one called
    if isinstance(param, OmegaParam):
        terms = restrict.restrict_symplectic(param)
    else:
        terms = restrict.restrict_exotic(param)
    acc = []
    for target, coeff in terms.terms.items():
        v = value(target, w)
        for e, c in enumerate(coeff):
            if not c:
                continue
            end = e + len(v)
            if len(acc) < end:
                acc += [0] * (end - len(acc))
            if c == 1:
                acc[e:end] = map(add, acc[e:end], v)
            elif c == -1:
                acc[e:end] = map(sub, acc[e:end], v)
            else:
                acc[e:end] = map(add, acc[e:end], map(mul, v, repeat(c)))
    while acc and acc[-1] == 0:
        acc.pop()
    total = _canonical(acc)
    cap = _memo_cap()
    if cap is None or len(_memo) < cap:
        _memo[key] = total
    return total


def value_table(n, theory):
    """Rows (parameter, value at id, value at s1) for every rank-n parameter,
    in enumeration order.  ``theory`` is "sp2" or "exotic"."""
    if theory == "sp2":
        params = enumerate_omega(n)
    elif theory == "exotic":
        params = enumerate_bipartitions(n)
    else:
        raise InvalidParam(f"theory must be 'sp2' or 'exotic', got {theory!r}")
    return [(p, value(p, "id"), value(p, "s1")) for p in params]
