"""Character values at the identity and at the order-2 generator s1.

Values are integer polynomials in q, computed by recursing through the
restriction formulas: both group elements lie in every parabolic of the
chain, so the value of a rank-n parameter is the coefficient-weighted sum
of the values of its rank n-1 restriction terms.  The recursion bottoms
out at rank 1, where the values are fixed base data; rank 0 carries the
trivial character.

Inside the recursion a polynomial is packed into one int: its value at
q = 2^slot, each coefficient a signed slot of ``slot`` bits (Kronecker
substitution).  Packing is a ring map, so the weighted sum costs one
big-int multiply-add per restriction term and is exact as an int whatever
its coefficients; only a value handed to an outside caller is unpacked to
a QPoly, and unpacking is exact while every coefficient is below
2^(slot - 1) in absolute value.  Each memo entry therefore carries a bound
on its coefficients, the sum over its terms of the coefficient's l1 norm
times the sub-value's bound, so that overflow is ruled out, not guessed.
When the bound of a value about to be unpacked does not fit, the slot
doubles, the memo is cleared and the value is computed again from the
outermost call.  The slot starts at 64 bits, which a value table keeps up
to rank 16 (bounds up to 61 bits, coefficients up to 55); at rank 18 the
table's bounds reach 71 bits and its coefficients 65, so the slot widens
once, to 128 bits.

The memo is a plain dict keyed by (parameter, w), shared across calls,
and the packed restriction coefficients are kept in a second dict; both
hold values at the current slot width only, and widening clears both.
``clear_cache`` empties them and also the caches of the part moves
(``partitions._lower``, ``_drop`` and ``_shift``) and of the coefficient
builders (``qpoly.monomial``, ``geometric_sum`` and ``_step``), so nothing
memoized outlives it: a query after ``clear_cache`` pays for every move
and coefficient it makes, as it would in a fresh process, and is not
warmed by the queries before it.
Every memo miss of rank >= 2 calls ``restrict_symplectic`` or
``restrict_exotic`` through its module.  A table misses each parameter
once at id and once at s1, so ``value_table`` opens the restriction store
of ``restrict`` for its length: the id miss keeps the parameter's terms
and the s1 miss takes them back, and each formula runs once per
parameter.  A single ``value`` keeps nothing: it asks one w, and kept
terms would only be garbage for the collector to trace.
``value`` is not thread-safe: nothing in the package starts a thread, and
a call made while another widens could mix widths.
"""

from . import restrict
from .errors import InvalidParam
from .partitions import _drop, _lower, _shift
from .qpoly import ONE, QPoly, _pack, _step, _unpack, geometric_sum, monomial
from .theory import THEORIES, of

GROUP_ELEMENTS = ("id", "s1")


def _base_table():
    table = {}
    for th in THEORIES.values():
        one, reg = th.rank1
        table[one, "id"] = table[one, "s1"] = ONE
        table[reg, "id"], table[reg, "s1"] = QPoly((1, 1)), QPoly((1, -1))
    return table


_BASE = _base_table()
_memo = {}  # (param, w) -> (packed value, coefficient bound)
_packs = {}  # QPoly -> (packed, l1 norm)
_slot = 64  # bits per packed coefficient; only ever widened
_MEMOIZED = (_lower, _drop, _shift, monomial, geometric_sum, _step)


def clear_cache():
    _memo.clear()
    _packs.clear()
    for fn in _MEMOIZED:
        fn.cache_clear()


def value(param, w, *, _inner=False):
    """Character value of the given parameter at w in {"id", "s1"}.

    Internal: the recursion passes ``_inner`` and gets back (packed value,
    coefficient bound) at the current slot width instead of a QPoly."""
    global _slot
    if w not in GROUP_ELEMENTS:
        raise InvalidParam(f"group element must be one of {GROUP_ELEMENTS}, got {w!r}")
    key = (param, w)
    while True:
        entry = _memo.get(key)
        if entry is None:
            try:
                entry = _miss(param, w, key)
            except RecursionError:
                if _inner:
                    raise
                raise InvalidParam(
                    f"rank {param.rank} is too deep for the value recursion"
                ) from None
        if _inner:
            return entry
        packed, bound = entry
        if bound < 1 << (_slot - 1):
            return _unpack(packed, _slot)
        # a coefficient might not fit its slot: start over, wider
        while bound >= 1 << (_slot - 1):
            _slot *= 2
        clear_cache()


def _miss(param, w, key):
    """(packed value, coefficient bound) of ``key``, memoized from rank 2
    on."""
    n = param.rank
    if n <= 1:
        if n == 0:
            return (1, 1)
        try:
            base = _BASE[key]
        except KeyError:
            raise InvalidParam(f"not a valid rank-1 parameter: {param}") from None
        return _packs.get(base) or _new_pack(base)
    # the record reads the restriction off its module on every miss, so
    # that a wrapped or patched restriction is the one called
    terms = of(param).restrict(param)
    total = bound = 0
    for target, coeff in terms.terms.items():
        sub = value(target, w, _inner=True)
        c = _packs.get(coeff) or _new_pack(coeff)
        total += c[0] * sub[0]
        bound += c[1] * sub[1]
    entry = _memo[key] = (total, bound)
    return entry


def _new_pack(p):
    entry = _packs[p] = (_pack(p, _slot), sum(map(abs, p)))
    return entry


def value_table(n, theory):
    """Rows (parameter, value at id, value at s1) for every rank-n parameter,
    in enumeration order.  ``theory`` is a name in ``THEORIES``.  The
    enumeration refuses an oversized rank (``params.check_rank``) before any
    value.  Each parameter's restriction is evaluated once for its id and
    s1 misses (see the module docstring), and the store is closed on the
    way out, also when a value raises."""
    if theory not in THEORIES:
        names = " or ".join(map(repr, THEORIES))
        raise InvalidParam(f"theory must be {names}, got {theory!r}")
    params = THEORIES[theory].enumerate(n)
    restrict._kept = {}
    try:
        return [(p, value(p, "id"), value(p, "s1")) for p in params]
    finally:
        restrict._kept = None
