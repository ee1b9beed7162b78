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

The memo is a plain dict keyed by (parameter, key), shared across calls,
and the packed restriction coefficients are kept in a second dict; both
hold values at the current slot width only, and widening clears both.
``clear_cache`` empties them and also the caches of the part moves
(``partitions._lower``, ``_drop`` and ``_shift``) and of the coefficient
builders (``qpoly.monomial``, ``geometric_sum`` and ``_step``), so nothing
memoized outlives it: a query after ``clear_cache`` pays for every move
and coefficient it makes, as it would in a fresh process, and is not
warmed by the queries before it.
Every memo miss of rank >= 2 calls ``restrict_symplectic`` or
``restrict_exotic`` through its module, once, and stores one entry.

There are two recursions, chosen by what the caller asks for.  A single
``value`` asks one w, keyed by "id" or "s1", and pays one multiply-add per
term.  A value table asks each row under the private key ``_TABLE``,
whose entry also carries the packed reg part b of the value: restricted
all the way down, a parameter is a·(one) + b·(reg), worth a + b(1 + q) at
id and a + b(1 - q) at s1, so the value at s1 is the value at id minus
2q·b, read off the packed ints as ``id - (b << (slot + 1))``.  So a table
restricts each parameter once, for both of its values.  The bound of the
value at s1 is that of the value at id: both are the same sum of l1
norms, over the same base bounds (1 at one, 2 at reg).
``value`` is not thread-safe: nothing in the package starts a thread, and
a call made while another widens could mix widths.
"""

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
_TABLE = object()  # the key of a table row: values at id and s1 together
_memo = {}  # (param, w) -> (packed value, coefficient bound)
# (param, _TABLE) -> (packed value at id, coefficient bound, packed reg part)
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

    Internal: the recursion passes ``_inner`` and gets back its memo entry
    at the current slot width instead of a QPoly, and ``value_table`` asks
    for both values of a row as w = ``_TABLE``."""
    global _slot
    table = w is _TABLE
    if not table and w not in GROUP_ELEMENTS:
        raise InvalidParam(f"group element must be one of {GROUP_ELEMENTS}, got {w!r}")
    key = (param, w)
    while True:
        entry = _memo.get(key)
        if entry is None:
            try:
                entry = _row_miss(param, key) if table else _miss(param, w, key)
            except RecursionError:
                if _inner:
                    raise
                raise InvalidParam(
                    f"rank {param.rank} is too deep for the value recursion"
                ) from None
        if _inner:
            return entry
        packed, bound = entry[:2]
        if bound < 1 << (_slot - 1):
            if table:
                s1 = packed - (entry[2] << (_slot + 1))
                return _unpack(packed, _slot), _unpack(s1, _slot)
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


def _row_miss(param, key):
    """(packed value at id, coefficient bound, packed reg part) of ``key``,
    memoized from rank 2 on: ``_miss`` at id, with the reg part summed
    alongside."""
    if param.rank <= 1:
        # the reg part is 1 at reg, whose value at id is 1 + q, and 0 at
        # one and at rank 0, whose values are 1
        packed, bound = _miss(param, "id", (param, "id"))
        return packed, bound, packed >> _slot
    terms = of(param).restrict(param)
    total = bound = reg = 0
    for target, coeff in terms.terms.items():
        sub, sub_bound, sub_reg = value(target, _TABLE, _inner=True)
        c, norm = _packs.get(coeff) or _new_pack(coeff)
        total += c * sub
        bound += norm * sub_bound
        reg += c * sub_reg
    entry = _memo[key] = (total, bound, reg)
    return entry


def _new_pack(p):
    entry = _packs[p] = (_pack(p, _slot), sum(map(abs, p)))
    return entry


def value_table(n, theory):
    """Rows (parameter, value at id, value at s1) for every rank-n parameter,
    in enumeration order.  ``theory`` is a name in ``THEORIES``.  The
    enumeration refuses an oversized rank (``params.check_rank``) before any
    value.  Each row is one ``value`` call, which restricts each parameter
    once for both of its values (see the module docstring)."""
    if theory not in THEORIES:
        names = " or ".join(map(repr, THEORIES))
        raise InvalidParam(f"theory must be {names}, got {theory!r}")
    return [(p, *value(p, _TABLE)) for p in THEORIES[theory].enumerate(n)]
