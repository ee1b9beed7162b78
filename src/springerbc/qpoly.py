"""Exact integer polynomials in the grading variable q.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial is the empty tuple.  All arithmetic is exact integer
arithmetic; in particular every division by (q - 1) that the restriction
formulas need is realized up front as a geometric sum.
"""

import sys
from operator import add, neg

from .errors import InvalidParam


class QPoly(tuple):
    """Integer polynomial in q, ascending coefficients, no trailing zeros."""

    def __new__(cls, coeffs=()):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return super().__new__(cls, coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self) < len(other):
            self, other = other, self
        out = list(map(add, self, other))
        if len(self) > len(other):
            out += self[len(other):]
        else:  # equal lengths: the leading coefficients may cancel
            while out and out[-1] == 0:
                out.pop()
        return _canonical(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _canonical(map(neg, self))

    def __mul__(self, other):
        if isinstance(other, int):
            return _canonical(c * other for c in self) if other else ZERO
        if isinstance(other, tuple):
            if type(other) is not QPoly:
                other = QPoly(other)
            if not self or not other:
                return ZERO
            # the product of two leading coefficients is nonzero, so the
            # convolution of canonical inputs is canonical
            out = [0] * (len(self) + len(other) - 1)
            for i, a in enumerate(self):
                if a:
                    for j, b in enumerate(other):
                        out[i + j] += a * b
            return _canonical(out)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at the integer x (Horner)."""
        acc = 0
        for c in reversed(self):
            acc = acc * x + c
        return acc

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        return f"QPoly({list(self)})"


def _canonical(coeffs):
    """QPoly from ints already in canonical form (no trailing zero), without
    the constructor's re-normalization.  Internal: callers guarantee it."""
    return tuple.__new__(QPoly, coeffs)


def _pack(p, slot):
    """p evaluated at q = 2^slot: each coefficient in a signed slot of
    ``slot`` bits, which ``_unpack`` reads back while it is below
    2^(slot - 1) in absolute value."""
    return sum(c << (slot * e) for e, c in enumerate(p) if c)


def _unpack(packed, slot):
    """The QPoly whose packing is ``packed``; the caller guarantees that
    every coefficient is below 2^(slot - 1) in absolute value.

    Adding 2^(slot - 1) to every slot makes each one nonnegative with no
    carry between them; flipping each slot's top bit back leaves the slots
    in two's complement, which are read off the bytes (64-bit slots by one
    memoryview cast)."""
    width = slot // 8  # slots are whole bytes
    n = packed.bit_length() // slot + 1  # at least the number of coefficients
    bias = int.from_bytes((1 << (slot - 1)).to_bytes(width, "little") * n, "little")
    raw = ((packed + bias) ^ bias).to_bytes(width * n, "little")
    if width == 8 and sys.byteorder == "little":
        coeffs = memoryview(raw).cast("q").tolist()
    else:
        coeffs = [
            int.from_bytes(raw[i : i + width], "little", signed=True)
            for i in range(0, len(raw), width)
        ]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return _canonical(coeffs)


def _coerce(other):
    if isinstance(other, QPoly):
        return other
    if isinstance(other, int):
        return QPoly((other,))
    if isinstance(other, tuple):
        return QPoly(other)
    return NotImplemented


ZERO = QPoly()
ONE = QPoly((1,))


def monomial(e):
    """The polynomial q^e."""
    if e < 0:
        raise InvalidParam(f"monomial needs e >= 0, got e={e}")
    return _canonical((0,) * e + (1,))


def geometric_sum(a, b):
    """q^b + q^(b+1) + ... + q^(a-1); the zero polynomial when a == b.

    This is the exact form of (q^a - q^b) / (q - 1); it is how every
    divided coefficient in the restriction formulas is produced.
    """
    if a < b:
        raise InvalidParam(f"geometric_sum needs a >= b, got a={a}, b={b}")
    return _canonical((0,) * b + (1,) * (a - b)) if a > b else ZERO


def _step(a, b):
    """q^a - q^b for a >= b >= 0, built canonical: ``monomial(a) - monomial(b)``."""
    if a < b:
        raise InvalidParam(f"_step needs a >= b, got a={a}, b={b}")
    return _canonical((0,) * b + (-1,) + (0,) * (a - b - 1) + (1,)) if a > b else ZERO


# _POWERS[e] is the text of q^e.  A polynomial of higher degree binds a
# longer list in its place, complete before it is bound, so a reader never
# sees a partial one.
_POWERS = ["", "q"]


def poly_to_text(p, descending=True):
    """Human-readable form, e.g. "q^4 + 2q^3 + 2q^2 + 2q + 1" or "-q + 1".

    Each term is its sign as a separator, |c| (left out for a unit at
    e > 0) and q^e; the first term's separator becomes a bare sign."""
    global _POWERS
    if not p:
        return "0"
    powers = _POWERS
    if len(p) > len(powers):
        powers = _POWERS = ["", "q"] + [f"q^{e}" for e in range(2, len(p))]
    terms = [
        f"{' - ' if c < 0 else ' + '}"
        f"{'' if e and (c == 1 or c == -1) else abs(c)}{powers[e]}"
        for e, c in enumerate(p)
        if c
    ]
    if descending:
        terms.reverse()
    first = terms[0]
    terms[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(terms)
