import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springerbc.errors import InvalidParam
from springerbc.qpoly import (
    ONE,
    QPoly,
    ZERO,
    _pack,
    _unpack,
    geometric_sum,
    monomial,
    poly_to_text,
)

poly_st = st.lists(st.integers(-9, 9), max_size=6).map(QPoly)


def test_normalization():
    assert QPoly((1, 0, 0)) == (1,)
    assert QPoly((0, 0)) == ()
    assert not ZERO
    assert ONE


def test_geometric_sum_examples():
    assert geometric_sum(2, 0) == (1, 1)  # q + 1
    assert geometric_sum(3, 1) == (0, 1, 1)  # q^2 + q
    assert geometric_sum(1, 1) == ()
    with pytest.raises(InvalidParam, match="^geometric_sum needs a >= b"):
        geometric_sum(0, 1)


def test_arithmetic():
    p = QPoly((1, 2))
    q = QPoly((0, 1))
    assert p + q == (1, 3)
    assert p - p == ()
    assert p * q == (0, 1, 2)
    assert 3 * p == (3, 6)
    assert monomial(3) - monomial(1) == (0, -1, 0, 1)
    assert (monomial(2) - ONE) (2) == 3
    assert QPoly((1, 2, 1))(3) == 16


def test_monomial_rejects_negative_exponent():
    assert monomial(0) == (1,)
    with pytest.raises(InvalidParam, match="^monomial needs e >= 0, got e=-1$"):
        monomial(-1)
    with pytest.raises(InvalidParam, match="^monomial needs e >= 0, got e=-2$"):
        monomial(-2)


@given(poly_st, poly_st, st.integers(-4, 4))
def test_mul_evaluation_homomorphism(a, b, x):
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


@given(st.integers(0, 8).flatmap(lambda b: st.tuples(st.integers(b, 9), st.just(b))))
def test_geometric_sum_telescopes(ab):
    a, b = ab
    g = geometric_sum(a, b)
    for q in (2, 3, 5):
        assert g(q) * (q - 1) == q**a - q**b


def test_poly_text():
    assert poly_to_text(QPoly((1, 2, 2, 2, 1))) == "q^4 + 2q^3 + 2q^2 + 2q + 1"
    assert poly_to_text(QPoly((1, -1))) == "-q + 1"
    assert poly_to_text(QPoly((1, 0, 0, 0, -1))) == "-q^4 + 1"
    assert poly_to_text(QPoly((1, 1, 1, 1, -2, -2))) == "-2q^5 - 2q^4 + q^3 + q^2 + q + 1"
    assert poly_to_text(ZERO) == "0"
    assert poly_to_text(QPoly((0, 1))) == "q"
    assert poly_to_text(QPoly((1, 2, 1)), descending=False) == "1 + 2q + q^2"


def _reference_term_text(c, e):
    if e == 0:
        return str(abs(c))
    body = "q" if e == 1 else f"q^{e}"
    if abs(c) == 1:
        return body
    return f"{abs(c)}{body}"


def reference_poly_to_text(p, descending=True):
    """The term-by-term formatter that ``poly_to_text`` must match byte for
    byte."""
    if not p:
        return "0"
    terms = [(c, e) for e, c in enumerate(p) if c]
    if descending:
        terms.reverse()
    out = []
    for i, (c, e) in enumerate(terms):
        if i == 0:
            out.append(("-" if c < 0 else "") + _reference_term_text(c, e))
        else:
            out.append((" - " if c < 0 else " + ") + _reference_term_text(c, e))
    return "".join(out)


# zeros, units and 2 in either sign often; multi-digit and above 2^64 too
text_coeff_st = st.one_of(
    st.sampled_from((0, 0, 1, -1, 2, -2)),
    st.integers(-1000, 1000),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
)


@settings(max_examples=400)
@given(st.lists(text_coeff_st, max_size=80).map(QPoly), st.booleans())
def test_poly_text_matches_the_reference(p, descending):
    assert poly_to_text(p, descending) == reference_poly_to_text(p, descending)
    assert str(p) == reference_poly_to_text(p)


@st.composite
def packable(draw):
    slot = draw(st.sampled_from((8, 16, 24, 64, 128)))
    top = (1 << (slot - 1)) - 1
    coeffs = draw(st.lists(st.integers(-top, top), max_size=12))
    return QPoly(coeffs), slot


@given(packable(), poly_st)
def test_pack_is_evaluation_at_two_to_the_slot(drawn, r):
    p, slot = drawn
    packed = _pack(p, slot)
    assert packed == p(1 << slot)
    unpacked = _unpack(packed, slot)
    assert type(unpacked) is QPoly and unpacked == p
    # a product unpacks exactly while its coefficients fit their slots
    product = p * r
    if all(abs(c) < 1 << (slot - 1) for c in product):
        assert _unpack(packed * _pack(r, slot), slot) == product
