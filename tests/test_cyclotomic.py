from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpb.cyclotomic import CycloField, cyclotomic_polynomial
from qpb.errors import BadScalarLiteral


def test_cyclotomic_polynomials():
    as_ints = lambda p: [int(c) for c in p]
    assert as_ints(cyclotomic_polynomial(1)) == [-1, 1]
    assert as_ints(cyclotomic_polynomial(2)) == [1, 1]
    assert as_ints(cyclotomic_polynomial(3)) == [1, 1, 1]
    assert as_ints(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert as_ints(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert as_ints(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


def test_basic_arithmetic_conductor_3():
    F = CycloField(3)
    z = F.zeta()
    # 1 + z + z^2 = 0
    assert (F.one + z + z * z).is_zero()
    assert z * z * z == F.one
    assert (z / z) == F.one
    inv = z.inverse()
    assert inv * z == F.one
    assert inv == z * z  # z^-1 = z^2


def test_conjugation_is_involutive_automorphism():
    F = CycloField(12)
    z = F.zeta()
    a = F.rational(Fraction(3, 7)) + z * z
    b = F.rational(2) - z
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert F.rational(Fraction(-5, 3)).conj() == F.rational(Fraction(-5, 3))
    # z conjugates to z^{n-1}
    assert z.conj() == F.zeta(11)


def test_literal_roundtrip_and_examples():
    F = CycloField(12)
    for text in ["1/2", "-1/3*z^2+1", "0", "z^3", "7", "-2/5"]:
        s = F.parse(text)
        assert F.parse(s.literal()) == s
    assert F.parse("1/2").rational_value() == Fraction(1, 2)
    assert F.parse("-1/3*z^2+1").literal() == "-1/3*z^2+1"
    with pytest.raises(BadScalarLiteral):
        F.parse("1/0")
    with pytest.raises(BadScalarLiteral):
        F.parse("z^")
    with pytest.raises(BadScalarLiteral):
        F.parse("1 - 2")


def test_conductor_one_is_plain_rationals():
    F = CycloField(1)
    a = F.rational(Fraction(2, 3))
    assert (a * a).rational_value() == Fraction(4, 9)
    assert a.conj() == a
    assert F.zeta() == F.one


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


@st.composite
def scalars(draw, n=12):
    F = CycloField(n)
    coeffs = draw(st.lists(small_rationals, min_size=1, max_size=n))
    return F.scalar(coeffs)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    if not a.is_zero():
        assert a * a.inverse() == a.field.one


@pytest.mark.parametrize("n", [1, 3, 5])
def test_multiplication_by_one_returns_the_other_operand(n):
    F = CycloField(n)
    values = [F.zero, F.one, -F.one, F.rational(Fraction(-2, 7)),
              F.zeta() + F.rational(3), F.zeta(n - 1) * F.rational(Fraction(1, 3))]
    for x in values:
        assert x * F.one == x
        assert F.one * x == x
        assert (x * F.one).coeffs == x.coeffs
        assert (F.one * x).coeffs == x.coeffs
