from fractions import Fraction
from math import gcd
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from qpb.cyclotomic import CycloField, _poly_divmod, _poly_inverse_mod, cyclotomic_polynomial
from qpb.errors import BadScalarLiteral, InputError


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


RATIONALS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-7), Fraction(1, 3),
             Fraction(-5, 4), Fraction(22, 7), Fraction(-1, 1000)]


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_rational_inverse_equals_extended_euclid(n):
    F = CycloField(n)
    for q in RATIONALS:
        x = F.rational(q)
        euclid = F.scalar(_poly_inverse_mod(x.fractions(), F.modulus))
        inv = x.inverse()
        assert inv.coeffs == euclid.coeffs
        assert inv.is_rational() and inv.rational_value() == 1 / q
        assert x * inv == F.one


@pytest.mark.parametrize("n", [3, 4, 5, 12])
def test_rational_operand_scales_coefficients(n):
    F = CycloField(n)
    z = F.zeta()
    others = [F.zero, z, F.rational(Fraction(-2, 3)) + z * z, z.conj() - F.rational(5)]
    for q in RATIONALS + [Fraction(0)]:
        r = F.rational(q)
        for x in others:
            # r + z is not rational, so the right-hand side takes the general product
            general = x * (r + z) - x * z
            assert (x * r).coeffs == general.coeffs
            assert (r * x).coeffs == general.coeffs


def test_power_table_matches_division_reference():
    """Row k of the recurrence table is x^k mod Phi_n, found by long division."""
    for n in range(1, 61):
        F = CycloField(n)
        assert len(F.power_table) == 2 * n
        for k, row in enumerate(F.power_table):
            _, r = _poly_divmod([Fraction(0)] * k + [Fraction(1)], F.modulus)
            assert row == tuple(r) + (0,) * (F.degree - len(r)), (n, k)


# -- the integer form against a Fraction-polynomial oracle mod Phi_n -----------

CONDUCTORS = [1, 3, 4, 5, 8, 12]


def ref_reduce(p, n):
    """p mod Phi_n by long division over Q, padded to euler_phi(n) Fractions."""
    modulus = cyclotomic_polynomial(n)
    _, r = _poly_divmod([Fraction(c) for c in p], modulus)
    return tuple(r) + (Fraction(0),) * (len(modulus) - 1 - len(r))


def ref_mul(p, q, n):
    conv = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            conv[i + j] += x * y
    return ref_reduce(conv, n)


def ref_conj(p, n):
    """sum p_k z^{-k}, with z^{-k} = z^{n-k}."""
    acc = [Fraction(0)] * (n + 1)
    for k, c in enumerate(p):
        acc[(n - k) % n] += c
    return ref_reduce(acc, n)


def assert_canonical(x):
    *nums, d = x.coeffs
    assert all(type(a) is int for a in x.coeffs)
    assert len(nums) == x.field.degree
    assert d > 0 and gcd(*nums, d) == 1
    if not any(nums):
        assert x.coeffs == x.field.zero.coeffs and not x and x.is_zero()


@st.composite
def field_pairs(draw):
    """(n, p, q): a conductor and two lists of up to 2n rational coefficients."""
    n = draw(st.sampled_from(CONDUCTORS))
    q = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return n, draw(st.lists(q, min_size=0, max_size=2 * n)), draw(
        st.lists(q, min_size=0, max_size=2 * n))


@settings(max_examples=200, deadline=None)
@given(field_pairs())
def test_integer_form_matches_fraction_oracle(data):
    n, p, q = data
    F = CycloField(n)
    x, y = F.scalar(p), F.scalar(q)
    rx, ry = ref_reduce(p or [0], n), ref_reduce(q or [0], n)
    for v, ref in ((x, rx), (y, ry), (x + y, tuple(a + b for a, b in zip(rx, ry))),
                   (x - y, tuple(a - b for a, b in zip(rx, ry))), (-x, tuple(-a for a in rx)),
                   (x * y, ref_mul(rx, ry, n)), (x.conj(), ref_conj(rx, n))):
        assert_canonical(v)
        assert v.fractions() == ref
    if x:
        inv = x.inverse()
        assert_canonical(inv)
        assert ref_mul(rx, inv.fractions(), n) == ref_reduce([1], n)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    # equal scalars built along different paths have equal coeffs and hashes
    for a, b in ((x, (x + y) - y), (x * y, y * x), (x - x, F.zero), (x, F.scalar(rx))):
        assert a == b and a.coeffs == b.coeffs and hash(a) == hash(b)
    assert F.parse(x.literal()) == x
    assert F.parse((x * y).literal()) == x * y


# -- one object per value ------------------------------------------------------------

def assert_value(F, v, ref):
    """v has the value ref and is F's one object for it: the object that
    ``F.scalar`` returns for those coefficients, and ``F.zero``, ``F.one`` or
    ``-F.one`` when the value is 0, 1 or -1."""
    assert v.field is F and v.fractions() == ref
    assert v is F.scalar(ref), (F.n, ref)
    canonical = {x.fractions(): x for x in (F.zero, F.one, -F.one)}.get(ref)
    assert canonical is None or v is canonical, (F.n, ref)
    assert hash(v) == hash((F.n, v.coeffs))


@st.composite
def unit_cases(draw):
    """(F, p, u, k): a conductor's field, up to 2n rational coefficients, a
    target value u in {-1, 0, 1} and a power k of zeta below 2n."""
    F = CycloField(draw(st.sampled_from([1, 3, 4, 5, 12])))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    coeffs = st.one_of(st.lists(q, max_size=2 * F.n),
                       st.lists(st.sampled_from([-1, 0, 1]), max_size=2 * F.n))
    return (F, draw(coeffs), draw(st.sampled_from([-1, 0, 1])),
            draw(st.integers(0, 2 * F.n - 1)))


@settings(max_examples=200, deadline=None)
@given(unit_cases())
def test_every_constructor_returns_the_fields_unit_objects(case):
    """Every way of making a scalar returns the field's one object for its
    value, which for 0, 1 and -1 is the field's unit object; every value
    equals a reference from ``fractions()``."""
    F, p, u, k = case
    n = F.n
    assert -F.one is -F.one and -(-F.one) is F.one and -F.zero is F.zero
    x, rx, ru = F.scalar(p), ref_reduce(p or [0], n), ref_reduce([u], n)
    assert_value(F, x, rx)
    unit = F.scalar(ru)
    assert_value(F, unit, ru)
    assert_value(F, F._make([3 * a for a in unit.coeffs[:-1]], 3), ru)
    assert_value(F, x + F.scalar([b - a for a, b in zip(rx, ru)]), ru)
    assert_value(F, x - F.scalar([a - b for a, b in zip(rx, ru)]), ru)
    assert_value(F, -unit, tuple(-a for a in ru))
    assert_value(F, -x, tuple(-a for a in rx))
    assert_value(F, x * F.zero, ref_reduce([0], n))
    assert_value(F, unit * unit, ref_mul(ru, ru, n))
    if x:
        other = F.scalar(ref_mul(ru, _poly_inverse_mod(rx, F.modulus), n))
        assert_value(F, x * other, ru)
        assert_value(F, other * x, ru)
        assert_value(F, x.inverse(), ref_reduce(_poly_inverse_mod(rx, F.modulus), n))
    if u:
        assert_value(F, unit.inverse(), ru)
    assert_value(F, unit.conj(), ru)
    assert_value(F, x.conj(), ref_conj(rx, n))
    assert_value(F, F.rational(Fraction(7 * u, 7)), ru)
    assert_value(F, F.scalar([0] * n + [u]), ru)  # z^n = 1
    assert_value(F, F.zeta(k), ref_reduce([0] * k + [1], n))
    assert_value(F, F.parse(unit.literal()), ru)
    assert_value(F, F.parse(x.literal()), rx)
    assert_value(F, F._make([5 * a for a in x.coeffs[:-1]], 5 * x.coeffs[-1]), rx)
    assert_value(F, (x + unit) - unit, rx)
    assert_value(F, x * unit, ref_mul(rx, ru, n))
    assert_value(F, x.conj().conj(), rx)


@st.composite
def memo_cases(draw):
    """(F, p, q): a field of conductor 1, 3, 4, 5 or 12 and two lists of up
    to 2n rational coefficients, with few distinct values so that operand
    pairs repeat across examples."""
    F = CycloField(draw(st.sampled_from([1, 3, 4, 5, 12])))
    q = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return F, draw(st.lists(q, max_size=2 * F.n)), draw(st.lists(q, max_size=2 * F.n))


@settings(max_examples=200, deadline=None)
@given(memo_cases())
def test_memoized_operations_match_the_oracle_on_every_call(case):
    """+, -, * and negation give the oracle's value and the field's one
    object for it on the first call and on each repeat, whichever operand
    comes first; a scalar of another field still raises ``InputError`` once
    the operands' memos are warm."""
    F, p, q = case
    n = F.n
    x, y = F.scalar(p), F.scalar(q)
    rx, ry = ref_reduce(p or [0], n), ref_reduce(q or [0], n)
    cases = [
        (lambda: x + y, tuple(a + b for a, b in zip(rx, ry))),
        (lambda: y + x, tuple(a + b for a, b in zip(rx, ry))),
        (lambda: x - y, tuple(a - b for a, b in zip(rx, ry))),
        (lambda: y - x, tuple(b - a for a, b in zip(rx, ry))),
        (lambda: x * y, ref_mul(rx, ry, n)),
        (lambda: y * x, ref_mul(rx, ry, n)),
        (lambda: x * x, ref_mul(rx, rx, n)),
        (lambda: -x, tuple(-a for a in rx)),
        (lambda: -(-x), rx),
    ]
    first = [op() for op, _ in cases]
    for _ in range(2):
        for (op, ref), v in zip(cases, first):
            again = op()
            assert_value(F, again, ref)
            assert again is v
    G = CycloField(7)
    for foreign in (G.one, G.zero, G.zeta() + G.rational(2)):
        for op in (add, sub, mul):
            with pytest.raises(InputError):
                op(x, foreign)
            with pytest.raises(InputError):
                op(foreign, x)
        assert x != foreign


def test_hash_is_by_value_and_sets_iterate_by_value():
    """A scalar hashes as (n, coeffs), so a set of scalars iterates in the
    order that a set of their (n, coeffs) keys would."""
    F = CycloField(12)
    values = [F.rational(Fraction(k, 3)) + F.zeta(k) for k in range(24)]
    for v in values:
        assert hash(v) == hash((12, v.coeffs))
    assert [(F.n, v.coeffs) for v in set(values)] == list({(F.n, v.coeffs) for v in values})
