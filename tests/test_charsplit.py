from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qpb.charsplit import (
    CommAlgebra, factor_over_field, field_characters, p_is_squarefree, primitive_idempotents,
)
from qpb.cyclotomic import CycloField, p_divmod, p_gcd, p_mul
from qpb.errors import InputError
from qpb.linalg import Vec, viadd


def diag_algebra(field, n):
    """C^n with pointwise product."""
    def mul(u: Vec, v: Vec) -> Vec:
        out = {}
        for k, a in u.items():
            b = v.get(k)
            if b:
                out[k] = a * b
        return out
    unit = {i: field.one for i in range(n)}
    return CommAlgebra(field, n, mul, unit)


def group_algebra_z3(field):
    """C[Z3]: splits over Q(zeta_3) into three characters."""
    def mul(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                viadd(out, a * b, {(i + j) % 3: field.one})
        return out
    return CommAlgebra(field, 3, mul, {0: field.one})


def test_factoring_cyclotomic():
    F = CycloField(3)
    # x^3 - 1 = (x-1)(x-z)(x-z^2) over Q(zeta_3)
    coeffs = [-F.one, F.zero, F.zero, F.one]
    facs = factor_over_field(coeffs, F)
    assert len(facs) == 3
    roots = set()
    for fac, m in facs:
        assert m == 1 and len(fac) == 2
        roots.add((-fac[0]).literal())
    assert roots == {F.one.literal(), F.zeta().literal(), F.zeta(2).literal()}


def test_factoring_rational():
    F = CycloField(1)
    coeffs = [F.rational(-1), F.zero, F.one]  # x^2 - 1
    facs = factor_over_field(coeffs, F)
    assert len(facs) == 2


def test_poly_gcd():
    F = CycloField(1)
    one = F.one
    # gcd(x^2-1, x-1) = x-1
    g = p_gcd([-one, F.zero, one], [-one, one], one)
    assert g == [-one, one]


def test_diagonal_idempotents():
    F = CycloField(1)
    alg = diag_algebra(F, 4)
    idems = primitive_idempotents(alg)
    assert len(idems) == 4
    assert all(d == 1 for _, d in idems)
    chars = field_characters(alg)
    assert len(chars) == 4


def test_group_algebra_z3_splits_over_zeta3():
    alg = group_algebra_z3(CycloField(3))
    idems = primitive_idempotents(alg)
    assert len(idems) == 3
    chars = field_characters(alg)
    assert len(chars) == 3
    # each character sends the generator to a cube root of unity
    F = CycloField(3)
    vals = sorted(chi[1].literal() for _, chi in chars)
    assert sorted([F.one.literal(), F.zeta().literal(), F.zeta(2).literal()]) == vals


def test_group_algebra_z3_over_rationals_keeps_field_piece():
    alg = group_algebra_z3(CycloField(1))
    idems = primitive_idempotents(alg)
    dims = sorted(d for _, d in idems)
    assert dims == [1, 2]  # Q (+) Q(zeta_3)
    assert len(field_characters(alg)) == 1


def test_field_characters_carry_their_idempotents():
    F = CycloField(3)
    alg = group_algebra_z3(F)
    chars = field_characters(alg)
    assert [e for e, _ in chars] == [e for e, d in primitive_idempotents(alg)]
    for e, chi in chars:
        assert alg.mul(e, e) == e
        # x e = chi(x) e for every basis element x
        for i in range(alg.dim):
            assert alg.mul({i: F.one}, e) == {k: chi[i] * c for k, c in e.items()}


# -- the p-adic root finder, against sympy and against known roots ----------------

def poly_from_roots(roots, field, extra=None):
    poly = [field.one]
    for r in roots:
        poly = p_mul(poly, [-r, field.one], field.one)
    return p_mul(poly, extra, field.one) if extra else poly


def split(poly, field):
    """(sorted root literals, cofactor) of factor_over_field, after checking
    the shape of its answer and that the factors multiply back to poly."""
    facs = factor_over_field(poly, field)
    assert all(m == 1 for _, m in facs)
    prod = [field.one]
    for fac, _ in facs:
        assert fac[-1] == field.one
        prod = p_mul(prod, fac, field.one)
    assert prod == poly
    linear = [fac for fac, _ in facs if len(fac) == 2]
    rest = [fac for fac, _ in facs if len(fac) > 2]
    assert len(rest) <= 1 and [fac for fac, _ in facs] == linear + rest
    return sorted((-fac[0]).literal() for fac in linear), (rest[0] if rest else None)


def sympy_factor_degrees(poly, field):
    """Root literals and the degrees of the other irreducible factors, by
    sympy over Q(zeta_n)."""
    import sympy
    from sympy import QQ, Poly, symbols

    zeta = sympy.exp(2 * sympy.I * sympy.pi / field.n)
    if field.degree == 1:
        dom = QQ

        def to_dom(s):
            return QQ(s.fractions()[0].numerator, s.fractions()[0].denominator)

        def from_dom(a):
            return field.rational(Fraction(int(a.numerator), int(a.denominator)))
    else:
        dom = QQ.algebraic_field(zeta)

        def to_dom(s):
            expr = sum(sympy.Rational(c.numerator, c.denominator) * zeta ** k
                       for k, c in enumerate(s.fractions()) if c)
            return dom.from_sympy(sympy.expand(expr))

        def from_dom(a):
            return field.scalar([Fraction(str(q)) for q in reversed(list(a.rep))])
    p = Poly([to_dom(c) for c in reversed(poly)], symbols("x"), domain=dom)
    roots, others = [], []
    for fac, _ in p.factor_list()[1]:
        if fac.degree() == 1:
            lead, const = fac.rep.to_list()
            roots.append(from_dom(-const / lead).literal())
        else:
            others.append(fac.degree())
    return sorted(roots), others


def scalars(field, height=60):
    q = st.fractions(min_value=-height, max_value=height, max_denominator=6)
    return st.lists(q, min_size=field.degree, max_size=field.degree).map(field.scalar)


@st.composite
def split_cases(draw):
    field = CycloField(draw(st.sampled_from([1, 3, 4])))
    roots = draw(st.lists(scalars(field), max_size=3))
    extra = draw(st.lists(scalars(field, 4), min_size=1, max_size=3))
    poly = poly_from_roots(roots, field, extra + [field.one])
    return field, poly


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_cases())
def test_roots_match_sympy(case):
    field, poly = case
    assume(p_is_squarefree(poly, field))
    roots, cofactor = split(poly, field)
    ref_roots, ref_others = sympy_factor_degrees(poly, field)
    assert roots == ref_roots
    assert (len(cofactor) - 1 if cofactor else 0) == sum(ref_others)


@pytest.mark.parametrize("n", [5, 8, 12])
def test_roots_over_degree_four_fields(n):
    F = CycloField(n)
    z = F.zeta()
    roots = [F.zero, z, -z * z + F.rational(Fraction(3, 2)), z * z * z - z + F.one]
    # Q(2^(1/3)) is not abelian, so t^3 - 2 has no root in any Q(zeta_n)
    cube = [F.rational(-2), F.zero, F.zero, F.one]
    poly = poly_from_roots(roots, F, cube)
    got, cofactor = split(poly, F)
    assert got == sorted(r.literal() for r in roots)
    assert cofactor == cube
    assert split(poly_from_roots(roots, F), F) == (got, None)


@pytest.mark.parametrize("n", [1, 3, 4, 12])
def test_roots_of_large_height(n):
    F = CycloField(n)
    z = F.zeta()
    big = F.scalar([Fraction(999_983 - 7919 * j, 97 - 7 * j) for j in range(F.degree)])
    roots = [big, -big * z - F.rational(1_000_003),
             F.rational(Fraction(-987_654, 12_347)) + z * F.rational(Fraction(1, 1_000_033))]
    # t^2 + t/3 + 7 has discriminant -251/9, and sqrt(-251) lies in
    # Q(zeta_n) only when 251 divides n
    quadratic = [F.rational(7), F.rational(Fraction(1, 3)), F.one]
    poly = poly_from_roots(roots, F, quadratic)
    got, cofactor = split(poly, F)
    assert got == sorted(r.literal() for r in roots)
    assert cofactor == quadratic


def test_factoring_rejects_non_squarefree_and_non_monic():
    F = CycloField(3)
    square = poly_from_roots([F.zeta(), F.zeta(), F.one], F)
    with pytest.raises(InputError, match="squarefree"):
        factor_over_field(square, F)
    with pytest.raises(InputError, match="monic"):
        factor_over_field([F.one, F.rational(2)], F)


def quotient_algebra(field, modulus):
    """Q(zeta_n)[u]/(modulus) on the monomial basis u^0, ..., u^(d-1)."""
    d = len(modulus) - 1

    def mul(x: Vec, y: Vec) -> Vec:
        px = [x.get(i, field.zero) for i in range(d)]
        py = [y.get(i, field.zero) for i in range(d)]
        _, rem = p_divmod(p_mul(px, py, field.one), modulus, field.one)
        return {i: c for i, c in enumerate(rem) if c}
    return CommAlgebra(field, d, mul, {0: field.one})


def test_root_free_remainder_stays_one_piece():
    F = CycloField(1)
    one = F.one
    m = [F.zero, F.rational(6), F.zero, F.rational(-5), F.zero, one]  # t (t^2-2)(t^2-3)
    got, cofactor = split(m, F)
    assert got == ["0"] and cofactor == [F.rational(6), F.zero, F.rational(-5), F.zero, one]
    # Q[u]/(m(u - 1)): on the basis (1 + t)^i no element but the scalars has
    # a rational eigenvalue on Q(sqrt 2) (+) Q(sqrt 3)
    shifted = [F.zero] * 6
    shift = [one]
    for k, c in enumerate(m):
        if k:
            shift = p_mul(shift, [-one, one], one)
        for i, s in enumerate(shift):
            shifted[i] = shifted[i] + c * s
    alg = quotient_algebra(F, shifted)
    assert sorted(d for _, d in primitive_idempotents(alg)) == [1, 4]
    assert len(field_characters(alg)) == 1


def test_dual_numbers_are_not_semisimple():
    """K[t]/t^2: t has minimal polynomial t^2, which is not squarefree, so
    the split refuses the algebra."""
    F = CycloField(3)
    with pytest.raises(InputError, match="algebra is not semisimple"):
        primitive_idempotents(quotient_algebra(F, [F.zero, F.zero, F.one]))
