"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A scalar is a rational polynomial in z = zeta_n = exp(2*pi*i/n), stored as a
coefficient vector of length n over the powers z^0..z^{n-1} and kept reduced
modulo the n-th cyclotomic polynomial, so the reduced form is the canonical
form (all coefficients at degree >= euler_phi(n) vanish).  Conjugation sends
z to z^{n-1} = z^{-1} and is an involutive field automorphism fixing Q.

The conductor is fixed per field instance; scalars from different conductors
never mix.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BadScalarLiteral, InputError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [_ZERO] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] * inv_lead
        if c:
            q[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, _poly_trim(num)


def _poly_inverse_mod(p, modulus: list[Fraction]) -> list[Fraction]:
    """u with u*p = 1 modulo an irreducible modulus (p nonzero, reduced),
    by the extended Euclid algorithm in Q[x]."""
    # u*p + v*modulus = gcd = nonzero rational
    r0 = _poly_trim(list(p))
    r1 = list(modulus)
    s0: list[Fraction] = [_ONE]
    s1: list[Fraction] = []
    while r1:
        q, r = _poly_divmod(r0, r1)
        # s0 - q*s1
        s = list(s0)
        for i, qi in enumerate(q):
            if not qi:
                continue
            for j, sj in enumerate(s1):
                if sj:
                    k = i + j
                    while len(s) <= k:
                        s.append(_ZERO)
                    s[k] -= qi * sj
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(s)
    assert len(r0) == 1, "gcd with cyclotomic polynomial must be constant"
    c = 1 / r0[0]
    return [x * c for x in s0]


def cyclotomic_polynomial(n: int, _cache={}) -> list[Fraction]:
    """Coefficients of Phi_n, ascending degree, via x^n - 1 = prod Phi_d."""
    if n in _cache:
        return _cache[n]
    xn1 = [_ZERO] * (n + 1)
    xn1[0], xn1[n] = Fraction(-1), _ONE
    p = xn1
    for d in range(1, n):
        if n % d == 0:
            p, r = _poly_divmod(p, cyclotomic_polynomial(d))
            assert not r
    _cache[n] = p
    return p


class CycloField:
    """The field Q(zeta_n); one shared instance per conductor."""

    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, n: int):
        if n < 1:
            raise InputError(f"conductor must be positive, got {n}")
        inst = cls._instances.get(n)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(n)
            cls._instances[n] = inst
        return inst

    def _init(self, n: int):
        self.n = n
        phi = cyclotomic_polynomial(n)
        self.modulus = phi
        self.degree = len(phi) - 1
        # x^k mod Phi_n for k < 2n, as length-n tuples
        table = []
        for k in range(2 * n):
            p = [_ZERO] * (k + 1)
            p[k] = _ONE
            _, r = _poly_divmod(p, phi)
            r += [_ZERO] * (n - len(r))
            table.append(tuple(r))
        self.power_table = table
        self.zero = Scalar(self, (_ZERO,) * n)
        self.one = Scalar(self, self.power_table[0])
        # conjugation images of the basis powers z^k, k < degree
        self.conj_table = [self.power_table[(n - k) % n] for k in range(self.degree)]

    # -- constructors --------------------------------------------------

    def scalar(self, coeffs) -> "Scalar":
        """Build a scalar from up to 2n coefficients (any iterable of rationals)."""
        acc = [_ZERO] * self.n
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            if not c:
                continue
            if k >= 2 * self.n:
                raise InputError("coefficient vector too long")
            for i, t in enumerate(self.power_table[k]):
                if t:
                    acc[i] += c * t
        return Scalar(self, tuple(acc))

    def rational(self, q) -> "Scalar":
        q = Fraction(q)
        return Scalar(self, (q,) + (_ZERO,) * (self.n - 1))

    def zeta(self, k: int = 1) -> "Scalar":
        return Scalar(self, self.power_table[k % self.n])

    def root_of_unity(self, e: int) -> "Scalar":
        """A primitive e-th root of unity, when mu_e is contained in the field
        (that is, when e divides lcm(2, n))."""
        if e == 1:
            return self.one
        if self.n % e == 0:
            return self.zeta(self.n // e)
        if self.n % 2 == 1 and e % 2 == 0 and self.n % (e // 2) == 0:
            d = e // 2
            if d % 2 == 1:
                # zeta_{2d} = -zeta_d^{(d+1)/2}
                return -self.zeta(self.n // d * ((d + 1) // 2))
        raise InputError(f"Q(zeta_{self.n}) has no primitive {e}-th root of unity")

    # -- scalar literal grammar ----------------------------------------
    #   scalar ::= term ("+" term)*
    #   term   ::= rational | rational "*z^" int | "z^" int
    #   rational ::= ["-"] int ["/" posint]

    _TERM = re.compile(
        r"^(?:(-?\d+(?:/\d+)?)(?:\*z\^(\d+))?|z\^(\d+))$"
    )

    def parse(self, text: str) -> "Scalar":
        s = text.strip().replace(" ", "")
        if not s:
            raise BadScalarLiteral(f"empty scalar literal {text!r}")
        acc = [_ZERO] * self.n
        for term in s.split("+"):
            m = self._TERM.match(term)
            if not m:
                raise BadScalarLiteral(f"bad term {term!r} in scalar literal {text!r}")
            rat, exp1, exp2 = m.groups()
            try:
                coeff = Fraction(rat) if rat is not None else _ONE
            except ZeroDivisionError:
                raise BadScalarLiteral(f"zero denominator in {term!r}") from None
            exp = int(exp1 or exp2 or 0)
            if exp >= self.n and self.n > 1:
                exp %= self.n
            elif self.n == 1:
                exp = 0
            for i, t in enumerate(self.power_table[exp]):
                if t:
                    acc[i] += coeff * t
        return Scalar(self, tuple(acc))

    def __repr__(self):
        return f"CycloField({self.n})"


class Scalar:
    """An element of Q(zeta_n), immutable, in canonical reduced form."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"scalar {self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Scalar"):
        if self.field is not other.field:
            raise InputError("scalars from different cyclotomic fields")

    def __add__(self, other):
        self._check(other)
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Scalar(self.field, tuple(-a if a else a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        # canonical form: equal coefficients mean equal scalars
        one = f.one.coeffs
        if a == one:
            return other
        if b == one:
            return self
        # a rational operand scales the other's canonical coefficients
        if not any(a[1:]):
            r = a[0]
            return Scalar(f, tuple(r * x if x else x for x in b))
        if not any(b[1:]):
            r = b[0]
            return Scalar(f, tuple(x * r if x else x for x in a))
        deg = f.degree
        conv = [_ZERO] * (2 * deg)
        for i in range(deg):
            ai = a[i]
            if not ai:
                continue
            for j in range(deg):
                bj = b[j]
                if bj:
                    conv[i + j] += ai * bj
        acc = [_ZERO] * f.n
        for k, c in enumerate(conv):
            if not c:
                continue
            if k < deg:
                acc[k] += c
            else:
                for i, t in enumerate(f.power_table[k]):
                    if t:
                        acc[i] += c * t
        return Scalar(f, tuple(acc))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        f = self.field
        if self.is_rational():
            return f.rational(1 / self.coeffs[0])
        return f.scalar(_poly_inverse_mod(self.coeffs, f.modulus))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def conj(self) -> "Scalar":
        f = self.field
        acc = [_ZERO] * f.n
        for k, c in enumerate(self.coeffs[: f.degree]):
            if not c:
                continue
            for i, t in enumerate(f.conj_table[k]):
                if t:
                    acc[i] += c * t
        return Scalar(f, tuple(acc))

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.n, self.coeffs))
        return self._hash

    # -- printing ----------------------------------------------------------

    def literal(self) -> str:
        """Canonical scalar literal (descending powers of z)."""
        terms = []
        for k in range(self.field.degree - 1, 0, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if c == 1:
                terms.append(f"z^{k}")
            else:
                terms.append(f"{c}*z^{k}")
        if self.coeffs[0] or not terms:
            terms.append(str(self.coeffs[0]))
        return "+".join(terms)

    def __repr__(self):
        return self.literal()
