"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A scalar is a rational polynomial in z = zeta_n = exp(2*pi*i/n) of degree
below phi = euler_phi(n), the degree of the n-th cyclotomic polynomial Phi_n.
It is stored as integer numerators over one common denominator,
``coeffs = (a_0, ..., a_{phi-1}, d)``, meaning (sum_k a_k z^k) / d, with
d > 0 and gcd(a_0, ..., a_{phi-1}, d) = 1.  Zero is (0, ..., 0, 1).  The form
is canonical: equal scalars have equal ``coeffs``.
Phi_n is monic with integer coefficients, so products reduce modulo it in
integers and only the denominators multiply.  Conjugation sends z to
z^{n-1} = z^{-1} and is an involutive field automorphism fixing Q.

This is the representation of FLINT/Antic's ``nf_elem`` (W. Hart, "ANTIC:
Algebraic Number Theory In C", 2015).  ``Scalar.fractions()`` gives the
coefficients as ``Fraction``s.

The conductor is fixed per field instance; scalars from different conductors
never mix.

Scalars are hash-consed (J.-C. Filliatre and S. Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006).  The invariants:

- one object per value: ``Scalar(field, coeffs)`` returns the field's one
  object for those canonical ``coeffs``, so every constructor and operation
  does, and ``field.zero`` and ``field.one`` are those objects for 0 and 1;
- never freed: the field's intern table holds every scalar it has made, and
  a field lives as long as the process (one instance per conductor);
- ``is`` means equal: ``==`` is identity, and ``bool(x)`` is
  ``x is not field.zero``;
- hash by value: ``hash(x)`` is ``hash((n, coeffs))``, computed once at
  interning, so a set of scalars iterates in an order fixed by the values;
- memo keyed by ``id``: ``x + y``, ``x - y`` and ``x * y`` are stored in dicts
  on ``x`` under ``id(y)``, and ``-x`` in a slot of ``x``.  An ``id`` names one
  live object, and no scalar is freed, so an ``id`` key never comes to name
  another scalar; a scalar of another field is never a key, and reaches the
  field check, which raises ``InputError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub

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


def _power_rows(cyc: list[int], count: int) -> list[tuple[int, ...]]:
    """x^k mod the monic integer polynomial cyc for k < count, as integer rows
    of width deg(cyc), by x^{k+1} = x * x^k."""
    deg = len(cyc) - 1
    low = cyc[:deg]
    row = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(count):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, low)]
    return rows


def _sparse(row) -> tuple[tuple[int, int], ...]:
    return tuple((i, t) for i, t in enumerate(row) if t)


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
        deg = self.degree = len(phi) - 1
        # x^k mod Phi_n for k < 2n, as integer rows of width degree
        self.power_table = _power_rows([int(c) for c in phi], 2 * n)
        # the reduction of z^k for degree <= k < 2*degree - 1, sparse
        self._reduce = [_sparse(self.power_table[k]) for k in range(deg, 2 * deg - 1)]
        # conjugation images of the basis powers z^k, k < degree, sparse
        self._conj = [_sparse(self.power_table[(n - k) % n]) for k in range(deg)]
        # every scalar of this field by its coeffs, kept for the field's life
        self._interned: dict[tuple, Scalar] = {}
        self.zero = Scalar(self, (0,) * deg + (1,))
        self.one = Scalar(self, self.power_table[0] + (1,))

    def _make(self, nums: list[int], den: int) -> "Scalar":
        """nums / den in canonical form (den > 0)."""
        g = gcd(*nums, den)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        return Scalar(self, (*nums, den))

    # -- constructors --------------------------------------------------

    def scalar(self, coeffs) -> "Scalar":
        """Build a scalar from up to 2n coefficients (any iterable of rationals)."""
        terms = []
        den = 1
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            if not c:
                continue
            if k >= 2 * self.n:
                raise InputError("coefficient vector too long")
            terms.append((k, c))
            den = lcm(den, c.denominator)
        acc = [0] * self.degree
        for k, c in terms:
            m = c.numerator * (den // c.denominator)
            for i, t in enumerate(self.power_table[k]):
                if t:
                    acc[i] += m * t
        return self._make(acc, den)

    def rational(self, q) -> "Scalar":
        q = Fraction(q)
        return Scalar(self, (q.numerator,) + (0,) * (self.degree - 1) + (q.denominator,))

    def zeta(self, k: int = 1) -> "Scalar":
        # a power of zeta is a unit of Z[zeta], so its row has content 1
        return Scalar(self, self.power_table[k % self.n] + (1,))

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
            acc[exp] += coeff
        return self.scalar(acc)

    def __repr__(self):
        return f"CycloField({self.n})"


class Scalar:
    """An element of Q(zeta_n), immutable and interned: its field holds one
    object per value (see the module docstring).

    ``coeffs = (a_0, ..., a_{phi-1}, d)``: integer numerators over the power
    basis z^0..z^{phi-1} and one denominator d > 0, with gcd of all of them 1.
    """

    __slots__ = ("field", "coeffs", "_hash", "_plus", "_minus", "_times", "_neg")

    def __new__(cls, field: CycloField, coeffs: tuple):
        s = field._interned.get(coeffs)
        if s is None:
            s = object.__new__(cls)
            s.field = field
            s.coeffs = coeffs
            s._hash = hash((field.n, coeffs))
            # results by id of the other operand; see the module docstring
            s._plus, s._minus, s._times = {}, {}, {}
            s._neg = None
            field._interned[coeffs] = s
        return s

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self is self.field.zero

    def __bool__(self):
        return self is not self.field.zero

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:-1])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InputError(f"scalar {self} is not rational")
        return Fraction(self.coeffs[0], self.coeffs[-1])

    def fractions(self) -> tuple[Fraction, ...]:
        """The coefficients over z^0..z^{phi-1} as Fractions."""
        d = self.coeffs[-1]
        return tuple(Fraction(a, d) for a in self.coeffs[:-1])

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Scalar"):
        if self.field is not other.field:
            raise InputError("scalars from different cyclotomic fields")

    def _combine(self, other: "Scalar", op) -> "Scalar":
        """self op other for op in (add, sub)."""
        f = self.field
        if f is not other.field:
            raise InputError("scalars from different cyclotomic fields")
        a, b = self.coeffs, other.coeffs
        d, e = a[-1], b[-1]
        if d == e:
            s = [*map(op, a, b)]
            s[-1] = d
            if d == 1:
                return Scalar(f, tuple(s))
            g = gcd(*s)
            if g != 1:
                s = [x // g for x in s]
            return Scalar(f, tuple(s))
        g = gcd(d, e)
        if g == 1:
            # no prime of d divides e: the sum stays in lowest terms
            s = [op(x * e, y * d) for x, y in zip(a, b)]
            s[-1] = d * e
            return Scalar(f, tuple(s))
        la, lb = e // g, d // g
        return f._make([op(x * la, y * lb) for x, y in zip(a[:-1], b[:-1])], d * la)

    def __add__(self, other):
        r = self._plus.get(id(other))
        if r is None:
            r = self._plus[id(other)] = other._plus[id(self)] = self._combine(other, _add)
        return r

    def __sub__(self, other):
        r = self._minus.get(id(other))
        if r is None:
            r = self._minus[id(other)] = self._combine(other, _sub)
        return r

    def __neg__(self):
        r = self._neg
        if r is None:
            a = self.coeffs
            r = self._neg = Scalar(self.field, (*map(_neg, a[:-1]), a[-1]))
            r._neg = self
        return r

    def __mul__(self, other):
        r = self._times.get(id(other))
        if r is None:
            r = self._times[id(other)] = other._times[id(self)] = self._product(other)
        return r

    def _product(self, other) -> "Scalar":
        f = self.field
        if f is not other.field:
            raise InputError("scalars from different cyclotomic fields")
        one = f.one
        if self is one:
            return other
        if other is one:
            return self
        a, b = self.coeffs, other.coeffs
        den = a[-1] * b[-1]
        # a rational operand scales the other's numerators
        if not any(a[1:-1]):
            r, v = a[0], b
        elif not any(b[1:-1]):
            r, v = b[0], a
        else:
            deg = f.degree
            conv = [0] * (2 * deg - 1)
            for i, x in enumerate(a[:-1]):
                if x:
                    for j, y in enumerate(b[:-1]):
                        if y:
                            conv[i + j] += x * y
            for k, row in enumerate(f._reduce, deg):
                c = conv[k]
                if c:
                    for i, t in row:
                        conv[i] += c * t
            return f._make(conv[:deg], den)
        if not r:
            return f.zero
        return f._make([r * x for x in v[:-1]], den)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        f = self.field
        a = self.coeffs
        if self.is_rational():
            num, den = (a[-1], a[0]) if a[0] > 0 else (-a[-1], -a[0])
            return Scalar(f, (num,) + a[1:-1] + (den,))
        # (sum a_k z^k / d)^-1 = d * (sum a_k z^k)^-1
        d = a[-1]
        return f.scalar([x * d for x in _poly_inverse_mod(list(map(Fraction, a[:-1])),
                                                            f.modulus)])

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def conj(self) -> "Scalar":
        a = self.coeffs
        if not any(a[1:-1]):
            return self
        f = self.field
        acc = [0] * f.degree
        for k, row in enumerate(f._conj):
            c = a[k]
            if c:
                for i, t in row:
                    acc[i] += c * t
        # conjugation is a ring automorphism of Z[zeta], so the content stays 1
        acc.append(a[-1])
        return Scalar(f, tuple(acc))

    # -- hashing: by value; equality is identity -------------------------

    def __hash__(self):
        return self._hash

    # -- printing ----------------------------------------------------------

    def literal(self) -> str:
        """Canonical scalar literal (descending powers of z)."""
        a = self.coeffs
        d = a[-1]
        terms = []
        for k in range(self.field.degree - 1, 0, -1):
            if not a[k]:
                continue
            c = Fraction(a[k], d)
            if c == 1:
                terms.append(f"z^{k}")
            else:
                terms.append(f"{c}*z^{k}")
        if a[0] or not terms:
            terms.append(str(Fraction(a[0], d)))
        return "+".join(terms)

    def __repr__(self):
        return self.literal()
