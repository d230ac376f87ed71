"""Splitting commutative semisimple algebras over K = Q(zeta_n) into
idempotent pieces, and enumerating their K-valued characters.

Minimal polynomials are computed by exact Krylov iteration and the pieces
are cut out by polynomial CRT.  A character into K lives on a 1-dimensional
piece, and a piece splits off a 1-dimensional summand exactly when some
element's minimal polynomial on it has a root in K, so factoring needs only
the roots: ``factor_over_field`` returns t - r for each root r in K and the
root-free cofactor.  A piece of dimension d > 1 is what is left when no
minimal polynomial on it has a root in K: a product of proper extensions of
K, not necessarily one field.

The roots are found p-adically, every step exact:

1. The monic squarefree m(t) of degree d becomes hat(t) = D^d m(t/D), D the
   lcm of the coefficient denominators; its roots s = D r are integral, so
   they lie in Z[zeta_n], the full ring of integers, with the power basis.
2. Cauchy's bound gives |sigma(s)| <= R = 1 + max_{i<d} ||hat_i||_1 in every
   complex embedding sigma.  Through the trace-dual basis,
   s_j = sum_i (T^-1)_ji Tr(s zeta^i) with T_ij = Tr(zeta^(i+j)), so
   |s_j| <= phi R ||row_j(T^-1)||_1 and ||s||_2 <= B = sqrt(phi) max_j |s_j|.
3. p is the first prime p = 1 (mod n) above 2^20 for which hat stays
   squarefree modulo P = (p, zeta - w), w a primitive n-th root of unity mod
   p.  P has degree 1, so Z[zeta]/P^k = Z/p^k.  The roots of hat mod P come
   from gcd(hat, t^p - t) and Cantor-Zassenhaus splitting with the shifts
   a = 0, 1, ..., and w and each root are Hensel-lifted to Z/p^k.
4. A root s lifting rho lies in rho + P^k, and P^k is the lattice
   {a : sum_j a_j w_k^j = 0 mod p^k}.  Babai's nearest plane on an
   LLL-reduced basis (A. K. Lenstra, H. W. Lenstra, L. Lovasz, Math. Ann.
   261 (1982); L. Babai, Combinatorica 6 (1986)) returns c in that coset
   with ||c - s||_2 <= (1 + 2^(phi/2)) B.  A nonzero a in P^k has
   p^k | N(a) <= ||a||_1^phi <= (sqrt(phi) ||a||_2)^phi, so k is the least
   with p^(2k) > (phi (1 + 2^(phi/2))^2 B^2)^phi, and then c = s.
5. A candidate c/D is kept only if m(c/D) == 0 exactly, and the factors are
   checked to multiply back to m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .cyclotomic import CycloField, Scalar, cyclotomic_polynomial
from .errors import InputError
from .linalg import Echelon, PreparedSolve, Vec, solve_columns, viadd

# -- dense univariate polynomials over Scalar (ascending coefficients) ---------


def p_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def p_divmod(num, den):
    num = list(num)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [den[0].field.zero] * max(0, len(num) - len(den) + 1)
    inv = den[-1].inverse()
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] * inv
        if c:
            q[k] = c
            for i, d in enumerate(den):
                num[k + i] = num[k + i] - c * d
    return q, p_trim(num)


def p_mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return p_trim(out)


def p_sub(a, b, field):
    n = max(len(a), len(b))
    a = a + [field.zero] * (n - len(a))
    b = b + [field.zero] * (n - len(b))
    return p_trim([x - y for x, y in zip(a, b)])


def p_monic(p):
    inv = p[-1].inverse()
    return [c * inv for c in p]


def p_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = p_divmod(a, b)
        a, b = b, r
    return p_monic(a) if a else a


def p_eea(a, b, field):
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = p_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, p_sub(s0, p_mul(q, s1, field), field)
        t0, t1 = t1, p_sub(t0, p_mul(q, t1, field), field)
    lead = r0[-1].inverse()
    return ([c * lead for c in r0], [c * lead for c in s0], [c * lead for c in t0])


def p_is_squarefree(p, field):
    dp = p_trim([p[i] * field.rational(i) for i in range(1, len(p))])
    g = p_gcd(p, dp)
    return len(g) == 1


# -- roots over Q(zeta_n), found p-adically -------------------------------------

def factor_over_field(coeffs, field: CycloField):
    """Split a monic squarefree polynomial over K = Q(zeta_n) into t - r for
    each root r in K (ordered by the root's residue modulo the chosen prime)
    and the root-free cofactor when its degree is positive, each paired with
    multiplicity 1; coefficients ascend on both ends."""
    d = len(coeffs) - 1
    if d < 0 or coeffs[-1] != field.one:
        raise InputError("factor_over_field: the polynomial is not monic")
    if not p_is_squarefree(coeffs, field):
        raise InputError("factor_over_field: the polynomial is not squarefree")
    n, phi = field.n, field.degree
    # integral roots s = D r of hat(t) = D^d m(t/D), coordinates in Z[zeta]
    den = lcm(*(c.coeffs[-1] for c in coeffs))
    hat = [[a * (den ** (d - i) // c.coeffs[-1]) for a in c.coeffs[:-1]]
           for i, c in enumerate(coeffs)]
    cauchy = 1 + max((sum(map(abs, h)) for h in hat[:-1]), default=0)
    bound_sq = phi * (phi * cauchy * _dual_row_norm(n)) ** 2   # B^2
    p = 2 ** 20
    while True:
        p, w = _split_prime(n, p)
        f = _reduce_mod(hat, [pow(w, j, p) for j in range(phi)], p)
        if _zp_degree(_zp_gcd(f, _zp_derivative(f, p), p)) == 0:
            break
    # p^(2k) > (phi (1 + 2^(phi/2))^2 B^2)^phi, with 2^(phi/2) rounded up
    gap = phi * (1 + _ceil_sqrt(2 ** phi)) ** 2 * bound_sq
    k = 1
    while p ** (2 * k) * gap.denominator ** phi <= gap.numerator ** phi:
        k += 1
    mod, wpow, basis, dd, lam = _padic_lattice(n, p, w, k)
    f_k = _reduce_mod(hat, wpow, mod)
    df_k = _zp_derivative(f_k, mod)
    one = field.one
    roots = []
    for rho in _zp_roots(f, p):
        rho = _hensel(f_k, df_k, rho, mod)
        s = _nearest_plane([rho] + [0] * (phi - 1), basis, dd, lam)
        r = field.scalar([Fraction(x, den) for x in s])
        value = field.zero
        for c in reversed(coeffs):
            value = value * r + c
        if not value:
            roots.append(r)
    factors = [[-r, one] for r in roots]
    cof = list(coeffs)
    for fac in factors:
        cof, _ = p_divmod(cof, fac)
    if len(cof) > 1:
        factors.append(cof)
    prod = [one]
    for fac in factors:
        prod = p_mul(prod, fac, field)
    assert prod == list(coeffs), "factors do not multiply back to the polynomial"
    return [(fac, 1) for fac in factors]


def _ceil_sqrt(x: int) -> int:
    return isqrt(x - 1) + 1


@lru_cache(maxsize=None)
def _dual_row_norm(n: int) -> Fraction:
    """max_j ||row_j(T^-1)||_1 for the trace form T_ij = Tr(zeta^(i+j)) of
    Q(zeta_n) on its power basis."""
    field = CycloField(n)
    phi = field.degree

    def trace(x: Scalar) -> Fraction:
        return sum((x * field.zeta(j)).fractions()[j] for j in range(phi))

    tr = [trace(field.zeta(e)) for e in range(2 * phi - 1)]
    rat = CycloField(1)
    # T is symmetric, so column j of T^-1 is its row j
    solver = PreparedSolve([{i: rat.rational(tr[i + j]) for i in range(phi) if tr[i + j]}
                            for j in range(phi)], phi, rat)
    return max(sum(abs(c.rational_value()) for c in solver.solve({j: rat.one}).values())
               for j in range(phi))


@lru_cache(maxsize=None)
def _split_prime(n: int, after: int):
    """(p, w): the least prime p > after with p = 1 (mod n), and a primitive
    n-th root of unity w modulo p."""
    p = after + 1 + (-after) % n
    while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += n
    prime_divisors = [q for q in range(2, n + 1)
                      if n % q == 0 and all(q % r for r in range(2, q))]
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in prime_divisors):
            return p, w
        g += 1


@lru_cache(maxsize=None)
def _padic_lattice(n: int, p: int, w: int, k: int):
    """(p^k, [w_k^j], LLL basis, dd, lam) for P^k, P = (p, zeta - w):
    w_k is the Hensel lift of w as a root of Phi_n, and P^k is the lattice
    {a : sum_j a_j w_k^j = 0 mod p^k} of coordinate vectors."""
    mod = p ** k
    cyc = [int(c) for c in cyclotomic_polynomial(n)]
    w = _hensel(cyc, _zp_derivative(cyc, mod), w, mod)
    phi = len(cyc) - 1
    wpow = [pow(w, j, mod) for j in range(phi)]
    rows = [[mod] + [0] * (phi - 1)]
    for j in range(1, phi):
        row = [0] * phi
        row[0], row[j] = -wpow[j], 1
        rows.append(row)
    basis, dd, lam = _lll(rows)
    return mod, tuple(wpow), tuple(map(tuple, basis)), tuple(dd), tuple(map(tuple, lam))


def _hensel(f, df, x: int, mod: int) -> int:
    """The root of f modulo mod lifted from the simple root x modulo p by
    Newton's iteration, which doubles the p-adic precision each step."""
    while fx := _zp_eval(f, x, mod):
        x = (x - fx * pow(_zp_eval(df, x, mod), -1, mod)) % mod
    return x


# -- lattice reduction and nearest plane (exact integers) --------------------------
#
# Gram-Schmidt data is kept in integral form (H. Cohen, A Course in
# Computational Algebraic Number Theory, Algorithm 2.6.7): dd[i] is the Gram
# determinant of the first i basis vectors (dd[0] = 1, so ||b*_i||^2 =
# dd[i+1]/dd[i]), and lam[i][j] = dd[j+1] mu_ij for j < i.  Every division
# below is exact.

def _round_div(a: int, b: int) -> int:
    """The integer nearest to a/b (halves round up), b > 0."""
    return (2 * a + b) // (2 * b)


def _gso_row(v, basis, dd, lam):
    """lam_vj for j < len(basis), then the next Gram determinant, of v
    appended to basis."""
    row = []
    for j, b in enumerate(list(basis) + [v]):
        lb = lam[j] if j < len(basis) else row
        u = sum(x * y for x, y in zip(v, b))
        for i in range(j):
            u = (dd[i + 1] * u - row[i] * lb[i]) // dd[i]
        row.append(u)
    return row[:-1], row[-1]


def _size_reduce(v, lv, k, basis, dd, lam):
    """Make |mu_vk| <= 1/2 by subtracting a multiple of basis[k] from v,
    with lv (v's lam row) kept in step."""
    q = _round_div(lv[k], dd[k + 1])
    if q:
        v[:] = [x - q * y for x, y in zip(v, basis[k])]
        lv[k] -= q * dd[k + 1]
        for j in range(k):
            lv[j] -= q * lam[k][j]


def _lll(rows):
    """LLL reduction with delta = 3/4 (Lenstra-Lenstra-Lovasz 1982) of
    linearly independent integer rows, Gram-Schmidt data updated on each
    size reduction and swap.  Returns (basis, dd, lam)."""
    b, dd, lam = [], [1], []
    for v in rows:
        row, det = _gso_row(v, b, dd, lam)
        b.append(list(v))
        lam.append(row)
        dd.append(det)
    k = 1
    while k < len(b):
        _size_reduce(b[k], lam[k], k - 1, b, dd, lam)
        m = lam[k][k - 1]
        # Lovasz: ||b*_k||^2 < (3/4 - mu^2) ||b*_{k-1}||^2
        if 4 * dd[k + 1] * dd[k - 1] < 3 * dd[k] ** 2 - 4 * m * m:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            big = (dd[k - 1] * dd[k + 1] + m * m) // dd[k]
            for i in range(k + 1, len(b)):
                t = lam[i][k]
                lam[i][k] = (dd[k + 1] * lam[i][k - 1] - m * t) // dd[k]
                lam[i][k - 1] = (big * t + m * lam[i][k]) // dd[k + 1]
            dd[k] = big
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                _size_reduce(b[k], lam[k], j, b, dd, lam)
            k += 1
    return b, dd, lam


def _nearest_plane(target, basis, dd, lam):
    """Babai's nearest-plane residual target - v, v the lattice vector the
    reduced basis puts nearest to target: target size-reduced against the
    basis from the last vector down."""
    t = list(target)
    lt, _ = _gso_row(t, basis, dd, lam)
    for k in range(len(basis) - 1, -1, -1):
        _size_reduce(t, lt, k, basis, dd, lam)
    return t


# -- dense univariate polynomials over Z/mZ (ascending int coefficients) ----------

def _zp_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _zp_degree(a) -> int:
    return len(a) - 1


def _zp_eval(f, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % mod
    return acc


def _zp_derivative(f, mod: int):
    return _zp_trim([i * f[i] % mod for i in range(1, len(f))])


def _reduce_mod(hat, wpow, mod: int):
    """The coordinate polynomial hat with zeta sent to w (wpow = [w^j])."""
    return _zp_trim([sum(c * x for c, x in zip(h, wpow)) % mod for h in hat])


def _zp_divmod(a, f, p: int):
    """(quotient, remainder) of a by a monic f over F_p."""
    a = [c % p for c in a]
    df = len(f) - 1
    q = [0] * max(len(a) - df, 0)
    for top in range(len(a) - 1, df - 1, -1):
        c = a[top]
        if c:
            q[top - df] = c
            for i in range(df + 1):
                a[top - df + i] = (a[top - df + i] - c * f[i]) % p
    return q, _zp_trim(a[:df])


def _zp_monic(a, p: int):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _zp_gcd(a, b, p: int):
    """Monic gcd over F_p."""
    a, b = _zp_trim(list(a)), _zp_trim(list(b))
    while b:
        b = _zp_monic(b, p)
        a, b = b, _zp_divmod(a, b, p)[1]
    return _zp_monic(a, p) if a else a


def _zp_mulmod(a, b, f, p: int):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _zp_divmod(out, f, p)[1]


def _zp_powmod(a, e: int, f, p: int):
    out, a = [1], _zp_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _zp_mulmod(out, a, f, p)
        a = _zp_mulmod(a, a, f, p)
        e >>= 1
    return out


def _zp_roots(f, p: int):
    """The roots in F_p of a monic squarefree f, ascending: the linear part
    gcd(f, t^p - t), split by Cantor-Zassenhaus with the shifts a = 0, 1, ...
    (gcd with (t + a)^((p-1)/2) - 1), so the result is deterministic."""
    tp = _zp_powmod([0, 1], p, f, p)
    tp += [0] * (2 - len(tp))
    tp[1] = (tp[1] - 1) % p
    roots = []
    stack = [_zp_gcd(f, _zp_trim(tp), p)]
    while stack:
        g = stack.pop()
        if _zp_degree(g) == 1:
            roots.append(-g[0] % p)
        if _zp_degree(g) <= 1:
            continue
        a = 0
        while True:
            h = _zp_powmod([a, 1], (p - 1) // 2, g, p) or [0]
            h[0] = (h[0] - 1) % p
            h = _zp_gcd(g, _zp_trim(h), p)
            if 0 < _zp_degree(h) < _zp_degree(g):
                break
            a += 1
        stack += [h, _zp_divmod(g, h, p)[0]]
    return sorted(roots)


# -- commutative algebra splitting ------------------------------------------------

class CommAlgebra:
    """A commutative unital algebra given by a coordinate mult callback."""

    def __init__(self, field: CycloField, dim: int, mul, unit: Vec):
        self.field = field
        self.dim = dim
        self.mul = mul
        self.unit = dict(unit)

    def minpoly_rel(self, e: Vec, x: Vec):
        """Monic minimal polynomial of x acting on the unital piece eA (i.e.
        with local unit e), ascending coefficients."""
        ech = Echelon()
        powers = [dict(e)]
        ech.add(e)
        cur = dict(e)
        while True:
            cur = self.mul(cur, x)
            if ech.contains(cur):
                break
            ech.add(cur)
            powers.append(dict(cur))
        sol = solve_columns(powers, cur, self.field)
        assert sol is not None, "power fell outside its own Krylov span"
        coeffs = [-(sol.get(k, self.field.zero)) for k in range(len(powers))]
        coeffs.append(self.field.one)
        return coeffs

    def eval_poly_rel(self, e: Vec, p, x: Vec) -> Vec:
        """p(x) inside eA, with e as the local unit."""
        out: Vec = {}
        cur = dict(e)
        for k, c in enumerate(p):
            if k > 0:
                cur = self.mul(cur, x)
            viadd(out, c, cur)
        return out

    def local_dim(self, e: Vec) -> int:
        ech = Echelon()
        for i in range(self.dim):
            ech.add(self.mul(e, {i: self.field.one}))
        return ech.rank


def primitive_idempotents(alg: CommAlgebra):
    """The pieces as (idempotent Vec, local dimension), in a deterministic
    order: every 1-dimensional piece, and the root-free remainders of
    dimension > 1.  Raises InputError on non-semisimple input."""
    field = alg.field
    candidates = [{i: field.one} for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            candidates.append({**{i: field.one}, j: field.one})

    def split_once(e: Vec):
        for cand in candidates:
            x = alg.mul(e, cand)
            minpoly = alg.minpoly_rel(e, x)
            if len(minpoly) - 1 < 2:
                continue
            try:  # minpoly is monic, so only a square factor is refused
                factors = factor_over_field(minpoly, field)
            except InputError:
                raise InputError("algebra is not semisimple "
                                 "(non-squarefree minimal polynomial)") from None
            if len(factors) < 2:
                continue
            parts = []
            for fac, _ in factors:
                cof, _ = p_divmod(minpoly, fac)
                # CRT projector: cof * (cof^{-1} mod fac), evaluated at x
                g, u, _ = p_eea(cof, fac, field)
                if len(g) != 1:
                    raise InputError("inseparable factor while splitting")
                inv0 = g[0].inverse()
                proj = p_mul(cof, [c * inv0 for c in u], field)
                parts.append(alg.eval_poly_rel(e, proj, x))
            return parts
        return None

    done = []
    queue = [dict(alg.unit)]
    while queue:
        e = queue.pop(0)
        d = alg.local_dim(e)
        parts = split_once(e) if d > 1 else None
        if parts is None:
            done.append((e, d))
        else:
            queue.extend(parts)
    done.sort(key=lambda pair: (min(pair[0]), _vec_key(pair[0])))
    for e, d in done:
        if alg.mul(e, e) != e:
            raise InputError("splitting produced a non-idempotent (non-semisimple input)")
    return done


def _vec_key(v: Vec):
    return tuple((k, v[k].literal()) for k in sorted(v))


def field_characters(alg: CommAlgebra):
    """All algebra characters into the base field, one per 1-dimensional
    piece: (idempotent e, [chi(e_0), ..., chi(e_{dim-1})]) in the order of
    ``primitive_idempotents``."""
    field = alg.field
    out = []
    for e, d in primitive_idempotents(alg):
        if d != 1:
            continue
        lead = min(e)
        inv = e[lead].inverse()
        chi = []
        for i in range(alg.dim):
            v = alg.mul({i: field.one}, e)
            chi.append(v.get(lead, field.zero) * inv)
        out.append((e, chi))
    return out
