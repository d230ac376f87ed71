"""Finite-dimensional Hopf *-algebras by structure constants, and the one
checker of the *-algebra and coaction axioms.

Everything is an explicit matrix or structure tensor over a cyclotomic field.
The generators produce the function algebra C(G) and the group algebra C[G]
of a finite group table, together with the dual central idempotents of their
irreducible corepresentations, used for isotypic decompositions.

GradedStarAlgebra is the one implementation of a unital *-algebra truncated
at degree BUDGET, with or without d: the memoized basis product and its
support, mul, d and star, and ``add_axiom_records``, the algebra axioms on
basis elements (associativity, unit, star involutive and graded
antimultiplicative, then d^2 = 0, Leibniz and d hermitian).  StarAlgebra is
its degree-0 case without d, with products read from a table: A, B and V;
Omega(M), Gamma^ and Omega(P) are the graded subclasses.

graded_tensor_mul, graded_tensor_star and graded_tensor_d are the product,
the componentwise star and d of a graded tensor product of two of them, and
``add_coaction_records`` checks a map f: W -> W (x) H over such products:
unital and multiplicative, hermitian, intertwining d, the comodule law and
the counit law.  It serves phi on A (validate_hopf), the adjoint action,
F on B (bundle.build_bundle), phi^ on Gamma^ (fodc.GammaEnvelope) and F^ on
Omega(P) (calculus.differential_suite).  Both checkers write records whose
(identity id, label) pairs the caller passes; a caller that rejects input
passes a report.RaisingReport, which raises at the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import CycloField, Scalar
from .errors import DegreeBudget, InputError, NoHaar, NonUnique, ValidationFailed
from .linalg import (
    BasedSpace, LinearMap, Vec, nullspace_of_columns, tensor_labels,
    viadd, viadd_term, vscale,
)
from .report import RaisingReport, ValidationReport, failing, passing
from .tensor import Factor, TProd

BUDGET = 2  # top degree kept by every graded algebra and tensor product


def basis_witness(space: BasedSpace, i: int) -> dict:
    """A failure witness at basis element i: its index and its label."""
    return {"basis_index": i, "basis_label": space.labels[i]}


def table_mul(table, u: Vec, v: Vec) -> Vec:
    """The bilinear product with basis products ``table[i][j]``."""
    out: Vec = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            if row[j]:
                viadd(out, a * b, row[j])
    return out


def _record(rep: ValidationReport, ident, witnesses) -> None:
    """Record identity ``ident`` = (id, label): failing with the first witness
    that ``witnesses`` yields, else passing.  Nothing is computed when
    ``ident`` is None, since ``witnesses`` is a generator not yet started."""
    if ident is not None:
        bad = next(witnesses, None)
        rep.add(failing(*ident, bad) if bad else passing(*ident))


def algebra_ids(prefix: str) -> tuple:
    """The (identity id, label) pairs of the *-algebra axioms of an algebra
    without d, under ``prefix``."""
    return ((f"{prefix}.assoc", "associativity"), (f"{prefix}.unit", "unit laws"),
            (f"{prefix}.star-invol", "star involutive"),
            (f"{prefix}.star-antimult", "(ab)* = b*a*"), None, None, None)


# the axioms as check_axioms states them when one fails
_AXIOM_FAILURES = (("assoc", "product not associative"), ("unit", "unit fails"),
                   ("star-invol", "star not involutive"),
                   ("star-antimult", "star not graded-antimultiplicative"),
                   ("d-square", "d^2 != 0"), ("leibniz", "Leibniz fails"),
                   ("d-star", "d not hermitian"))


class GradedStarAlgebra:
    """Unital graded *-algebra, with or without a differential, truncated at
    degree BUDGET.

    A subclass sets ``star`` (an antilinear LinearMap) and, if it has a
    differential, ``d_cols`` (d of each basis element, None where it would
    leave the budget), and defines ``_product(i, j)``, the product of two
    basis elements whose degrees add up to at most BUDGET.  Each such product
    is computed once.
    """

    star: LinearMap
    d_cols: list | None = None

    def __init__(self, name: str, field: CycloField, space: BasedSpace, degrees,
                 unit: Vec):
        self.name = name
        self.field = field
        self.space = space
        self.dim = space.dim
        self.degrees = tuple(degrees)
        self.unit = dict(unit)
        self._products: dict = {}

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def mul_basis(self, i: int, j: int) -> Vec:
        out = self._products.get((i, j))
        if out is None:
            if self.degrees[i] + self.degrees[j] > BUDGET:
                raise DegreeBudget(f"product exceeds the degree budget in {self.name}")
            out = self._products[i, j] = self._product(i, j)
        return out

    @cached_property
    def support(self) -> list:
        """support[i]: the j with e_i e_j != 0 and degrees within the budget."""
        deg = self.degrees
        return [frozenset(j for j in range(self.dim)
                          if deg[i] + deg[j] <= BUDGET and self.mul_basis(i, j))
                for i in range(self.dim)]

    def mul(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                p = self.mul_basis(i, j)
                if p:
                    viadd(out, a * b, p)
        return out

    def d_apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, c in v.items():
            col = self.d_cols[i]
            if col is None:
                raise DegreeBudget(f"d beyond the degree budget in {self.name}")
            viadd(out, c, col)
        return out

    def star_vec(self, v: Vec) -> Vec:
        return self.star.apply(v)

    def add_axiom_records(self, rep: ValidationReport, ids) -> None:
        """Record the axioms on basis elements, wherever both sides stay
        within the budget: associativity, unit, star involutive, star graded
        antimultiplicative, d^2 = 0, Leibniz and d hermitian.  ``ids`` holds
        their seven (identity id, label) pairs; the d identities are None
        for an algebra without d, and an identity that is None is not
        computed."""
        assoc, unit, invol, antimult, d_square, leibniz, d_star = ids
        one = self.field.one
        deg, n, space, star = self.degrees, self.dim, self.space, self.star.cols
        e = [{i: one} for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if deg[i] + deg[j] <= BUDGET]

        def differ(key, at, lhs, rhs):
            return {key: list(at), "lhs": space.render(lhs), "rhs": space.render(rhs)}

        def assoc_failures():
            for i, j in pairs:
                for k in range(n):
                    if deg[i] + deg[j] + deg[k] <= BUDGET:
                        lhs = self.mul(self.mul_basis(i, j), e[k])
                        rhs = self.mul(e[i], self.mul_basis(j, k))
                        if lhs != rhs:
                            yield differ("basis_triple", (i, j, k), lhs, rhs)

        def antimult_failures():
            for i, j in pairs:
                lhs = self.star_vec(self.mul_basis(i, j))
                rhs = self.mul(star[j], star[i])
                if deg[i] * deg[j] % 2:
                    rhs = vscale(-one, rhs)
                if lhs != rhs:
                    yield differ("basis_pair", (i, j), lhs, rhs)

        def leibniz_failures():
            for i, j in pairs:
                if deg[i] + deg[j] < BUDGET:
                    lhs = self.d_apply(self.mul_basis(i, j))
                    rhs = self.mul(self.d_cols[i], e[j])
                    viadd(rhs, -one if deg[i] % 2 else one, self.mul(e[i], self.d_cols[j]))
                    if lhs != rhs:
                        yield differ("basis_pair", (i, j), lhs, rhs)

        _record(rep, assoc, assoc_failures())
        _record(rep, unit, (basis_witness(space, i) for i in range(n)
                            if self.mul(self.unit, e[i]) != e[i]
                            or self.mul(e[i], self.unit) != e[i]))
        _record(rep, invol, (basis_witness(space, i) for i in range(n)
                             if self.star_vec(star[i]) != e[i]))
        _record(rep, antimult, antimult_failures())
        _record(rep, d_square, (basis_witness(space, i) for i in range(n)
                                if deg[i] + 2 <= BUDGET and self.d_apply(self.d_cols[i])))
        _record(rep, leibniz, leibniz_failures())
        _record(rep, d_star, (basis_witness(space, i) for i in range(n) if deg[i] < BUDGET
                              and self.d_apply(star[i]) != self.star_vec(self.d_cols[i])))

    def check_axioms(self) -> None:
        """Raise ValidationFailed naming the algebra at the first axiom that
        fails."""
        self.add_axiom_records(RaisingReport(ValidationFailed, f"{self.name}: "),
                               _AXIOM_FAILURES)


class StarAlgebra(GradedStarAlgebra):
    """Unital associative *-algebra given by a rank-3 structure tensor: the
    degree-0 case of GradedStarAlgebra, without d, whose products are read
    from the table."""

    def __init__(self, name: str, field: CycloField, space: BasedSpace,
                 mult, unit: Vec, star: LinearMap):
        super().__init__(name, field, space, (0,) * space.dim, unit)
        self.mult = mult  # mult[i][j] -> Vec, the product e_i e_j
        # support[i]: the j with e_i e_j != 0
        self.support = [frozenset(j for j, p in enumerate(row) if p) for row in mult]
        self.star = star  # antilinear LinearMap
        if not star.antilinear:
            raise InputError("star map must be antilinear")

    def mul(self, u: Vec, v: Vec) -> Vec:
        return table_mul(self.mult, u, v)

    def mul_basis(self, i: int, j: int) -> Vec:
        return self.mult[i][j]

    def left_mult_map(self, v: Vec) -> LinearMap:
        cols = [self.mul(v, {j: self.field.one}) for j in range(self.dim)]
        return LinearMap(self.space, self.space, cols, self.field)

    def right_mult_map(self, v: Vec) -> LinearMap:
        cols = [self.mul({j: self.field.one}, v) for j in range(self.dim)]
        return LinearMap(self.space, self.space, cols, self.field)

    def is_commutative(self):
        """None if commutative, else a witness basis pair (i, j)."""
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mult[i][j] != self.mult[j][i]:
                    return (i, j)
        return None


# -- graded tensor products of two algebras -------------------------------------
#
# tp is a TProd whose two factors are the spaces of ``left`` and ``right``.

def graded_tensor_mul(tp: TProd, left: GradedStarAlgebra, right: GradedStarAlgebra,
                      u: Vec, v: Vec) -> Vec:
    """Product of u and v in the graded tensor product tp of ``left`` and
    ``right``: (x (x) y)(p (x) q) = (-1)^{|y||p|} xp (x) yq."""
    one = tp.field.one
    v_terms = [(tp.tuples[iv], cv) for iv, cv in tp.lift(v).items()]
    out: Vec = {}
    for iu, cu in tp.lift(u).items():
        x, y = tp.tuples[iu]
        dy = right.degree(y)
        for (p, q), cv in v_terms:
            xp = left.mul_basis(x, p)
            if not xp:
                continue
            yq = right.mul_basis(y, q)
            if not yq:
                continue
            c0 = cu * cv * (-one if (dy * left.degree(p)) % 2 else one)
            for k1, c1 in xp.items():
                for k2, c2 in yq.items():
                    viadd_term(out, tp.flat_index((k1, k2)), c0 * c1 * c2)
    return tp.project(out)


def graded_tensor_star(tp: TProd, left: GradedStarAlgebra, right: GradedStarAlgebra,
                       v: Vec) -> Vec:
    """The componentwise star (x (x) y)* = x* (x) y*, antilinear and with no
    Koszul sign: the convention under which d and every coaction here are
    hermitian."""
    out: Vec = {}
    for fi, c in tp.lift(v).items():
        x, y = tp.tuples[fi]
        c = c.conj()
        for x2, cx in left.star.cols[x].items():
            for y2, cy in right.star.cols[y].items():
                viadd_term(out, tp.flat_index((x2, y2)), c * cx * cy)
    return tp.project(out)


def graded_tensor_d(tp: TProd, left: GradedStarAlgebra, right: GradedStarAlgebra,
                    v: Vec) -> Vec:
    """d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy, with the terms that leave
    the budget dropped."""
    out: Vec = {}
    index = tp.tuple_index
    for fi, c in tp.lift(v).items():
        x, y = tp.tuples[fi]
        if left.d_cols[x] is not None:
            for k, ck in left.d_cols[x].items():
                t = index.get((k, y))
                if t is not None:
                    viadd_term(out, t, c * ck)
        if right.d_cols[y] is not None:
            cs = -c if left.degree(x) % 2 else c
            for k, ck in right.d_cols[y].items():
                t = index.get((x, k))
                if t is not None:
                    viadd_term(out, t, cs * ck)
    return tp.project(out)


def _legs(m: LinearMap, tp: TProd) -> list:
    """The flat terms (tuple, coefficient) of each column of m, a map into tp."""
    return [[(tp.tuples[fi], c) for fi, c in tp.lift(col).items()] for col in m.cols]


def add_coaction_records(rep: ValidationReport, ids, name: str,
                         w: GradedStarAlgebra, f: LinearMap, wh: TProd,
                         h: GradedStarAlgebra, phi: LinearMap, hh: TProd,
                         eps_basis) -> None:
    """Record that f: W -> W (x) H is a unital *-homomorphism and a right
    coaction of the coalgebra (H, phi, eps).

    f maps into the graded tensor product ``wh`` and phi into ``hh``;
    ``eps_basis(a)`` is the counit on basis element a.  ``ids`` holds the
    (identity id, label) of mult (f unital and multiplicative), star (f
    hermitian for the componentwise star), d (f intertwines d, for W and H
    with d), comodule ((f (x) id)f = (id (x) phi)f) and counit
    ((id (x) eps)f = id, and (eps (x) id)f = id when f is phi); an identity
    that is None is not computed.  ``name`` names f in the witness of a unit
    failure.  H has no coefficient action, so W (x) H (x) H is free and the
    comodule law compares flat tuples.
    """
    mult, star, d, comodule, counit = ids
    one = w.field.one
    n, deg, space = w.dim, w.degrees, w.space
    if comodule is not None or counit is not None:
        f_legs = _legs(f, wh)

    def mult_failures():
        unit = {wh.flat_index((i, a)): ci * ca
                for i, ci in w.unit.items() for a, ca in h.unit.items()}
        if f.apply(w.unit) != wh.project(unit):
            yield {"reason": f"{name}(1) != 1(x)1"}
        for i in range(n):
            for j in range(n):
                if deg[i] + deg[j] <= BUDGET and f.apply(w.mul_basis(i, j)) != \
                        graded_tensor_mul(wh, w, h, f.cols[i], f.cols[j]):
                    yield {"basis_pair": [i, j]}

    def comodule_failures():
        phi_legs = f_legs if phi is f else _legs(phi, hh)
        for i in range(n):
            lhs: Vec = {}
            rhs: Vec = {}
            for (x, a), c in f_legs[i]:
                for (x2, a1), c2 in f_legs[x]:
                    viadd_term(lhs, (x2, a1, a), c * c2)
                for (a1, a2), c2 in phi_legs[a]:
                    viadd_term(rhs, (x, a1, a2), c * c2)
            if lhs != rhs:
                yield basis_witness(space, i)

    def counit_failures():
        for i in range(n):
            right: Vec = {}
            left: Vec = {}
            for (x, a), c in f_legs[i]:
                viadd_term(right, x, c * eps_basis(a))
                if f is phi:
                    viadd_term(left, a, c * eps_basis(x))
            if right != {i: one} or (f is phi and left != {i: one}):
                yield basis_witness(space, i)

    _record(rep, mult, mult_failures())
    _record(rep, star, (basis_witness(space, i) for i in range(n)
                        if f.apply(w.star.cols[i])
                        != graded_tensor_star(wh, w, h, f.cols[i])))
    _record(rep, d, (basis_witness(space, i) for i in range(n)
                     if w.d_cols[i] is not None
                     and f.apply(w.d_cols[i]) != graded_tensor_d(wh, w, h, f.cols[i])))
    _record(rep, comodule, comodule_failures())
    _record(rep, counit, counit_failures())


class HopfStarAlgebra:
    """Hopf *-algebra with an optional normalized two-sided Haar integral."""

    def __init__(self, algebra: StarAlgebra, coproduct: LinearMap, counit: LinearMap,
                 antipode: LinearMap, haar: LinearMap | None = None,
                 corepresentations=None):
        self.algebra = algebra
        self.field = algebra.field
        self.space = algebra.space
        self.coproduct = coproduct
        self.counit = counit  # LinearMap A -> 1-dim space
        self.antipode = antipode
        self.antipode_inverse = antipode.inverse()
        self.haar = haar
        self.corepresentations = corepresentations
        # Sweedler triples phi(e_i) = sum_c (j, k, c) e_j (x) e_k
        dim = self.dim
        self._sweedler = []
        for i in range(dim):
            terms = []
            for idx, c in sorted(coproduct.cols[i].items()):
                terms.append((idx // dim, idx % dim, c))
            self._sweedler.append(terms)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    # -- basic maps -----------------------------------------------------

    def phi(self, v: Vec) -> Vec:
        return self.coproduct.apply(v)

    def sweedler(self, i: int):
        return self._sweedler[i]

    def eps(self, v: Vec) -> Scalar:
        out = self.counit.apply(v)
        return out.get(0, self.field.zero)

    def eps_basis(self, i: int) -> Scalar:
        return self.counit.cols[i].get(0, self.field.zero)

    def kappa(self, v: Vec) -> Vec:
        return self.antipode.apply(v)

    def haar_of(self, v: Vec) -> Scalar:
        if self.haar is None:
            raise InputError("no Haar functional available")
        return self.haar.apply(v).get(0, self.field.zero)

    def mul(self, u: Vec, v: Vec) -> Vec:
        return self.algebra.mul(u, v)

    @property
    def unit(self) -> Vec:
        return self.algebra.unit

    def star_vec(self, v: Vec) -> Vec:
        return self.algebra.star_vec(v)

    @cached_property
    def square(self) -> TProd:
        """A (x) A, the free product whose space the coproduct maps into."""
        factor = Factor.ungraded(self.space)
        return TProd(self.field, (factor, factor), name="A(x)A")

    def phi2_basis(self, i: int):
        """Triples (j, k, l, c) of (phi (x) id)phi(e_i)."""
        out = []
        for j, k, c in self._sweedler[i]:
            for j1, j2, c1 in self._sweedler[j]:
                out.append((j1, j2, k, c * c1))
        return out

    def is_commutative(self):
        return self.algebra.is_commutative()


# -- validation ---------------------------------------------------------------

def validate_hopf(h: HopfStarAlgebra) -> ValidationReport:
    """Check every Hopf *-algebra axiom on basis elements; failures carry a
    basis-indexed witness."""
    rep = ValidationReport()
    field, dim = h.field, h.dim
    one = field.one
    h.algebra.add_axiom_records(rep, algebra_ids("hopf.algebra"))
    add_coaction_records(
        rep, (("hopf.phi-hom", "phi multiplicative and unital"),
              ("hopf.phi-star", "phi(a*) = phi(a)^(*(x)*)"), None,
              ("hopf.coassoc", "coassociativity"),
              ("hopf.counit-law", "(eps (x) id)phi = id = (id (x) eps)phi")),
        "phi", h.algebra, h.coproduct, h.square, h.algebra, h.coproduct, h.square,
        h.eps_basis)

    def record(ident, label, bad):
        rep.add(failing(ident, label, bad) if bad else passing(ident, label))

    # counit is a *-homomorphism
    bad = None
    if h.eps(h.unit) != one:
        bad = {"reason": "eps(1) != 1"}
    else:
        for i in range(dim):
            for j in range(dim):
                if h.eps(h.algebra.mult[i][j]) != h.eps_basis(i) * h.eps_basis(j):
                    bad = {"basis_pair": [i, j]}
                    break
            if bad:
                break
        if bad is None:
            for i in range(dim):
                if h.eps(h.star_vec({i: one})) != h.eps_basis(i).conj():
                    bad = {**basis_witness(h.space, i),
                           "reason": "eps(a*) != conj(eps(a))"}
                    break
    record("hopf.eps-hom", "eps is a *-homomorphism", bad)

    # antipode axiom
    bad = None
    for i in range(dim):
        acc1: Vec = {}
        acc2: Vec = {}
        for j_, k_, c in h.sweedler(i):
            viadd(acc1, c, h.mul(h.kappa({j_: one}), {k_: one}))
            viadd(acc2, c, h.mul({j_: one}, h.kappa({k_: one})))
        target = vscale(h.eps_basis(i), h.unit)
        if acc1 != target or acc2 != target:
            bad = {**basis_witness(h.space, i),
                   "m(kappa(x)id)phi": h.space.render(acc1),
                   "m(id(x)kappa)phi": h.space.render(acc2),
                   "eps(a)1": h.space.render(target)}
            break
    record("hopf.antipode", "m(kappa (x) id)phi = eps(.)1 = m(id (x) kappa)phi", bad)

    # kappa invertible and Hopf-* condition kappa(kappa(a*)*) = a
    bad = None
    if h.antipode_inverse.compose(h.antipode) != LinearMap.identity(h.space, field):
        bad = {"reason": "kappa^-1 . kappa != id"}
    record("hopf.antipode-inv", "kappa invertible", bad)
    bad = None
    for i in range(dim):
        v = h.kappa(h.star_vec(h.kappa(h.star_vec({i: one}))))
        if v != {i: one}:
            bad = basis_witness(h.space, i)
            break
    record("hopf.star-antipode", "kappa(kappa(a*)*) = a", bad)

    # Haar, if present
    if h.haar is not None:
        bad = None
        if h.haar_of(h.unit) != one:
            bad = {"reason": "h(1) != 1"}
        else:
            for i in range(dim):
                left: Vec = {}
                right: Vec = {}
                for j_, k_, c in h.sweedler(i):
                    viadd_term(left, j_, c * h.haar_of({k_: one}))
                    viadd_term(right, k_, c * h.haar_of({j_: one}))
                target = vscale(h.haar_of({i: one}), h.unit)
                if left != target or right != target:
                    bad = basis_witness(h.space, i)
                    break
        record("hopf.haar-invariance", "(id (x) h)phi = h(.)1 = (h (x) id)phi", bad)

    return rep


# -- Haar computation ----------------------------------------------------------

def compute_haar(h: HopfStarAlgebra) -> LinearMap:
    """Solve the two-sided invariance system; the solution space must be
    1-dimensional and normalizable by h(1) = 1."""
    field, dim = h.field, h.dim
    # unknowns x_0..x_{dim-1} = h(e_i); equations per basis a and component r:
    #   sum_{(j,k,c) in phi(a), j==r} c x_k = x_a * unit_r   (right invariance)
    #   sum_{(j,k,c) in phi(a), k==r} c x_j = x_a * unit_r   (left invariance)
    cols: list[Vec] = [dict() for _ in range(dim)]  # columns of the equation matrix
    row_no = 0
    for i in range(dim):
        rows_r: dict[int, Vec] = {}
        rows_l: dict[int, Vec] = {}
        for j, k, c in h.sweedler(i):
            rows_r.setdefault(j, {})
            rows_r[j][k] = rows_r[j].get(k, field.zero) + c
            rows_l.setdefault(k, {})
            rows_l[k][j] = rows_l[k].get(j, field.zero) + c
        for r in range(dim):
            for rows in (rows_r, rows_l):
                row = dict(rows.get(r, {}))
                u = h.unit.get(r)
                if u:
                    row[i] = row.get(i, field.zero) - u
                row = {k: v for k, v in row.items() if v}
                for k, v in row.items():
                    cols[k][row_no] = v
                row_no += 1
    ker = nullspace_of_columns(cols, field)
    if not ker:
        raise NoHaar("invariance system has no nonzero solution")
    if len(ker) > 1:
        raise NonUnique(f"invariant functionals form a {len(ker)}-dimensional space")
    sol = ker[0]
    norm = field.zero
    for i, u in h.unit.items():
        norm = norm + u * sol.get(i, field.zero)
    if not norm:
        raise NoHaar("invariant functional vanishes on the unit")
    inv = norm.inverse()
    out_space = BasedSpace(("1",))
    cols_h = [{0: inv * sol[i]} if i in sol else {} for i in range(dim)]
    return LinearMap(h.space, out_space, cols_h, field)


# -- adjoint action -------------------------------------------------------------

def adjoint_action(h: HopfStarAlgebra) -> LinearMap:
    """ad(a) = a^(2) (x) kappa(a^(1)) a^(3), verified to be a right coaction."""
    field, dim = h.field, h.dim
    one = field.one
    cols = []
    for i in range(dim):
        out: Vec = {}
        for j1, j2, k, c in h.phi2_basis(i):
            prod = h.mul(h.kappa({j1: one}), {k: one})
            for t, ct in prod.items():
                viadd_term(out, j2 * dim + t, c * ct)
        cols.append(out)
    ad = LinearMap(h.space, h.coproduct.codomain, cols, field)
    add_coaction_records(
        RaisingReport(ValidationFailed, "adjoint action: "),
        (None, None, None, ("ad.comodule", "(ad (x) id)ad != (id (x) phi)ad"),
         ("ad.counit", "(id (x) eps)ad != id")),
        "ad", h.algebra, ad, h.square, h.algebra, h.coproduct, h.square, h.eps_basis)
    return ad


# -- group tables and generators -------------------------------------------------

@dataclass
class GroupTable:
    name: str
    order: int
    mult: list        # mult[i][j] = index of g_i g_j
    identity: int
    inverse: list
    element_names: list

    @classmethod
    def build(cls, name: str, mult: list, element_names=None) -> "GroupTable":
        order = len(mult)
        if any(len(row) != order for row in mult):
            raise InputError("multiplication table is not square")
        identity = None
        for e in range(order):
            if all(mult[e][x] == x and mult[x][e] == x for x in range(order)):
                identity = e
                break
        if identity is None:
            raise InputError("group table has no identity")
        inverse = [None] * order
        for x in range(order):
            for y in range(order):
                if mult[x][y] == identity and mult[y][x] == identity:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise InputError(f"element {x} has no inverse")
        for x in range(order):
            for y in range(order):
                for z in range(order):
                    if mult[mult[x][y]][z] != mult[x][mult[y][z]]:
                        raise InputError("group table is not associative")
        if element_names is None:
            element_names = [f"g{i}" for i in range(order)]
        return cls(name, order, mult, identity, inverse, list(element_names))


def cyclic_group(n: int) -> GroupTable:
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [f"r{i}" for i in range(n)]
    return GroupTable.build(f"Z{n}", mult, names)


def symmetric_group_3() -> GroupTable:
    # permutations of (0,1,2); fixed element order: e, s, sr, sr2, r, r2
    # with r = (0 1 2) cycle and s = transposition (0 1)
    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(3))

    e = (0, 1, 2)
    r = (1, 2, 0)
    r2 = compose(r, r)
    s = (1, 0, 2)
    elems = [e, s, compose(s, r), compose(s, r2), r, r2]
    names = ["e", "s", "sr", "sr2", "r", "r2"]
    index = {p: i for i, p in enumerate(elems)}
    mult = [[index[compose(p, q)] for q in elems] for p in elems]
    return GroupTable.build("S3", mult, names)


def trivial_group() -> GroupTable:
    return GroupTable.build("1", [[0]], ["e"])


def named_group(name: str) -> GroupTable:
    key = name.upper()
    if key in ("1", "TRIVIAL"):
        return trivial_group()
    if key.startswith("Z") and key[1:].isdigit():
        return cyclic_group(int(key[1:]))
    if key == "S3":
        return symmetric_group_3()
    raise InputError(f"unknown group {name!r}")


def group_conductor(t: GroupTable) -> int:
    """Smallest conductor whose field contains all needed roots of unity
    (mu_e is in Q(zeta_n) iff e divides lcm(2, n))."""
    if t.name == "S3":
        return 3  # integer characters; zeta_3 for the 2-dim irrep matrices
    e = 1
    for x in range(t.order):
        e = _lcm(e, _element_order(t, x))
    if e <= 2:
        return 1
    if e % 4 == 2:
        return e // 2
    return e


def _element_order(t: GroupTable, x: int) -> int:
    k, y = 1, x
    while y != t.identity:
        y = t.mult[y][x]
        k += 1
    return k


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


@dataclass
class Corepresentation:
    """Irreducible corepresentation data for isotypic decompositions.

    ``functional`` is the dual central idempotent e_alpha as coefficients over
    the Hopf algebra basis: the isotypic projector is (id (x) e_alpha) o F.
    """
    name: str
    dim: int
    functional: list


def _s3_irreps(field: CycloField):
    """The 1+1+2 irreducible representation set of S3; the 2-dimensional
    irrep is realized with entries in Q(zeta_3)."""
    z = field.root_of_unity(3)
    one, zero = field.one, field.zero
    # element order: e, s, sr, sr2, r, r2
    triv = [[[one]] for _ in range(6)]
    sgn = [[[one]], [[-one]], [[-one]], [[-one]], [[one]], [[one]]]
    rm = [[z, zero], [zero, z * z]]
    sm = [[zero, one], [one, zero]]

    def mm(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
                for i in range(2)]

    em = [[one, zero], [zero, one]]
    two = [em, sm, mm(sm, rm), mm(sm, mm(rm, rm)), rm, mm(rm, rm)]
    return [("triv", 1, triv), ("sgn", 1, sgn), ("std", 2, two)]


def _abelian_irreps(t: GroupTable, field: CycloField):
    """All characters of an abelian group: homomorphisms G -> mu_e, found by
    brute force over exponent tuples (group orders here are tiny)."""
    n = t.order
    exps = 1
    for x in range(n):
        exps = _lcm(exps, _element_order(t, x))
    root = field.root_of_unity(exps)
    powers = [field.one]
    for _ in range(exps - 1):
        powers.append(powers[-1] * root)
    from itertools import product as iproduct
    chars = []
    for tup in iproduct(range(exps), repeat=n):
        if tup[t.identity] != 0:
            continue
        if all((tup[x] + tup[y]) % exps == tup[t.mult[x][y]]
               for x in range(n) for y in range(n)):
            chars.append(tup)
    assert len(chars) == n, "abelian group must have |G| characters"
    chars.sort()
    return [(f"chi{idx}", 1, [[[powers[tup[x]]]] for x in range(n)])
            for idx, tup in enumerate(chars)]


def _irreps_for(t: GroupTable, field: CycloField):
    if t.name == "S3":
        return _s3_irreps(field)
    return _abelian_irreps(t, field)


def gen_from_group_table(t: GroupTable, kind: str, field: CycloField) -> HopfStarAlgebra:
    """Build C(G) (kind='function_algebra') or C[G] (kind='group_algebra')."""
    n = t.order
    one = field.one
    if kind == "function_algebra":
        labels = tuple(f"d{nm}" for nm in t.element_names)
        space = BasedSpace(labels)
        mult = [[({i: one} if i == j else {}) for j in range(n)] for i in range(n)]
        unit = {i: one for i in range(n)}
        star = LinearMap(space, space, [{i: one} for i in range(n)], field, antilinear=True)
        alg = StarAlgebra(f"C({t.name})", field, space, mult, unit, star)
        cols = []
        for g in range(n):
            col: Vec = {}
            for x in range(n):
                for y in range(n):
                    if t.mult[x][y] == g:
                        col[x * n + y] = one
            cols.append(col)
        coproduct = LinearMap(space, tensor_labels(space, space), cols, field)
        counit = LinearMap(space, BasedSpace(("1",)),
                           [{0: one} if g == t.identity else {} for g in range(n)], field)
        antipode = LinearMap(space, space, [{t.inverse[g]: one} for g in range(n)], field)
        from fractions import Fraction
        haar = LinearMap(space, BasedSpace(("1",)),
                         [{0: field.rational(Fraction(1, n))} for _ in range(n)], field)
        coreps = []
        inv_order = field.rational(Fraction(1, n))
        for name, d, mats in _irreps_for(t, field):
            # e_alpha(d_g) = (d_alpha/|G|) conj(chi_alpha(g))
            d_scal = field.rational(d)
            func = []
            for g in range(n):
                tr = field.zero
                for i in range(d):
                    tr = tr + mats[g][i][i]
                func.append(d_scal * inv_order * tr.conj())
            coreps.append(Corepresentation(name, d, func))
        return HopfStarAlgebra(alg, coproduct, counit, antipode, haar, coreps)
    if kind == "group_algebra":
        labels = tuple(t.element_names)
        space = BasedSpace(labels)
        mult = [[{t.mult[i][j]: one} for j in range(n)] for i in range(n)]
        unit = {t.identity: one}
        star = LinearMap(space, space, [{t.inverse[i]: one} for i in range(n)], field,
                         antilinear=True)
        alg = StarAlgebra(f"C[{t.name}]", field, space, mult, unit, star)
        cols = [{g * n + g: one} for g in range(n)]
        coproduct = LinearMap(space, tensor_labels(space, space), cols, field)
        counit = LinearMap(space, BasedSpace(("1",)), [{0: one} for _ in range(n)], field)
        antipode = LinearMap(space, space, [{t.inverse[g]: one} for g in range(n)], field)
        haar = LinearMap(space, BasedSpace(("1",)),
                         [{0: one} if g == t.identity else {} for g in range(n)], field)
        # irreducible corepresentations of C[G] are the group elements
        coreps = [Corepresentation(f"g{g}", 1,
                                   [one if x == g else field.zero for x in range(n)])
                  for g in range(n)]
        return HopfStarAlgebra(alg, coproduct, counit, antipode, haar, coreps)
    raise InputError(f"unknown generator kind {kind!r}")
