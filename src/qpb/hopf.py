"""Finite-dimensional Hopf *-algebras by structure constants.

Everything is an explicit matrix or structure tensor over a cyclotomic field;
the validator checks all axioms on basis elements and reports witnesses.  The
generators produce the function algebra C(G) and the group algebra C[G] of a
finite group table, together with corepresentation data (characters and
irreducible matrices) used for isotypic decompositions.

GradedStarAlgebra is the one implementation of the graded differential
*-algebras truncated at degree BUDGET (Omega(M), Gamma^ and Omega(P)): the
memoized basis product and its support, mul, d, star and the axiom check live
there, and
graded_tensor_mul is the Koszul-signed product of a graded tensor product of
two of them.  table_mul is the bilinear product from a full structure table.
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
from .report import CheckRecord, ValidationReport, failing, passing
from .tensor import TProd

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


class StarAlgebra:
    """Unital associative *-algebra given by a rank-3 structure tensor."""

    def __init__(self, name: str, field: CycloField, space: BasedSpace,
                 mult, unit: Vec, star: LinearMap):
        self.name = name
        self.field = field
        self.space = space
        self.mult = mult  # mult[i][j] -> Vec, the product e_i e_j
        # support[i]: the j with e_i e_j != 0
        self.support = [frozenset(j for j, p in enumerate(row) if p) for row in mult]
        self.unit = dict(unit)
        self.star = star  # antilinear LinearMap
        if not star.antilinear:
            raise InputError("star map must be antilinear")

    @property
    def dim(self) -> int:
        return self.space.dim

    def mul(self, u: Vec, v: Vec) -> Vec:
        return table_mul(self.mult, u, v)

    def mul_basis(self, i: int, j: int) -> Vec:
        return self.mult[i][j]

    def star_vec(self, v: Vec) -> Vec:
        return self.star.apply(v)

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

    def validate(self, prefix: str = "algebra") -> ValidationReport:
        rep = ValidationReport()
        field, dim = self.field, self.dim
        bad = None
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = self.mul(self.mult[i][j], {k: field.one})
                    rhs = self.mul({i: field.one}, self.mult[j][k])
                    if lhs != rhs:
                        bad = {"basis_triple": [i, j, k],
                               "lhs": self.space.render(lhs),
                               "rhs": self.space.render(rhs)}
                        break
                if bad:
                    break
            if bad:
                break
        rep.add(failing(f"{prefix}.assoc", "associativity", bad) if bad
                else passing(f"{prefix}.assoc", "associativity"))
        bad = None
        for i in range(dim):
            e = {i: field.one}
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                bad = basis_witness(self.space, i)
                break
        rep.add(failing(f"{prefix}.unit", "unit laws", bad) if bad
                else passing(f"{prefix}.unit", "unit laws"))
        inv = self.star.compose(self.star)
        rec = CheckRecord(f"{prefix}.star-invol", "star involutive",
                          "pass" if inv == LinearMap.identity(self.space, field) else "fail")
        rep.add(rec)
        bad = None
        for i in range(dim):
            for j in range(dim):
                lhs = self.star_vec(self.mult[i][j])
                rhs = self.mul(self.star_vec({j: field.one}), self.star_vec({i: field.one}))
                if lhs != rhs:
                    bad = {"basis_pair": [i, j],
                           "lhs": self.space.render(lhs),
                           "rhs": self.space.render(rhs)}
                    break
            if bad:
                break
        rep.add(failing(f"{prefix}.star-antimult", "(ab)* = b*a*", bad) if bad
                else passing(f"{prefix}.star-antimult", "(ab)* = b*a*"))
        return rep


class GradedStarAlgebra:
    """Unital graded *-algebra with a differential, truncated at degree BUDGET.

    A subclass sets ``star`` (an antilinear LinearMap) and ``d_cols`` (d of
    each basis element, None where it would leave the budget) and defines
    ``_product(i, j)``, the product of two basis elements whose degrees add
    up to at most BUDGET.  Each such product is computed once.
    """

    star: LinearMap
    d_cols: list

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

    def star_apply(self, v: Vec) -> Vec:
        return self.star.apply(v)

    def check_axioms(self) -> None:
        """Associativity and unit, star involutive and graded-antimultiplicative,
        d^2 = 0, Leibniz and d hermitian, on basis elements wherever both sides
        stay within the budget; raises ValidationFailed naming the algebra."""
        one = self.field.one
        deg = self.degrees
        n = self.dim

        def fail(what: str):
            raise ValidationFailed(f"{self.name}: {what}")

        for i in range(n):
            for j in range(n):
                if deg[i] + deg[j] > BUDGET:
                    continue
                ij = self.mul_basis(i, j)
                for k in range(n):
                    if deg[i] + deg[j] + deg[k] > BUDGET:
                        continue
                    if self.mul(ij, {k: one}) != self.mul({i: one}, self.mul_basis(j, k)):
                        fail(f"product not associative at ({i},{j},{k})")
        for i in range(n):
            e = {i: one}
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                fail("unit fails")
        for i in range(n):
            if self.star_apply(self.star.cols[i]) != {i: one}:
                fail("star not involutive")
        for i in range(n):
            for j in range(n):
                if deg[i] + deg[j] > BUDGET:
                    continue
                lhs = self.star_apply(self.mul_basis(i, j))
                rhs = self.mul(self.star.cols[j], self.star.cols[i])
                if (deg[i] * deg[j]) % 2:
                    rhs = vscale(-one, rhs)
                if lhs != rhs:
                    fail("star not graded-antimultiplicative")
        for i in range(n):
            if deg[i] == 0 and self.d_apply(self.d_cols[i]):
                fail("d^2 != 0")
        for i in range(n):
            for j in range(n):
                if deg[i] + deg[j] > BUDGET - 1:
                    continue
                lhs = self.d_apply(self.mul_basis(i, j))
                rhs = self.mul(self.d_cols[i], {j: one})
                viadd(rhs, -one if deg[i] % 2 else one, self.mul({i: one}, self.d_cols[j]))
                if lhs != rhs:
                    fail(f"Leibniz fails at ({i},{j})")
        for i in range(n):
            if deg[i] <= BUDGET - 1 and \
                    self.d_apply(self.star.cols[i]) != self.star_apply(self.d_cols[i]):
                fail("d not hermitian")


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

    def kappa_inv(self, v: Vec) -> Vec:
        return self.antipode_inverse.apply(v)

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
    rep = h.algebra.validate("hopf.algebra")
    field, dim = h.field, h.dim
    one = field.one

    def record(ident, label, bad):
        rep.add(failing(ident, label, bad) if bad else passing(ident, label))

    # coassociativity
    phi = h.coproduct
    id_a = LinearMap.identity(h.space, field)
    phi_id = phi.tensor(id_a)
    id_phi = id_a.tensor(phi)
    lhs = phi_id.compose(phi)
    rhs = id_phi.compose(phi)
    bad = None
    j = lhs.first_difference(rhs)
    if j is not None:
        bad = basis_witness(h.space, j)
    record("hopf.coassoc", "coassociativity", bad)

    # counit law
    bad = None
    for i in range(dim):
        acc: Vec = {}
        for j_, k_, c in h.sweedler(i):
            viadd_term(acc, j_, c * h.eps_basis(k_))
        acc2: Vec = {}
        for j_, k_, c in h.sweedler(i):
            viadd_term(acc2, k_, c * h.eps_basis(j_))
        e = {i: one}
        if acc != e or acc2 != e:
            bad = basis_witness(h.space, i)
            break
    record("hopf.counit-law", "(eps (x) id)phi = id = (id (x) eps)phi", bad)

    # phi is a unital *-compatible algebra homomorphism
    bad = None
    if h.phi(h.unit) != _tensor_vec(h, h.unit, h.unit):
        bad = {"reason": "phi(1) != 1(x)1"}
    else:
        for i in range(dim):
            for j in range(dim):
                lhs_v = h.phi(h.algebra.mult[i][j])
                rhs_v = _tensor_mul(h, h.phi({i: one}), h.phi({j: one}))
                if lhs_v != rhs_v:
                    bad = {"basis_pair": [i, j]}
                    break
            if bad:
                break
    record("hopf.phi-hom", "phi multiplicative and unital", bad)

    bad = None
    for i in range(dim):
        lhs_v = h.phi(h.star_vec({i: one}))
        rhs_v = _tensor_star(h, h.phi({i: one}))
        if lhs_v != rhs_v:
            bad = basis_witness(h.space, i)
            break
    record("hopf.phi-star", "phi(a*) = phi(a)^(*(x)*)", bad)

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
    if h.antipode_inverse.compose(h.antipode) != id_a:
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


def _tensor_vec(h: HopfStarAlgebra, u: Vec, v: Vec) -> Vec:
    dim = h.dim
    out: Vec = {}
    for i, a in u.items():
        for j, b in v.items():
            out[i * dim + j] = a * b
    return out


def _tensor_mul(h: HopfStarAlgebra, x: Vec, y: Vec) -> Vec:
    dim = h.dim
    out: Vec = {}
    for idx, a in x.items():
        i1, i2 = divmod(idx, dim)
        for jdx, b in y.items():
            j1, j2 = divmod(jdx, dim)
            prod1 = h.algebra.mult[i1][j1]
            prod2 = h.algebra.mult[i2][j2]
            c = a * b
            for k1, c1 in prod1.items():
                for k2, c2 in prod2.items():
                    viadd_term(out, k1 * dim + k2, c * c1 * c2)
    return out


def _tensor_star(h: HopfStarAlgebra, x: Vec) -> Vec:
    dim = h.dim
    out: Vec = {}
    for idx, a in x.items():
        i1, i2 = divmod(idx, dim)
        s1 = h.star_vec({i1: h.field.one})
        s2 = h.star_vec({i2: h.field.one})
        for k1, c1 in s1.items():
            for k2, c2 in s2.items():
                viadd_term(out, k1 * dim + k2, a.conj() * c1 * c2)
    return out


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
    a2 = tensor_labels(h.space, h.space)
    ad = LinearMap(h.space, a2, cols, field)
    # right coaction law: (ad (x) id)ad = (id (x) phi)ad, and (id (x) eps)ad = id
    id_a = LinearMap.identity(h.space, field)
    lhs = ad.tensor(id_a).compose(ad)
    rhs = id_a.tensor(h.coproduct).compose(ad)
    if lhs != rhs:
        raise ValidationFailed("adjoint action is not a coaction")
    for i in range(dim):
        acc: Vec = {}
        for idx, c in ad.cols[i].items():
            j, k = divmod(idx, dim)
            viadd_term(acc, j, c * h.eps_basis(k))
        if acc != {i: one}:
            raise ValidationFailed("adjoint action fails the counit law")
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
    ``matrix`` optionally carries the corepresentation matrix u in M_d(A) as a
    nested list of Vec entries.
    """
    name: str
    dim: int
    functional: list
    matrix: list | None = None


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
            coreps.append(Corepresentation(name, d, func, mats))
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
