"""Bicovariant first-order differential calculi and the degree-2 part of
their universal envelope.

A calculus is determined by an ad-invariant, *-compatible right ideal R
inside ker(eps); the left-invariant part is Gamma_inv = A / (R + C.1) with
projection pi, adjoint coaction varpi, the right action circ, and the
canonical braid sigma(eta (x) theta) = theta_k (x) (eta o c_k).

The envelope keeps S^2 = {pi(r^(1)) (x) pi(r^(2))}, the quadratic quotient
Lambda^2, a splitting chosen as the Haar-orthogonal complement of S^2
(checked to be *- and varpi-compatible), and the lifted embedded
differential delta with sigma delta - delta = (id (x) pi) varpi.

GammaEnvelope assembles the degree <= 2 graded *-algebra A (+) Gamma (+)
Gamma^2 with differential, extended coproduct, counit and antipode.  It is a
hopf.GradedStarAlgebra, which holds its product, d, star and algebra axiom
check; the coproduct phi^ maps into the graded tensor square, and
hopf.add_coaction_records checks it as a unital, hermitian, d-compatible,
coassociative and counital *-homomorphism.  A failure in either check
rejects the calculus with ValidationFailed.
"""

from __future__ import annotations

from .errors import (
    NotAdInvariant, NotIdeal, NotStarCompatible, SplittingIncompatible,
    ValidationFailed,
)
from .hopf import (
    BUDGET, GradedStarAlgebra, HopfStarAlgebra, add_coaction_records, adjoint_action,
    graded_tensor_mul,
)
from .linalg import (
    BasedSpace, Echelon, LinearMap, QuotientSpace, Vec, span_basis, viadd,
    viadd_term, vscale,
)
from .report import RaisingReport, ValidationReport, failing, passing, vacuous
from .tensor import Factor, TProd


class Fodc:
    def __init__(self, group: HopfStarAlgebra, ideal_basis):
        self.group = group
        self.field = group.field
        field = self.field
        one = field.one
        da = group.dim
        g = group

        self.ideal = Echelon()
        for r in ideal_basis:
            eps = g.eps(r)
            if eps:
                raise NotIdeal("ideal vector has nonzero counit", where="fodc.ideal_basis")
            self.ideal.add(r)
        self.ideal_basis = self.ideal.basis()

        # right ideal: R A in R
        for r in self.ideal_basis:
            for a in range(da):
                if not self.ideal.contains(g.mul(r, {a: one})):
                    raise NotIdeal("R is not a right ideal", where="fodc.ideal_basis")
        # ad-invariance: ad(R) in R (x) A
        ad = adjoint_action(g)
        for r in self.ideal_basis:
            img = ad.apply(r)
            by_second: dict[int, Vec] = {}
            for idx, c in img.items():
                j, k = divmod(idx, da)
                by_second.setdefault(k, {})[j] = c
            for k, v in by_second.items():
                if not self.ideal.contains(v):
                    raise NotAdInvariant("ad(R) leaves R (x) A", where="fodc.ideal_basis")
        self.ad = ad
        # star compatibility: kappa(R)* in R
        for r in self.ideal_basis:
            if not self.ideal.contains(g.star_vec(g.kappa(r))):
                raise NotStarCompatible("kappa(R)* leaves R", where="fodc.ideal_basis")

        # Gamma_inv = A / (R + C 1)
        relations = [dict(r) for r in self.ideal_basis] + [dict(g.unit)]
        self.q = QuotientSpace(g.space, relations, field)
        self.inv_space = BasedSpace(tuple(f"w[{lab}]" for lab in self.q.space.labels))
        self.dim = self.q.dim
        self.pi = LinearMap(g.space, self.inv_space,
                            [dict(c) for c in self.q.projection.cols], field)
        self.section = LinearMap(self.inv_space, g.space,
                                 [dict(c) for c in self.q.section.cols], field)

        # varpi pi = (pi (x) id) ad
        id_a = LinearMap.identity(g.space, field)
        self.varpi = self.pi.tensor(id_a).compose(ad).compose(self.section)
        # well-definedness and the coaction laws
        pi_ad = self.pi.tensor(id_a).compose(ad)
        if pi_ad != self.varpi.compose(self.pi):
            raise ValidationFailed("varpi pi != (pi (x) id) ad")
        lhs = self.varpi.tensor(id_a).compose(self.varpi)
        rhs = LinearMap.identity(self.inv_space, field).tensor(g.coproduct) \
            .compose(self.varpi)
        if lhs != rhs:
            raise ValidationFailed("varpi is not a coaction")
        for t in range(self.dim):
            acc: Vec = {}
            for idx, c in self.varpi.cols[t].items():
                th, a = divmod(idx, da)
                viadd_term(acc, th, c * g.eps_basis(a))
            if acc != {t: one}:
                raise ValidationFailed("varpi fails the counit law")
        self.varpi_legs = [[(idx // da, idx % da, c)
                            for idx, c in self.varpi.cols[t].items()]
                           for t in range(self.dim)]

        # circ: pi(a) o b = pi(ab) - eps(a) pi(b)
        circ = []
        for a in range(da):
            cols = []
            for t in range(self.dim):
                x = self.section.cols[t]
                v = self.pi.apply(g.mul(x, {a: one}))
                eps_x = g.eps(x)
                if eps_x:
                    viadd(v, -eps_x, self.pi.cols[a])
                cols.append(v)
            circ.append(LinearMap(self.inv_space, self.inv_space, cols, field))
        self.circ = circ
        # well-definedness: r o b = 0 and 1 o b = 0 hold by the ideal property;
        # module law (theta o a) o b = theta o (ab)
        for a in range(da):
            for b_ in range(da):
                comp = self.circ[b_].compose(self.circ[a])
                acc = LinearMap.zero(self.inv_space, self.inv_space, field)
                for k, c in g.algebra.mul_basis(a, b_).items():
                    acc = acc.add(self.circ[k].scale(c))
                if comp != acc:
                    raise ValidationFailed("circ is not a right module action")

        # star on Gamma_inv: [x]* = -[kappa(x)*]
        star_cols = []
        for t in range(self.dim):
            x = self.section.cols[t]
            star_cols.append(vscale(-one, self.pi.apply(g.star_vec(g.kappa(x)))))
        self.star_inv = LinearMap(self.inv_space, self.inv_space, star_cols, field,
                                  antilinear=True)
        if self.star_inv.compose(self.star_inv) != \
                LinearMap.identity(self.inv_space, field):
            raise ValidationFailed("star on Gamma_inv is not involutive")

        # canonical braid sigma on Gamma_inv (x) Gamma_inv
        self.sq_space = BasedSpace(tuple(
            f"{x}(x){y}" for x in self.inv_space.labels for y in self.inv_space.labels))
        cols = []
        for e in range(self.dim):
            for t in range(self.dim):
                acc: Vec = {}
                for th, a, c in self.varpi_legs[t]:
                    for u, cu in self.circ[a].cols[e].items():
                        viadd_term(acc, th * self.dim + u, c * cu)
                cols.append(acc)
        self.sigma = LinearMap(self.sq_space, self.sq_space, cols, field)

    def braid_equation_report(self) -> ValidationReport:
        rep = ValidationReport()
        if self.dim == 0:
            rep.add(vacuous("fodc.braid", "sigma braid equation",
                            note="zero calculus"))
            return rep
        field = self.field
        d = self.dim
        cube = BasedSpace(tuple(str(i) for i in range(d ** 3)))

        def at(p):
            cols = []
            for i in range(d ** 3):
                t = (i // (d * d), (i // d) % d, i % d)
                acc: Vec = {}
                pair = t[p] * d + t[p + 1]
                for idx, c in self.sigma.cols[pair].items():
                    u, v = divmod(idx, d)
                    rep_t = list(t)
                    rep_t[p], rep_t[p + 1] = u, v
                    acc[rep_t[0] * d * d + rep_t[1] * d + rep_t[2]] = c
                cols.append(acc)
            return LinearMap(cube, cube, cols, field)

        s12, s23 = at(0), at(1)
        lhs = s12.compose(s23).compose(s12)
        rhs = s23.compose(s12).compose(s23)
        ok = lhs == rhs
        rep.add(passing("fodc.braid", "sigma braid equation") if ok
                else failing("fodc.braid", "sigma braid equation",
                             {"first_difference": lhs.first_difference(rhs)}))
        return rep


def build_fodc(group: HopfStarAlgebra, ideal_basis) -> Fodc:
    return Fodc(group, ideal_basis)


def universal_ideal(group: HopfStarAlgebra):
    """R = 0: the universal first-order calculus."""
    return []


def zero_ideal(group: HopfStarAlgebra):
    """R = ker eps: the zero calculus."""
    field = group.field
    cols = [{0: group.eps_basis(i)} for i in range(group.dim)]
    eps_map = LinearMap(group.space, BasedSpace(("1",)), cols, field)
    return span_basis(eps_map.nullspace())


class Envelope2:
    """S^2, Lambda^2 = Gamma_inv^(x)2 / S^2, the Haar splitting, and the
    lifted embedded differential delta."""

    def __init__(self, fodc: Fodc):
        self.fodc = fodc
        g = fodc.group
        field = fodc.field
        one = field.one
        d = fodc.dim
        self.report = ValidationReport()

        # S^2 = (pi (x) pi) phi (R)
        s2 = []
        pp = fodc.pi.tensor(fodc.pi)
        for r in fodc.ideal_basis:
            v = pp.apply(g.phi(r))
            if v:
                s2.append(v)
        self.s2_basis = span_basis(s2)
        self.lambda2 = QuotientSpace(fodc.sq_space, self.s2_basis, field)
        self.l2_space = BasedSpace(tuple(
            f"w2[{lab}]" for lab in self.lambda2.space.labels))
        self.wedge = LinearMap(fodc.sq_space, self.l2_space,
                               [dict(c) for c in self.lambda2.projection.cols], field)

        if d == 0:
            self.complement = []
            self.split_section = LinearMap.zero(self.l2_space, fodc.sq_space, field)
            self.delta = LinearMap.zero(fodc.inv_space, fodc.sq_space, field)
            self.dlambda = LinearMap.zero(fodc.inv_space, self.l2_space, field)
            self.circ2 = [LinearMap.zero(self.l2_space, self.l2_space, field)
                          for _ in range(g.dim)]
            self.star2 = LinearMap.zero(self.l2_space, self.l2_space, field)
            self.star2.antilinear = True
            self.report.add(vacuous("envelope.splitting", "split-GT",
                                    note="zero calculus"))
            self.report.add(vacuous("envelope.sigma-delta",
                                    "sigma delta - delta = (id (x) pi) varpi",
                                    note="zero calculus"))
            return

        # Haar inner product on A, descended to Gamma_inv via the
        # relation-orthogonal representatives
        da = g.dim
        gram_a = [[g.haar_of(g.mul(g.star_vec({i: one}), {j: one}))
                   for j in range(da)] for i in range(da)]
        rel_basis = fodc.ideal_basis + [dict(g.unit)]
        rel_mat = span_basis(rel_basis)

        def inner_a(u: Vec, v: Vec):
            acc = field.zero
            for i, ci in u.items():
                for j, cj in v.items():
                    acc = acc + ci.conj() * cj * gram_a[i][j]
            return acc

        def orth_rep(v: Vec) -> Vec:
            # v - projection onto span(rel_mat) w.r.t. the Haar form
            n = len(rel_mat)
            rhs = {}
            cols = [dict() for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    val = inner_a(rel_mat[a], rel_mat[b])
                    if val:
                        cols[b][a] = val
                val = inner_a(rel_mat[a], v)
                if val:
                    rhs[a] = val
            from .linalg import solve_columns
            sol = solve_columns(cols, rhs, field)
            assert sol is not None, "Haar Gram matrix is degenerate"
            out = dict(v)
            for b, c in sol.items():
                viadd(out, -c, rel_mat[b])
            return out

        reps = [orth_rep(fodc.section.cols[t]) for t in range(d)]
        gram_inv = [[inner_a(reps[i], reps[j]) for j in range(d)] for i in range(d)]

        def inner_sq(u: Vec, v: Vec):
            acc = field.zero
            for iu, cu in u.items():
                i1, i2 = divmod(iu, d)
                for iv, cv in v.items():
                    j1, j2 = divmod(iv, d)
                    gg = gram_inv[i1][j1] * gram_inv[i2][j2]
                    if gg:
                        acc = acc + cu.conj() * cv * gg
            return acc

        # complement = orthogonal complement of S^2 in Gamma_inv^(x)2
        cols = [dict() for _ in range(d * d)]
        for a, s in enumerate(self.s2_basis):
            for w in range(d * d):
                val = inner_sq(s, {w: one})
                if val:
                    cols[w][a] = val
        from .linalg import nullspace_of_columns
        comp = span_basis(nullspace_of_columns(cols, field))
        if len(comp) + len(self.s2_basis) != d * d:
            raise SplittingIncompatible(
                "Haar-orthogonal complement has the wrong dimension")
        self.complement = comp
        comp_ech = Echelon()
        for v in comp:
            comp_ech.add(v)

        # section Lambda^2 -> complement
        sec_cols = []
        for k in range(self.lambda2.dim):
            raw = self.lambda2.section.cols[k]
            # adjust raw by S^2 so that it lies in the complement:
            # raw - sum coords; solve raw = c + s with c in comp, s in S^2
            from .linalg import solve_columns as _solve
            sol = _solve(comp + self.s2_basis, raw, field)
            assert sol is not None
            c_part: Vec = {}
            for idx, cc in sol.items():
                if idx < len(comp):
                    viadd(c_part, cc, comp[idx])
            sec_cols.append(c_part)
        self.split_section = LinearMap(self.l2_space, fodc.sq_space, sec_cols, field)
        if self.wedge.compose(self.split_section) != \
                LinearMap.identity(self.l2_space, field):
            raise SplittingIncompatible("splitting is not a section of the projection")

        # star on Gamma_inv^(x)2: (theta (x) eta)* = -eta* (x) theta*
        star_cols = []
        si = fodc.star_inv
        for i in range(d * d):
            i1, i2 = divmod(i, d)
            acc: Vec = {}
            for u, cu in si.cols[i2].items():
                for v, cv in si.cols[i1].items():
                    acc[u * d + v] = -(cu * cv)
            star_cols.append(acc)
        self.star_sq = LinearMap(fodc.sq_space, fodc.sq_space, star_cols, field,
                                 antilinear=True)
        # S^2 and the complement must be star-stable
        for s in self.s2_basis:
            if not self.lambda2.relations.contains(self.star_sq.apply(s)):
                raise SplittingIncompatible("S^2 is not star-stable")
        for c in comp:
            if not comp_ech.contains(self.star_sq.apply(c)):
                raise SplittingIncompatible("splitting is not star-compatible")

        # varpi_2 covariance of S^2 and of the complement
        def varpi2_legs(v: Vec):
            out: Vec = {}
            for idx, c in v.items():
                i1, i2 = divmod(idx, d)
                for t1, a1, c1 in fodc.varpi_legs[i1]:
                    for t2, a2, c2 in fodc.varpi_legs[i2]:
                        coeff = c * c1 * c2
                        for a, ca in g.algebra.mul_basis(a1, a2).items():
                            viadd_term(out, (t1 * d + t2) * da + a, coeff * ca)
            return out

        def check_covariant(vs, ech: Echelon) -> bool:
            for v in vs:
                img = varpi2_legs(v)
                by_a: dict[int, Vec] = {}
                for idx, c in img.items():
                    w, a = divmod(idx, da)
                    by_a.setdefault(a, {})[w] = c
                for v2 in by_a.values():
                    if not ech.contains(v2):
                        return False
            return True

        s2_ech = self.lambda2.relations
        if not check_covariant(self.s2_basis, s2_ech):
            raise SplittingIncompatible("S^2 is not varpi-covariant")
        if not check_covariant(comp, comp_ech):
            raise SplittingIncompatible("splitting is not varpi-covariant")
        self.report.add(passing("envelope.splitting", "split-GT",
                                note="Haar-orthogonal splitting is *- and varpi-compatible"))

        # circ on Lambda^2 (the ideal S^2 is circ-stable)
        circ2 = []
        for a in range(da):
            cols = []
            for k in range(self.lambda2.dim):
                lift = self.split_section.cols[k]
                out: Vec = {}
                for idx, c in lift.items():
                    i1, i2 = divmod(idx, d)
                    for a1, a2, ca in g.sweedler(a):
                        u1 = fodc.circ[a1].cols[i1]
                        u2 = fodc.circ[a2].cols[i2]
                        for p, cp in u1.items():
                            for q, cq in u2.items():
                                viadd_term(out, p * d + q, c * ca * cp * cq)
                cols.append(self.wedge.apply(out))
            circ2.append(LinearMap(self.l2_space, self.l2_space, cols, field))
        self.circ2 = circ2
        for a in range(da):
            for s in self.s2_basis:
                out: Vec = {}
                for idx, c in s.items():
                    i1, i2 = divmod(idx, d)
                    for a1, a2, ca in g.sweedler(a):
                        for p, cp in fodc.circ[a1].cols[i1].items():
                            for q, cq in fodc.circ[a2].cols[i2].items():
                                viadd_term(out, p * d + q, c * ca * cp * cq)
                if not s2_ech.contains(out):
                    raise ValidationFailed("S^2 is not circ-stable")

        # star on Lambda^2
        st_cols = [self.wedge.apply(self.star_sq.apply(self.split_section.cols[k]))
                   for k in range(self.lambda2.dim)]
        self.star2 = LinearMap(self.l2_space, self.l2_space, st_cols, field,
                               antilinear=True)

        # embedded differential: delta = -lift . project . (pi (x) pi) phi
        dl_cols = []
        delta_cols = []
        for t in range(d):
            x = fodc.section.cols[t]
            raw = vscale(-one, pp.apply(g.phi(x)))
            dl = self.wedge.apply(raw)
            dl_cols.append(dl)
            delta_cols.append(self.split_section.apply(dl))
        self.dlambda = LinearMap(fodc.inv_space, self.l2_space, dl_cols, field)
        self.delta = LinearMap(fodc.inv_space, fodc.sq_space, delta_cols, field)

        # sigma delta - delta = (id (x) pi) varpi
        lhs = fodc.sigma.compose(self.delta).sub(self.delta)
        rhs_cols = []
        for t in range(d):
            acc: Vec = {}
            for th, a, c in fodc.varpi_legs[t]:
                for u, cu in fodc.pi.cols[a].items():
                    viadd_term(acc, th * d + u, c * cu)
            rhs_cols.append(acc)
        rhs = LinearMap(fodc.inv_space, fodc.sq_space, rhs_cols, field)
        self.report.add(
            passing("envelope.sigma-delta", "sigma delta - delta = (id (x) pi) varpi")
            if lhs == rhs else
            failing("envelope.sigma-delta", "sigma delta - delta = (id (x) pi) varpi",
                    {"first_difference": lhs.first_difference(rhs)}))


def build_envelope2(fodc: Fodc) -> Envelope2:
    return Envelope2(fodc)


class GammaEnvelope(GradedStarAlgebra):
    """The degree <= 2 graded *-algebra A (+) (A (x) Gamma_inv) (+)
    (A (x) Lambda^2) with differential, coproduct, counit and antipode.

    Basis indexing: degree 0 block first, then (a, theta) pairs, then
    (a, xi) pairs; products that would exceed degree 2 raise DegreeBudget.
    """

    def __init__(self, env: Envelope2):
        self.env = env
        self.fodc = env.fodc
        g = self.fodc.group
        self.group = g
        da = g.dim
        d1 = self.fodc.dim
        d2 = env.lambda2.dim
        self.da, self.d1, self.d2 = da, d1, d2
        labels = list(g.space.labels)
        labels += [f"{a}.{t}" for a in g.space.labels for t in self.fodc.inv_space.labels]
        labels += [f"{a}.{t}" for a in g.space.labels for t in env.l2_space.labels]
        # the unit of A sits in the degree-0 block, whose indices are A's own
        super().__init__("Gamma^", g.field, BasedSpace(tuple(labels)),
                         [0] * da + [1] * (da * d1) + [2] * (da * d2), g.unit)
        self.off1 = da
        self.off2 = da + da * d1
        self.factor = Factor(self.space, self.degrees)
        self._build_maps()

    # -- index helpers -----------------------------------------------------

    def i0(self, a: int) -> int:
        return a

    def i1(self, a: int, t: int) -> int:
        return self.off1 + a * self.d1 + t

    def i2(self, a: int, x: int) -> int:
        return self.off2 + a * self.d2 + x

    def split(self, i: int):
        """(degree, a, inner_index)."""
        if i < self.off1:
            return 0, i, 0
        if i < self.off2:
            j = i - self.off1
            return 1, j // self.d1, j % self.d1
        j = i - self.off2
        return 2, j // self.d2, j % self.d2

    def inv1_vec(self, t: int) -> Vec:
        """1 (x) theta_t as an element of Gamma (unit in the A leg)."""
        return {self.i1(k, t): c for k, c in self.group.unit.items()}

    def inv2_vec(self, x: int) -> Vec:
        return {self.i2(k, x): c for k, c in self.group.unit.items()}

    # -- algebra structure ----------------------------------------------------

    def _product(self, i: int, j: int) -> Vec:
        g = self.group
        di, a, t = self.split(i)
        dj, b, s = self.split(j)
        out: Vec = {}
        if di == 0 and dj == 0:
            for k, c in g.algebra.mul_basis(a, b).items():
                out[self.i0(k)] = c
        elif di == 0 and dj == 1:
            for k, c in g.algebra.mul_basis(a, b).items():
                out[self.i1(k, s)] = c
        elif di == 0 and dj == 2:
            for k, c in g.algebra.mul_basis(a, b).items():
                out[self.i2(k, s)] = c
        elif di == 1 and dj == 0:
            # (a (x) theta) b = a b^(1) (x) (theta o b^(2))
            for b1, b2, c in g.sweedler(b):
                for k, ck in g.algebra.mul_basis(a, b1).items():
                    for u, cu in self.fodc.circ[b2].cols[t].items():
                        viadd_term(out, self.i1(k, u), c * ck * cu)
        elif di == 2 and dj == 0:
            for b1, b2, c in g.sweedler(b):
                for k, ck in g.algebra.mul_basis(a, b1).items():
                    for u, cu in self.env.circ2[b2].cols[t].items():
                        viadd_term(out, self.i2(k, u), c * ck * cu)
        else:  # 1 x 1
            d1 = self.d1
            for b1, b2, c in g.sweedler(b):
                for k, ck in g.algebra.mul_basis(a, b1).items():
                    for u, cu in self.fodc.circ[b2].cols[t].items():
                        w = self.env.wedge.cols[u * d1 + s]
                        for x, cx in w.items():
                            viadd_term(out, self.i2(k, x), c * ck * cu * cx)
        return out

    def eps_basis(self, i: int):
        deg, a, _ = self.split(i)
        return self.group.eps_basis(a) if deg == 0 else self.field.zero

    def _build_maps(self):
        g = self.group
        field = self.field
        one = field.one
        env = self.env
        fodc = self.fodc
        da, d1, d2 = self.da, self.d1, self.d2

        # star
        star_cols = []
        for i in range(self.dim):
            deg, a, t = self.split(i)
            if deg == 0:
                star_cols.append({self.i0(k): c
                                  for k, c in g.algebra.star.cols[a].items()})
                continue
            acc: Vec = {}
            stv = fodc.star_inv.cols[t] if deg == 1 else env.star2.cols[t]
            sta = g.algebra.star.cols[a]
            for u, cu in stv.items():
                inv = self.inv1_vec(u) if deg == 1 else self.inv2_vec(u)
                # (1 (x) theta*) . a*  as a Gamma^-product
                for k, ck in sta.items():
                    prod = self.mul(inv, {self.i0(k): one})
                    viadd(acc, cu * ck, prod)
            star_cols.append(acc)
        self.star = LinearMap(self.space, self.space, star_cols, field,
                              antilinear=True)

        # differential (degree <= 1 columns only)
        d_cols = []
        for i in range(self.dim):
            deg, a, t = self.split(i)
            if deg == 0:
                acc = {}
                for a1, a2, c in g.sweedler(a):
                    for u, cu in fodc.pi.cols[a2].items():
                        viadd_term(acc, self.i1(a1, u), c * cu)
                d_cols.append(acc)
            elif deg == 1:
                acc = {}
                for a1, a2, c in g.sweedler(a):
                    for u, cu in fodc.pi.cols[a2].items():
                        w = env.wedge.cols[u * d1 + t]
                        for x, cx in w.items():
                            viadd_term(acc, self.i2(a1, x), c * cu * cx)
                for x, cx in env.dlambda.cols[t].items():
                    viadd_term(acc, self.i2(a, x), cx)
                d_cols.append(acc)
            else:
                d_cols.append(None)
        self.d_cols = d_cols

        # coproduct into the free graded tensor square
        self.square = TProd(field, (self.factor, self.factor), budget=BUDGET,
                            name="Gamma^(x)Gamma^")
        sq = self.square
        phi_cols = []
        for i in range(self.dim):
            deg, a, t = self.split(i)
            acc: Vec = {}
            if deg == 0:
                for a1, a2, c in g.sweedler(a):
                    viadd_term(acc, sq.flat_index((self.i0(a1), self.i0(a2))), c)
                phi_cols.append(sq.project(acc))
            elif deg == 1:
                for a1, a2, c in g.sweedler(a):
                    viadd_term(acc, sq.flat_index((self.i0(a1), self.i1(a2, t))), c)
                for th, ck, cc in fodc.varpi_legs[t]:
                    for a1, a2, c in g.sweedler(a):
                        for m, cm in g.algebra.mul_basis(a2, ck).items():
                            viadd_term(acc, sq.flat_index((self.i1(a1, th), self.i0(m))),
                                       cc * c * cm)
                phi_cols.append(sq.project(acc))
            else:
                phi_cols.append(None)  # filled below via multiplicativity
        # degree 2 via multiplicativity over the splitting lift
        phi_inv1 = []
        for t in range(d1):
            acc: Vec = {}
            for k, ck in g.unit.items():
                viadd(acc, ck, phi_cols[self.i1(k, t)])
            phi_inv1.append(acc)
        for i in range(self.dim):
            deg, a, x = self.split(i)
            if deg != 2:
                continue
            lift = env.split_section.cols[x]
            acc: Vec = {}
            base = phi_cols[self.i0(a)]
            for idx, c in lift.items():
                t1, t2 = divmod(idx, d1)
                viadd(acc, c, graded_tensor_mul(sq, self, self,
                                                phi_inv1[t1], phi_inv1[t2]))
            phi_cols[i] = graded_tensor_mul(sq, self, self, base, acc)
        self.phi_hat = LinearMap(self.space, sq.space, phi_cols, field)

        # well-definedness on S^2 for both phi and kappa
        for s in env.s2_basis:
            acc: Vec = {}
            for idx, c in s.items():
                t1, t2 = divmod(idx, d1)
                viadd(acc, c, graded_tensor_mul(sq, self, self,
                                                phi_inv1[t1], phi_inv1[t2]))
            if acc:
                raise ValidationFailed(
                    "extended coproduct is ill-defined on the quadratic ideal")

        # antipode
        kap_cols: list = [None] * self.dim
        for a in range(da):
            kap_cols[self.i0(a)] = {self.i0(k): c
                                    for k, c in g.antipode.cols[a].items()}
        kap_inv1 = []
        for t in range(d1):
            x = fodc.section.cols[t]
            acc: Vec = {}
            # kappa(pi(x)) = - (1 (x) pi(x^(2))) . (kappa(x^(1)) x^(3))
            for xa, cx in x.items():
                for x1, x2, x3, c in g.phi2_basis(xa):
                    for u, cu in fodc.pi.cols[x2].items():
                        for k1, ck1 in g.antipode.cols[x1].items():
                            for m, cm in g.algebra.mul_basis(k1, x3).items():
                                prod = self.mul(self.inv1_vec(u), {self.i0(m): one})
                                viadd(acc, -(cx * c * cu * ck1 * cm), prod)
            kap_inv1.append(acc)
        for r in fodc.ideal_basis + [dict(g.unit)]:
            acc = {}
            for xa, cx in r.items():
                for x1, x2, x3, c in g.phi2_basis(xa):
                    for u, cu in fodc.pi.cols[x2].items():
                        for k1, ck1 in g.antipode.cols[x1].items():
                            for m, cm in g.algebra.mul_basis(k1, x3).items():
                                viadd(acc, -(cx * c * cu * ck1 * cm),
                                      self.mul(self.inv1_vec(u), {self.i0(m): one}))
            if acc:
                raise ValidationFailed("antipode is ill-defined on Gamma_inv")
        for a in range(da):
            for t in range(d1):
                acc = {}
                for k, ck in g.antipode.cols[a].items():
                    viadd(acc, ck, self.mul(kap_inv1[t], {self.i0(k): one}))
                kap_cols[self.i1(a, t)] = acc
        # degree 2 by graded antimultiplicativity: kappa(theta eta) = -kappa(eta)kappa(theta)
        kap2_inv = []
        for x in range(d2):
            lift = env.split_section.cols[x]
            acc = {}
            for idx, c in lift.items():
                t1, t2 = divmod(idx, d1)
                viadd(acc, -c, self.mul(kap_inv1[t2], kap_inv1[t1]))
            kap2_inv.append(acc)
        for s in env.s2_basis:
            acc = {}
            for idx, c in s.items():
                t1, t2 = divmod(idx, d1)
                viadd(acc, -c, self.mul(kap_inv1[t2], kap_inv1[t1]))
            if acc:
                raise ValidationFailed("degree-2 antipode is ill-defined")
        for a in range(da):
            for x in range(d2):
                acc = {}
                for k, ck in g.antipode.cols[a].items():
                    viadd(acc, ck, self.mul(kap2_inv[x], {self.i0(k): one}))
                kap_cols[self.i2(a, x)] = acc
        self.kappa_hat = LinearMap(self.space, self.space, kap_cols, field)
        # the rank comes from the elimination that the inverse reuses
        if self.kappa_hat.solver().rank != self.space.dim:
            raise ValidationFailed("extended antipode is not bijective")
        self.kappa_hat_inv = self.kappa_hat.inverse()

        self.check_axioms()
        add_coaction_records(
            RaisingReport(ValidationFailed, "Gamma^: "),
            (("phi-mult", "coproduct is not multiplicative"),
             ("phi-star", "coproduct is not hermitian"),
             ("phi-d", "coproduct does not intertwine d"),
             ("phi-coassoc", "coproduct is not coassociative"),
             ("phi-counit", "counit law fails")),
            "phi^", self, self.phi_hat, sq, self, self.phi_hat, sq, self.eps_basis)

    def ad_hat(self) -> LinearMap:
        """Graded adjoint coaction ad = chi{kappa((1)) (x) (2)} (3) into the
        graded tensor square."""
        field = self.field
        one = field.one
        sq = self.square
        # (phi_hat (x) id) phi_hat per basis element
        cols = []
        for i in range(self.dim):
            acc: Vec = {}
            for fi, c in sq.lift(self.phi_hat.cols[i]).items():
                u, z = sq.tuples[fi]
                for fj, c2 in sq.lift(self.phi_hat.cols[u]).items():
                    x, y = sq.tuples[fj]
                    coeff = c * c2
                    for kx, ck in self.kappa_hat.cols[x].items():
                        sign = -one if (self.degree(kx) * self.degree(y)) % 2 else one
                        for m, cm in self.mul_basis(kx, z).items():
                            viadd_term(acc, sq.flat_index((y, m)), coeff * ck * cm * sign)
            cols.append(sq.project(acc))
        return LinearMap(self.space, sq.space, cols, field)
