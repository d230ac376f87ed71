"""The gauge coalgebra L (invariants of the doubled coaction on B (x)_V B),
its braided-Hopf structure over a classical structure group, the gauge group
of V-valued characters with its action on the bundle, and isotypic
decompositions from corepresentation data.

All coalgebra maps are concrete matrices on abstract balanced tensor products
of L, B and V; inclusions into B_n are solved exactly, so membership claims
(delta_3 lands in L (x) B, phi_M lands in L (x) L, ...) are verified rather
than assumed.
"""

from __future__ import annotations

from .braiding import BraidOperator, sigma_m
from .bundle import Bundle
from .charsplit import CommAlgebra, field_characters
from .errors import NotClassical, NotCommutative, ValidationFailed
from .hopf import table_mul
from .linalg import (
    BasedSpace, LinearMap, Vec, intersect_spans, span_basis, spans_equal, viadd,
    viadd_term,
)
from .report import (
    CheckRecord, ValidationReport, failing, map_equality_record, passing, vacuous,
)
from .tensor import Factor, TProd, term_map


class GaugeCoalgebra:
    """L with projection p_L, counit eps_M, action Delta and coproduct phi_M,
    together with the abstract balanced products they live on."""

    def __init__(self, bundle: Bundle, braid: BraidOperator):
        self.bundle = bundle
        self.braid = braid
        self.field = bundle.field
        self.report = ValidationReport()
        b = bundle
        field = self.field
        one = field.one
        b2, b3 = b.b2, b.b_space(3)
        g = b.group
        da = g.dim
        bba = b.mixed_space("BBA")

        # F_2 : B_2 -> B_2 (x) A with multiplied A-components
        def f2_terms(t):
            i, j = t
            for k1, c1, cf1 in b.f_legs[i]:
                for k2, c2, cf2 in b.f_legs[j]:
                    coeff = cf1 * cf2
                    for a, ca in g.algebra.mul_basis(c1, c2).items():
                        yield (k1, k2, a), coeff * ca

        self.f2 = term_map(b2, bba, f2_terms)

        # p_L = (id (x) h) F_2, image = L
        haar = [g.haar_of({a: one}) for a in range(da)]

        def pl_terms(t):
            i, j = t
            for k1, c1, cf1 in b.f_legs[i]:
                for k2, c2, cf2 in b.f_legs[j]:
                    coeff = cf1 * cf2
                    for a, ca in g.algebra.mul_basis(c1, c2).items():
                        if haar[a]:
                            yield (k1, k2), coeff * ca * haar[a]

        self.p_l = term_map(b2, b2, pl_terms)
        self.l_basis = span_basis(self.p_l.cols)
        self.report.add(
            passing("gauge.pL-idem", "p_L idempotent")
            if self.p_l.compose(self.p_l) == self.p_l
            else failing("gauge.pL-idem", "p_L idempotent", {}))

        # cross-check: im(p_L) equals the F_2-fixed subspace
        fixed = span_basis(self._f2_minus_unit().nullspace())
        if spans_equal(self.l_basis, fixed):
            self.report.add(passing("gauge.pL-image", "im(p_L) = F_2-invariants"))
        else:
            self.report.add(failing("gauge.pL-image", "im(p_L) = F_2-invariants",
                                    {"rank_pL": len(self.l_basis),
                                     "rank_fixed": len(fixed)}))
            raise ValidationFailed("p_L image differs from the F_2-fixed subspace")

        # L as a V-bimodule factor
        nl = len(self.l_basis)
        self.l_space = BasedSpace(tuple(f"L{i}" for i in range(nl)))
        self.l_incl = LinearMap(self.l_space, b2.space, self.l_basis, field)
        lact, ract = [], []
        for fvec in b.base_vectors:
            lf = b.lmult_map(2, 0, fvec)
            rf = b.rmult_map(2, 1, fvec)
            lact.append(LinearMap(self.l_space, self.l_space,
                                  [self.into_l(lf.apply(lb), "f.L")
                                   for lb in self.l_basis], field))
            ract.append(LinearMap(self.l_space, self.l_space,
                                  [self.into_l(rf.apply(lb), "L.f")
                                   for lb in self.l_basis], field))
        self.l_factor = Factor.ungraded(self.l_space, lact, ract)
        self.lact, self.ract = lact, ract

        self.t_lb = TProd(field, (self.l_factor, b.b_factor), name="L(x)B")
        self.t_bl = TProd(field, (b.b_factor, self.l_factor), name="B(x)L")
        self.t_ll = TProd(field, (self.l_factor, self.l_factor), name="L(x)L")
        self.t_llb = TProd(field, (self.l_factor, self.l_factor, b.b_factor),
                           name="L(x)L(x)B")
        self.t_lbb = TProd(field, (self.l_factor, b.b_factor, b.b_factor),
                           name="L(x)B(x)B")
        self.t_lll = TProd(field, (self.l_factor,) * 3, name="L(x)L(x)L")
        self.t_lba = TProd(field, (self.l_factor, b.b_factor, b.a_factor),
                           name="L(x)B(x)A")

        def j_lb_terms(t):
            l, j = t
            for fi, c in b2.lift(self.l_basis[l]).items():
                x, y = b2.tuples[fi]
                yield (x, y, j), c

        self.j_lb = term_map(self.t_lb, b3, j_lb_terms)

        def j_bl_terms(t):
            j, l = t
            for fi, c in b2.lift(self.l_basis[l]).items():
                x, y = b2.tuples[fi]
                yield (j, x, y), c

        self.j_bl = term_map(self.t_bl, b3, j_bl_terms)
        if self.j_lb.rank() != self.t_lb.dim or self.j_bl.rank() != self.t_bl.dim:
            raise ValidationFailed("balanced products with L do not embed into B_3")

        # delta_3 = (id (x) tau) F, restricted codomain Delta : B -> L (x)_V B
        delta3_cols = []
        for i in range(b.total.dim):
            acc: Vec = {}
            for k, c, cf in b.f_legs[i]:
                for x, y, ct in b.tau_legs[c]:
                    viadd_term(acc, b3.flat_index((k, x, y)), cf * ct)
            delta3_cols.append(b3.project(acc))
        self.delta3 = LinearMap(b.total.space, b3.space, delta3_cols, field)
        delta_cols, bad = [], None
        for i, col in enumerate(delta3_cols):
            sol = self.j_lb.solve(col)
            if sol is None:
                bad = {"basis_index": i, "value": b3.render(col)}
                break
            delta_cols.append(sol)
        self.report.add(failing("gauge.f3-incl", "f3-incl", bad) if bad
                        else passing("gauge.f3-incl", "f3-incl"))
        if bad:
            raise ValidationFailed("delta_3 does not land in L (x)_V B")
        self.delta = LinearMap(b.total.space, self.t_lb.space, delta_cols, field)

        # eps_M : L -> V from the product map
        mu_l_cols = []
        for lb in self.l_basis:
            acc = {}
            for fi, c in b2.lift(lb).items():
                x, y = b2.tuples[fi]
                viadd(acc, c, b.total.mul_basis(x, y))
            mu_l_cols.append(acc)
        self.report.add(
            passing("gauge.muL", "mu_M(L) = V")
            if spans_equal(span_basis(mu_l_cols), b.base_vectors)
            else failing("gauge.muL", "mu_M(L) = V",
                         {"rank": len(span_basis(mu_l_cols)),
                          "dim_V": b.base_dim}))
        eps_cols = []
        for col in mu_l_cols:
            sol = b.base_in_total.solve(col)
            if sol is None:
                raise ValidationFailed("mu_M(L) leaves V")
            eps_cols.append(sol)
        self.eps_m = LinearMap(self.l_space, b.base.space, eps_cols, field)

        # phi_M : L -> L (x)_V L as the restriction of (Delta (x) id)
        def j_ll_terms(t):
            l1, l2 = t
            for fi, c in b2.lift(self.l_basis[l2]).items():
                x, y = b2.tuples[fi]
                yield (l1, x, y), c

        self.j_ll = term_map(self.t_ll, self.t_lbb, j_ll_terms)
        phi_cols, bad = [], None
        for li, lb in enumerate(self.l_basis):
            acc: Vec = {}
            for fi, c in b2.lift(lb).items():
                i, j = b2.tuples[fi]
                for fj, cd in self.t_lb.lift(self.delta.cols[i]).items():
                    l1, x = self.t_lb.tuples[fj]
                    viadd_term(acc, self.t_lbb.flat_index((l1, x, j)), c * cd)
            v = self.t_lbb.project(acc)
            sol = self.j_ll.solve(v)
            if sol is None:
                bad = {"l_basis_index": li}
                break
            phi_cols.append(sol)
        self.report.add(failing("gauge.phiM-incl", "(Delta (x) id)(L) in L (x) L", bad)
                        if bad else
                        passing("gauge.phiM-incl", "(Delta (x) id)(L) in L (x) L"))
        if bad:
            raise ValidationFailed("phi_M does not land in L (x)_V L")
        self.phi_m = LinearMap(self.l_space, self.t_ll.space, phi_cols, field)

        self._verify_coalgebra()

    # -- helpers ------------------------------------------------------------

    def into_l(self, v: Vec, what: str = "vector") -> Vec:
        sol = self.l_incl.solve(v)
        if sol is None:
            raise ValidationFailed(f"{what} leaves the gauge coalgebra subspace")
        return sol

    def _f2_minus_unit(self) -> LinearMap:
        b = self.bundle
        field = self.field
        one = field.one
        b2 = b.b2
        bba = b.mixed_space("BBA")
        cols = []
        for i in range(b2.dim):
            col = dict(self.f2.cols[i])
            iota: Vec = {}
            for fi, c in b2.lift({i: one}).items():
                x, y = b2.tuples[fi]
                for a, ca in b.group.unit.items():
                    viadd_term(iota, bba.flat_index((x, y, a)), c * ca)
            for k, c in bba.project(iota).items():
                s = col.get(k)
                s = -c if s is None else s - c
                if s:
                    col[k] = s
                elif k in col:
                    del col[k]
            cols.append(col)
        return LinearMap(b2.space, bba.space, cols, field)

    # -- coalgebra identities ---------------------------------------------------

    def _verify_coalgebra(self):
        b = self.bundle
        field = self.field
        one = field.one
        rep = self.report
        nl = self.l_space.dim

        # (eps_M (x) id) phi_M = (id (x) eps_M) phi_M = id
        def eps1_terms(t):
            l1, l2 = t
            for v, c in self.eps_m.cols[l1].items():
                for k, ck in self.lact[v].cols[l2].items():
                    yield (k,), c * ck

        t_l = TProd(field, (self.l_factor,), name="L")
        eps1 = term_map(self.t_ll, t_l, eps1_terms)

        def eps2_terms(t):
            l1, l2 = t
            for v, c in self.eps_m.cols[l2].items():
                for k, ck in self.ract[v].cols[l1].items():
                    yield (k,), c * ck

        eps2 = term_map(self.t_ll, t_l, eps2_terms)
        resc = LinearMap(self.l_space, t_l.space,
                         [t_l.project_tuple((i,)) for i in range(nl)], field)
        rep.add(map_equality_record("gauge.counit-left", "counit",
                                    eps1.compose(self.phi_m), resc,
                                    witness_space=t_l.space))
        rep.add(map_equality_record("gauge.counit-right", "counit",
                                    eps2.compose(self.phi_m), resc,
                                    witness_space=t_l.space))

        # (eps_M (x) id) Delta = id on B
        def epsd_terms(t):
            l, j = t
            for v, c in self.eps_m.cols[l].items():
                prod = b.total.mul(b.base_vectors[v], {j: one})
                for k, ck in prod.items():
                    yield (k,), c * ck

        b1 = b.b_space(1)
        epsd = term_map(self.t_lb, b1, epsd_terms)
        idb = LinearMap(b.total.space, b1.space,
                        [b1.project_tuple((i,)) for i in range(b.total.dim)], field)
        rep.add(map_equality_record("gauge.e-fgau", "e-fgau",
                                    epsd.compose(self.delta), idb,
                                    witness_space=b1.space))

        # (id (x) Delta) Delta = (phi_M (x) id) Delta
        def id_delta_terms(t):
            l, j = t
            for fj, cd in self.t_lb.lift(self.delta.cols[j]).items():
                l2, x = self.t_lb.tuples[fj]
                yield (l, l2, x), cd

        id_delta = term_map(self.t_lb, self.t_llb, id_delta_terms)

        def phi_id_terms(t):
            l, j = t
            for fj, cp in self.t_ll.lift(self.phi_m.cols[l]).items():
                l1, l2 = self.t_ll.tuples[fj]
                yield (l1, l2, j), cp

        phi_id = term_map(self.t_lb, self.t_llb, phi_id_terms)
        rep.add(map_equality_record("gauge.coact", "coact",
                                    id_delta.compose(self.delta),
                                    phi_id.compose(self.delta),
                                    witness_space=self.t_llb.space))

        # coassociativity of phi_M
        def phi1_terms(t):
            l1, l2 = t
            for fj, cp in self.t_ll.lift(self.phi_m.cols[l1]).items():
                a, b_ = self.t_ll.tuples[fj]
                yield (a, b_, l2), cp

        phi1 = term_map(self.t_ll, self.t_lll, phi1_terms)

        def phi2_terms(t):
            l1, l2 = t
            for fj, cp in self.t_ll.lift(self.phi_m.cols[l2]).items():
                a, b_ = self.t_ll.tuples[fj]
                yield (l1, a, b_), cp

        phi2 = term_map(self.t_ll, self.t_lll, phi2_terms)
        rep.add(map_equality_record("gauge.coasso", "coasso",
                                    phi1.compose(self.phi_m),
                                    phi2.compose(self.phi_m),
                                    witness_space=self.t_lll.space))

        # fgau-F diagram: (id (x) F) Delta = (Delta (x) id) F
        def idf_terms(t):
            l, j = t
            for k, a, cf in b.f_legs[j]:
                yield (l, k, a), cf

        idf = term_map(self.t_lb, self.t_lba, idf_terms)
        lhs = idf.compose(self.delta)
        cols = []
        for i in range(b.total.dim):
            acc: Vec = {}
            for k, a, cf in b.f_legs[i]:
                for fj, cd in self.t_lb.lift(self.delta.cols[k]).items():
                    l, x = self.t_lb.tuples[fj]
                    viadd_term(acc, self.t_lba.flat_index((l, x, a)), cf * cd)
            cols.append(self.t_lba.project(acc))
        rhs = LinearMap(b.total.space, self.t_lba.space, cols, field)
        rep.add(map_equality_record("gauge.fgau-F", "fgau-F", lhs, rhs,
                                    witness_space=self.t_lba.space))

        # Lemma 2.6 antipode identities, computed by flat pairing
        braid = self.braid
        b2 = b.b2
        b3 = b.b_space(3)
        bad1 = bad2 = None
        for bi in range(b2.dim):
            # input basis element of B_2 with flat legs (p, q)
            lhs1: Vec = {}
            lhs2: Vec = {}
            rhs1: Vec = {}
            rhs2: Vec = {}
            for fi, c in b2.lift({bi: one}).items():
                p, q = b2.tuples[fi]
                # delta_3(e_p) flat legs (x, y, z)
                for fj, cd in b3.lift(self.delta3.cols[p]).items():
                    x, y, z = b3.tuples[fj]
                    left = b2.project_tuple((x, y))
                    coeff = c * cd
                    # id^2 (x) sigma on (z, q), then mu^2
                    for (z2, q2), cs in braid._sigma_pair(z, q):
                        viadd(lhs1, coeff * cs,
                              braid.mult2(left, b2.project_tuple((z2, q2))))
                    # sigma (x) id^2 on (x, y), then mu^2
                    for (x2, y2), cs in braid._sigma_pair(x, y):
                        viadd(lhs2, coeff * cs,
                              braid.mult2(b2.project_tuple((x2, y2)),
                                          b2.project_tuple((z, q))))
                prod = b.total.mul_basis(p, q)
                for k, ck in prod.items():
                    for u, cu in b.total.unit.items():
                        viadd(rhs1, c * ck * cu, b2.project_tuple((k, u)))
                        viadd(rhs2, c * ck * cu, b2.project_tuple((u, k)))
            if lhs1 != rhs1 and bad1 is None:
                bad1 = {"basis_index": bi, "lhs": b2.render(lhs1),
                        "rhs": b2.render(rhs1)}
            if lhs2 != rhs2 and bad2 is None:
                bad2 = {"basis_index": bi, "lhs": b2.render(lhs2),
                        "rhs": b2.render(rhs2)}
        rep.add(failing("gauge.antipode-1", "mu^2(id^2 (x) sigma)(delta_3 (x) id) = mu (x) 1",
                        bad1) if bad1 else
                passing("gauge.antipode-1", "mu^2(id^2 (x) sigma)(delta_3 (x) id) = mu (x) 1"))
        rep.add(failing("gauge.antipode-2", "mu^2(sigma (x) id^2)(delta_3 (x) id) = 1 (x) mu",
                        bad2) if bad2 else
                passing("gauge.antipode-2", "mu^2(sigma (x) id^2)(delta_3 (x) id) = 1 (x) mu"))

        # delta_3 is a *-homomorphism into braided B_3
        star3 = braid.star_n(3)
        mult3 = braid.mult_n(3)
        star_b = b.total.star
        bad = None
        for i in range(b.total.dim):
            lhs_v = self.delta3.apply(star_b.cols[i])
            rhs_v = star3.apply(self.delta3.cols[i])
            if lhs_v != rhs_v:
                bad = {"basis_index": i, "side": "star"}
                break
        if bad is None:
            for i in range(b.total.dim):
                for j in range(b.total.dim):
                    lhs_v = self.delta3.apply(b.total.mul_basis(i, j))
                    rhs_v = mult3(self.delta3.cols[i], self.delta3.cols[j])
                    if lhs_v != rhs_v:
                        bad = {"basis_pair": [i, j], "side": "mult"}
                        break
                if bad:
                    break
        rep.add(failing("gauge.delta3-star-hom", "delta_3 is a *-homomorphism", bad)
                if bad else
                passing("gauge.delta3-star-hom", "delta_3 is a *-homomorphism"))

        # closure status of L under the sigma-induced conjugation (reported)
        star2 = braid.star_n(2)
        closed = all(self.l_incl.solve(star2.apply(lb)) is not None
                     for lb in self.l_basis)
        rep.add(CheckRecord("gauge.star-closure",
                            "L closed under the braided conjugation",
                            "pass", note=f"closed = {closed}"))
        self.braided_star_closed = closed


def build_gauge_coalgebra(b: Bundle, braid: BraidOperator | None = None) -> GaugeCoalgebra:
    return GaugeCoalgebra(b, braid or sigma_m(b))


def varsigma(b: Bundle, a_vec: Vec) -> Vec:
    """sigma-cochain of a group element:
    l(kappa^-1(a^(1))) (x) tau(a^(2)) r(kappa^-1(a^(1))), in B_3."""
    g = b.group
    b3 = b.b_space(3)
    out: Vec = {}
    for a, ca in a_vec.items():
        for a1, a2, c in g.sweedler(a):
            for k, ck in g.antipode_inverse.cols[a1].items():
                for x, y, ct in b.tau_legs[k]:
                    for u, v, cu in b.tau_legs[a2]:
                        coeff = ca * c * ck * ct * cu
                        for w, cw in b.total.mul_basis(v, y).items():
                            viadd_term(out, b3.flat_index((x, u, w)), coeff * cw)
    return b3.project(out)


# -- classical braided Hopf structure ------------------------------------------


def unit_b2(b: Bundle) -> Vec:
    """1 (x) 1 in canonical B_2 coordinates."""
    b2 = b.b2
    acc: Vec = {}
    for i, ci in b.total.unit.items():
        for j, cj in b.total.unit.items():
            viadd_term(acc, b2.flat_index((i, j)), ci * cj)
    return b2.project(acc)


class BraidedHopf:
    """{kappa_M, eps_M, phi_M, Sigma} on L over a classical structure group."""

    def __init__(self, gc: GaugeCoalgebra):
        from .braiding import classicality_report
        self.gc = gc
        b = gc.bundle
        braid = gc.braid
        field = gc.field
        classical, _ = classicality_report(b, braid)
        if not classical:
            raise NotClassical("the structure group algebra is noncommutative")
        self.report = ValidationReport()
        rep = self.report
        b2 = b.b2
        b4 = b.b_space(4)
        unit2 = unit_b2(b)

        # diagram tw: F_2 sigma = (sigma (x) id) F_2
        bba = b.mixed_space("BBA")

        def s12_terms(t):
            i, j, a = t
            for (x, y), cs in braid._sigma_pair(i, j):
                yield (x, y, a), cs

        s12_bba = term_map(bba, bba, s12_terms)
        rep.add(map_equality_record("classical.tw", "tw",
                                    gc.f2.compose(braid.forward),
                                    s12_bba.compose(gc.f2),
                                    witness_space=bba.space))

        # L is a *-subalgebra of braided B_2
        bad = None
        star2 = braid.star_n(2)
        for li, lb in enumerate(gc.l_basis):
            if gc.l_incl.solve(star2.apply(lb)) is None:
                bad = {"l_basis_index": li, "side": "star"}
                break
        if bad is None:
            for li, lb in enumerate(gc.l_basis):
                for lj, lb2 in enumerate(gc.l_basis):
                    if gc.l_incl.solve(braid.mult2(lb, lb2)) is None:
                        bad = {"l_pair": [li, lj], "side": "mult"}
                        break
                if bad:
                    break
        rep.add(failing("classical.L-subalgebra", "L is a *-subalgebra of B_2", bad)
                if bad else
                passing("classical.L-subalgebra", "L is a *-subalgebra of B_2"))
        if bad:
            raise ValidationFailed("L fails to close under the braided structure")

        self.l_mult = [[gc.into_l(braid.mult2(gc.l_basis[i], gc.l_basis[j]), "L.L")
                        for j in range(len(gc.l_basis))]
                       for i in range(len(gc.l_basis))]
        self.l_star = LinearMap(gc.l_space, gc.l_space,
                                [gc.into_l(star2.apply(lb), "L*")
                                 for lb in gc.l_basis], field, antilinear=True)
        self.l_unit = gc.into_l(unit2, "1(x)1")

        # covariance: (sigma x id)(id x sigma)(L (x) B) = B (x) L and mirror
        s12 = braid.at(3, 0)
        s23 = braid.at(3, 1)
        move_lb = s12.compose(s23)
        move_bl = s23.compose(s12)
        img = [move_lb.apply(gc.j_lb.cols[i]) for i in range(gc.t_lb.dim)]
        ok1 = spans_equal(img, gc.j_bl.cols)
        img = [move_bl.apply(gc.j_bl.cols[i]) for i in range(gc.t_bl.dim)]
        ok2 = spans_equal(img, gc.j_lb.cols)
        rep.add(passing("classical.covariance", "braid moves L across B")
                if ok1 and ok2 else
                failing("classical.covariance", "braid moves L across B",
                        {"LB_to_BL": ok1, "BL_to_LB": ok2}))

        # kappa_M = sigma restricted to L
        bad = None
        kap_cols = []
        for li, lb in enumerate(gc.l_basis):
            sol = gc.l_incl.solve(braid.forward.apply(lb))
            if sol is None:
                bad = {"l_basis_index": li}
                break
            kap_cols.append(sol)
        rep.add(failing("classical.L-sigma-invariant", "sigma(L) = L", bad) if bad
                else passing("classical.L-sigma-invariant", "sigma(L) = L"))
        if bad:
            raise ValidationFailed("L is not sigma-invariant")
        self.kappa_m = LinearMap(gc.l_space, gc.l_space, kap_cols, field)

        # Sigma on L (x) L: restriction of (id x s x id)(s x s)(id x s x id) on B_4
        s23_4 = braid.at(4, 1)
        s12_4 = braid.at(4, 0)
        s34_4 = braid.at(4, 2)
        big = s23_4.compose(s12_4.compose(s34_4)).compose(s23_4)

        def j_ll4_terms(t):
            l1, l2 = t
            for fi, c in b2.lift(gc.l_basis[l1]).items():
                x, y = b2.tuples[fi]
                for fj, c2 in b2.lift(gc.l_basis[l2]).items():
                    u, v = b2.tuples[fj]
                    yield (x, y, u, v), c * c2

        self.j_ll4 = term_map(gc.t_ll, b4, j_ll4_terms)
        sig_cols, bad = [], None
        for i in range(gc.t_ll.dim):
            img_v = big.apply(self.j_ll4.cols[i])
            sol = self.j_ll4.solve(img_v)
            if sol is None:
                bad = {"t_ll_index": i}
                break
            sig_cols.append(sol)
        rep.add(failing("classical.Sigma-restricts", "Sigma preserves L (x) L", bad)
                if bad else
                passing("classical.Sigma-restricts", "Sigma preserves L (x) L"))
        if bad:
            raise ValidationFailed("Sigma does not restrict to L (x) L")
        self.sigma_ll = LinearMap(gc.t_ll.space, gc.t_ll.space, sig_cols, field)

        ident = LinearMap.identity(gc.t_ll.space, field)
        rep.add(map_equality_record("classical.Sigma-involutive", "Sigma = Sigma^-1",
                                    self.sigma_ll.compose(self.sigma_ll), ident,
                                    witness_space=gc.t_ll.space))

        # star on L (x) L from the braided star on B_4
        star4 = braid.star_n(4)
        ll_star_cols, bad = [], None
        for i in range(gc.t_ll.dim):
            sol = self.j_ll4.solve(star4.apply(self.j_ll4.cols[i]))
            if sol is None:
                bad = {"t_ll_index": i}
                break
            ll_star_cols.append(sol)
        if bad:
            raise ValidationFailed("braided star does not preserve L (x) L")
        # j_ll4 is linear, star4 antilinear: solving against linear columns
        # keeps the conjugated coefficients, so mark the result antilinear.
        self.ll_star = LinearMap(gc.t_ll.space, gc.t_ll.space, ll_star_cols,
                                 field, antilinear=True)
        rep.add(map_equality_record("classical.Sigma-star", "*Sigma = Sigma*",
                                    self.ll_star.compose(self.sigma_ll),
                                    self.sigma_ll.compose(self.ll_star),
                                    witness_space=gc.t_ll.space))

        # Sigma exchange laws with phi_M
        def phi1_terms(t):
            l1, l2 = t
            for fj, cp in gc.t_ll.lift(gc.phi_m.cols[l1]).items():
                a, b_ = gc.t_ll.tuples[fj]
                yield (a, b_, l2), cp

        phi1 = term_map(gc.t_ll, gc.t_lll, phi1_terms)

        def phi2_terms(t):
            l1, l2 = t
            for fj, cp in gc.t_ll.lift(gc.phi_m.cols[l2]).items():
                a, b_ = gc.t_ll.tuples[fj]
                yield (l1, a, b_), cp

        phi2 = term_map(gc.t_ll, gc.t_lll, phi2_terms)

        def sig_at(p):
            def terms(t):
                pair = gc.t_ll.project_tuple((t[p], t[p + 1]))
                out = self.sigma_ll.apply(pair)
                for fj, c in gc.t_ll.lift(out).items():
                    yield t[:p] + gc.t_ll.tuples[fj] + t[p + 2:], c
            return term_map(gc.t_lll, gc.t_lll, terms)

        sig12 = sig_at(0)
        sig23 = sig_at(1)
        lhs = phi2.compose(self.sigma_ll)
        rhs = sig12.compose(sig23).compose(phi1)
        rep.add(map_equality_record("classical.Sigma-phi-1",
                                    "(id (x) phi_M)Sigma = (Sigma (x) id)(id (x) Sigma)(phi_M (x) id)",
                                    lhs, rhs, witness_space=gc.t_lll.space))
        lhs = phi1.compose(self.sigma_ll)
        rhs = sig23.compose(sig12).compose(phi2)
        rep.add(map_equality_record("classical.Sigma-phi-2",
                                    "(phi_M (x) id)Sigma = (id (x) Sigma)(Sigma (x) id)(id (x) phi_M)",
                                    lhs, rhs, witness_space=gc.t_lll.space))

        # phi_M is a *-homomorphism (braided product on L (x) L via B_4)
        mult4 = braid.mult_n(4)
        bad = None
        for i in range(gc.l_space.dim):
            lhs_v = self.phi_of_star(i)
            rhs_v = self.ll_star.apply(gc.phi_m.cols[i])
            if lhs_v != rhs_v:
                bad = {"l_basis_index": i, "side": "star"}
                break
        if bad is None:
            for i in range(gc.l_space.dim):
                for j in range(gc.l_space.dim):
                    lhs_v = gc.phi_m.apply(self.l_mult[i][j])
                    prod4 = mult4(self.j_ll4.apply(gc.phi_m.cols[i]),
                                  self.j_ll4.apply(gc.phi_m.cols[j]))
                    sol = self.j_ll4.solve(prod4)
                    if sol is None or sol != lhs_v:
                        bad = {"l_pair": [i, j], "side": "mult"}
                        break
                if bad:
                    break
        rep.add(failing("classical.phiM-star-hom", "phi_M is a *-homomorphism", bad)
                if bad else
                passing("classical.phiM-star-hom", "phi_M is a *-homomorphism"))

        # braided-Hopf antipode axiom via the product on L (x) L -> L
        def mu_ll_terms(t):
            l1, l2 = t
            prod = braid.mult2(gc.l_basis[l1], gc.l_basis[l2])
            for k, c in gc.into_l(prod, "L.L").items():
                yield (k,), c

        t_l = TProd(field, (gc.l_factor,), name="L")
        mu_ll = term_map(gc.t_ll, t_l, mu_ll_terms)

        def kap_at(p):
            def terms(t):
                for k, c in self.kappa_m.cols[t[p]].items():
                    yield t[:p] + (k,) + t[p + 1:], c
            return term_map(gc.t_ll, gc.t_ll, terms)

        unit_eps_cols = []
        for i in range(gc.l_space.dim):
            acc: Vec = {}
            for v, c in gc.eps_m.cols[i].items():
                # f . (1 (x) 1) inside L
                fv = b.lmult_map(2, 0, b.base_vectors[v]).apply(unit2)
                for k, ck in gc.into_l(fv, "f(1(x)1)").items():
                    viadd_term(acc, t_l.flat_index((k,)), c * ck)
            unit_eps_cols.append(t_l.project(acc))
        unit_eps = LinearMap(gc.l_space, t_l.space, unit_eps_cols, field)
        lhs1 = mu_ll.compose(kap_at(0)).compose(gc.phi_m)
        lhs2 = mu_ll.compose(kap_at(1)).compose(gc.phi_m)
        rep.add(map_equality_record("classical.antipode-left",
                                    "mu(kappa_M (x) id)phi_M = unit eps_M",
                                    lhs1, unit_eps, witness_space=t_l.space))
        rep.add(map_equality_record("classical.antipode-right",
                                    "mu(id (x) kappa_M)phi_M = unit eps_M",
                                    lhs2, unit_eps, witness_space=t_l.space))
        rep.add(map_equality_record("classical.kappaM-squared", "kappa_M^2 = id",
                                    self.kappa_m.compose(self.kappa_m),
                                    LinearMap.identity(gc.l_space, field),
                                    witness_space=gc.l_space))

    def phi_of_star(self, i: int) -> Vec:
        return self.gc.phi_m.apply(self.l_star.cols[i])


def classical_braided_hopf(gc: GaugeCoalgebra) -> BraidedHopf:
    return BraidedHopf(gc)


# -- gauge transformations --------------------------------------------------------


class GaugeTransformation:
    """A V-valued character of L, with its action on B."""

    def __init__(self, gc: GaugeCoalgebra, functional: LinearMap):
        self.gc = gc
        self.functional = functional  # L-space -> V-space
        b = gc.bundle
        field = gc.field
        cols = []
        for i in range(b.total.dim):
            acc: Vec = {}
            for fj, cd in gc.t_lb.lift(gc.delta.cols[i]).items():
                l, x = gc.t_lb.tuples[fj]
                gval = self.value_in_b({l: field.one})
                viadd(acc, cd, b.total.mul(gval, {x: field.one}))
            cols.append(acc)
        self.action = LinearMap(b.total.space, b.total.space, cols, field)

    def value_in_b(self, lvec: Vec) -> Vec:
        out: Vec = {}
        for v, c in self.functional.apply(lvec).items():
            viadd(out, c, self.gc.bundle.base_vectors[v])
        return out

    def matrix_key(self):
        return _matrix_key(self.functional)

    def __eq__(self, other):
        return isinstance(other, GaugeTransformation) and \
            self.functional.cols == other.functional.cols


def verify_gauge_candidate(gc: GaugeCoalgebra, gamma: LinearMap) -> dict:
    """Flags for a user-supplied functional L -> V on any bundle, including
    noncommutative ones where enumeration is unsupported.  Multiplicativity
    is reported as None when L is not closed under the braided product."""
    b = gc.bundle
    braid = gc.braid
    field = gc.field
    one = field.one
    base = b.base
    flags: dict = {}
    unit_l = gc.into_l(unit_b2(b), "1(x)1")
    flags["unital"] = gamma.apply(unit_l) == base.unit
    ok = True
    for v in range(base.dim):
        for li in range(gc.l_space.dim):
            if gamma.apply(gc.lact[v].cols[li]) != \
                    base.mul({v: one}, gamma.apply({li: one})):
                ok = False
                break
            if gamma.apply(gc.ract[v].cols[li]) != \
                    base.mul(gamma.apply({li: one}), {v: one}):
                ok = False
                break
        if not ok:
            break
    flags["v_linear"] = ok
    closed = True
    ok = True
    for i in range(gc.l_space.dim):
        for j in range(gc.l_space.dim):
            prod = braid.mult2(gc.l_basis[i], gc.l_basis[j])
            sol = gc.l_incl.solve(prod)
            if sol is None:
                closed = False
                break
            if gamma.apply(sol) != base.mul(gamma.apply({i: one}),
                                            gamma.apply({j: one})):
                ok = False
        if not closed:
            break
    flags["multiplicative"] = ok if closed else None
    star2 = braid.star_n(2)
    closed = True
    ok = True
    for i in range(gc.l_space.dim):
        st = gc.l_incl.solve(star2.apply(gc.l_basis[i]))
        if st is None:
            closed = False
            break
        if gamma.apply(st) != base.star_vec(gamma.apply({i: one})):
            ok = False
    flags["star"] = ok if closed else None
    # compatibility: gamma(rho) b = sum b_j gamma(rho_j)
    s12 = braid.at(3, 0)
    s23 = braid.at(3, 1)
    move = s12.compose(s23)
    ok = True
    for li in range(gc.l_space.dim):
        for bi in range(b.total.dim):
            moved = move.apply(gc.j_lb.apply(gc.t_lb.project_tuple((li, bi))))
            sol = gc.j_bl.solve(moved)
            if sol is None:
                ok = None
                break
            rhs: Vec = {}
            for fj, c in gc.t_bl.lift(sol).items():
                j, l = gc.t_bl.tuples[fj]
                gval: Vec = {}
                for v, cv in gamma.apply({l: one}).items():
                    viadd(gval, cv, b.base_vectors[v])
                viadd(rhs, c, b.total.mul({j: one}, gval))
            gval = {}
            for v, cv in gamma.apply({li: one}).items():
                viadd(gval, cv, b.base_vectors[v])
            if b.total.mul(gval, {bi: one}) != rhs:
                ok = False
                break
        if not ok:
            break
    flags["compatibility"] = ok
    return flags


def _gamma_flags(bh: BraidedHopf, gamma: LinearMap) -> dict:
    """Evaluate the defining conditions of a gauge transformation."""
    gc = bh.gc
    b = gc.bundle
    field = gc.field
    one = field.one
    base = b.base
    flags = {}
    # unital
    flags["unital"] = gamma.apply(bh.l_unit) == base.unit
    # V-bilinear
    ok = True
    for v in range(base.dim):
        for li in range(gc.l_space.dim):
            lhs = gamma.apply(gc.lact[v].cols[li])
            rhs = base.mul({v: one}, gamma.apply({li: one}))
            if lhs != rhs:
                ok = False
                break
            lhs = gamma.apply(gc.ract[v].cols[li])
            rhs = base.mul(gamma.apply({li: one}), {v: one})
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    flags["v_linear"] = ok
    # multiplicative
    ok = True
    for i in range(gc.l_space.dim):
        for j in range(gc.l_space.dim):
            lhs = gamma.apply(bh.l_mult[i][j])
            rhs = base.mul(gamma.apply({i: one}), gamma.apply({j: one}))
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    flags["multiplicative"] = ok
    # hermitian
    ok = True
    for i in range(gc.l_space.dim):
        lhs = gamma.apply(bh.l_star.cols[i])
        rhs = base.star_vec(gamma.apply({i: one}))
        if lhs != rhs:
            ok = False
            break
    flags["star"] = ok
    # compatibility: gamma(rho) b = sum b_j gamma(rho_j)
    braid = gc.braid
    s12 = braid.at(3, 0)
    s23 = braid.at(3, 1)
    move = s12.compose(s23)
    ok = True
    for li in range(gc.l_space.dim):
        for bi in range(b.total.dim):
            src = gc.j_lb.apply(gc.t_lb.project_tuple((li, bi)))
            moved = move.apply(src)
            sol = gc.j_bl.solve(moved)
            if sol is None:
                ok = False
                break
            rhs: Vec = {}
            for fj, c in gc.t_bl.lift(sol).items():
                j, l = gc.t_bl.tuples[fj]
                gval: Vec = {}
                for v, cv in gamma.apply({l: one}).items():
                    viadd(gval, cv, b.base_vectors[v])
                viadd(rhs, c, b.total.mul({j: one}, gval))
            gval: Vec = {}
            for v, cv in gamma.apply({li: one}).items():
                viadd(gval, cv, b.base_vectors[v])
            lhs = b.total.mul(gval, {bi: one})
            if lhs != rhs:
                ok = False
                break
        if not ok:
            break
    flags["compatibility"] = ok
    return flags


def _matrix_key(m: LinearMap):
    return tuple(tuple((k, col[k].literal()) for k in sorted(col)) for col in m.cols)


def compose_gammas(g1: GaugeTransformation, g2: GaugeTransformation) -> LinearMap:
    """The group product gamma gamma' = (gamma (x) gamma')phi_M, as a map L -> V."""
    gc = g1.gc
    base = gc.bundle.base
    one = gc.field.one
    cols = []
    for li in range(gc.l_space.dim):
        acc: Vec = {}
        for fj, c in gc.t_ll.lift(gc.phi_m.cols[li]).items():
            l1, l2 = gc.t_ll.tuples[fj]
            viadd(acc, c, base.mul(g1.functional.apply({l1: one}),
                                   g2.functional.apply({l2: one})))
        cols.append(acc)
    return LinearMap(gc.l_space, base.space, cols, gc.field)


def gauge_group_table(gammas) -> list:
    """table[i][j]: the index of gammas[i] gammas[j] in gammas, or None if the
    product is not in the list."""
    keyset = {g.matrix_key(): i for i, g in enumerate(gammas)}
    return [[keyset.get(_matrix_key(compose_gammas(g1, g2))) for g2 in gammas]
            for g1 in gammas]


def enumerate_gauge(bh: BraidedHopf):
    """All gauge transformations of a classical bundle with commutative L and
    V, found through primitive idempotents; the group law, the inverses, the
    action automorphism property and F-equivariance are all verified.

    Returns (transformations, table, report), where table is their
    gauge_group_table."""
    gc = bh.gc
    b = gc.bundle
    field = gc.field
    one = field.one
    base = b.base
    rep = ValidationReport()

    # commutativity preconditions
    wit = base.is_commutative()
    if wit is not None:
        raise NotCommutative("the base algebra V is noncommutative")
    for i in range(gc.l_space.dim):
        for j in range(gc.l_space.dim):
            if bh.l_mult[i][j] != bh.l_mult[j][i]:
                raise NotCommutative("the gauge coalgebra L is noncommutative")
    # V central in L (needed for the character construction)
    for v in range(base.dim):
        for li in range(gc.l_space.dim):
            if gc.lact[v].cols[li] != gc.ract[v].cols[li]:
                raise NotCommutative("V does not act centrally on L")

    l_alg = CommAlgebra(field, gc.l_space.dim,
                        lambda u, v: table_mul(bh.l_mult, u, v),
                        bh.l_unit)
    v_alg = CommAlgebra(field, base.dim,
                        lambda u, v: base.mul(u, v), base.unit)
    v_chars = field_characters(v_alg)
    if len(v_chars) != base.dim:
        raise NotCommutative(
            "V does not split into field characters over this conductor")
    l_chars = [chi for _, chi in field_characters(l_alg)]

    # embed V into L as f (x) 1 (in L coordinates)
    unit2 = unit_b2(b)
    v_in_l = []
    for v in range(base.dim):
        fv = b.lmult_map(2, 0, b.base_vectors[v]).apply(unit2)
        v_in_l.append(gc.into_l(fv, "f(1(x)1)"))

    # primitive idempotents of V in V coordinates
    v_idems = [e for e, _ in v_chars]

    def char_value(chi, vec: Vec):
        acc = field.zero
        for k, c in vec.items():
            acc = acc + c * chi[k]
        return acc

    gammas = []
    for assignment in _assignments(v_chars, l_chars, v_in_l, char_value):
        cols = []
        for li in range(gc.l_space.dim):
            acc: Vec = {}
            for j, chi in assignment:
                val = chi[li]
                if val:
                    viadd(acc, val, v_idems[j])
            cols.append(acc)
        gamma = LinearMap(gc.l_space, base.space, cols, field)
        flags = _gamma_flags(bh, gamma)
        if all(flags.values()):
            gammas.append(GaugeTransformation(gc, gamma))
    gammas.sort(key=lambda g: g.matrix_key())
    rep.add(CheckRecord("gauge-group.count", "enumeration", "pass",
                        note=f"{len(gammas)} transformations"))

    # group structure: products, inverses, unit
    table = gauge_group_table(gammas)
    ok = all(idx is not None for row in table for idx in row)
    keyset = {g.matrix_key(): i for i, g in enumerate(gammas)}
    rep.add(passing("gauge-group.closed", "gamma gamma' = (gamma (x) gamma')phi_M stays in the set")
            if ok else failing("gauge-group.closed", "product closure", {}))
    inv_ok = True
    unit_idx = None
    eps_gamma = LinearMap(gc.l_space, base.space, gc.eps_m.cols, field)
    for i, g in enumerate(gammas):
        if g.functional == eps_gamma:
            unit_idx = i
    if unit_idx is None:
        inv_ok = False
    else:
        kappa_inv = bh.kappa_m.inverse()
        for i, g in enumerate(gammas):
            j = keyset.get(_matrix_key(g.functional.compose(kappa_inv)))
            if j is None:
                inv_ok = False
                break
            if table[i][j] != unit_idx:
                inv_ok = False
                break
    rep.add(passing("gauge-group.inverse", "gamma^-1 = gamma kappa_M^-1, unit = eps_M")
            if inv_ok else failing("gauge-group.inverse", "inverses", {}))

    # action laws
    ok_auto = True
    ok_comp = True
    ok_equiv = True
    for i, g in enumerate(gammas):
        act = g.action
        if not act.is_bijective():
            ok_auto = False
        if act.apply(b.total.unit) != b.total.unit:
            ok_auto = False
        for p in range(b.total.dim):
            for q in range(b.total.dim):
                if act.apply(b.total.mul_basis(p, q)) != \
                        b.total.mul(act.apply({p: one}), act.apply({q: one})):
                    ok_auto = False
                    break
            if not ok_auto:
                break
        for p in range(b.total.dim):
            if act.apply(b.total.star_vec({p: one})) != \
                    b.total.star_vec(act.apply({p: one})):
                ok_auto = False
                break
        # F-equivariance F(gamma.b) = sum (gamma.b_k) (x) c_k
        for p in range(b.total.dim):
            lhs = b.coaction.apply(act.apply({p: one}))
            acc: Vec = {}
            for k, a, cf in b.f_legs[p]:
                for u, cu in act.apply({k: one}).items():
                    viadd_term(acc, u * b.group.dim + a, cf * cu)
            if lhs != acc:
                ok_equiv = False
                break
    # composition law: with the product (gamma (x) gamma')phi_M and the action
    # (gamma (x) id)Delta, coassociativity gives (gamma gamma').b =
    # gamma'.(gamma.b); both readings agree when the gauge group is abelian
    for i, g1 in enumerate(gammas):
        for j, g2 in enumerate(gammas):
            comp = table[i][j]
            if comp is None:
                ok_comp = False
                continue
            lhs = gammas[comp].action
            rhs = g2.action.compose(g1.action)
            if lhs != rhs:
                ok_comp = False
    rep.add(passing("gauge-group.automorphisms", "gamma acts by *-automorphisms")
            if ok_auto else failing("gauge-group.automorphisms", "action", {}))
    rep.add(passing("gauge-group.action-compat", "(gamma gamma').b = gamma'.(gamma.b)")
            if ok_comp else failing("gauge-group.action-compat", "action compatibility", {}))
    rep.add(passing("gauge-group.F-equivariance", "F(gamma.b) = sum (gamma.b_k) (x) c_k")
            if ok_equiv else failing("gauge-group.F-equivariance", "F-equivariance", {}))
    return gammas, table, rep


def _assignments(v_chars, l_chars, v_in_l, char_value):
    """Choose, for each primitive idempotent f_j of V, an L-character whose
    restriction to V is the f_j-coordinate character psi_j; yield one
    assignment [(j, chi_j)] per combination."""
    from itertools import product as iproduct
    compatible = []
    for _, psi in v_chars:
        compatible.append([chi for chi in l_chars
                           if all(char_value(chi, v_in_l[v]) == psi[v]
                                  for v in range(len(v_in_l)))])
    for combo in iproduct(*compatible):
        yield list(enumerate(combo))


# -- isotypic decomposition --------------------------------------------------------


class IsotypicDecomposition:
    def __init__(self, components, l_components, report):
        self.components = components      # list of (name, dim_irrep, basis, multiplicity)
        self.l_components = l_components  # list of (name, basis) or None
        self.report = report


def isotypic_decompose(b: Bundle, gc: GaugeCoalgebra | None = None) -> IsotypicDecomposition:
    """B = (+) B^alpha via the dual central idempotents of the
    corepresentation data; over a point the Peter-Weyl count
    sum multiplicity^2 = dim L is verified when L is available."""
    rep = ValidationReport()
    field = b.field
    g = b.group
    if not g.corepresentations:
        rep.add(vacuous("isotypic.available", "corepresentation data",
                        note="IrrepsUnavailable: decomposition skipped"))
        return IsotypicDecomposition(None, None, rep)
    comps = []
    total_dim = 0
    proj_sum = LinearMap.zero(b.total.space, b.total.space, field)
    for corep in g.corepresentations:
        cols = []
        for i in range(b.total.dim):
            acc: Vec = {}
            for k, a, cf in b.f_legs[i]:
                val = corep.functional[a]
                if val:
                    viadd_term(acc, k, cf * val)
            cols.append(acc)
        proj = LinearMap(b.total.space, b.total.space, cols, field)
        basis = span_basis(proj.cols)
        dim = len(basis)
        if dim % corep.dim != 0:
            rep.add(failing("isotypic.multiplicity", "m_alpha integral",
                            {"component": corep.name, "dim": dim,
                             "irrep_dim": corep.dim}))
            mult = None
        else:
            mult = dim // corep.dim
        comps.append((corep.name, corep.dim, basis, mult))
        total_dim += dim
        proj_sum = proj_sum.add(proj)
    ok = total_dim == b.total.dim and \
        proj_sum == LinearMap.identity(b.total.space, field)
    rep.add(passing("isotypic.complete", "sum of components = B")
            if ok else failing("isotypic.complete", "sum of components = B",
                               {"sum_dims": total_dim, "dim_B": b.total.dim}))
    l_components = None
    if gc is not None:
        l_components = []
        b2 = b.b2
        for name, d, basis, mult in comps:
            # G_alpha = L  intersect  (B^alpha (x)_V B)
            span = []
            for v in basis:
                for j in range(b.total.dim):
                    acc: Vec = {}
                    for i, c in v.items():
                        viadd_term(acc, b2.flat_index((i, j)), c)
                    span.append(b2.project(acc))
            inter = intersect_spans(gc.l_basis, span)
            l_components.append((name, inter))
        sum_l = sum(len(basis) for _, basis in l_components)
        ok = sum_l == len(gc.l_basis)
        rep.add(passing("isotypic.gauge-split", "L = (+) G_alpha")
                if ok else failing("isotypic.gauge-split", "L = (+) G_alpha",
                                   {"sum": sum_l, "dim_L": len(gc.l_basis)}))
        if b.is_point_base():
            want = sum((mult or 0) ** 2 for _, _, _, mult in comps)
            ok = want == len(gc.l_basis)
            rep.add(passing("isotypic.peter-weyl", "sum m_alpha^2 = dim L")
                    if ok else failing("isotypic.peter-weyl", "sum m_alpha^2 = dim L",
                                       {"sum_m2": want, "dim_L": len(gc.l_basis)}))
    return IsotypicDecomposition(comps, l_components, rep)
