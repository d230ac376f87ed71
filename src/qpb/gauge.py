"""The gauge coalgebra L (invariants of the doubled coaction on B (x)_V B),
its braided-Hopf structure over a classical structure group, the gauge group
of V-valued characters with its action on the bundle, and the isotypic
decompositions B = (+) B^alpha and L = (+) G_alpha.  These read the dual
central idempotents e_alpha that hopf.dual_central_idempotents derives from
A itself, whatever A is; a spec file's corepresentations section is only
checked against them.

L and the differential gauge coalgebra L^ of calculus.py come from one
construction, GradedGaugeCoalgebra, over a bundle.BalancedTower of one slot
algebra W over a coefficient algebra M: the invariants of the tower's F_2 on
W_2 with Delta = (id (x) tau)F, phi_M = (Delta (x) id)|_L and eps_M = mu|_L,
and the counital coalgebra and coaction identities.  Degrees, coefficient
degrees and the degree budget are the tower's data; L is the instance W = B,
M = V with every degree zero and no budget.  What only degree zero has is in
GaugeCoalgebra: the Haar projection p_L = (id (x) h)F_2 and its cross-checks,
B (x) L, mu_M(L) = V, fgau-F, the Lemma 2.6 antipode identities, delta_3 as a
*-homomorphism, and the braided product and star of L inside B_2.  The
braid is the bundle's: GaugeCoalgebra and BraidedHopf read the one
BraidOperator that braiding.sigma_m checks once per bundle.  The
sigma-cochain of a group element is the tower's, BalancedTower.varsigma,
written once for B_3 and for W_3 of the calculus.

All coalgebra maps are concrete matrices on abstract balanced tensor products
of L, B and V, built as tensor.slot_terms maps from the maps on their slots
(l_incl, Delta, phi_M, F, Sigma, kappa_M); inclusions into B_n are solved
exactly, so membership claims
(delta_3 lands in L (x) B, phi_M lands in L (x) L, ...) are verified rather
than assumed.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .braiding import sigma_m
from .bundle import Bundle
from .charsplit import CommAlgebra, field_characters
from .errors import NotClassical, NotCommutative, ValidationFailed
from .hopf import table_mul
from .linalg import (
    BasedSpace, LinearMap, Vec, first_outside, fixed_points, intersect_spans,
    span_basis, spans_equal, viadd, viadd_term,
)
from .report import CheckRecord, ValidationReport, map_equality_record, passing, vacuous
from .tensor import (
    Factor, TProd, apply_terms, chain_terms, embed, flat_legs, slot_apply, slot_terms, term_map,
    unit_leg,
)


class GradedGaugeCoalgebra:
    """The gauge coalgebra of a balanced tower (bundle.BalancedTower).

    ``tower`` gives the slot algebra W with its Factor, the powers W_1, W_2,
    W_3, the doubled coaction F_2 into W_2 (x) H, the unit of H, the flat legs
    of F and tau, the coefficient degrees and the budget; ``coeff_embed`` is
    the inclusion M -> W.  ``name`` and ``slot`` name L and W in labels and
    messages.
    """

    def __init__(self, name, slot, tower, coeff_embed):
        self.name = name
        self.algebra = tower.algebra
        self.coeff_embed = coeff_embed
        self.w1, w2, w3 = (tower.power(n) for n in (1, 2, 3))
        self.field = field = tower.field
        factor, f_legs = tower.factor, tower.f_legs
        coeff_degrees, budget = tower.coeff_degrees, tower.budget

        # L = F_2-invariants; each basis vector is homogeneous, of the degree
        # of its pivot
        self.l_basis = fixed_points(tower.f2, unit_leg(w2, tower.hopf_space(2),
                                                           tower.hopf.unit))
        nl = len(self.l_basis)
        self.l_space = BasedSpace(tuple(f"{name}{i}" for i in range(nl)))
        self.l_incl = LinearMap(self.l_space, w2.space, self.l_basis, field)
        self.degrees = tuple(w2.basis_degree(min(lb)) for lb in self.l_basis)

        # L as an M-bimodule factor (actions beyond the degree budget are
        # stored empty; balanced relations never consult them)
        lact, ract = [], []
        for f in range(len(factor.lact)):
            fdeg = 0 if coeff_degrees is None else coeff_degrees[f]
            lcols, rcols = [], []
            for lb, deg in zip(self.l_basis, self.degrees):
                if budget is not None and deg + fdeg > budget:
                    lcols.append({})
                    rcols.append({})
                    continue
                lcols.append(self.into_l(slot_apply(w2, lb, 0, factor.lact[f]),
                                         f"f.{name}"))
                rcols.append(self.into_l(slot_apply(w2, lb, 1, factor.ract[f]),
                                         f"{name}.f"))
            lact.append(LinearMap(self.l_space, self.l_space, lcols, field))
            ract.append(LinearMap(self.l_space, self.l_space, rcols, field))
        self.lact, self.ract = lact, ract
        self.l_factor = lf = Factor(self.l_space, self.degrees, lact, ract)

        def tprod(factors, label):
            return TProd(field, factors, coeff_degrees=coeff_degrees,
                         budget=budget, name=label)

        self.t_l = tprod((lf,), name)
        self.t_lb = tprod((lf, factor), f"{name}(x){slot}")
        self.t_ll = tprod((lf, lf), f"{name}(x){name}")
        self.t_llb = tprod((lf, lf, factor), f"{name}(x){name}(x){slot}")
        self.t_lbb = tprod((lf, factor, factor), f"{name}(x){slot}(x){slot}")
        self.t_lll = tprod((lf,) * 3, f"{name}(x){name}(x){name}")

        # L (x) W into W_3: l_incl on the L slot
        self.j_lb = term_map(self.t_lb, w3, slot_terms(0, self.l_incl, None, w2))
        if self.j_lb.solver().rank != self.t_lb.dim:
            raise ValidationFailed(
                f"balanced products with {name} do not embed into {w3.name}")

        # delta_3 = (id (x) tau) F, restricted codomain Delta : W -> L (x)_M W
        delta3_cols = [tower.tau_side(legs, lambda k: {k: field.one}) for legs in f_legs]
        self.delta3 = LinearMap(factor.space, w3.space, delta3_cols, field)
        delta_cols = []
        for col in delta3_cols:
            sol = self.j_lb.solve(col)
            if sol is None:
                raise ValidationFailed(f"delta_3 does not land in {name} (x) {slot}")
            delta_cols.append(sol)
        self.delta = LinearMap(factor.space, self.t_lb.space, delta_cols, field)

        # eps_M = mu restricted to L, in coefficient coordinates (W_1 is W)
        mu = tower.mu_at(2, 0)
        eps_cols = []
        for lb in self.l_basis:
            sol = coeff_embed.solve(mu.apply(lb))
            if sol is None:
                raise ValidationFailed(f"mu_M({name}) leaves the coefficient algebra")
            eps_cols.append(sol)
        self.eps_m = LinearMap(self.l_space, coeff_embed.domain, eps_cols, field)

        # phi_M : L -> L (x)_M L as the restriction of (Delta (x) id)
        self.j_ll = term_map(self.t_ll, self.t_lbb, slot_terms(1, self.l_incl, None, w2))
        delta_id = slot_terms(0, self.delta, None, self.t_lb)
        phi_cols = []
        for lb in self.l_basis:
            sol = self.j_ll.solve(apply_terms(w2, self.t_lbb, delta_id, lb))
            if sol is None:
                raise ValidationFailed(f"phi_M does not land in {name} (x) {name}")
            phi_cols.append(sol)
        self.phi_m = LinearMap(self.l_space, self.t_ll.space, phi_cols, field)

        # phi_M (x) id and id (x) phi_M : L (x) L -> L (x) L (x) L
        self.phi_id, self.id_phi = (
            term_map(self.t_ll, self.t_lll, slot_terms(p, self.phi_m, None, self.t_ll))
            for p in (0, 1))

    def into_l(self, v: Vec, what: str = "vector") -> Vec:
        sol = self.l_incl.solve(v)
        if sol is None:
            raise ValidationFailed(f"{what} leaves {self.name}")
        return sol

    def add_coalgebra_records(self, rep: ValidationReport, ids) -> None:
        """Record the counital coalgebra and coaction identities; ``ids``
        holds the (identity id, paper label) of counit-left, counit-right,
        e-fgau, coact and coasso."""
        counit_left, counit_right, e_fgau, coact, coasso = ids
        field = self.field
        t_l, t_ll = self.t_l, self.t_ll

        # (eps_M (x) id) phi_M = (id (x) eps_M) phi_M = id
        def eps1_terms(t):
            l1, l2 = t
            for v, c in self.eps_m.cols[l1].items():
                for k, ck in self.lact[v].cols[l2].items():
                    yield (k,), c * ck

        def eps2_terms(t):
            l1, l2 = t
            for v, c in self.eps_m.cols[l2].items():
                for k, ck in self.ract[v].cols[l1].items():
                    yield (k,), c * ck

        resc = LinearMap.identity(self.l_space, field)  # t_l is L
        rep.add(map_equality_record(*counit_left, (term_map(t_ll, t_l, eps1_terms), self.phi_m),
                                    resc, witness_space=t_l.space))
        rep.add(map_equality_record(*counit_right, (term_map(t_ll, t_l, eps2_terms), self.phi_m),
                                    resc, witness_space=t_l.space))

        # (eps_M (x) id) Delta = id on W
        def epsd_terms(t):
            l, j = t
            for v, c in self.eps_m.cols[l].items():
                for i, ci in self.coeff_embed.cols[v].items():
                    for k, ck in self.algebra.mul_basis(i, j).items():
                        yield (k,), c * ci * ck

        w1, ident = self.w1, LinearMap.identity(self.delta.domain, field)  # W_1 is W
        rep.add(map_equality_record(*e_fgau, (term_map(self.t_lb, w1, epsd_terms), self.delta),
                                    ident, witness_space=w1.space))

        # (id (x) Delta) Delta = (phi_M (x) id) Delta
        t_lb, t_llb = self.t_lb, self.t_llb
        rep.add(map_equality_record(
            *coact,
            (term_map(t_lb, t_llb, slot_terms(1, self.delta, None, t_lb)), self.delta),
            (term_map(t_lb, t_llb, slot_terms(0, self.phi_m, None, t_ll)), self.delta),
            witness_space=t_llb.space))

        # coassociativity of phi_M
        rep.add(map_equality_record(*coasso, (self.phi_id, self.phi_m),
                                    (self.id_phi, self.phi_m), witness_space=self.t_lll.space))


class GaugeCoalgebra(GradedGaugeCoalgebra):
    """L of a bundle with projection p_L, counit eps_M, action Delta and
    coproduct phi_M, the abstract balanced products they live on, and the
    braided product and star of L inside B_2."""

    def __init__(self, bundle: Bundle):
        self.bundle = bundle
        self.braid = sigma_m(bundle)
        b = bundle
        g = b.group
        b2 = b.b2
        super().__init__("L", "B", b, b.base_in_total)
        field = self.field
        one = field.one
        self.report = rep = ValidationReport()

        # p_L = (id (x) h) F_2, whose image must be L
        haar = [g.haar_of({a: one}) for a in range(g.dim)]
        self.p_l = term_map(b.hopf_space(2), b2,
                            lambda t: (((t[0], t[1]), haar[t[2]]),)).compose(b.f2)
        rep.add(map_equality_record("gauge.pL-idem", "p_L idempotent",
                                    (self.p_l, self.p_l), self.p_l))
        image = span_basis(self.p_l.cols)
        onto = spans_equal(image, self.l_basis)
        rep.check(("gauge.pL-image", "im(p_L) = F_2-invariants"),
                  [] if onto else [{"rank_pL": len(image), "rank_fixed": len(self.l_basis)}])
        if not onto:
            raise ValidationFailed("p_L image differs from the F_2-fixed subspace")

        # the construction raised unless Delta and phi_M land in L (x) B and L (x) L
        rep.add(passing("gauge.f3-incl", "f3-incl"))
        rep.add(passing("gauge.phiM-incl", "(Delta (x) id)(L) in L (x) L"))
        # eps_M lands in V, so mu_M(L) = V exactly when eps_M is onto
        rank = self.eps_m.rank()
        rep.check(("gauge.muL", "mu_M(L) = V"),
                  [] if rank == b.base_dim else [{"rank": rank, "dim_V": b.base_dim}])

        self.t_bl = TProd(field, (b.b_factor, self.l_factor), name="B(x)L")
        self.t_lba = TProd(field, (self.l_factor, b.b_factor, b.a_factor),
                           name="L(x)B(x)A")

        self.j_bl = term_map(self.t_bl, b.power(3), slot_terms(1, self.l_incl, None, b2))
        if self.j_bl.solver().rank != self.t_bl.dim:
            raise ValidationFailed("balanced products with L do not embed into B_3")
        self._lb_moves: dict = {}

        self.add_coalgebra_records(rep, (
            ("gauge.counit-left", "counit"), ("gauge.counit-right", "counit"),
            ("gauge.e-fgau", "e-fgau"), ("gauge.coact", "coact"),
            ("gauge.coasso", "coasso")))
        self._verify_degree_zero()

    # -- identities of degree zero only -------------------------------------

    def _verify_degree_zero(self):
        b = self.bundle
        field = self.field
        one = field.one
        rep = self.report

        # fgau-F diagram: (id (x) F) Delta = (Delta (x) id) F, with F into B (x) A
        ba, t_lb, t_lba = b.hopf_space(1), self.t_lb, self.t_lba
        lhs = (term_map(t_lb, t_lba, slot_terms(1, b.coaction, None, ba)), self.delta)
        rhs = (term_map(ba, t_lba, slot_terms(0, self.delta, None, t_lb)), b.coaction)
        rep.add(map_equality_record("gauge.fgau-F", "fgau-F", lhs, rhs,
                                    witness_space=t_lba.space))

        # Lemma 2.6 antipode identities, computed by flat pairing; each B_2
        # tuple is projected once
        braid = self.braid
        alg = braid.b2_algebra
        b2 = b.b2
        b3 = b.power(3)
        projected: dict = {}

        def pair(t):
            v = projected.get(t)
            if v is None:
                v = projected[t] = b2.project_tuple(t)
            return v

        bad1 = bad2 = None
        for bi in range(b2.dim):
            # input basis element of B_2 with flat legs ((p, q), c)
            lhs1: Vec = {}
            lhs2: Vec = {}
            rhs1: Vec = {}
            rhs2: Vec = {}
            for (p, q), c in flat_legs(b2, {bi: one}):
                # delta_3(e_p) flat legs ((x, y, z), cd)
                for (x, y, z), cd in flat_legs(b3, self.delta3.cols[p]):
                    left = pair((x, y))
                    coeff = c * cd
                    # id^2 (x) sigma on (z, q), then mu^2
                    for zq, cs in alg.sigma_legs(z, q):
                        viadd(lhs1, coeff * cs, alg.mul(left, pair(zq)))
                    # sigma (x) id^2 on (x, y), then mu^2
                    for xy, cs in alg.sigma_legs(x, y):
                        viadd(lhs2, coeff * cs, alg.mul(pair(xy), pair((z, q))))
                prod, unit = b.total.mul_basis(p, q), b.total.unit
                viadd(rhs1, c, embed(b2, prod, unit))
                viadd(rhs2, c, embed(b2, unit, prod))
            if lhs1 != rhs1 and bad1 is None:
                bad1 = {"basis_index": bi, "lhs": b2.render(lhs1),
                        "rhs": b2.render(rhs1)}
            if lhs2 != rhs2 and bad2 is None:
                bad2 = {"basis_index": bi, "lhs": b2.render(lhs2),
                        "rhs": b2.render(rhs2)}
        rep.check(("gauge.antipode-1", "mu^2(id^2 (x) sigma)(delta_3 (x) id) = mu (x) 1"),
                  [bad1])
        rep.check(("gauge.antipode-2", "mu^2(sigma (x) id^2)(delta_3 (x) id) = 1 (x) mu"),
                  [bad2])

        # delta_3 is a *-homomorphism into braided B_3; the star word acts on
        # the delta_3 columns, and each column is carried along X_2 once
        star3 = braid.star_word(3)
        star_b = b.total.star
        rep.check(("gauge.delta3-star-hom", "delta_3 is a *-homomorphism"), chain(
            ({"basis_index": i, "side": "star"} for i in range(b.total.dim)
             if self.delta3.apply(star_b.cols[i]) != star3(self.delta3.cols[i])),
            ({"basis_pair": [i, j], "side": "mult"}
             for (i, j), uv in braid.products(3, self.delta3.cols)
             if self.delta3.apply(b.total.mul_basis(i, j)) != uv)))

        # closure status of L under the sigma-induced conjugation (reported)
        star2 = braid.star_n(2)
        self.l_star_cols = [self.l_incl.solve(star2.apply(lb)) for lb in self.l_basis]
        closed = all(st is not None for st in self.l_star_cols)
        rep.add(CheckRecord("gauge.star-closure",
                            "L closed under the braided conjugation",
                            "pass", note=f"closed = {closed}"))

    # -- the braided structure of L inside B_2, computed once ----------------

    @cached_property
    def l_unit(self) -> Vec:
        """1 (x) 1 in L coordinates."""
        unit = self.bundle.total.unit
        return self.into_l(embed(self.bundle.b2, unit, unit), "1(x)1")

    @cached_property
    def l_mult(self) -> list:
        """l_mult[i][j]: the braided product of L basis elements i and j in L
        coordinates, None where it leaves L."""
        mult2 = self.braid.mult2
        return [[self.l_incl.solve(mult2(x, y)) for y in self.l_basis]
                for x in self.l_basis]

    @cached_property
    def move_lb(self) -> LinearMap:
        """(sigma (x) id)(id (x) sigma) on B_3, carrying L (x) B to B (x) L."""
        return self.braid.at(3, 0).compose(self.braid.at(3, 1))

    def lb_move(self, li: int, bi: int):
        """The flat B (x) L legs ((j, l), c) of move_lb(l_li (x) b_bi), or None
        where the image leaves B (x) L; memoised."""
        key = (li, bi)
        if key not in self._lb_moves:
            moved = self.move_lb.apply(self.j_lb.apply(self.t_lb.project_tuple(key)))
            sol = self.j_bl.solve(moved)
            self._lb_moves[key] = None if sol is None else flat_legs(self.t_bl, sol)
        return self._lb_moves[key]


def build_gauge_coalgebra(b: Bundle) -> GaugeCoalgebra:
    return GaugeCoalgebra(b)


# -- classical braided Hopf structure ------------------------------------------


class BraidedHopf:
    """{kappa_M, eps_M, phi_M, Sigma} on L over a classical structure group.

    L (x) L sits in B_4 as the columns of j_LL4.  Sigma and the star on
    L (x) L are braid words applied to those columns and solved back, and
    the products of phi_M are taken pair by pair from its columns, each
    carried along X_3 once: no operator on B_4 is built."""

    def __init__(self, gc: GaugeCoalgebra):
        self.gc = gc
        b = gc.bundle
        braid = gc.braid
        field = gc.field
        # Prop 4.1 (i); the classical suite checks the four-way equivalence
        if b.group.is_commutative() is not None:
            raise NotClassical("the structure group algebra is noncommutative")
        self.report = ValidationReport()
        rep = self.report
        b2 = b.b2
        b4 = b.power(4)

        # diagram tw: F_2 sigma = (sigma (x) id) F_2
        rep.add(map_equality_record("classical.tw", "tw", (b.f2, b.sigma),
                                    (b.sigma_at("BBA", 0), b.f2),
                                    witness_space=b.hopf_space(2).space))

        # L is a *-subalgebra of braided B_2
        if rep.check(("classical.L-subalgebra", "L is a *-subalgebra of B_2"), chain(
                ({"l_basis_index": li, "side": "star"}
                 for li, st in enumerate(gc.l_star_cols) if st is None),
                ({"l_pair": [li, lj], "side": "mult"} for li, row in enumerate(gc.l_mult)
                 for lj, p in enumerate(row) if p is None))) is not None:
            raise ValidationFailed("L fails to close under the braided structure")

        self.l_star = LinearMap(gc.l_space, gc.l_space, gc.l_star_cols, field,
                                antilinear=True)

        # covariance: (sigma x id)(id x sigma)(L (x) B) = B (x) L and mirror; a
        # failure names the first moved source basis vector that leaves the
        # target, or else the first target basis vector that the image misses
        def moved_outside(direction, move, source, target):
            img = [move.apply(v) for v in source]
            if not spans_equal(img, target):
                i = first_outside(img, target)
                yield ({"direction": direction, "source_index": i} if i is not None else
                       {"direction": direction, "target_index": first_outside(target, img)})

        move_bl = braid.at(3, 1).compose(braid.at(3, 0))
        rep.check(("classical.covariance", "braid moves L across B"),
                  chain(moved_outside("LB_to_BL", gc.move_lb, gc.j_lb.cols, gc.j_bl.cols),
                        moved_outside("BL_to_LB", move_bl, gc.j_bl.cols, gc.j_lb.cols)))

        # kappa_M = sigma restricted to L
        kap_cols, li = _solve_each(gc.l_incl, (b.sigma.apply(lb) for lb in gc.l_basis))
        rep.check(("classical.L-sigma-invariant", "sigma(L) = L"),
                  [] if li is None else [{"l_basis_index": li}])
        if li is not None:
            raise ValidationFailed("L is not sigma-invariant")
        self.kappa_m = LinearMap(gc.l_space, gc.l_space, kap_cols, field)

        # L (x) L into B_4: j_ll, then l_incl on slot 0
        self.j_ll4 = term_map(gc.t_ll, b4, chain_terms(slot_terms(1, gc.l_incl, None, b2),
                                                       slot_terms(0, gc.l_incl, None, b2)))
        # Sigma on L (x) L: restriction of (id x s x id)(s x s)(id x s x id) on B_4,
        # the braid word s23, s34, s12, s23 applied to the columns of j_LL4
        big = braid.word(4, (1, 2, 0, 1))
        sig_cols, i = _solve_each(self.j_ll4, (big(col) for col in self.j_ll4.cols))
        rep.check(("classical.Sigma-restricts", "Sigma preserves L (x) L"),
                  [] if i is None else [{"t_ll_index": i}])
        if i is not None:
            raise ValidationFailed("Sigma does not restrict to L (x) L")
        self.sigma_ll = LinearMap(gc.t_ll.space, gc.t_ll.space, sig_cols, field)

        ident = LinearMap.identity(gc.t_ll.space, field)
        rep.add(map_equality_record("classical.Sigma-involutive", "Sigma = Sigma^-1",
                                    (self.sigma_ll, self.sigma_ll), ident,
                                    witness_space=gc.t_ll.space))

        # star on L (x) L from the braided star word on B_4
        star4 = braid.star_word(4)
        ll_star_cols, i = _solve_each(self.j_ll4, (star4(col) for col in self.j_ll4.cols))
        if i is not None:
            raise ValidationFailed("braided star does not preserve L (x) L")
        # j_ll4 is linear, star4 antilinear: solving against linear columns
        # keeps the conjugated coefficients, so mark the result antilinear.
        self.ll_star = LinearMap(gc.t_ll.space, gc.t_ll.space, ll_star_cols,
                                 field, antilinear=True)
        rep.add(map_equality_record("classical.Sigma-star", "*Sigma = Sigma*",
                                    (self.ll_star, self.sigma_ll), (self.sigma_ll, self.ll_star),
                                    witness_space=gc.t_ll.space))

        # Sigma exchange laws with phi_M
        phi1, phi2 = gc.phi_id, gc.id_phi

        sig12, sig23 = (term_map(gc.t_lll, gc.t_lll,
                                 slot_terms(p, self.sigma_ll, gc.t_ll, gc.t_ll))
                        for p in (0, 1))
        lhs = (phi2, self.sigma_ll)
        rhs = (sig12, sig23, phi1)
        rep.add(map_equality_record("classical.Sigma-phi-1",
                                    "(id (x) phi_M)Sigma = (Sigma (x) id)(id (x) Sigma)(phi_M (x) id)",
                                    lhs, rhs, witness_space=gc.t_lll.space))
        lhs = (phi1, self.sigma_ll)
        rhs = (sig23, sig12, phi2)
        rep.add(map_equality_record("classical.Sigma-phi-2",
                                    "(phi_M (x) id)Sigma = (id (x) Sigma)(Sigma (x) id)(id (x) phi_M)",
                                    lhs, rhs, witness_space=gc.t_lll.space))

        # phi_M is a *-homomorphism (braided product on L (x) L via B_4)
        nl = gc.l_space.dim

        def phi_mult_failures():
            # each phi_M(l_i) embedded in B_4 and carried along X_3 once
            for (i, j), uv in braid.products(4, [self.j_ll4.apply(col) for col in gc.phi_m.cols]):
                sol = self.j_ll4.solve(uv)
                if sol is None or sol != gc.phi_m.apply(gc.l_mult[i][j]):
                    yield {"l_pair": [i, j], "side": "mult"}

        rep.check(("classical.phiM-star-hom", "phi_M is a *-homomorphism"), chain(
            ({"l_basis_index": i, "side": "star"} for i in range(nl)
             if gc.phi_m.apply(self.l_star.cols[i]) != self.ll_star.apply(gc.phi_m.cols[i])),
            phi_mult_failures()))

        # braided-Hopf antipode axiom via the product on L (x) L -> L
        def mu_ll_terms(t):
            l1, l2 = t
            for k, c in gc.l_mult[l1][l2].items():
                yield (k,), c

        t_l = gc.t_l
        mu_ll = term_map(gc.t_ll, t_l, mu_ll_terms)

        # the unit V -> L, f -> f . (1 (x) 1), after eps_M
        v_space = gc.eps_m.codomain
        unit_eps = (LinearMap(v_space, t_l.space,
                              [gc.lact[v].apply(gc.l_unit) for v in range(v_space.dim)],
                              field), gc.eps_m)
        lhs1, lhs2 = ((mu_ll, term_map(gc.t_ll, gc.t_ll, slot_terms(p, self.kappa_m)), gc.phi_m)
                      for p in (0, 1))
        rep.add(map_equality_record("classical.antipode-left",
                                    "mu(kappa_M (x) id)phi_M = unit eps_M",
                                    lhs1, unit_eps, witness_space=t_l.space))
        rep.add(map_equality_record("classical.antipode-right",
                                    "mu(id (x) kappa_M)phi_M = unit eps_M",
                                    lhs2, unit_eps, witness_space=t_l.space))
        rep.add(map_equality_record("classical.kappaM-squared", "kappa_M^2 = id",
                                    (self.kappa_m, self.kappa_m),
                                    LinearMap.identity(gc.l_space, field),
                                    witness_space=gc.l_space))

    @property
    def enumeration_blocked(self) -> str | None:
        """Why the gauge group is not enumerated, or None: the character split
        behind enumerate_gauge assumes the braided Hopf laws, and without them
        it need not end."""
        return None if self.report.ok else "the braided Hopf structure of L fails"


def _solve_each(m: LinearMap, vecs):
    """The solutions x of m x = v for v in ``vecs``, in order, up to the
    first v with none: (solutions, None), or (the solutions before it, its
    position)."""
    cols = []
    for v in vecs:
        sol = m.solve(v)
        if sol is None:
            return cols, len(cols)
        cols.append(sol)
    return cols, None


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
        in_b = _values_in_b(gc, [functional.apply({li: field.one})
                                 for li in range(gc.l_space.dim)])
        cols = []
        for i in range(b.total.dim):
            acc: Vec = {}
            for (l, x), cd in flat_legs(gc.t_lb, gc.delta.cols[i]):
                viadd(acc, cd, b.total.mul(in_b[l], {x: field.one}))
            cols.append(acc)
        self.action = LinearMap(b.total.space, b.total.space, cols, field)

    def matrix_key(self):
        return _matrix_key(self.functional)

    def __eq__(self, other):
        return isinstance(other, GaugeTransformation) and \
            self.functional.cols == other.functional.cols


def verify_gauge_candidate(gc: GaugeCoalgebra, gamma: LinearMap) -> dict:
    """The defining conditions of a gauge transformation for a functional
    gamma : L -> V, on any bundle, including noncommutative ones where
    enumeration is unsupported.  Multiplicativity and hermiticity read None
    when L is not closed under the braided product or star, compatibility
    when the braid does not carry L (x) B into B (x) L."""
    b = gc.bundle
    one = gc.field.one
    base = b.base
    nl = gc.l_space.dim
    vals = [gamma.apply({li: one}) for li in range(nl)]
    flags: dict = {"unital": gamma.apply(gc.l_unit) == base.unit}
    flags["v_linear"] = all(
        gamma.apply(gc.lact[v].cols[li]) == base.mul({v: one}, vals[li])
        and gamma.apply(gc.ract[v].cols[li]) == base.mul(vals[li], {v: one})
        for v in range(base.dim) for li in range(nl))
    mult = gc.l_mult
    if any(p is None for row in mult for p in row):
        flags["multiplicative"] = None
    else:
        flags["multiplicative"] = all(
            gamma.apply(mult[i][j]) == base.mul(vals[i], vals[j])
            for i in range(nl) for j in range(nl))
    stars = gc.l_star_cols
    if any(st is None for st in stars):
        flags["star"] = None
    else:
        flags["star"] = all(gamma.apply(st) == base.star_vec(vals[i])
                            for i, st in enumerate(stars))
    flags["compatibility"] = _compatible(gc, vals)
    return flags


def _compatible(gc: GaugeCoalgebra, vals) -> bool | None:
    """gamma(rho) b = sum b_j gamma(rho_j), where move_lb(rho (x) b) =
    sum b_j (x) rho_j; vals[l] = gamma(l) in V coordinates."""
    b = gc.bundle
    one = gc.field.one
    in_b = _values_in_b(gc, vals)
    for li in range(gc.l_space.dim):
        for bi in range(b.total.dim):
            legs = gc.lb_move(li, bi)
            if legs is None:
                return None
            rhs: Vec = {}
            for (j, l), c in legs:
                viadd(rhs, c, b.total.mul({j: one}, in_b[l]))
            if b.total.mul(in_b[li], {bi: one}) != rhs:
                return False
    return True


def _values_in_b(gc: GaugeCoalgebra, vals) -> list:
    """gamma(l) as vectors of B, from vals[l] = gamma(l) in V coordinates."""
    out = []
    for val in vals:
        gval: Vec = {}
        for v, cv in val.items():
            viadd(gval, cv, gc.bundle.base_vectors[v])
        out.append(gval)
    return out


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
        for (l1, l2), c in flat_legs(gc.t_ll, gc.phi_m.cols[li]):
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
            if gc.l_mult[i][j] != gc.l_mult[j][i]:
                raise NotCommutative("the gauge coalgebra L is noncommutative")
    # V central in L (needed for the character construction)
    for v in range(base.dim):
        for li in range(gc.l_space.dim):
            if gc.lact[v].cols[li] != gc.ract[v].cols[li]:
                raise NotCommutative("V does not act centrally on L")

    l_alg = CommAlgebra(field, gc.l_space.dim,
                        lambda u, v: table_mul(gc.l_mult, u, v),
                        gc.l_unit)
    v_alg = CommAlgebra(field, base.dim,
                        lambda u, v: base.mul(u, v), base.unit)
    v_chars = field_characters(v_alg)
    if len(v_chars) != base.dim:
        raise NotCommutative(
            "V does not split into field characters over this conductor")
    l_chars = [chi for _, chi in field_characters(l_alg)]

    # embed V into L as f (x) 1 (in L coordinates)
    v_in_l = [gc.lact[v].apply(gc.l_unit) for v in range(base.dim)]

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
        if all(verify_gauge_candidate(gc, gamma).values()):
            gammas.append(GaugeTransformation(gc, gamma))
    gammas.sort(key=lambda g: g.matrix_key())
    rep.add(CheckRecord("gauge-group.count", "enumeration", "pass",
                        note=f"{len(gammas)} transformations"))

    # group structure: products, inverses, unit
    table = gauge_group_table(gammas)
    rep.check(("gauge-group.closed", "gamma gamma' = (gamma (x) gamma')phi_M stays in the set"),
              ({"gamma_pair": [i, j]} for i, row in enumerate(table)
               for j, idx in enumerate(row) if idx is None))
    keyset = {g.matrix_key(): i for i, g in enumerate(gammas)}
    eps_gamma = LinearMap(gc.l_space, base.space, [dict(c) for c in gc.eps_m.cols], field)
    unit_idx = None
    for i, g in enumerate(gammas):
        if g.functional == eps_gamma:
            unit_idx = i

    def inverse_failures():
        if unit_idx is None:
            yield {"reason": "eps_M is not a gauge transformation"}
            return
        kappa_inv = bh.kappa_m.inverse()
        for i, g in enumerate(gammas):
            j = keyset.get(_matrix_key(g.functional.compose(kappa_inv)))
            if j is None or table[i][j] != unit_idx:
                yield {"gamma_index": i}

    rep.check(("gauge-group.inverse", "gamma^-1 = gamma kappa_M^-1, unit = eps_M"),
              inverse_failures())

    # action laws
    total = b.total
    e = [{p: one} for p in range(total.dim)]

    def is_automorphism(act: LinearMap) -> bool:
        """act is bijective, unital, multiplicative and hermitian."""
        return (act.is_bijective() and act.apply(total.unit) == total.unit
                and all(act.apply(total.mul_basis(p, q))
                        == total.mul(act.apply(e[p]), act.apply(e[q]))
                        for p in range(total.dim) for q in range(total.dim))
                and all(act.apply(total.star_vec(v)) == total.star_vec(act.apply(v))
                        for v in e))

    def is_equivariant(act: LinearMap) -> bool:
        """F(gamma.b) = sum (gamma.b_k) (x) c_k on every basis element b."""
        return all(b.coaction.apply(act.cols[p]) == b.coact_side(legs, act.cols.__getitem__)
                   for p, legs in enumerate(b.f_legs))

    rep.check(("gauge-group.automorphisms", "gamma acts by *-automorphisms"),
              ({"gamma_index": i} for i, g in enumerate(gammas) if not is_automorphism(g.action)))
    # composition law: with the product (gamma (x) gamma')phi_M and the action
    # (gamma (x) id)Delta, coassociativity gives (gamma gamma').b =
    # gamma'.(gamma.b); both readings agree when the gauge group is abelian
    rep.check(("gauge-group.action-compat", "(gamma gamma').b = gamma'.(gamma.b)"),
              ({"gamma_pair": [i, j]} for i, g1 in enumerate(gammas)
               for j, g2 in enumerate(gammas) if table[i][j] is None
               or gammas[table[i][j]].action != g2.action.compose(g1.action)))
    rep.check(("gauge-group.F-equivariance", "F(gamma.b) = sum (gamma.b_k) (x) c_k"),
              ({"gamma_index": i} for i, g in enumerate(gammas) if not is_equivariant(g.action)))
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
    """B = (+) B^alpha via the dual central idempotents e_alpha derived from
    A (HopfStarAlgebra.corepresentations); over a point the Peter-Weyl count
    sum multiplicity^2 = dim L is verified when L is available.  Vacuous
    when the centre of A* does not split over K."""
    rep = ValidationReport()
    field = b.field
    g = b.group
    if g.corepresentations is None:
        rep.add(vacuous("isotypic.available", "corepresentation data",
                        note=f"IrrepsUnavailable: the centre of the dual of "
                             f"{g.algebra.name} does not split over Q(zeta_{field.n}); "
                             f"decomposition skipped"))
        return IsotypicDecomposition(None, None, rep)
    comps = []
    total_dim = 0
    proj_sum = LinearMap.zero(b.total.space, b.total.space, field)
    for corep in g.corepresentations:
        cols = []
        for i in range(b.total.dim):
            acc: Vec = {}
            for (k, a), cf in b.f_legs[i]:
                val = corep.functional[a]
                if val:
                    viadd_term(acc, k, cf * val)
            cols.append(acc)
        proj = LinearMap(b.total.space, b.total.space, cols, field)
        basis = span_basis(proj.cols)
        dim = len(basis)
        mult = None if dim % corep.dim else dim // corep.dim
        if mult is None:
            rep.check(("isotypic.multiplicity", "m_alpha integral"),
                      [{"component": corep.name, "dim": dim, "irrep_dim": corep.dim}])
        comps.append((corep.name, corep.dim, basis, mult))
        total_dim += dim
        proj_sum = proj_sum.add(proj)
    ok = total_dim == b.total.dim and \
        proj_sum == LinearMap.identity(b.total.space, field)
    rep.check(("isotypic.complete", "sum of components = B"),
              [] if ok else [{"sum_dims": total_dim, "dim_B": b.total.dim}])
    l_components = None
    if gc is not None:
        l_components = []
        b2 = b.b2
        for name, d, basis, mult in comps:
            # G_alpha = L  intersect  (B^alpha (x)_V B)
            span = [embed(b2, v, {j: field.one}) for v in basis for j in range(b.total.dim)]
            inter = intersect_spans(gc.l_basis, span)
            l_components.append((name, inter))
        sum_l = sum(len(basis) for _, basis in l_components)
        ok = sum_l == len(gc.l_basis)
        rep.check(("isotypic.gauge-split", "L = (+) G_alpha"),
                  [] if ok else [{"sum": sum_l, "dim_L": len(gc.l_basis)}])
        if b.is_point_base():
            want = sum((mult or 0) ** 2 for _, _, _, mult in comps)
            ok = want == len(gc.l_basis)
            rep.check(("isotypic.peter-weyl", "sum m_alpha^2 = dim L"),
                      [] if ok else [{"sum_m2": want, "dim_L": len(gc.l_basis)}])
    return IsotypicDecomposition(comps, l_components, rep)
