"""Degree-truncated differential calculus on preset product bundles.

Omega(P) = Omega(M) (x)^ Gamma^ carries the graded product, star and
differential of a product bundle calculus; F^ = id (x) phi^ is its unique
graded-differential extension of the coaction.  Omega(M) and Omega(P) are
hopf.GradedStarAlgebra subclasses: product, d, star and the axiom check live
there.  The product, star and d of a graded tensor product (Omega(P) itself,
W_2 and Omega(P) (x)^ Gamma^) are hopf.graded_tensor_mul, graded_tensor_star
and graded_tensor_d, and differential_suite records F^ as a unital,
hermitian, d-compatible *-homomorphism and coaction through
hopf.add_coaction_records.

TotalCalculus is the graded instance of bundle.BalancedTower, the braid tower
that in degree zero is the bundle: W = Omega(P) over M = Omega(M) with Hopf
side Gamma^.  The balanced powers W_n, X^(phi (x) w) = phi F^(w) and its
inverse, tau^ and its star, counit, coaction, product and centrality
records, the sigma-cochain, sigma^_M and its formula inverse with the
Koszul signs of their defining formulas, sigma^ and mu on slots of W_n, the
conjugation on W_2, F^_2, the records of the braid equation, the product
compatibilities and mu sigma^ = mu, the Galois tower X^_n and the braided
products on W_2 and W_3 transported along it are the tower's, written once
for both degrees.  The degree-0 bundle is not rebuilt here: it is the
product bundle the caller built, and Omega^0(P) lists its basis in the same
order.  What only the graded case has stays here: X^ bijective in every
total degree <= 2, d on W_2, the filtration Omega_k(P), the tau-ad and tau-d
records, and the g-inv, g-star, g-d and gsM-filt checks of
differential_suite.  Elementary tensors in Omega(P), W_n and
Omega(P) (x) Gamma^, such as the unit, the embedded Omega(M) and the pairs
of gsM-filt, are tensor.embed's; the tau^ bracket is fodc.Envelope2.bracket.

The differential gauge coalgebra L^ (F^_2-invariants of W_2 with eps^_M,
Delta^ and phi^_M, and its counital coalgebra identities) is built by
gauge.GradedGaugeCoalgebra, the construction that also gives L in degree
zero.  Graded only: the homogeneity of the L^ basis vectors, closure of L^
under star and d, eps^_M against star and d, and L^0 = L.
"""

from __future__ import annotations

from functools import cache, partial

from .bundle import BalancedTower
from .errors import DegreeBudget, NotProductBundle, ValidationFailed
from .fodc import Envelope2, Fodc, GammaEnvelope, build_envelope2
from .gauge import GradedGaugeCoalgebra
from .hopf import (
    BUDGET, GradedStarAlgebra, StarAlgebra, add_coaction_records, graded_tensor_d,
    graded_tensor_mul, graded_tensor_star,
)
from .linalg import (
    BasedSpace, Echelon, LinearMap, Vec, fixed_points, span_basis, spans_equal,
    viadd, viadd_term,
)
from .report import ValidationReport, first_difference, map_equality_record, passing, vacuous
from .tensor import (
    Factor, TProd, apply_terms, chain_terms, embed, flat_legs, from_legs, slot_terms,
    term_map, unit_leg,
)


class BaseCalculus(GradedStarAlgebra):
    """A graded *-DGA over the base, truncated at degree 2.

    ``mult_table[i][j]`` is a Vec (or None above the budget), ``d_cols[i]``
    a Vec or None on the top degree, ``star_cols`` plain star values.
    """

    def __init__(self, field, labels, degrees, mult_table, unit, star_cols, d_cols,
                 name="Omega(M)"):
        space = BasedSpace(tuple(labels))
        super().__init__(name, field, space, degrees, unit)
        self.mult_table = mult_table
        self.star = LinearMap(space, space, star_cols, field, antilinear=True)
        self.d_cols = d_cols
        self.check_axioms()

    def _product(self, i, j) -> Vec:
        return self.mult_table[i][j]


def trivial_base_calculus(base: StarAlgebra) -> BaseCalculus:
    """Omega(M) = V concentrated in degree 0, d = 0."""
    field = base.field
    n = base.dim
    mult = [[dict(base.mul_basis(i, j)) for j in range(n)] for i in range(n)]
    star_cols = [dict(base.star.cols[i]) for i in range(n)]
    d_cols = [{} for _ in range(n)]
    return BaseCalculus(field, base.space.labels, [0] * n, mult, base.unit,
                        star_cols, d_cols, name="Omega(M)[trivial]")


def universal_base_calculus(n_points: int, field) -> BaseCalculus:
    """The universal path calculus on an n-point set, truncated at degree 2:
    degree-k basis = characteristic functions of (k+1)-step paths with no
    repeated consecutive point."""
    paths = [[(x,) for x in range(n_points)]]
    for k in (1, 2):
        prev = paths[-1]
        cur = []
        for p in prev:
            for y in range(n_points):
                if y != p[-1]:
                    cur.append(p + (y,))
        paths.append(cur)
    allp = paths[0] + paths[1] + paths[2]
    index = {p: i for i, p in enumerate(allp)}
    degrees = [len(p) - 1 for p in allp]
    labels = ["|".join(f"x{i}" for i in p) for p in allp]
    one = field.one

    def concat(p, q):
        if p[-1] != q[0]:
            return None
        return p + q[1:]

    mult = []
    for p in allp:
        row = []
        for q in allp:
            if len(p) - 1 + len(q) - 1 > BUDGET:
                row.append(None)
                continue
            r = concat(p, q)
            row.append({index[r]: one} if r is not None else {})
        mult.append(row)
    unit = {index[(x,)]: one for x in range(n_points)}
    star_cols = []
    for p in allp:
        k = len(p) - 1
        sign = -one if (k * (k + 1) // 2) % 2 else one
        star_cols.append({index[tuple(reversed(p))]: sign})
    d_cols = []
    for p in allp:
        k = len(p) - 1
        if k >= BUDGET:
            d_cols.append(None)
            continue
        acc: Vec = {}
        for pos in range(k + 2):
            sign = -one if pos % 2 else one
            for y in range(n_points):
                q = p[:pos] + (y,) + p[pos:]
                if all(q[i] != q[i + 1] for i in range(len(q) - 1)):
                    viadd_term(acc, index[q], sign)
        d_cols.append(acc)
    return BaseCalculus(field, labels, degrees, mult, unit, star_cols, d_cols,
                        name="Omega(M)[universal]")


class OmegaP(GradedStarAlgebra):
    """Omega(M) (x)^ Gamma^ with the product-bundle structure, degree <= 2:
    its basis is that of the free graded product ``tp``, and F^ = id (x) phi^
    and the Omega(M)-actions on slot 0 are slot maps on it."""

    def __init__(self, base: BaseCalculus, gamma: GammaEnvelope):
        self.base = base
        self.gamma = gamma
        field = gamma.field
        one = field.one
        m_factor = Factor(base.space, base.degrees)
        self.tp = tp = TProd(field, (m_factor, gamma.factor), budget=BUDGET, name="Omega(P)")
        super().__init__("Omega(P)", field, tp.space, tp.degrees(),
                         embed(tp, base.unit, gamma.unit))

        # the product-calculus star is componentwise
        star_cols = [graded_tensor_star(tp, base, gamma, {i: one})
                     for i in range(self.dim)]
        self.star = LinearMap(self.space, self.space, star_cols, field,
                              antilinear=True)
        self.d_cols = [None if self.degrees[i] >= BUDGET
                       else graded_tensor_d(tp, base, gamma, {i: one})
                       for i in range(self.dim)]

        # F^ = id (x) phi^ into Omega(P) (x) Gamma^: phi^ on slot 1, then
        # slots 0-1 read back as one basis element of Omega(P)
        self.og = TProd(field, (Factor(self.space, self.degrees), gamma.factor),
                        budget=BUDGET, name="Omega(P)(x)Gamma^")
        self.f_hat = term_map(tp, self.og, chain_terms(
            slot_terms(1, gamma.phi_hat, None, gamma.square),
            slot_terms(0, LinearMap.identity(self.space, field), tp)))
        self.f_legs = [flat_legs(self.og, col) for col in self.f_hat.cols]

        # the Omega(M)-bimodule factor for the balanced powers
        lact = [self._action(f, False) for f in range(base.dim)]
        ract = [self._action(f, True) for f in range(base.dim)]
        self.factor = Factor(self.space, self.degrees, lact, ract)

    def _action(self, f: int, right: bool) -> LinearMap:
        """f in Omega(M) acting on slot 0 from the left, or from the right
        with the sign of (m (x) g)(f (x) 1) = (-1)^{|g||f|} mf (x) g; zero on
        the basis elements it would take beyond the budget."""
        base, gamma, tp = self.base, self.gamma, self.tp
        fdeg = base.degree(f)
        move = slot_terms(0, (lambda m: base.mul_basis(m, f)) if right
                          else partial(base.mul_basis, f))

        def terms(t):
            if fdeg + tp.degree(t) > BUDGET:
                return ()
            if right and gamma.degree(t[1]) * fdeg % 2:
                return [(s, -c) for s, c in move(t)]
            return move(t)

        return term_map(tp, tp, terms)

    def _product(self, i: int, j: int) -> Vec:
        one = self.field.one
        return graded_tensor_mul(self.tp, self.base, self.gamma, {i: one}, {j: one})

    def component(self, degree: int):
        return [i for i in range(self.dim) if self.degrees[i] == degree]


class TotalCalculus(BalancedTower):
    """Bundle + FODC + base calculus: the graded braid tower W_n, X^, tau^,
    sigma^_M, F^_2 of Omega(P), and the differential gauge coalgebra ``lhat``."""

    def __init__(self, fodc: Fodc, env2: Envelope2, gamma: GammaEnvelope,
                 base_calc: BaseCalculus, omega: OmegaP):
        self.fodc = fodc
        self.env2 = env2
        self.gamma = gamma
        self.base_calc = base_calc
        self.omega = omega
        field = omega.field
        one = field.one
        self.group = gamma.group
        # Omega^0(P) in the basis order of the product bundle's B
        self._deg0 = omega.component(0)

        # the graded tower; X^ maps into Omega(P) (x) Gamma^, where F^ lives
        sq = gamma.square
        phi_legs = [flat_legs(sq, col) for col in gamma.phi_hat.cols]
        super().__init__(omega, omega.factor, gamma, gamma.factor, gamma.kappa_hat,
                         gamma.kappa_hat_inv, phi_legs.__getitem__, gamma.eps_basis,
                         omega.f_legs, ("W", "G"), coeff_degrees=base_calc.degrees,
                         budget=BUDGET, spaces={"WG": omega.og})
        self.w1, self.w2, self.w3 = (self.power(n) for n in (1, 2, 3))

        # X^ is bijective in each total degree
        og = omega.og
        w2deg = self.w2.degrees()
        ogdeg = og.degrees()
        self.x_by_degree_ok = {}
        for k in range(BUDGET + 1):
            src = [i for i in range(self.w2.dim) if w2deg[i] == k]
            dst = [i for i in range(og.dim) if ogdeg[i] == k]
            ech = Echelon()
            rank = 0
            for i in src:
                if ech.add(self.X.cols[i]):
                    rank += 1
            self.x_by_degree_ok[k] = (len(src) == len(dst) == rank)
        if not all(self.x_by_degree_ok.values()):
            raise NotProductBundle(
                f"X^ fails degreewise bijectivity: {self.x_by_degree_ok}")

        # the conjugation and d on W_2
        self.w2_star = self.flipstar(2)
        self.w2_d_cols = [None if w2deg[b] >= BUDGET
                          else graded_tensor_d(self.w2, omega, omega, {b: one})
                          for b in range(self.w2.dim)]
        self.w2_degrees = w2deg

        self.m_embed = LinearMap(base_calc.space, omega.space,
                                 [embed(omega.tp, {f: one}, gamma.unit)
                                  for f in range(base_calc.dim)], field)
        self.lhat = GradedGaugeCoalgebra("L^", "Omega", self, self.m_embed)
        for lb, deg in zip(self.lhat.l_basis, self.lhat.degrees):
            if any(w2deg[i] != deg for i in lb):
                raise ValidationFailed("L^ basis vector is not homogeneous")
        self._filtration: dict[int, list[Vec]] = {}

    # -- helpers -----------------------------------------------------------

    def w2_d(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, c in v.items():
            col = self.w2_d_cols[i]
            if col is None:
                raise DegreeBudget("d beyond the budget on W_2")
            viadd(out, c, col)
        return out

    def omega_m_fixed(self):
        """F^-fixed subspace of Omega(P) (the embedded Omega(M))."""
        iota = unit_leg(self.w1, self.omega.og, self.gamma.unit)
        return fixed_points(self.omega.f_hat, iota)

    def filtration_basis(self, k: int):
        """Omega_k(P) = F^-preimage of Omega(P) (x) Gamma^{<= k}; Omega_0(P)
        is hor(P), the horizontal forms.  Computed once per k."""
        if k not in self._filtration:
            omega, gamma = self.omega, self.gamma
            og = omega.og
            cols = [from_legs(og, (leg for leg in omega.f_legs[i] if gamma.degree(leg[0][1]) > k))
                    for i in range(omega.dim)]
            self._filtration[k] = span_basis(
                LinearMap(omega.space, og.space, cols, self.field).nullspace())
        return self._filtration[k]

    def f_pos_part(self, i: int):
        return [leg for leg in self.omega.f_legs[i] if self.gamma.degree(leg[0][1]) == 0]


def build_total_calculus(fodc: Fodc, base_calc: BaseCalculus) -> TotalCalculus:
    """Assemble the full tower from an FODC on the structure group and a base
    calculus."""
    env2 = build_envelope2(fodc)
    gamma = GammaEnvelope(env2)
    omega = OmegaP(base_calc, gamma)
    return TotalCalculus(fodc, env2, gamma, base_calc, omega)


def differential_suite(tc: TotalCalculus, gauge_coalgebra=None) -> ValidationReport:
    """All degree-budgeted identities of the differential sector: F^ is a
    unital graded-differential *-homomorphism and a coaction, X^ is
    degreewise bijective, the tau^ identity block, the full sigma^_M suite,
    and the counital differential coalgebra structure of L^."""
    rep = ValidationReport()
    rep.extend(tc.env2.report)
    field = tc.field
    one = field.one
    omega, gamma, base = tc.omega, tc.gamma, tc.base_calc
    w2 = tc.w2
    og = omega.og

    # --- F^ structure -------------------------------------------------------
    rep.add(passing("diff.Xhat-bijective", "X^ bijective per degree",
                    note=str(tc.x_by_degree_ok)))

    add_coaction_records(
        rep, (("diff.Fhat-mult", "F^ multiplicative"), ("diff.Fhat-star", "F^ hermitian"),
              ("diff.Fhat-d", "F^ intertwines d"),
              ("diff.Fhat-coassoc", "(F^ (x) id)F^ = (id (x) phi^)F^"), None),
        "F^", omega, omega.f_hat, og, gamma, gamma.phi_hat, gamma.square, gamma.eps_basis)

    # horizontal forms and the embedded base calculus
    hor = tc.filtration_basis(0)
    expected_hor = [{i: one} for i in range(omega.dim)
                    for (m, g), _ in flat_legs(omega.tp, {i: one}) if gamma.degree(g) == 0]
    rep.check(("diff.hor", "hor(P) = Omega(M) . B"),
              [] if spans_equal(hor, expected_hor)
              else [{"dim": len(hor), "expected": len(expected_hor)}])
    fixed = tc.omega_m_fixed()
    rep.check(("diff.omegaM", "Omega(M) = F^-fixed forms"),
              [] if spans_equal(fixed, tc.m_embed.cols) else [{"dim": len(fixed)}])

    # --- tau^ block -----------------------------------------------------------
    tc.add_translation_records(rep, (
        ("diff.tau-star", "tau^* = tau^ kappa^ *"), ("diff.tau-eps", "l r = eps(.)1"),
        ("diff.tau-coact", "(id (x) F^)tau^"), ("diff.tau-left-coact", "(F^ (x) id)tau^"),
        ("diff.tau-mult", "tau^ of a product (chi formula)"),
        ("diff.tau-central", "im(tau^) graded-commutes with Omega(M)")))

    # F^_2 tau^ = (tau^ (x) id) ad
    w2g = tc.hopf_space(2)
    tau_id = slot_terms(0, tc.tau, None, w2)
    rhs = LinearMap(gamma.space, w2g.space, [apply_terms(gamma.square, w2g, tau_id, col)
                                             for col in gamma.ad_hat().cols], field)
    rep.add(map_equality_record("diff.tau-ad", "F^_2 tau^ = (tau^ (x) id) ad",
                                (tc.f2, tc.tau), rhs, witness_space=w2g.space))

    # tau^ d = d tau^
    rep.check(("diff.tau-d", "tau^ d = d tau^"),
              ({"basis_index": gi} for gi in range(gamma.dim) if gamma.degree(gi) < BUDGET
               and tc.tau.apply(gamma.d_cols[gi]) != tc.w2_d(tc.tau.cols[gi])))

    # --- sigma^_M suite --------------------------------------------------------
    ident = LinearMap.identity(w2.space, field)
    rep.check(("diff.g-inv", "g-inv"),
              ({"product": name, "basis_index": diff[0]} for name, sides in (
                  ("sigma^ sigma^-1", (tc.sigma, tc.sigma_inv)),
                  ("sigma^-1 sigma^", (tc.sigma_inv, tc.sigma)))
               if (diff := first_difference(sides, ident)) is not None))

    # filtration compatibility for k = 0, 1, 2 (degree-budgeted pairings)
    for k in range(BUDGET + 1):
        fk = tc.filtration_basis(k)
        left_span = []
        right_span = []
        for u in fk:
            deg_u = omega.degree(min(u))
            for j in range(omega.dim):
                if deg_u + omega.degree(j) > BUDGET:
                    continue
                left_span.append(embed(w2, u, {j: one}))
                right_span.append(embed(w2, {j: one}, u))
        img = [tc.sigma.apply(v) for v in left_span]
        rep.check((f"diff.gsM-filt-{k}", "gsM-filt"),
                  [] if spans_equal(img, right_span) else [{"k": k}])

    tc.add_braid_records(rep, (
        ("diff.g-braid", "g-braid"), ("diff.prod-gsM1", "prod-gsM1"),
        ("diff.prod-gsM2", "prod-gsM2"), ("diff.g-comm", "mu sigma^ = mu")))

    rep.add(map_equality_record("diff.g-star", "* sigma^ = sigma^-1 *",
                                (tc.w2_star, tc.sigma), (tc.sigma_inv, tc.w2_star),
                                witness_space=w2.space))

    rep.check(("diff.g-d", "d sigma^ = sigma^ d"),
              ({"basis_index": b} for b in range(w2.dim) if tc.w2_degrees[b] < BUDGET
               and tc.w2_d(tc.sigma.cols[b]) != tc.sigma.apply(tc.w2_d_cols[b])))

    # --- L^ -------------------------------------------------------------------
    lhat = tc.lhat
    # closed under star and d: one solve per basis vector, shared with eps^_M
    stars = [lhat.l_incl.solve(tc.w2_star.apply(lb)) for lb in lhat.l_basis]
    ds = {li: lhat.l_incl.solve(tc.w2_d(lb)) for li, lb in enumerate(lhat.l_basis)
          if lhat.degrees[li] < BUDGET}
    rep.check(("diff.Lhat-star", "L^ closed under conjugation"),
              ({"basis_index": li} for li, st in enumerate(stars) if st is None))
    rep.check(("diff.Lhat-d", "L^ closed under d"),
              ({"basis_index": li} for li, dl in ds.items() if dl is None))

    if gauge_coalgebra is not None:
        # degree-0 part of L^ equals L; basis element k of B is deg0[k] of
        # Omega(P), on both slots of B_2
        b = gauge_coalgebra.bundle
        deg0 = LinearMap(b.total.space, omega.space, [{k: one} for k in tc._deg0], field)
        both = chain_terms(slot_terms(0, deg0), slot_terms(1, deg0))
        l_in_w2 = [apply_terms(b.b2, w2, both, lb) for lb in gauge_coalgebra.l_basis]
        lhat0 = [lb for li, lb in enumerate(lhat.l_basis) if lhat.degrees[li] == 0]
        rep.check(("diff.Lhat-deg0", "L^0 = L"),
                  [] if spans_equal(l_in_w2, lhat0)
                  else [{"dim_L": len(l_in_w2), "dim_Lhat0": len(lhat0)}])

    # eps^_M: hermitian and d-compatible; a star or d that leaves L^ fails
    rep.check(("diff.epsM-star", "eps^_M * = * eps^_M"),
              ({"basis_index": li} for li, st in enumerate(stars)
               if st is None or lhat.eps_m.apply(st) != base.star_vec(lhat.eps_m.cols[li])))
    rep.check(("diff.epsM-d", "eps^_M d = d eps^_M"),
              ({"basis_index": li} for li, dl in ds.items()
               if dl is None or lhat.eps_m.apply(dl) != base.d_apply(lhat.eps_m.cols[li])))

    # counital differential coalgebra identities
    lhat.add_coalgebra_records(rep, (
        ("diff.Lhat-counit-left", "counit"), ("diff.Lhat-counit-right", "counit"),
        ("diff.Lhat-e-fgau", "(eps^_M (x) id)Delta^ = id"),
        ("diff.Lhat-coact", "(id (x) Delta^)Delta^ = (phi^_M (x) id)Delta^"),
        ("diff.Lhat-coasso", "phi^_M coassociative")))

    # <tau^, tau^>(theta) = d tau^(theta) on Gamma_inv
    bracket = ("diff.tau-bracket", "<tau^,tau^> = d tau^")
    if gamma.d1:
        mult = tc.transported_mult(2)

        @cache
        def carried_tau(t: int) -> list:
            """tau^(theta_t) carried along X_1, once per theta_t."""
            return mult.carry(tc.tau.apply(gamma.inv1_vec(t)))

        rep.check(bracket, ({"theta_index": t} for t in range(gamma.d1)
                            if tc.env2.bracket(t, carried_tau, mult.mul_carried)
                            != tc.w2_d(tc.tau.apply(gamma.inv1_vec(t)))))
    else:
        rep.add(vacuous(*bracket, note="zero calculus"))

    return rep
