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
inverse, tau^, sigma^_M and its formula inverse with the Koszul signs of
their defining formulas, sigma^ and mu on slots of W_n, the conjugation on
W_2, F^_2, the records of the braid equation, the product compatibilities
and mu sigma^ = mu, the Galois tower X^_n and the braided products on W_2 and
W_3 transported along it are the tower's, written once for both degrees.
The degree-0 bundle is not rebuilt here: it is the product bundle the caller
built, and Omega^0(P) lists its basis in the same order.  What only the
graded case has stays here: X^ bijective in every total degree <= 2, d on
W_2, the filtration Omega_k(P), and the g-inv, g-star, g-d, gsM-filt and
tau^ checks of differential_suite.

The differential gauge coalgebra L^ (F^_2-invariants of W_2 with eps^_M,
Delta^ and phi^_M, and its counital coalgebra identities) is built by
gauge.GradedGaugeCoalgebra, the construction that also gives L in degree
zero.  Graded only: the homogeneity of the L^ basis vectors, closure of L^
under star and d, eps^_M against star and d, and L^0 = L.
"""

from __future__ import annotations

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
    viadd, viadd_term, vscale,
)
from .report import (
    ValidationReport, failing, map_equality_record, passing, vacuous,
)
from .tensor import Factor, TProd, slot_apply, unit_leg


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
    """Omega(M) (x)^ Gamma^ with the product-bundle structure, degree <= 2."""

    def __init__(self, base: BaseCalculus, gamma: GammaEnvelope):
        self.base = base
        self.gamma = gamma
        field = gamma.field
        one = field.one
        # free graded pair space for indexing (no balancing: flat = space)
        m_factor = Factor(base.space, base.degrees)
        self.tp = TProd(field, (m_factor, gamma.factor), budget=BUDGET,
                        name="Omega(P)")
        unit = {}
        for m, cm in base.unit.items():
            for a, ca in gamma.unit.items():
                unit[self.idx(m, a)] = cm * ca
        super().__init__("Omega(P)", field, self.tp.space,
                         (self.tp.degree(t) for t in self.tp.tuples), unit)

        # the product-calculus star is componentwise
        star_cols = [graded_tensor_star(self.tp, base, gamma, {i: one})
                     for i in range(self.dim)]
        self.star = LinearMap(self.space, self.space, star_cols, field,
                              antilinear=True)
        self.d_cols = [None if self.degrees[i] >= BUDGET
                       else graded_tensor_d(self.tp, base, gamma, {i: one})
                       for i in range(self.dim)]

        # F^ = id (x) phi^ into Omega(P) (x) Gamma^
        self.og = TProd(field, (Factor(self.space, self.degrees), gamma.factor),
                        budget=BUDGET, name="Omega(P)(x)Gamma^")
        f_cols = []
        for i in range(self.dim):
            m, g = self.tp.tuples[i]
            acc = {}
            for fj, c in gamma.square.lift(gamma.phi_hat.cols[g]).items():
                g1, g2 = gamma.square.tuples[fj]
                acc[self.og.flat_index((self.idx(m, g1), g2))] = c
            f_cols.append(self.og.project(acc))
        self.f_hat = LinearMap(self.space, self.og.space, f_cols, field)
        self.f_legs = []
        for i in range(self.dim):
            legs = []
            for fj, c in self.og.lift(self.f_hat.cols[i]).items():
                w, th = self.og.tuples[fj]
                legs.append((w, th, c))
            self.f_legs.append(legs)

        # the Omega(M)-bimodule factor for the balanced powers
        lact, ract = [], []
        for f in range(base.dim):
            lcols, rcols = [], []
            for i in range(self.dim):
                m, g = self.tp.tuples[i]
                lacc: Vec = {}
                if base.degree(f) + self.degrees[i] <= BUDGET:
                    for m2, cm in base.mul_basis(f, m).items():
                        lacc[self.idx(m2, g)] = cm
                # right: (m (x) g)(f (x) 1) = (-1)^{deg g * deg f} m f (x) g
                racc: Vec = {}
                if base.degree(f) + self.degrees[i] <= BUDGET:
                    sign = -one if (gamma.degree(g) * base.degree(f)) % 2 else one
                    for m2, cm in base.mul_basis(m, f).items():
                        racc[self.idx(m2, g)] = sign * cm
                lcols.append(lacc)
                rcols.append(racc)
            lact.append(LinearMap(self.space, self.space, lcols, field))
            ract.append(LinearMap(self.space, self.space, rcols, field))
        self.factor = Factor(self.space, self.degrees, lact, ract)
        self.m_embed_cols = []
        for f in range(base.dim):
            acc = {}
            for a, ca in gamma.unit.items():
                if base.degree(f) <= BUDGET:
                    acc[self.idx(f, a)] = ca
            self.m_embed_cols.append(acc)

    def idx(self, m: int, g: int) -> int:
        return self.tp.flat_index((m, g))

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
        super().__init__(omega, omega.factor, gamma, gamma.factor, gamma.kappa_hat_inv,
                         omega.f_legs, ("W", "G"), coeff_degrees=base_calc.degrees,
                         budget=BUDGET, spaces={"WG": omega.og})
        self.w1, self.w2, self.w3 = (self.power(n) for n in (1, 2, 3))

        # X^ is bijective in each total degree
        og = omega.og
        w2deg = self.w2.degrees()
        ogdeg = [og.degree(og.tuples[og.quotient.keep[b]]) for b in range(og.dim)]
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

        self.m_embed = LinearMap(base_calc.space, omega.space, omega.m_embed_cols, field)
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

    def w2_basis_deg(self, b: int) -> int:
        return self.w2_degrees[b]

    def tau_of(self, gamma_vec: Vec) -> Vec:
        return self.tau.apply(gamma_vec)

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
            cols = []
            for i in range(omega.dim):
                col: Vec = {}
                for w, th, c in omega.f_legs[i]:
                    if gamma.degree(th) > k:
                        col[og.flat_index((w, th))] = c
                cols.append(col)
            self._filtration[k] = span_basis(
                LinearMap(omega.space, og.space, cols, self.field).nullspace())
        return self._filtration[k]

    def f_pos_part(self, i: int):
        return [(w, th, c) for (w, th, c) in self.omega.f_legs[i]
                if self.gamma.degree(th) == 0]

    def embed_w3(self, x: Vec, y: Vec, z: Vec) -> Vec:
        """x (x) y (x) z in W_3 from three Omega(P) vectors."""
        w3 = self.w3
        out: Vec = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, ck in z.items():
                    viadd_term(out, w3.flat_index((i, j, k)), ci * cj * ck)
        return w3.project(out)

    def embed_w2(self, x: Vec, y: Vec) -> Vec:
        w2 = self.w2
        out: Vec = {}
        for i, ci in x.items():
            for j, cj in y.items():
                viadd_term(out, w2.flat_index((i, j)), ci * cj)
        return w2.project(out)


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
    expected_hor = []
    for i in range(omega.dim):
        m, g = omega.tp.tuples[i]
        if gamma.degree(g) == 0:
            expected_hor.append({i: one})
    rep.add(passing("diff.hor", "hor(P) = Omega(M) . B")
            if spans_equal(hor, expected_hor)
            else failing("diff.hor", "hor(P) = Omega(M) . B",
                         {"dim": len(hor), "expected": len(expected_hor)}))
    fixed = tc.omega_m_fixed()
    rep.add(passing("diff.omegaM", "Omega(M) = F^-fixed forms")
            if spans_equal(fixed, omega.m_embed_cols)
            else failing("diff.omegaM", "Omega(M) = F^-fixed forms",
                         {"dim": len(fixed)}))

    # --- tau^ block -----------------------------------------------------------
    w2g = tc.hopf_space(2)

    # (id (x) F^) tau^ = tau^((1)) (x) (2)
    lhs_cols, rhs_cols = [], []
    for gi in range(gamma.dim):
        acc: Vec = {}
        for p, q, ct in tc.tau_legs[gi]:
            for w, th, c in omega.f_legs[q]:
                viadd_term(acc, w2g.flat_index((p, w, th)), ct * c)
        lhs_cols.append(w2g.project(acc))
        acc = {}
        for fj, c in gamma.square.lift(gamma.phi_hat.cols[gi]).items():
            g1, g2 = gamma.square.tuples[fj]
            for p, q, ct in tc.tau_legs[g1]:
                viadd_term(acc, w2g.flat_index((p, q, g2)), c * ct)
        rhs_cols.append(w2g.project(acc))
    lhs = LinearMap(gamma.space, w2g.space, lhs_cols, field)
    rhs = LinearMap(gamma.space, w2g.space, rhs_cols, field)
    rep.add(map_equality_record("diff.tau-coact", "(id (x) F^)tau^", lhs, rhs,
                                witness_space=w2g.space))

    # F^_2 tau^ = (tau^ (x) id) ad
    ad = gamma.ad_hat()
    lhs = tc.f2.compose(tc.tau)
    rhs_cols = []
    for gi in range(gamma.dim):
        acc = {}
        for fj, c in gamma.square.lift(ad.cols[gi]).items():
            g1, g2 = gamma.square.tuples[fj]
            for p, q, ct in tc.tau_legs[g1]:
                viadd_term(acc, w2g.flat_index((p, q, g2)), c * ct)
        rhs_cols.append(w2g.project(acc))
    rhs = LinearMap(gamma.space, w2g.space, rhs_cols, field)
    rep.add(map_equality_record("diff.tau-ad", "F^_2 tau^ = (tau^ (x) id) ad",
                                lhs, rhs, witness_space=w2g.space))

    # tau^(gamma)* = tau^(kappa^(gamma)*)
    lhs = tc.w2_star.compose(tc.tau)
    rhs = tc.tau.compose(gamma.star.compose(gamma.kappa_hat))
    rep.add(map_equality_record("diff.tau-star", "tau^* = tau^ kappa^ *",
                                lhs, rhs, witness_space=w2.space))

    # tau^ d = d tau^
    bad = None
    for gi in range(gamma.dim):
        if gamma.degree(gi) >= BUDGET:
            continue
        lhs_v = tc.tau.apply(gamma.d_cols[gi])
        rhs_v = tc.w2_d(tc.tau.cols[gi])
        if lhs_v != rhs_v:
            bad = {"basis_index": gi}
            break
    rep.add(failing("diff.tau-d", "tau^ d = d tau^", bad) if bad
            else passing("diff.tau-d", "tau^ d = d tau^"))

    # (F^ (x) id) tau^ = chi{kappa^((1)) (x) tau^((2))}, carried into
    # W_2 (x) Gamma^: the right side is the graded twist of
    # kappa^(gamma^(1)) (x) l(gamma^(2)) (x) r(gamma^(2)) moving the kappa^
    # leg to the end, with the coproduct twist sign (-1)^{deg (1) deg (2)};
    # the left side swaps the F^-output leg past the r slot
    lhs_cols, rhs_cols = [], []
    for gi in range(gamma.dim):
        acc: Vec = {}
        for p, q, ct in tc.tau_legs[gi]:
            for w, th, c in omega.f_legs[p]:
                sign = -one if (gamma.degree(th) * omega.degree(q)) % 2 else one
                viadd_term(acc, w2g.flat_index((w, q, th)), ct * c * sign)
        lhs_cols.append(w2g.project(acc))
        acc = {}
        for fj, c in gamma.square.lift(gamma.phi_hat.cols[gi]).items():
            g1, g2 = gamma.square.tuples[fj]
            sign = -one if (gamma.degree(g1) * gamma.degree(g2)) % 2 else one
            for k1, ck in gamma.kappa_hat.cols[g1].items():
                for p, q, ct in tc.tau_legs[g2]:
                    viadd_term(acc, w2g.flat_index((p, q, k1)), c * ck * ct * sign)
        rhs_cols.append(w2g.project(acc))
    lhs = LinearMap(gamma.space, w2g.space, lhs_cols, field)
    rhs = LinearMap(gamma.space, w2g.space, rhs_cols, field)
    rep.add(map_equality_record("diff.tau-left-coact", "(F^ (x) id)tau^", lhs, rhs,
                                witness_space=w2g.space))

    # mu tau^ = eps(.) 1
    lhs = tc.mu_at(2, 0).compose(tc.tau)
    rhs_cols = []
    for gi in range(gamma.dim):
        acc = {}
        e = gamma.eps_basis(gi)
        if e:
            for i, c in omega.unit.items():
                viadd_term(acc, tc.w1.flat_index((i,)), e * c)
        rhs_cols.append(tc.w1.project(acc))
    rhs = LinearMap(gamma.space, tc.w1.space, rhs_cols, field)
    rep.add(map_equality_record("diff.tau-eps", "l r = eps(.)1", lhs, rhs,
                                witness_space=tc.w1.space))

    # graded centrality of im(tau^) with Omega(M)
    bad = None
    for f in range(base.dim):
        for gi in range(gamma.dim):
            if base.degree(f) + gamma.degree(gi) > BUDGET:
                continue
            lv = slot_apply(w2, tc.tau.cols[gi], 0, omega.factor.lact[f])
            rv = slot_apply(w2, tc.tau.cols[gi], 1, omega.factor.ract[f])
            sign = -one if (base.degree(f) * gamma.degree(gi)) % 2 else one
            if lv != vscale(sign, rv):
                bad = {"base_index": f, "gamma_index": gi}
                break
        if bad:
            break
    rep.add(failing("diff.tau-central", "im(tau^) graded-commutes with Omega(M)", bad)
            if bad else
            passing("diff.tau-central", "im(tau^) graded-commutes with Omega(M)"))

    # twisted multiplicativity: tau^(xy) per the chi-formula
    bad = None
    for gi in range(gamma.dim):
        for gj in range(gamma.dim):
            if gamma.degree(gi) + gamma.degree(gj) > BUDGET:
                continue
            lhs_v = tc.tau.apply(gamma.mul_basis(gi, gj))
            acc: Vec = {}
            for u, v_, cu in tc.tau_legs[gj]:
                sign = -one if (gamma.degree(gi) * omega.degree(u)) % 2 else one
                for p, q, ct in tc.tau_legs[gi]:
                    c0 = cu * ct * sign
                    for m, cm in omega.mul_basis(u, p).items():
                        for m2, cm2 in omega.mul_basis(q, v_).items():
                            viadd_term(acc, w2.flat_index((m, m2)), c0 * cm * cm2)
            if lhs_v != w2.project(acc):
                bad = {"pair": [gi, gj]}
                break
        if bad:
            break
    rep.add(failing("diff.tau-mult", "tau^ of a product (chi formula)", bad)
            if bad else passing("diff.tau-mult", "tau^ of a product (chi formula)"))

    # --- sigma^_M suite --------------------------------------------------------
    ident = LinearMap.identity(w2.space, field)
    ok = (tc.sigma.compose(tc.sigma_inv) == ident
          and tc.sigma_inv.compose(tc.sigma) == ident)
    rep.add(passing("diff.g-inv", "g-inv") if ok
            else failing("diff.g-inv", "g-inv", {}))

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
                left_span.append(tc.embed_w2(u, {j: one}))
                right_span.append(tc.embed_w2({j: one}, u))
        img = [tc.sigma.apply(v) for v in left_span]
        ok = spans_equal(img, right_span)
        rep.add(passing(f"diff.gsM-filt-{k}", "gsM-filt") if ok
                else failing(f"diff.gsM-filt-{k}", "gsM-filt", {"k": k}))

    tc.add_braid_records(rep, (
        ("diff.g-braid", "g-braid"), ("diff.prod-gsM1", "prod-gsM1"),
        ("diff.prod-gsM2", "prod-gsM2"), ("diff.g-comm", "mu sigma^ = mu")))

    rep.add(map_equality_record("diff.g-star", "* sigma^ = sigma^-1 *",
                                tc.w2_star.compose(tc.sigma),
                                tc.sigma_inv.compose(tc.w2_star),
                                witness_space=w2.space))

    bad = None
    for b in range(w2.dim):
        if tc.w2_basis_deg(b) >= BUDGET:
            continue
        lhs_v = tc.w2_d(tc.sigma.cols[b])
        rhs_v = tc.sigma.apply(tc.w2_d_cols[b])
        if lhs_v != rhs_v:
            bad = {"basis_index": b}
            break
    rep.add(failing("diff.g-d", "d sigma^ = sigma^ d", bad) if bad
            else passing("diff.g-d", "d sigma^ = sigma^ d"))

    # --- L^ -------------------------------------------------------------------
    lhat = tc.lhat
    # closed under star and d: one solve per basis vector, shared with eps^_M
    stars = [lhat.l_incl.solve(tc.w2_star.apply(lb)) for lb in lhat.l_basis]
    ds = {li: lhat.l_incl.solve(tc.w2_d(lb)) for li, lb in enumerate(lhat.l_basis)
          if lhat.degrees[li] < BUDGET}
    ok = all(st is not None for st in stars)
    rep.add(passing("diff.Lhat-star", "L^ closed under conjugation") if ok
            else failing("diff.Lhat-star", "L^ closed under conjugation", {}))
    ok = all(dl is not None for dl in ds.values())
    rep.add(passing("diff.Lhat-d", "L^ closed under d") if ok
            else failing("diff.Lhat-d", "L^ closed under d", {}))

    if gauge_coalgebra is not None:
        # degree-0 part of L^ equals L; basis element k of B is deg0[k] of Omega(P)
        b2 = gauge_coalgebra.bundle.b2
        deg0 = tc._deg0
        l_in_w2 = []
        for lb in gauge_coalgebra.l_basis:
            acc = {}
            for fi, c in b2.lift(lb).items():
                i, j = b2.tuples[fi]
                viadd_term(acc, w2.flat_index((deg0[i], deg0[j])), c)
            l_in_w2.append(w2.project(acc))
        lhat0 = [lb for li, lb in enumerate(lhat.l_basis) if lhat.degrees[li] == 0]
        rep.add(passing("diff.Lhat-deg0", "L^0 = L")
                if spans_equal(l_in_w2, lhat0)
                else failing("diff.Lhat-deg0", "L^0 = L",
                             {"dim_L": len(l_in_w2), "dim_Lhat0": len(lhat0)}))

    # eps^_M: hermitian and d-compatible; a star or d that leaves L^ fails
    bad = next(({"basis_index": li} for li, st in enumerate(stars)
                if st is None or lhat.eps_m.apply(st)
                != base.star_vec(lhat.eps_m.cols[li])), None)
    rep.add(failing("diff.epsM-star", "eps^_M * = * eps^_M", bad) if bad
            else passing("diff.epsM-star", "eps^_M * = * eps^_M"))
    bad = next(({"basis_index": li} for li, dl in ds.items()
                if dl is None or lhat.eps_m.apply(dl)
                != base.d_apply(lhat.eps_m.cols[li])), None)
    rep.add(failing("diff.epsM-d", "eps^_M d = d eps^_M", bad) if bad
            else passing("diff.epsM-d", "eps^_M d = d eps^_M"))

    # counital differential coalgebra identities
    lhat.add_coalgebra_records(rep, (
        ("diff.Lhat-counit-left", "counit"), ("diff.Lhat-counit-right", "counit"),
        ("diff.Lhat-e-fgau", "(eps^_M (x) id)Delta^ = id"),
        ("diff.Lhat-coact", "(id (x) Delta^)Delta^ = (phi^_M (x) id)Delta^"),
        ("diff.Lhat-coasso", "phi^_M coassociative")))

    # <tau^, tau^>(theta) = d tau^(theta) on Gamma_inv
    bad = None
    checked = False
    for t in range(gamma.d1):
        checked = True
        # theta as the invariant element 1 (x) theta_t of Gamma
        theta_vec = gamma.inv1_vec(t)
        lhs_v: Vec = {}
        for idx, c in tc.env2.delta.cols[t].items():
            t1, t2 = divmod(idx, gamma.d1)
            v1 = tc.tau_of(gamma.inv1_vec(t1))
            v2 = tc.tau_of(gamma.inv1_vec(t2))
            viadd(lhs_v, c, tc.transported_mult(2)(v1, v2))
        rhs_v = tc.w2_d(tc.tau_of(theta_vec))
        if lhs_v != rhs_v:
            bad = {"theta_index": t}
            break
    if not checked:
        rep.add(vacuous("diff.tau-bracket", "<tau^,tau^> = d tau^",
                        note="zero calculus"))
    else:
        rep.add(failing("diff.tau-bracket", "<tau^,tau^> = d tau^", bad) if bad
                else passing("diff.tau-bracket", "<tau^,tau^> = d tau^"))

    return rep
