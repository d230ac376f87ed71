"""Connections on product-bundle calculi: the Maurer-Cartan connection and
its horizontal perturbations, curvature, covariant derivative, and the gauge
transformation laws of section-five type.

A connection is a hermitian map omega: Gamma_inv -> Omega^1(P) with
F^ omega(theta) = sum omega(theta_k) (x) c_k + 1 (x) theta.  Its curvature is
R = d omega - <omega, omega> with the brackets taken through the lifted
embedded differential delta, and the covariant derivative on horizontal forms
is D(phi) = d phi - (-1)^{deg phi} sum phi_k omega pi(c_k).  The
sigma-cochain in tr-R1 and tr-D1 is the tower's BalancedTower.varsigma, the
one the bundle has in degree zero.
"""

from __future__ import annotations

from functools import cache

from .calculus import TotalCalculus
from .errors import NotCovariant, ValidationFailed
from .hopf import BUDGET
from .linalg import Echelon, LinearMap, Vec, viadd, viadd_term
from .report import ValidationReport, vacuous


class Connection:
    def __init__(self, tc: TotalCalculus, omega_cols, hermitian=True, name="omega"):
        self.tc = tc
        self.name = name
        field = tc.field
        self.field = field
        gamma = tc.gamma
        self.omega_map = LinearMap(tc.fodc.inv_space, tc.omega.space,
                                   omega_cols, field)
        om = tc.omega
        # connection condition
        og = om.og
        for t in range(tc.fodc.dim):
            lhs = om.f_hat.apply(omega_cols[t])
            acc: Vec = {}
            for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                for i, ci in omega_cols[th_k].items():
                    viadd_term(acc, og.flat_index((i, gamma.i0(c_k))), cc * ci)
            for i, ci in om.unit.items():
                for k, ck in gamma.inv1_vec(t).items():
                    viadd_term(acc, og.flat_index((i, k)), ci * ck)
            if lhs != og.project(acc):
                raise NotCovariant(
                    f"{name} violates the connection transformation law")
        if hermitian:
            for t in range(tc.fodc.dim):
                lhs = self.omega_of(tc.fodc.star_inv.cols[t])
                rhs = om.star_vec(omega_cols[t])
                if lhs != rhs:
                    raise NotCovariant(f"{name} is not hermitian")
        # curvature R = d omega - <omega, omega>
        r_cols = []
        for t in range(tc.fodc.dim):
            r = om.d_apply(omega_cols[t])
            for idx, c in tc.env2.delta.cols[t].items():
                t1, t2 = divmod(idx, tc.fodc.dim)
                viadd(r, -c, om.mul(omega_cols[t1], omega_cols[t2]))
            r_cols.append(r)
        self.curvature = LinearMap(tc.fodc.inv_space, tc.omega.space, r_cols, field)
        # horizontality of the curvature values
        hor = Echelon()
        for v in tc.filtration_basis(0):
            hor.add(v)
        for t in range(tc.fodc.dim):
            if not hor.contains(r_cols[t]):
                raise ValidationFailed("curvature value is not horizontal")
        self.hor_span = hor

    def omega_of(self, theta_vec: Vec) -> Vec:
        return self.omega_map.apply(theta_vec)

    def omega_pi(self, a_vec: Vec) -> Vec:
        """omega(pi(a)) for a group-algebra vector."""
        return self.omega_of(self.tc.fodc.pi.apply(a_vec))

    def covariant_derivative(self, phi: Vec) -> Vec:
        """D(phi) = d phi - (-1)^{deg phi} sum phi_k omega pi(c_k) on a
        homogeneous horizontal form of degree < 2."""
        tc = self.tc
        om = tc.omega
        one = self.field.one
        degs = {om.degree(i) for i in phi}
        if len(degs) > 1:
            raise ValidationFailed("covariant derivative needs homogeneous input")
        deg = degs.pop() if degs else 0
        out = om.d_apply(phi)
        sign = -one if deg % 2 else one
        for i, c in phi.items():
            for w, th, cf in tc.f_pos_part(i):
                # th is a degree-0 leg (group algebra index)
                _, a, _ = tc.gamma.split(th)
                wpi = self.omega_pi({a: one})
                viadd(out, -(sign * c * cf), om.mul({w: one}, wpi))
        return out


def maurer_cartan(tc: TotalCalculus) -> Connection:
    """omega(theta) = 1_M (x) theta on a product bundle."""
    cols = []
    for t in range(tc.fodc.dim):
        acc: Vec = {}
        for m, cm in tc.base_calc.unit.items():
            for k, ck in tc.gamma.inv1_vec(t).items():
                acc[tc.omega.idx(m, k)] = cm * ck
        cols.append(acc)
    return Connection(tc, cols, name="maurer-cartan")


def perturbed_connection(tc: TotalCalculus, lam_cols) -> Connection:
    """Maurer-Cartan plus a hermitian ad-covariant lambda: Gamma_inv ->
    Omega^1(M); lam_cols give Omega(M) coordinates per Gamma_inv basis."""
    om = tc.omega
    base = tc.base_calc
    lam_omega = []
    for t in range(tc.fodc.dim):
        acc: Vec = {}
        for f, c in lam_cols[t].items():
            if base.degree(f) != 1:
                raise NotCovariant("perturbation must take values in Omega^1(M)")
            viadd(acc, c, tc.m_embed.cols[f])
        lam_omega.append(acc)
    # hermitian
    for t in range(tc.fodc.dim):
        lhs: Vec = {}
        for t2, c in tc.fodc.star_inv.cols[t].items():
            viadd(lhs, c.conj(), lam_omega[t2])
        if lhs != om.star_vec(lam_omega[t]):
            raise NotCovariant("perturbation is not hermitian")
    # ad-covariance: sum lam(theta_k) (x) c_k = lam(theta) (x) 1
    og = om.og
    for t in range(tc.fodc.dim):
        acc = {}
        for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
            for i, ci in lam_omega[th_k].items():
                viadd_term(acc, og.flat_index((i, tc.gamma.i0(c_k))), cc * ci)
        want: Vec = {}
        for i, ci in lam_omega[t].items():
            for a, ca in tc.group.unit.items():
                viadd_term(want, og.flat_index((i, tc.gamma.i0(a))), ci * ca)
        if og.project(acc) != og.project(want):
            raise NotCovariant("perturbation is not ad-covariant")
    mc = maurer_cartan(tc)
    cols = [dict(mc.omega_map.cols[t]) for t in range(tc.fodc.dim)]
    for t in range(tc.fodc.dim):
        for i, c in lam_omega[t].items():
            viadd_term(cols[t], i, c)
    return Connection(tc, cols, name="perturbed")


def verify_transformations(conn: Connection) -> ValidationReport:
    """d-aP, gP-inv, the braiding-with-connections display, tr-conn, and both
    forms of the curvature and covariant-derivative transformation laws."""
    tc = conn.tc
    rep = ValidationReport()
    field = tc.field
    one = field.one
    om = tc.omega
    gamma = tc.gamma
    g = tc.group
    w2, w3 = tc.w2, tc.w3
    d1 = tc.fodc.dim

    def tau0(a: int):
        return tc.tau_legs[gamma.i0(a)]

    # the W_3 products of tr-R1 and tr-D1 carry each operand along X_2 once
    @cache
    def carried_varsigma(a: int) -> Vec:
        return tc.transported_mult(3).carry(tc.varsigma(gamma.i0(a)))

    def carried_w3(v: Vec) -> Vec:
        """1 (x) 1 (x) v carried along X_2."""
        return tc.transported_mult(3).carry(tc.embed_w3(om.unit, om.unit, v))

    @cache
    def carried_curvature(t: int) -> Vec:
        return carried_w3(conn.curvature.cols[t])

    @cache
    def carried_derivative(w: int) -> Vec:
        return carried_w3(conn.covariant_derivative({w: one}))

    def theta_check(ident, witnesses, note=None):
        """rep.check for an identity over Gamma_inv: vacuous over the zero
        calculus, where it has no theta."""
        if d1:
            rep.check(ident, witnesses, note)
        else:
            rep.add(vacuous(*ident, note="zero calculus"))

    # d-aP: d tau(a) = tau(a^(1)) omega pi(a^(2)) - omega pi(a^(1)) tau(a^(2))
    def d_ap_failures():
        for a in range(g.dim):
            lhs = tc.w2_d(tc.tau.cols[gamma.i0(a)])
            acc: Vec = {}
            for a1, a2, c in g.sweedler(a):
                w2v = conn.omega_pi({a2: one})
                for p, q, ct in tau0(a1):
                    for qq, cq in om.mul({q: one}, w2v).items():
                        viadd_term(acc, w2.flat_index((p, qq)), c * ct * cq)
                w1v = conn.omega_pi({a1: one})
                for p, q, ct in tau0(a2):
                    for pp, cp in om.mul(w1v, {p: one}).items():
                        viadd_term(acc, w2.flat_index((pp, q)), -(c * ct * cp))
            if lhs != w2.project(acc):
                yield {"group_basis": g.space.labels[a]}

    rep.check(("conn.d-aP", "d-aP"), d_ap_failures())

    # gP-inv: tau^(theta) = 1 (x) omega(theta) - sum omega(theta_k) tau(c_k)
    def gp_inv_failures():
        for t in range(d1):
            lhs = tc.tau.apply(gamma.inv1_vec(t))
            acc = tc.embed_w2(om.unit, conn.omega_map.cols[t])
            for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                wv = conn.omega_map.cols[th_k]
                for p, q, ct in tau0(c_k):
                    for pp, cp in om.mul(wv, {p: one}).items():
                        viadd(acc, -(cc * ct * cp),
                              w2.project({w2.flat_index((pp, q)): one}))
            if lhs != acc:
                yield {"theta_index": t}

    theta_check(("conn.gP-inv", "gP-inv"), gp_inv_failures())

    # braiding between connections and arbitrary forms
    def braiding_failures():
        for t in range(d1):
            wv = conn.omega_map.cols[t]
            for psi in range(om.dim):
                if 1 + om.degree(psi) > BUDGET:
                    continue
                lhs = tc.sigma.apply(tc.embed_w2(wv, {psi: one}))
                sign = -one if om.degree(psi) % 2 else one
                acc: Vec = {}
                for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                    wk = conn.omega_map.cols[th_k]
                    left = om.mul(wk, {psi: one})
                    for p, q, ct in tau0(c_k):
                        for pp, cp in om.mul(left, {p: one}).items():
                            viadd_term(acc, w2.flat_index((pp, q)), cc * ct * cp)
                    right = om.mul({psi: one}, wk)
                    for p, q, ct in tau0(c_k):
                        for pp, cp in om.mul(right, {p: one}).items():
                            viadd_term(acc, w2.flat_index((pp, q)), -(sign * cc * ct * cp))
                rhs = w2.project(acc)
                for k, c in tc.embed_w2({psi: one}, wv).items():
                    viadd_term(rhs, k, sign * c)
                if lhs != rhs:
                    yield {"theta_index": t, "psi": om.space.labels[psi]}

    theta_check(("conn.braiding-connection", "braiding with connections"), braiding_failures())

    # tr-conn: Delta^ omega(theta) = sum omega(theta_k) (x) tau(c_k) + 1 (x) tau^(theta)
    def tr_conn_failures():
        for t in range(d1):
            lhs = tc.lhat.delta3.apply(conn.omega_map.cols[t])
            acc: Vec = {}
            for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                for i, ci in conn.omega_map.cols[th_k].items():
                    for p, q, ct in tau0(c_k):
                        viadd_term(acc, w3.flat_index((i, p, q)), cc * ci * ct)
            rhs = w3.project(acc)
            for fi, c in w2.lift(tc.tau.apply(gamma.inv1_vec(t))).items():
                p, q = w2.tuples[fi]
                for i, ci in om.unit.items():
                    viadd(rhs, c * ci, w3.project({w3.flat_index((i, p, q)): one}))
            if lhs != rhs:
                yield {"theta_index": t}

    theta_check(("conn.tr-conn", "tr-conn"), tr_conn_failures())

    # curvature covariance F^ R(theta) = sum R(theta_k) (x) c_k
    og = om.og

    def covariance_failures():
        for t in range(d1):
            lhs = om.f_hat.apply(conn.curvature.cols[t])
            acc = {}
            for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                for i, ci in conn.curvature.cols[th_k].items():
                    viadd_term(acc, og.flat_index((i, gamma.i0(c_k))), cc * ci)
            if lhs != og.project(acc):
                yield {"theta_index": t}

    theta_check(("conn.R-covariant", "curvature F^-covariance"), covariance_failures())

    # tr-R2: Delta^ R(theta) = sum R(theta_k) (x) tau(c_k)
    def tr_r2_failures():
        for t in range(d1):
            lhs = tc.lhat.delta3.apply(conn.curvature.cols[t])
            acc = {}
            for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                for i, ci in conn.curvature.cols[th_k].items():
                    for p, q, ct in tau0(c_k):
                        viadd_term(acc, w3.flat_index((i, p, q)), cc * ci * ct)
            if lhs != w3.project(acc):
                yield {"theta_index": t}

    theta_check(("conn.tr-R2", "tr-R2"), tr_r2_failures())

    # tr-R1: Delta^ R(theta) = sum varsigma(c_k) . R(theta_k)  (W_3 product)
    def tr_r1_failures():
        for t in range(d1):
            lhs = tc.lhat.delta3.apply(conn.curvature.cols[t])
            rhs: Vec = {}
            for th_k, c_k, cc in tc.fodc.varpi_legs[t]:
                prod = tc.transported_mult(3).mul_carried(carried_varsigma(c_k),
                                                          carried_curvature(th_k))
                viadd(rhs, cc, prod)
            if lhs != rhs:
                yield {"theta_index": t}

    w3_note = "right side multiplied in W_3 with the sigma^_M-induced product"
    theta_check(("conn.tr-R1", "tr-R1"), tr_r1_failures(), w3_note)

    # covariant derivative on horizontal forms of degree <= 1
    hor = tc.filtration_basis(0)
    d_checked = []
    for v in hor:
        deg = om.degree(min(v))
        if deg >= BUDGET:
            continue
        d_checked.append((v, deg))

    # D maps hor to hor
    rep.check(("conn.D-horizontal", "D preserves horizontal forms"),
              ({"form": om.space.render(v)} for v, deg in d_checked
               if not conn.hor_span.contains(conn.covariant_derivative(v))))

    # tr-D2: Delta^ D(phi) = sum D(phi_k) (x) tau(c_k)
    def tr_d2_failures():
        for v, deg in d_checked:
            lhs = tc.lhat.delta3.apply(conn.covariant_derivative(v))
            acc = {}
            for i, c in v.items():
                for w, th, cf in tc.f_pos_part(i):
                    _, a, _ = gamma.split(th)
                    dw = conn.covariant_derivative({w: one})
                    for iw, ciw in dw.items():
                        for p, q, ct in tau0(a):
                            viadd_term(acc, w3.flat_index((iw, p, q)), c * cf * ciw * ct)
            if lhs != w3.project(acc):
                yield {"form": om.space.render(v)}

    rep.check(("conn.tr-D2", "tr-D2"), tr_d2_failures())

    # tr-D1: Delta^ D(phi) = sum varsigma(c_k) . D(phi_k)  (W_3 product)
    def tr_d1_failures():
        for v, deg in d_checked:
            lhs = tc.lhat.delta3.apply(conn.covariant_derivative(v))
            rhs = {}
            for i, c in v.items():
                for w, th, cf in tc.f_pos_part(i):
                    _, a, _ = gamma.split(th)
                    prod = tc.transported_mult(3).mul_carried(carried_varsigma(a),
                                                              carried_derivative(w))
                    viadd(rhs, c * cf, prod)
            if lhs != rhs:
                yield {"form": om.space.render(v)}

    rep.check(("conn.tr-D1", "tr-D1"), tr_d1_failures(), w3_note)
    return rep
