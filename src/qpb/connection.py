"""Connections on product-bundle calculi: the Maurer-Cartan connection and
its horizontal perturbations, curvature, covariant derivative, and the gauge
transformation laws of section-five type.

A connection is a hermitian map omega: Gamma_inv -> Omega^1(P) with
F^ omega(theta) = sum omega(theta_k) (x) c_k + 1 (x) theta.  Its curvature is
R = d omega - <omega, omega> with the brackets taken through the lifted
embedded differential delta, and the covariant derivative on horizontal forms
is D(phi) = d phi - (-1)^{deg phi} sum phi_k omega pi(c_k).  The bracket is
the envelope's, fodc.Envelope2.bracket, which diff.tau-bracket reads too.

The transformation laws are the tower's: each compares F^ phi or Delta^ phi
of a form-valued map phi with one of the three right sides that
bundle.BalancedTower writes once, sum phi(x_k) (x) c_k (coact_side),
sum phi(x_k) (x) tau(c_k) (tau_side) or sum varsigma(c_k) . phi(x_k)
(varsigma_side, the sigma-cochain the bundle has in degree zero).  The
connection condition, the ad-covariance of a perturbation and R-covariant
read the first, tr-conn, tr-R2 and tr-D2 the second, tr-R1 and tr-D1 the
third.  The legs of phi are varpi's for a connection or its curvature, and
those of F^ on a horizontal form for D.
"""

from __future__ import annotations

from functools import cache

from .calculus import TotalCalculus
from .errors import NotCovariant, ValidationFailed
from .hopf import BUDGET
from .linalg import Echelon, LinearMap, Vec, vadd, viadd, vneg, vsub
from .report import ValidationReport, vacuous
from .tensor import embed, slot_apply


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
        omega = omega_cols.__getitem__
        # connection condition F^ omega(theta) = sum omega(theta_k) (x) c_k + 1 (x) theta
        for t in range(tc.fodc.dim):
            rhs = vadd(tc.coact_side(tc.fodc.varpi_legs[t], omega),
                       embed(om.og, om.unit, gamma.inv1_vec(t)))
            if om.f_hat.apply(omega_cols[t]) != rhs:
                raise NotCovariant(
                    f"{name} violates the connection transformation law")
        if hermitian:
            for t in range(tc.fodc.dim):
                lhs = self.omega_of(tc.fodc.star_inv.cols[t])
                rhs = om.star_vec(omega_cols[t])
                if lhs != rhs:
                    raise NotCovariant(f"{name} is not hermitian")
        # curvature R = d omega - <omega, omega>
        r_cols = [vsub(om.d_apply(omega_cols[t]), tc.env2.bracket(t, omega, om.mul))
                  for t in range(tc.fodc.dim)]
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
        om = self.tc.omega
        one = self.field.one
        degs = {om.degree(i) for i in phi}
        if len(degs) > 1:
            raise ValidationFailed("covariant derivative needs homogeneous input")
        deg = degs.pop() if degs else 0
        out = om.d_apply(phi)
        sign = -one if deg % 2 else one
        for (w, a), c in horizontal_legs(self.tc, phi):
            viadd(out, -(sign * c), om.mul({w: one}, self.omega_pi({a: one})))
        return out


def horizontal_legs(tc: TotalCalculus, phi: Vec) -> list:
    """The legs ((w, a), c) of F^(phi) with a Gamma^ leg of degree zero: all
    of F^(phi) on a horizontal form.  That leg is the A index a, as A's basis
    is the degree-0 block of Gamma^."""
    return [(wa, c * cf) for i, c in phi.items() for wa, cf in tc.f_pos_part(i)]


def maurer_cartan(tc: TotalCalculus) -> Connection:
    """omega(theta) = 1_M (x) theta on a product bundle."""
    cols = [embed(tc.omega.tp, tc.base_calc.unit, tc.gamma.inv1_vec(t))
            for t in range(tc.fodc.dim)]
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
    for t in range(tc.fodc.dim):
        if tc.coact_side(tc.fodc.varpi_legs[t], lam_omega.__getitem__) != \
                embed(om.og, lam_omega[t], tc.gamma.unit):
            raise NotCovariant("perturbation is not ad-covariant")
    mc = maurer_cartan(tc)
    cols = [vadd(mc.omega_map.cols[t], lam_omega[t]) for t in range(tc.fodc.dim)]
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
    w2 = tc.w2
    d1 = tc.fodc.dim

    def tau0(a: int) -> Vec:
        return tc.tau.cols[a]  # A is the degree-0 block of Gamma^

    # multiplication by a fixed form on one slot of W_2: a slot from which no
    # factor is passed, so no sign enters
    def times(w: Vec, right: bool):
        """e_q -> e_q w (right) or w e_q, as a one-slot map."""
        return (lambda q: om.mul({q: one}, w)) if right else (lambda q: om.mul(w, {q: one}))

    omega = conn.omega_map.cols.__getitem__
    curvature = conn.curvature.cols.__getitem__

    @cache
    def derivative(w: int) -> Vec:
        return conn.covariant_derivative({w: one})

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
            lhs = tc.w2_d(tau0(a))
            acc: Vec = {}
            for (a1, a2), c in g.sweedler(a):
                viadd(acc, c, slot_apply(w2, tau0(a1), 1, times(conn.omega_pi({a2: one}), True)))
                viadd(acc, -c, slot_apply(w2, tau0(a2), 0,
                                          times(conn.omega_pi({a1: one}), False)))
            if lhs != acc:
                yield {"group_basis": g.space.labels[a]}

    rep.check(("conn.d-aP", "d-aP"), d_ap_failures())

    # gP-inv: tau^(theta) = 1 (x) omega(theta) - sum omega(theta_k) tau(c_k)
    def gp_inv_failures():
        for t in range(d1):
            lhs = tc.tau.apply(gamma.inv1_vec(t))
            acc = embed(w2, om.unit, omega(t))
            for (th_k, c_k), cc in tc.fodc.varpi_legs[t]:
                viadd(acc, -cc, slot_apply(w2, tau0(c_k), 0, times(omega(th_k), False)))
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
                lhs = tc.sigma.apply(embed(w2, wv, {psi: one}))
                sign = -one if om.degree(psi) % 2 else one
                rhs = embed(w2, {psi: one}, wv)
                if sign is not one:
                    rhs = vneg(rhs)
                for (th_k, c_k), cc in tc.fodc.varpi_legs[t]:
                    wk = omega(th_k)
                    viadd(rhs, cc, slot_apply(w2, tau0(c_k), 0,
                                              times(om.mul(wk, {psi: one}), False)))
                    viadd(rhs, -(sign * cc), slot_apply(w2, tau0(c_k), 0,
                                                        times(om.mul({psi: one}, wk), False)))
                if lhs != rhs:
                    yield {"theta_index": t, "psi": om.space.labels[psi]}

    theta_check(("conn.braiding-connection", "braiding with connections"), braiding_failures())

    # tr-conn: Delta^ omega(theta) = sum omega(theta_k) (x) tau(c_k) + 1 (x) tau^(theta)
    theta_legs = [[((None, h), c) for h, c in gamma.inv1_vec(t).items()] for t in range(d1)]
    delta3 = tc.lhat.delta3.apply
    theta_check(("conn.tr-conn", "tr-conn"), (
        {"theta_index": t} for t in range(d1)
        if delta3(conn.omega_map.cols[t]) != vadd(
            tc.tau_side(tc.fodc.varpi_legs[t], omega),
            tc.tau_side(theta_legs[t], lambda _: om.unit))))

    # the curvature: F^ R(theta) = sum R(theta_k) (x) c_k, and Delta^ R(theta)
    # is sum R(theta_k) (x) tau(c_k) (tr-R2) and sum varsigma(c_k) . R(theta_k)
    # (tr-R1, W_3 product)
    def theta_failures(lhs, side):
        for t in range(d1):
            if lhs(conn.curvature.cols[t]) != side(tc.fodc.varpi_legs[t], curvature):
                yield {"theta_index": t}

    theta_check(("conn.R-covariant", "curvature F^-covariance"),
                theta_failures(om.f_hat.apply, tc.coact_side))
    theta_check(("conn.tr-R2", "tr-R2"), theta_failures(delta3, tc.tau_side))
    w3_note = "right side multiplied in W_3 with the sigma^_M-induced product"
    theta_check(("conn.tr-R1", "tr-R1"), theta_failures(delta3, tc.varsigma_side), w3_note)

    # covariant derivative on horizontal forms of degree <= 1
    d_checked = [v for v in tc.filtration_basis(0) if om.degree(min(v)) < BUDGET]

    # D maps hor to hor
    rep.check(("conn.D-horizontal", "D preserves horizontal forms"),
              ({"form": om.space.render(v)} for v in d_checked
               if not conn.hor_span.contains(conn.covariant_derivative(v))))

    # Delta^ D(phi) is sum D(phi_k) (x) tau(c_k) (tr-D2) and
    # sum varsigma(c_k) . D(phi_k) (tr-D1, W_3 product)
    def form_failures(side):
        for v in d_checked:
            if delta3(conn.covariant_derivative(v)) != side(horizontal_legs(tc, v), derivative):
                yield {"form": om.space.render(v)}

    rep.check(("conn.tr-D2", "tr-D2"), form_failures(tc.tau_side))
    rep.check(("conn.tr-D1", "tr-D1"), form_failures(tc.varsigma_side), w3_note)
    return rep
