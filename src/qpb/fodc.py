"""Bicovariant first-order differential calculi and the degree-2 part of
their universal envelope.

A calculus is determined by an ad-invariant, *-compatible right ideal R
inside ker(eps); the left-invariant part is Gamma_inv = A / (R + C.1) with
projection pi, adjoint coaction varpi, the right action circ, and the
canonical braid sigma(eta (x) theta) = theta_k (x) (eta o c_k).

The free products Gamma_inv (x) A (``Fodc.inv_a``, the codomain of varpi)
and Gamma_inv (x) Gamma_inv (``Fodc.inv_sq``: sigma, S^2, the star, the
splitting and delta) are TProds, read and written through tensor.py: sigma
and the star are term maps, circ chains the slot maps circ(a^(1)) and
circ(a^(2)), and pi (x) id, pi (x) pi and sigma on slots are slot_terms
maps.  Lambda^2 keeps its labels w2[x(x)y].  hopf.add_coaction_records
checks varpi's comodule and counit laws.

The envelope keeps S^2 = {pi(r^(1)) (x) pi(r^(2))}, the quadratic quotient
Lambda^2, a splitting chosen as the Haar-orthogonal complement of S^2
(checked to be *- and varpi-compatible), and the lifted embedded
differential delta with sigma delta - delta = (id (x) pi) varpi.
Envelope2.bracket is the one bracket <phi, phi>(theta) taken through delta,
read by the curvature of a connection and by the tau^ bracket record.

Every map on a quotient is defined once, by descent (``_descend``): a map f
on the ambient space must kill every relation, or an error is raised, and f
is then read on the representatives of a basis.  So varpi, circ, the star
and dlambda descend from A to Gamma_inv, and circ, the star, phi^ and kappa^
from Gamma_inv^(x)2 to Lambda^2.  The descents of circ, varpi and the star
to Gamma_inv are the checks that R is a right ideal, ad-invariant and
star-compatible, and reject the ideal at fodc.ideal_basis; any other descent
that fails raises ValidationFailed naming the map.

GammaEnvelope assembles the degree <= 2 graded *-algebra A (+) Gamma (+)
Gamma^2 with differential, extended coproduct, counit and antipode.  It is a
hopf.GradedStarAlgebra, which holds its product, d, star and algebra axiom
check; the coproduct phi^ maps into the graded tensor square, and
hopf.add_coaction_records checks it as a unital, hermitian, d-compatible,
coassociative and counital *-homomorphism.  On Gamma_inv,
phi^(theta) = 1 (x) theta + sum_k theta_k (x) c_k for
varpi(theta) = sum_k theta_k (x) c_k, so m(id (x) kappa^)phi^ = eps gives
kappa^(theta) = -sum_k theta_k kappa(c_k).  hopf.add_antipode_record checks
the whole antipode axiom in degrees <= 1, then again in degree 2 once kappa^
has extended by graded antimultiplicativity.  A failure in any check rejects
the calculus with ValidationFailed.
"""

from __future__ import annotations

from .errors import (
    NotAdInvariant, NotIdeal, NotStarCompatible, SplittingIncompatible,
    ValidationFailed,
)
from .hopf import (
    BUDGET, GradedStarAlgebra, HopfStarAlgebra, add_antipode_record, add_coaction_records,
    adjoint_action, graded_tensor_mul,
)
from .linalg import (
    BasedSpace, Echelon, LinearMap, PreparedSolve, QuotientSpace, Vec,
    nullspace_of_columns, span_basis, viadd, viadd_term, vscale,
)
from .report import RaisingReport, ValidationReport, first_difference, passing, vacuous
from .tensor import (
    Factor, TProd, apply_terms, chain_terms, embed, flat_legs, from_legs, slot_terms,
    term_map,
)


def _descend(f, reps, relations, what: str, reject=None) -> list:
    """The map that f induces on a quotient, as its values on the
    representatives ``reps`` of a basis: f must kill every relation, or the
    error ``reject`` is raised, by default a ValidationFailed that names the
    map ``what``."""
    for n, r in enumerate(relations):
        if f(r):
            raise reject or ValidationFailed(f"{what} is not well defined: it does not "
                                             f"kill relation {n}")
    return [f(v) for v in reps]


class Fodc:
    def __init__(self, group: HopfStarAlgebra, ideal_basis):
        self.group = g = group
        self.field = field = group.field
        one = field.one
        da = group.dim

        self.ideal = Echelon()
        for r in ideal_basis:
            if g.eps(r):
                raise NotIdeal("ideal vector has nonzero counit", where="fodc.ideal_basis")
            self.ideal.add(r)
        self.ideal_basis = self.ideal.basis()
        self.ad = ad = adjoint_action(g)

        # Gamma_inv = A / (R + C 1)
        self.relations = [dict(r) for r in self.ideal_basis] + [dict(g.unit)]
        self.q = QuotientSpace(g.space.dim, self.relations, field)
        self.inv_space = BasedSpace(tuple(f"w[{g.space.labels[i]}]" for i in self.q.keep))
        self.dim = self.q.dim
        self.pi = LinearMap(g.space, self.inv_space, self.q.projection_cols(), field)
        self.section = LinearMap(self.inv_space, g.space,
                                 [{i: field.one} for i in self.q.keep], field)

        def on_inv(f, what, reject):
            """The map that f: A -> W induces on Gamma_inv, by descent, or the
            input error ``reject``.  Every r.b, every A-component of ad(r) and
            every kappa(r)* lies in ker eps, and (R + C.1) cap ker eps = R, so
            the descents of circ, varpi and the star are the right-ideal,
            ad-invariance and star-compatibility conditions on R."""
            return _descend(f, self.section.cols, self.relations, what, reject)

        # circ: pi(x) o b = pi(xb) - eps(x) pi(b), and the module law
        # (theta o a) o b = theta o (ab)
        def circ_by(b):
            def f(x):
                v = self.pi.apply(g.mul(x, {b: one}))
                eps_x = g.eps(x)
                if eps_x:
                    viadd(v, -eps_x, self.pi.cols[b])
                return v
            return f
        not_ideal = NotIdeal("R is not a right ideal", where="fodc.ideal_basis")
        self.circ = [LinearMap(self.inv_space, self.inv_space,
                               on_inv(circ_by(b), "circ", not_ideal), field)
                     for b in range(da)]
        for a in range(da):
            for b_ in range(da):
                comp = self.circ[b_].compose(self.circ[a])
                acc = LinearMap.zero(self.inv_space, self.inv_space, field)
                for k, c in g.algebra.mul_basis(a, b_).items():
                    acc = acc.add(self.circ[k].scale(c))
                if comp != acc:
                    raise ValidationFailed("circ is not a right module action")

        # the free products Gamma_inv (x) A and Gamma_inv^(x)2
        inv = Factor.ungraded(self.inv_space)
        self.inv_a = inv_a = TProd(field, (inv, Factor.ungraded(g.space)), name="Gamma_inv(x)A")
        self.inv_sq = TProd(field, (inv, inv), name="Gamma_inv^(x)2")

        # varpi pi = (pi (x) id) ad, and its coaction laws
        pi_id = slot_terms(0, self.pi)
        self.varpi = LinearMap(self.inv_space, inv_a.space, on_inv(
            lambda x: apply_terms(g.square, inv_a, pi_id, ad.apply(x)), "varpi",
            NotAdInvariant("ad(R) leaves R (x) A", where="fodc.ideal_basis")), field)
        add_coaction_records(
            RaisingReport(ValidationFailed),
            (None, None, None, ("varpi.comodule", "varpi is not a coaction"),
             ("varpi.counit", "varpi fails the counit law")),
            "varpi", self.inv_space, self.varpi, inv_a, g.algebra, g.coproduct, g.square,
            g.eps_basis)
        self.varpi_legs = [flat_legs(inv_a, col) for col in self.varpi.cols]

        # star on Gamma_inv: pi(x)* = -pi(kappa(x)*)
        self.star_inv = LinearMap(
            self.inv_space, self.inv_space,
            on_inv(lambda x: vscale(-one, self.pi.apply(g.star_vec(g.kappa(x)))),
                   "star on Gamma_inv",
                   NotStarCompatible("kappa(R)* leaves R", where="fodc.ideal_basis")),
            field, antilinear=True)
        if self.star_inv.compose(self.star_inv) != \
                LinearMap.identity(self.inv_space, field):
            raise ValidationFailed("star on Gamma_inv is not involutive")

        # canonical braid sigma(eta (x) theta) = theta_k (x) (eta o c_k) on
        # Gamma_inv (x) Gamma_inv, for varpi(theta) = sum theta_k (x) c_k
        def sigma_terms(pair):
            e, t = pair
            for (th, a), c in self.varpi_legs[t]:
                for u, cu in self.circ[a].cols[e].items():
                    yield (th, u), c * cu
        self.sigma = term_map(self.inv_sq, self.inv_sq, sigma_terms)

    def varpi2_components(self, v: Vec) -> dict:
        """a -> the A-component at e_a of varpi_2(v) in Gamma_inv (x) Gamma_inv,
        for varpi_2(theta (x) eta) = sum theta_k (x) eta_l (x) c_k d_l with
        varpi(theta) = sum theta_k (x) c_k and varpi(eta) = sum eta_l (x) d_l."""
        sq, legs, mul = self.inv_sq, self.varpi_legs, self.group.algebra.mul_basis
        by_a: dict = {}
        for (i1, i2), c in flat_legs(sq, v):
            for (t1, a1), c1 in legs[i1]:
                for (t2, a2), c2 in legs[i2]:
                    coeff = c * c1 * c2
                    for a, ca in mul(a1, a2).items():
                        by_a.setdefault(a, []).append(((t1, t2), coeff * ca))
        return {a: from_legs(sq, a_legs) for a, a_legs in by_a.items()}


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
        pi_pi = chain_terms(slot_terms(0, fodc.pi), slot_terms(1, fodc.pi))

        def pp(v: Vec) -> Vec:
            return apply_terms(g.square, fodc.inv_sq, pi_pi, v)

        self.s2_basis = span_basis(pp(g.phi(r)) for r in fodc.ideal_basis)
        sq = fodc.inv_sq
        self.lambda2 = QuotientSpace(sq.dim, self.s2_basis, field)
        inv_labels = fodc.inv_space.labels
        self.l2_space = BasedSpace(tuple(
            f"w2[{inv_labels[t1]}(x){inv_labels[t2]}]"
            for i in self.lambda2.keep for (t1, t2), _ in flat_legs(sq, {i: one})))
        self.wedge = LinearMap(sq.space, self.l2_space, self.lambda2.projection_cols(), field)

        if d == 0:
            self.complement = []
            self.split_section = LinearMap.zero(self.l2_space, sq.space, field)
            self.delta = LinearMap.zero(fodc.inv_space, sq.space, field)
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
        rel_mat = span_basis(fodc.relations)

        def inner_a(u: Vec, v: Vec):
            acc = field.zero
            for i, ci in u.items():
                for j, cj in v.items():
                    acc = acc + ci.conj() * cj * gram_a[i][j]
            return acc

        # the Haar Gram matrix of the relations, eliminated once
        n = len(rel_mat)
        gram_rel = [dict() for _ in range(n)]
        for a in range(n):
            for b in range(n):
                val = inner_a(rel_mat[a], rel_mat[b])
                if val:
                    gram_rel[b][a] = val
        gram_solver = PreparedSolve(gram_rel, n, field)

        def orth_rep(v: Vec) -> Vec:
            # v - projection onto span(rel_mat) w.r.t. the Haar form
            rhs = {}
            for a in range(n):
                val = inner_a(rel_mat[a], v)
                if val:
                    rhs[a] = val
            sol = gram_solver.solve(rhs)
            assert sol is not None, "Haar Gram matrix is degenerate"
            out = dict(v)
            for b, c in sol.items():
                viadd(out, -c, rel_mat[b])
            return out

        reps = [orth_rep(fodc.section.cols[t]) for t in range(d)]
        gram_inv = [[inner_a(reps[i], reps[j]) for j in range(d)] for i in range(d)]

        def inner_sq(u: Vec, v: Vec):
            acc = field.zero
            v_legs = flat_legs(sq, v)
            for (i1, i2), cu in flat_legs(sq, u):
                for (j1, j2), cv in v_legs:
                    gg = gram_inv[i1][j1] * gram_inv[i2][j2]
                    if gg:
                        acc = acc + cu.conj() * cv * gg
            return acc

        # complement = orthogonal complement of S^2 in Gamma_inv^(x)2
        cols = [dict() for _ in range(sq.dim)]
        for a, s in enumerate(self.s2_basis):
            for w in range(sq.dim):
                val = inner_sq(s, {w: one})
                if val:
                    cols[w][a] = val
        comp = span_basis(nullspace_of_columns(cols, field))
        if len(comp) + len(self.s2_basis) != sq.dim:
            raise SplittingIncompatible(
                "Haar-orthogonal complement has the wrong dimension")
        self.complement = comp
        comp_ech = Echelon()
        for v in comp:
            comp_ech.add(v)

        # section Lambda^2 -> complement: write raw = c + s with c in the
        # complement and s in S^2, and keep c
        sec_solver = PreparedSolve(comp + self.s2_basis, sq.dim, field)
        sec_cols = []
        for k in range(self.lambda2.dim):
            sol = sec_solver.solve(self.lambda2.lift({k: field.one}))
            assert sol is not None
            c_part: Vec = {}
            for idx, cc in sol.items():
                if idx < len(comp):
                    viadd(c_part, cc, comp[idx])
            sec_cols.append(c_part)
        self.split_section = LinearMap(self.l2_space, sq.space, sec_cols, field)
        if self.wedge.compose(self.split_section) != \
                LinearMap.identity(self.l2_space, field):
            raise SplittingIncompatible("splitting is not a section of the projection")

        def on_l2(f, what):
            """The map that f: Gamma_inv^(x)2 -> W induces on Lambda^2, by descent."""
            return _descend(f, self.split_section.cols, self.s2_basis, what)

        # star on Gamma_inv^(x)2: (theta (x) eta)* = -eta* (x) theta*
        si = fodc.star_inv

        def star_terms(t):
            i1, i2 = t
            for u, cu in si.cols[i2].items():
                for v, cv in si.cols[i1].items():
                    yield (u, v), -(cu * cv)
        self.star_sq = term_map(sq, sq, star_terms, antilinear=True)
        self.star2 = LinearMap(
            self.l2_space, self.l2_space,
            on_l2(lambda v: self.wedge.apply(self.star_sq.apply(v)), "star on Lambda^2"),
            field, antilinear=True)
        for c in comp:
            if not comp_ech.contains(self.star_sq.apply(c)):
                raise SplittingIncompatible("splitting is not star-compatible")

        # varpi_2 covariance of S^2 and of the complement
        def check_covariant(vs, span) -> bool:
            """Every A-component of varpi_2(v), v in vs, lies in ``span``
            (an Echelon or the quotient's relations)."""
            return all(span.contains(w) for v in vs
                       for w in fodc.varpi2_components(v).values())

        if not check_covariant(self.s2_basis, self.lambda2):
            raise SplittingIncompatible("S^2 is not varpi-covariant")
        if not check_covariant(comp, comp_ech):
            raise SplittingIncompatible("splitting is not varpi-covariant")
        self.report.add(passing("envelope.splitting", "split-GT",
                                note="Haar-orthogonal splitting is *- and varpi-compatible"))

        # circ on Lambda^2: (theta (x) eta) o a = (theta o a^(1)) (x) (eta o a^(2))
        def circ_by(a):
            slot_maps = [(chain_terms(slot_terms(0, fodc.circ[a1]),
                                      slot_terms(1, fodc.circ[a2])), ca)
                         for (a1, a2), ca in g.sweedler(a)]

            def f(v):
                out: Vec = {}
                for terms, ca in slot_maps:
                    viadd(out, ca, apply_terms(sq, sq, terms, v))
                return self.wedge.apply(out)
            return f
        self.circ2 = [LinearMap(self.l2_space, self.l2_space,
                                on_l2(circ_by(a), "circ on Lambda^2"), field)
                      for a in range(da)]

        # embedded differential: dlambda(pi(x)) = -[(pi (x) pi) phi(x)], lifted
        # by the splitting to delta
        self.dlambda = LinearMap(
            fodc.inv_space, self.l2_space,
            _descend(lambda x: self.wedge.apply(vscale(-one, pp(g.phi(x)))),
                     fodc.section.cols, fodc.relations, "dlambda"), field)
        self.delta = self.split_section.compose(self.dlambda)

        # sigma delta - delta = (id (x) pi) varpi
        lhs = fodc.sigma.compose(self.delta).sub(self.delta)
        id_pi = slot_terms(1, fodc.pi)
        rhs = LinearMap(fodc.inv_space, sq.space,
                        [apply_terms(fodc.inv_a, sq, id_pi, col)
                         for col in fodc.varpi.cols], field)
        diff = first_difference(lhs, rhs)
        self.report.check(("envelope.sigma-delta", "sigma delta - delta = (id (x) pi) varpi"),
                          [] if diff is None else [{"first_difference": diff[0]}])

    def bracket(self, t: int, phi, mul) -> Vec:
        """<phi, phi>(theta_t) = sum c mul(phi(t1), phi(t2)) over the terms
        c theta_t1 (x) theta_t2 of delta(theta_t)."""
        out: Vec = {}
        for (t1, t2), c in flat_legs(self.fodc.inv_sq, self.delta.cols[t]):
            viadd(out, c, mul(phi(t1), phi(t2)))
        return out

    def wedge_of(self, u: int, s: int) -> Vec:
        """theta_u ^ theta_s, the class of theta_u (x) theta_s in Lambda^2."""
        one = self.fodc.field.one
        return self.wedge.apply(embed(self.fodc.inv_sq, {u: one}, {s: one}))


def build_envelope2(fodc: Fodc) -> Envelope2:
    return Envelope2(fodc)


class GammaEnvelope(GradedStarAlgebra):
    """The degree <= 2 graded *-algebra A (+) (A (x) Gamma_inv) (+)
    (A (x) Lambda^2) with differential, coproduct, counit and antipode.

    Its basis is A's, then those of the free products ``blocks`` =
    (A (x) Gamma_inv, A (x) Lambda^2), read through their flat legs:
    ``parts[i]`` is the (degree, a, inner index) of basis element i, the
    inner index 0 in degree 0, and ``part_index`` maps it back.  Products
    that would exceed degree 2 raise DegreeBudget.
    """

    def __init__(self, env: Envelope2):
        self.env = env
        self.fodc = fodc = env.fodc
        self.group = g = fodc.group
        field, one = g.field, g.field.one
        self.da, self.d1, self.d2 = g.dim, fodc.dim, env.lambda2.dim
        a_factor = g.square.factors[0]
        self.blocks = (
            TProd(field, (a_factor, fodc.inv_sq.factors[0]), name="A(x)Gamma_inv"),
            TProd(field, (a_factor, Factor.ungraded(env.l2_space)), name="A(x)Lambda^2"))
        self.parts = [(0, a, 0) for a in range(g.dim)] + [
            (deg, a, x) for deg, block in enumerate(self.blocks, 1)
            for b in range(block.dim) for (a, x), _ in flat_legs(block, {b: one})]
        self.part_index = {part: i for i, part in enumerate(self.parts)}
        a_labels, inner = g.space.labels, (None, fodc.inv_space.labels, env.l2_space.labels)
        labels = [f"{a_labels[a]}.{inner[deg][x]}" if deg else a_labels[a]
                  for deg, a, x in self.parts]
        # the unit of A sits in the degree-0 block, whose indices are A's own
        super().__init__("Gamma^", field, BasedSpace(tuple(labels)),
                         [deg for deg, _, _ in self.parts], g.unit)
        self.factor = Factor(self.space, self.degrees)
        self._build_maps()

    def inv1_vec(self, t: int) -> Vec:
        """1 (x) theta_t as an element of Gamma (unit in the A leg)."""
        return {self.part_index[1, k, t]: c for k, c in self.group.unit.items()}

    def inv2_vec(self, x: int) -> Vec:
        return {self.part_index[2, k, x]: c for k, c in self.group.unit.items()}

    def kappa_inv(self, t: int) -> Vec:
        """kappa^(theta_t) = -sum_k theta_k kappa(c_k), where varpi(theta_t) =
        sum_k theta_k (x) c_k: read off m(id (x) kappa^)phi^ = eps."""
        one = self.field.one
        acc: Vec = {}
        for (th, a), c in self.fodc.varpi_legs[t]:
            for m, cm in self.group.antipode.cols[a].items():
                viadd(acc, -(c * cm), self.mul(self.inv1_vec(th), {m: one}))
        return acc

    # -- algebra structure ----------------------------------------------------

    def _product(self, i: int, j: int) -> Vec:
        g, at = self.group, self.part_index
        mul = g.algebra.mul_basis
        di, a, t = self.parts[i]
        dj, b, s = self.parts[j]
        out: Vec = {}
        if di == 0:
            # a (b (x) eta) = ab (x) eta
            for k, c in mul(a, b).items():
                out[at[dj, k, s]] = c
        elif dj == 0:
            # (a (x) theta) b = a b^(1) (x) (theta o b^(2))
            circ = self.fodc.circ if di == 1 else self.env.circ2
            for (b1, b2), c in g.sweedler(b):
                for k, ck in mul(a, b1).items():
                    for u, cu in circ[b2].cols[t].items():
                        viadd_term(out, at[di, k, u], c * ck * cu)
        else:  # 1 x 1: (a (x) theta)(b (x) eta) = a b^(1) (x) (theta o b^(2)) ^ eta
            for (b1, b2), c in g.sweedler(b):
                for k, ck in mul(a, b1).items():
                    for u, cu in self.fodc.circ[b2].cols[t].items():
                        for x, cx in self.env.wedge_of(u, s).items():
                            viadd_term(out, at[2, k, x], c * ck * cu * cx)
        return out

    def eps_basis(self, i: int):
        deg, a, _ = self.parts[i]
        return self.group.eps_basis(a) if deg == 0 else self.field.zero

    def _build_maps(self):
        g, at = self.group, self.part_index
        field = self.field
        one = field.one
        env = self.env
        fodc = self.fodc
        da, d1, d2 = self.da, self.d1, self.d2

        # star
        star_cols = []
        for deg, a, t in self.parts:
            if deg == 0:
                star_cols.append(dict(g.algebra.star.cols[a]))
                continue
            acc: Vec = {}
            stv = fodc.star_inv.cols[t] if deg == 1 else env.star2.cols[t]
            sta = g.algebra.star.cols[a]
            for u, cu in stv.items():
                inv = self.inv1_vec(u) if deg == 1 else self.inv2_vec(u)
                # (1 (x) theta*) . a*  as a Gamma^-product
                for k, ck in sta.items():
                    prod = self.mul(inv, {k: one})
                    viadd(acc, cu * ck, prod)
            star_cols.append(acc)
        self.star = LinearMap(self.space, self.space, star_cols, field,
                              antilinear=True)

        # differential (degree <= 1 columns only)
        d_cols = []
        for deg, a, t in self.parts:
            if deg == 0:
                acc = {}
                for (a1, a2), c in g.sweedler(a):
                    for u, cu in fodc.pi.cols[a2].items():
                        viadd_term(acc, at[1, a1, u], c * cu)
                d_cols.append(acc)
            elif deg == 1:
                acc = {}
                for (a1, a2), c in g.sweedler(a):
                    for u, cu in fodc.pi.cols[a2].items():
                        for x, cx in env.wedge_of(u, t).items():
                            viadd_term(acc, at[2, a1, x], c * cu * cx)
                for x, cx in env.dlambda.cols[t].items():
                    viadd_term(acc, at[2, a, x], cx)
                d_cols.append(acc)
            else:
                d_cols.append(None)
        self.d_cols = d_cols

        # coproduct into the free graded tensor square
        self.square = TProd(field, (self.factor, self.factor), budget=BUDGET,
                            name="Gamma^(x)Gamma^")
        sq = self.square
        phi_cols = []
        for deg, a, t in self.parts:
            if deg == 0:
                phi_cols.append(from_legs(sq, g.sweedler(a)))
            elif deg == 1:
                # phi^(a theta) = a^(1) (x) a^(2) theta + a^(1) theta_k (x) a^(2) c_k
                legs = [((a1, at[1, a2, t]), c) for (a1, a2), c in g.sweedler(a)]
                for (th, ck), cc in fodc.varpi_legs[t]:
                    for (a1, a2), c in g.sweedler(a):
                        legs += [((at[1, a1, th], m), cc * c * cm)
                                 for m, cm in g.algebra.mul_basis(a2, ck).items()]
                phi_cols.append(from_legs(sq, legs))
            else:
                phi_cols.append(None)  # filled below by multiplicativity
        # degree 2 by multiplicativity: phi^(theta eta) = phi^(theta) phi^(eta)
        phi_inv1 = []
        for t in range(d1):
            acc: Vec = {}
            for k, ck in g.unit.items():
                viadd(acc, ck, phi_cols[at[1, k, t]])
            phi_inv1.append(acc)

        def phi_sq(v):
            acc: Vec = {}
            for (t1, t2), c in flat_legs(fodc.inv_sq, v):
                viadd(acc, c, graded_tensor_mul(sq, self, self,
                                                phi_inv1[t1], phi_inv1[t2]))
            return acc
        phi_inv2 = _descend(phi_sq, env.split_section.cols, env.s2_basis,
                            "extended coproduct")
        for a in range(da):
            for x in range(d2):
                phi_cols[at[2, a, x]] = graded_tensor_mul(sq, self, self, phi_cols[a],
                                                          phi_inv2[x])
        self.phi_hat = LinearMap(self.space, sq.space, phi_cols, field)

        # antipode: kappa on A, kappa^(a theta) = kappa^(theta) kappa(a), and
        # kappa_inv on Gamma_inv.  The axiom is checked in degrees <= 1 before
        # kappa^ extends to degree 2, whose well-definedness rests on them.
        antipode = RaisingReport(ValidationFailed, "Gamma^: ")
        kap_cols: list = [dict(g.antipode.cols[a]) for a in range(da)] + [None] * (self.dim - da)
        kap_inv1 = [self.kappa_inv(t) for t in range(d1)]
        for a in range(da):
            for t in range(d1):
                kap_cols[at[1, a, t]] = self.mul(kap_inv1[t], kap_cols[a])
        low = [i for i in range(self.dim) if self.degrees[i] < 2]
        add_antipode_record(antipode, ("antipode-1", "antipode axiom fails"), self,
                            self.phi_hat, sq, kap_cols, self.eps_basis, low)

        # degree 2 by graded antimultiplicativity:
        # kappa^(theta eta) = -kappa^(eta) kappa^(theta)
        def kappa_sq(v):
            acc: Vec = {}
            for (t1, t2), c in flat_legs(fodc.inv_sq, v):
                viadd(acc, -c, self.mul(kap_inv1[t2], kap_inv1[t1]))
            return acc
        kap_inv2 = _descend(kappa_sq, env.split_section.cols, env.s2_basis,
                            "degree-2 antipode")
        for a in range(da):
            for x in range(d2):
                kap_cols[at[2, a, x]] = self.mul(kap_inv2[x], kap_cols[a])
        add_antipode_record(antipode, ("antipode-2", "antipode axiom fails"), self,
                            self.phi_hat, sq, kap_cols, self.eps_basis,
                            [i for i in range(self.dim) if self.degrees[i] == 2])
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
        def terms(i):
            for (u, z), c in flat_legs(sq, self.phi_hat.cols[i]):
                for (x, y), c2 in flat_legs(sq, self.phi_hat.cols[u]):
                    coeff = c * c2
                    for kx, ck in self.kappa_hat.cols[x].items():
                        sign = -one if (self.degree(kx) * self.degree(y)) % 2 else one
                        for m, cm in self.mul_basis(kx, z).items():
                            yield (y, m), coeff * ck * cm * sign

        return LinearMap(self.space, sq.space, [from_legs(sq, terms(i)) for i in range(self.dim)],
                         field)
