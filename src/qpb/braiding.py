"""The canonical braid operator on B (x)_V B and everything it induces.

sigma(b (x) q) = sum_k b_k q l(c_k) (x) r(c_k)  with  F(b) = sum_k b_k (x) c_k,
with inverse sigma^{-1}(q (x) b) = sum_k tau(kappa^{-1}(c_k)) q b_k.  Both
formulas, sigma and mu on slots of B_n, the flip star, F_2, the records of
the braid equation, the product compatibilities and mu sigma = mu, the Galois
tower X_n and the product on B_n transported along it belong to
bundle.BalancedTower, written once for the bundle (degree zero) and for
Omega(P) (the graded case of calculus.py).  The tower applies X_n as X on
one pair of slots at a time, from slots (n-1, n) down to (0, 1), and X_n^-1
as X^-1 from (0, 1) up to (n-1, n): only X is inverted by elimination.
What only degree zero has is here.  The braid is the bundle's: sigma_m
checks the tower's sigma once per bundle, raising unless the formula inverse
composes to the identity and sigma is V-bilinear; braided B_2, a
GradedStarAlgebra whose product p sigma(b (x) q) g of two basis elements is
formed once; braid words in adjacent sigmas and the braid-word star on B_n,
applied to vectors as slot rewriters, so no operator on B_n is built for
them; the braided products of many pairs of a list of vectors, each vector
carried along X_{n-1} once; the star exchange, mu and tau as
*-homomorphisms, sigma tau = tau kappa, aP- and F-functoriality; and the
four-way classicality dichotomy (A commutative <=> two exchange laws <=>
sigma involutive).

The paper identifies X_n as a *-isomorphism onto B (x) A^n with the
componentwise structure.  braided2.X-mult checks X against the explicit B_2
product, so for n = 2 the braided product is that formula and for n >= 3 it
is the tower's transported one; the n >= 3 star is the reversal braid word
applied after the factorwise star, and its algebra axioms are asserted
rather than assumed.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

from .bundle import Bundle
from .errors import EquivalenceViolation
from .linalg import LinearMap, Vec
from .report import (
    CheckRecord, ValidationReport, first_difference, map_equality_record, passing,
)
from .hopf import GradedStarAlgebra, graded_tensor_mul, graded_tensor_star
from .tensor import (
    _times, apply_chain, apply_terms, embed, flat_legs, from_legs, slot_apply, slot_terms,
)


class BraidOperator:
    """One bundle's braid, from sigma_m: it reads sigma on the bundle's tower."""

    def __init__(self, bundle: Bundle):
        self.bundle = bundle

    # -- slot operators -----------------------------------------------------

    def at(self, n: int, p: int, inverse: bool = False) -> LinearMap:
        """sigma (or its inverse) on slots (p, p+1) of B_n."""
        return self.bundle.sigma_at(n, p, inverse)

    def mu_at(self, n: int, p: int) -> LinearMap:
        """Multiply slots (p, p+1): B_n -> B_{n-1}."""
        return self.bundle.mu_at(n, p)

    def word(self, n: int, slots):
        """The braid word that applies sigma on slots (p, p+1) of B_n for each
        p of ``slots`` in turn, as a function of one vector.  Each letter is
        a slot rewriter of sigma, applied by tensor.apply_chain, so no
        operator on B_n is built; a caller applies the function to many
        vectors."""
        bn, b2 = self.bundle.power(n), self.bundle.b2
        steps = [(bn, bn, slot_terms(p, self.bundle.sigma, b2, b2)) for p in slots]
        return lambda v: apply_chain(steps, v)

    def star_word(self, n: int):
        """The sigma-induced involution on B_n as a function of one vector:
        factor reversal with star (antilinear), then the half-twist braid
        word in adjacent sigmas, applied as ``word`` applies it."""
        bn = self.bundle.power(n)
        flip = self.bundle.flipstar_terms
        twist = self.word(n, [p for k in range(1, n) for p in range(k - 1, -1, -1)])
        return lambda v: twist(apply_terms(bn, bn, flip, {k: c.conj() for k, c in v.items()}))

    # -- braided algebra structure -------------------------------------------

    @cached_property
    def b2_algebra(self) -> "BraidedB2":
        return BraidedB2(self.bundle)

    def mult2(self, u: Vec, v: Vec) -> Vec:
        """(p (x) b)(q (x) g) = p sigma(b (x) q) g on B_2."""
        return self.b2_algebra.mul(u, v)

    def star_n(self, n: int) -> LinearMap:
        """The matrix of ``star_word(n)``, cached with the tower's operators."""
        ops, key = self.bundle._ops, ("braided star", n)
        if key not in ops:
            star, one = self.star_word(n), self.bundle.field.one
            space = self.bundle.power(n).space
            ops[key] = LinearMap(space, space, [star({i: one}) for i in range(space.dim)],
                                 self.bundle.field, antilinear=True)
        return ops[key]

    def mult_n(self, n: int):
        """Braided product on B_n (n >= 2): the explicit sigma formula for
        n = 2, the tower's product transported along the chain of X_{n-1}
        for n >= 3."""
        if n == 2:
            return self.mult2
        return self.bundle.transported_mult(n)

    def products(self, n: int, vecs: list):
        """The braided product on B_n (n >= 3) of vecs[i] and vecs[j] for
        every ordered pair, row by row, yielded as ((i, j), product); each
        vector is carried along X_{n-1} once (TransportedProduct.products)."""
        mult = self.mult_n(n)
        return mult.products([mult.carry(v) for v in vecs])


class BraidedB2(GradedStarAlgebra):
    """B_2 of a bundle with the braided product (p (x) b)(q (x) g) =
    p sigma(b (x) q) g, a *-algebra of degree zero: each product of two
    basis elements is formed once, from the sigma legs of its middle pair,
    and ``mul`` extends it bilinearly.  Its star is the braided star on B_2,
    star_n(2) of the bundle's braid."""

    def __init__(self, b: Bundle):
        self.bundle, self.b2, self.total = b, b.b2, b.total
        super().__init__("braided B_2", b.field, b.b2.space, (0,) * b.b2.dim,
                         embed(b.b2, b.total.unit, b.total.unit))
        self._legs: dict = {}
        # the kept tuple that each basis element lifts to
        self._kept = [t for k in range(self.dim) for t, _ in flat_legs(b.b2, {k: b.field.one})]

    @cached_property
    def star(self) -> LinearMap:
        return sigma_m(self.bundle).star_n(2)

    def sigma_legs(self, i: int, j: int) -> list:
        """The flat legs of sigma(e_i (x) e_j), once per pair."""
        legs = self._legs.get((i, j))
        if legs is None:
            b2, sigma = self.b2, self.bundle.sigma
            legs = self._legs[i, j] = flat_legs(b2, sigma.apply(b2.project_tuple((i, j))))
        return legs

    def _product(self, i: int, j: int) -> Vec:
        mul, one = self.total.mul_basis, self.field.one
        (p, bb), (q, g) = self._kept[i], self._kept[j]
        return from_legs(self.b2, (((xx, yy), _times(_times(cs, cx, one), cy, one))
                                   for (x, y), cs in self.sigma_legs(bb, q)
                                   for xx, cx in mul(p, x).items()
                                   for yy, cy in mul(y, g).items()))


def sigma_m(b: Bundle) -> BraidOperator:
    """The bundle's one braid, kept with the tower's operators.  The first call
    checks that sigma and its formula inverse compose to the identity both
    ways and that sigma is V-bilinear, on each basis vector of B_2 against
    the V-actions of the balanced slots."""
    braid = b._ops.get("braid")
    if braid is not None:
        return braid
    field, b2 = b.field, b.b2
    sigma, sigma_inv = b.sigma, b.sigma_inv
    ident = LinearMap.identity(b2.space, field)
    if first_difference((sigma, sigma_inv), ident) is not None \
            or first_difference((sigma_inv, sigma), ident) is not None:
        raise EquivalenceViolation("sigma and its formula inverse do not compose to id")
    one = field.one

    def commutes(slot, act):
        """sigma commutes with ``act`` on one slot of B_2."""
        return all(sigma.apply(slot_apply(b2, {i: one}, slot, act))
                   == slot_apply(b2, sigma.cols[i], slot, act) for i in range(b2.dim))

    for lf, rf in zip(b.b_factor.lact, b.b_factor.ract):
        if not commutes(0, lf):
            raise EquivalenceViolation("sigma is not left V-linear")
        if not commutes(1, rf):
            raise EquivalenceViolation("sigma is not right V-linear")
    braid = b._ops["braid"] = BraidOperator(b)
    return braid


def verify_braiding_suite(b: Bundle) -> ValidationReport:
    """Prop 2.1 plus Lemmas 2.2-2.4: braid equation, product compatibility,
    sigma-commutativity, star exchange, tau and F functoriality."""
    rep = ValidationReport()
    braid = sigma_m(b)
    field = b.field
    one = field.one
    b2, b3 = b.b2, b.power(3)
    g = b.group
    da = g.dim
    total = b.total

    b.add_braid_records(rep, (
        ("braiding.braid", "braid"), ("braiding.prod-sM1", "prod-sM1"),
        ("braiding.prod-sM2", "prod-sM2"), ("braiding.comm", "comm")))
    mu = braid.mu_at(2, 0)

    # inverse formula already verified by sigma_m; record it
    rep.add(passing("braiding.inv", "inv",
                    note="sigma^-1 per the closed formula composes to id both ways"))

    fs = b.flipstar(2)
    rep.add(map_equality_record("braiding.star-exchange", "sigma* = *sigma^-1",
                                (b.sigma, fs), (fs, b.sigma_inv),
                                witness_space=b2.space))

    # mu is a *-homomorphism for the braided structure: star first, then mult
    star2 = braid.star_n(2)
    star1 = b.flipstar(1)

    # B_1 is B itself, so mu's columns are vectors of B
    def mu_mult_failures():
        alg = braid.b2_algebra
        for i in range(b2.dim):
            for j in range(b2.dim):
                if mu.apply(alg.mul_basis(i, j)) != total.mul(mu.cols[i], mu.cols[j]):
                    yield {"basis_pair": [i, j]}

    rep.check(("braiding.mu-star-hom", "mu_M is a *-homomorphism"), chain(
        ({"basis_index": i} for i in range(b2.dim)
         if mu.apply(star2.apply({i: one})) != star1.apply(mu.apply({i: one}))),
        mu_mult_failures()))

    # tau is a *-homomorphism into braided B_2, and sigma tau = tau kappa
    labels = g.space.labels
    rep.check(("braiding.tau-star-hom", "tau is a *-homomorphism"), chain(
        ({"group_basis": labels[a], "side": "star"} for a in range(da)
         if b.tau.apply(g.star_vec({a: one})) != star2.apply(b.tau.cols[a])),
        ({"basis_pair": [labels[a], labels[c]], "side": "mult"}
         for a in range(da) for c in range(da)
         if b.tau.apply(g.algebra.mul_basis(a, c))
         != braid.mult2(b.tau.cols[a], b.tau.cols[c]))))

    rep.add(map_equality_record("braiding.sigma-tau", "sigma tau = tau kappa",
                                (b.sigma, b.tau), (b.tau, g.antipode),
                                witness_space=b2.space))

    # aP-funct on A (x) B -> B_3
    ab = b.mixed_space("AB")
    sides = [_tau_beside(b, a, i) for a in range(da) for i in range(total.dim)]
    tau_b = LinearMap(ab.space, b3.space, [lc for lc, _ in sides], field)
    b_tau = LinearMap(ab.space, b3.space, [rc for _, rc in sides], field)
    rep.add(map_equality_record("braiding.aP-funct", "aP-funct",
                                (braid.at(3, 0), braid.at(3, 1), tau_b), b_tau,
                                witness_space=b3.space))

    # F-funct: (sigma (x) id)(id (x) chi)(F (x) id) = (id (x) F) sigma on B_2
    bba = b.mixed_space("BBA")
    rep.add(map_equality_record("braiding.F-funct", "F-funct",
                                (b.sigma_at("BBA", 0), b.coact_at(0)),
                                (b.coact_at(1), b.sigma), witness_space=bba.space))
    return rep


def braided_structure(b: Bundle, n: int):
    """Braided algebra structure on B_n; returns (mult, star, report).

    For n = 2 the product is the explicit sigma formula and X is verified to
    be a *-isomorphism onto B (x) A; for n >= 3 the product is transported
    along X_{n-1} and the braid-word star is verified to be an involutive
    antiautomorphism.
    """
    braid = sigma_m(b)
    rep = ValidationReport()
    field = b.field
    one = field.one
    bn = b.power(n)
    mult = braid.mult_n(n)
    star = braid.star_n(n)
    unit = embed(bn, *[b.total.unit] * n)

    e = [{i: one} for i in range(bn.dim)]
    rep.check((f"braided{n}.unit", "unit of prodBB"),
              ({"basis_index": i} for i, v in enumerate(e)
               if mult(unit, v) != v or mult(v, unit) != v))
    rep.check((f"braided{n}.star-invol", "star involutive"),
              ({"basis_index": i} for i, v in enumerate(e) if star.apply(star.apply(v)) != v))
    rep.check((f"braided{n}.star-antimult", "(uv)* = v*u*"),
              ({"basis_pair": [i, j]} for i in range(bn.dim) for j in range(bn.dim)
               if star.apply(mult(e[i], e[j])) != mult(star.apply(e[j]), star.apply(e[i]))))

    if n == 2:
        # X is a *-isomorphism onto B (x) A
        ba = b.mixed_space("BA")
        total, g = b.total, b.group

        xc, alg = b.X.cols, braid.b2_algebra
        rep.check(("braided2.X-mult", "X multiplicative"), (
            {"basis_pair": [i, j]} for i in range(bn.dim) for j in range(bn.dim)
            if b.X.apply(alg.mul_basis(i, j))
            != graded_tensor_mul(ba, total, g.algebra, xc[i], xc[j])))

        ba_star = LinearMap(ba.space, ba.space,
                            [graded_tensor_star(ba, total, g.algebra, {k: one})
                             for k in range(ba.dim)], field, antilinear=True)
        rep.add(map_equality_record("braided2.X-star", "X hermitian",
                                    (b.X, star), (ba_star, b.X), witness_space=ba.space))
    return mult, star, rep


def _tau_beside(b: Bundle, a: int, i: int):
    """tau(e_a) (x) e_i and e_i (x) tau(e_a) in B_3."""
    b3, legs = b.power(3), b.tau_legs[a]
    return (from_legs(b3, ((xy + (i,), ct) for xy, ct in legs)),
            from_legs(b3, (((i,) + xy, ct) for xy, ct in legs)))


def classicality_report(b: Bundle):
    """Prop 4.1 four-way dichotomy; returns (classical: bool, report).

    All four sub-tests are evaluated independently; disagreement raises
    EquivalenceViolation since the equivalence is a theorem.
    """
    braid = sigma_m(b)
    rep = ValidationReport()
    field = b.field
    g = b.group
    b2, b3 = b.b2, b.power(3)
    total = b.total
    results = {}
    witnesses = {}

    wit = g.is_commutative()
    results["i"] = wit is None
    if wit is not None:
        i, j = wit
        witnesses["i"] = {
            "basis_pair": [g.space.labels[i], g.space.labels[j]],
            "ab": g.space.render(g.algebra.mul_basis(i, j)),
            "ba": g.space.render(g.algebra.mul_basis(j, i)),
        }

    # (ii) F-wrong
    bba = b.mixed_space("BBA")
    diff = first_difference((b.coact_at(0), b.sigma),
                            (b.sigma_at("BBA", 0), b.coact_at(1)))
    results["ii"] = diff is None
    if diff is not None:
        dj, lcol, rcol = diff
        witnesses["ii"] = {"basis_index": dj, "lhs": bba.render(lcol), "rhs": bba.render(rcol)}

    # (iii) aP-wrong on B (x) A -> B_3
    s12, s23 = braid.at(3, 0), braid.at(3, 1)
    sides = (_tau_beside(b, a, i) for i in range(total.dim) for a in range(g.dim))
    diff = None
    for k, (tau_b, b_tau) in enumerate(sides):
        rc = s23.apply(s12.apply(b_tau))
        if tau_b != rc:
            diff = k, tau_b, rc
            break
    results["iii"] = diff is None
    if diff is not None:
        dj, lcol, rcol = diff
        witnesses["iii"] = {"basis_index": dj, "lhs": b3.render(lcol), "rhs": b3.render(rcol)}

    # (iv) sigma involutive
    diff = first_difference((b.sigma, b.sigma),
                            LinearMap.identity(b2.space, field))
    results["iv"] = diff is None
    if diff is not None:
        dj, sq_col, _ = diff
        witnesses["iv"] = {"basis_index": dj,
                           "basis_label": b2.space.labels[dj],
                           "sigma^2": b2.render(sq_col)}

    vals = set(results.values())
    if len(vals) != 1:
        raise EquivalenceViolation(
            f"classicality sub-tests disagree: {results} (library bug trap)")
    classical = results["i"]
    for key, label in (("i", "A commutative"), ("ii", "F-wrong"),
                       ("iii", "aP-wrong"), ("iv", "sigma involutive")):
        status = "pass"
        note = f"holds: {results[key]}"
        rec = CheckRecord(f"classicality.{key}", label, status, note=note,
                          witness=witnesses.get(key))
        rep.add(rec)
    rep.add(passing("classicality.agreement", "four-way equivalence",
                    note=f"classical = {classical}"))
    return classical, rep
