"""The balanced braid tower, and quantum principal bundles in degree zero.

BalancedTower is the tower of a coacted slot algebra W over a coefficient
algebra M with Hopf side H, written once: the balanced powers W_n = W (x)_M
... (x)_M W, the Galois map X(w (x) w') = w F(w') with its inverse, the
translation map tau(h) = X^-1(1 (x) h) with its flat legs and its six
identities (star, counit, both coactions, products, centrality against M),
the sigma-cochain, the braid sigma and its formula inverse, sigma and mu on
slots (p, p+1) of W_n, F on one slot of W_2, the flip star on W_n, the
doubled coaction F_2, the records of the braid equation, the two product
compatibilities and mu sigma = mu, the Galois tower X_n : W_{n+1} ->
W (x) H^n with its inverse, and the braided product on W_n transported along
X_{n-1}.  So are the three right sides of the gauge-transformation laws:
for a map phi and the legs c x_k (x) h of F(x), sum c phi(x_k) (x) h in
W (x) H (coact_side), sum c phi(x_k) (x) tau(h) in W_3 (tau_side) and
sum c varsigma(h) . phi(x_k) in W_3 (varsigma_side).  The degrees of W and
H, the coefficient degrees and the degree budget are data, so the graded
formulas carry their Koszul signs; a sign is applied by negating when it is
odd, and degree zero does no sign arithmetic.  sigma and mu on slots of W_n,
the steps of X_n and X_n^-1 and the point oracle are tensor.slot_terms maps
of sigma, mu, X, X^-1 and kappa.

Above level 1 the Galois tower is a chain of one-pair slot maps, never a
matrix.  Unrolling X_{m+1} = (X (x) id^m)(id (x) X_m), X_n applies X on
slots (n-1, n), then on (n-2, n-1), ..., then on (0, 1), and X_n^-1 applies
X^-1 on (0, 1), then on (1, 2), ..., then on (n-1, n).  X is the one map of
the tower inverted by elimination; X_n is written out as a matrix only for
the Galois tower suite, whose rank is the one elimination of an X_n.

Bundle is the instance W = B, M = V, H = A with every degree zero and no
budget; calculus.TotalCalculus is the graded instance W = Omega(P),
M = Omega(M), H = Gamma^.

A bundle is a coacting *-algebra (B, F) over a Hopf *-algebra A; the base V
is computed as the F-fixed-point subalgebra, never declared.  Principality is
the bijectivity of X on B (x)_V B.  What only degree zero has stays in Bundle:
the tower budget on B_n, the closed-form translation oracle over a point and
the Galois tower suite.  Spaces and maps are built once and cached, so all
canonical bases agree across operations.
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce
from itertools import accumulate, product as iproduct

from .errors import (
    BudgetExceeded, DegreeBudget, InputError, NotCoaction, NotPrincipal, ValidationFailed,
)
from .hopf import HopfStarAlgebra, StarAlgebra, add_coaction_records
from .linalg import BasedSpace, LinearMap, Vec, fixed_points, viadd, vneg, vscale
from .report import RaisingReport, ValidationReport, map_equality_record
from .tensor import (
    Factor, TProd, _times, apply_chain, chain_terms, embed, flat_legs, from_legs, slot_apply,
    slot_terms, term_map,
)

DEFAULT_TOWER_BUDGET = 3


def _signed(c, odd):
    """c times (-1)^odd, by negation."""
    return -c if odd else c


class BalancedTower:
    """The braid tower of a coacted slot algebra W over M.

    ``algebra`` is W (``mul_basis``, ``support``, ``unit``, ``star``) and
    ``factor`` its Factor, with the degrees of W and the M-actions; ``hopf``
    is H (``mul_basis``, ``support``, ``unit``, ``star``) with its Factor
    ``hopf_factor``, antipode ``kappa`` and its inverse ``kappa_inv``;
    ``sweedler(h)`` gives the flat legs ((h1, h2), c) of the coproduct of
    e_h and ``eps_basis(h)`` its counit; ``f_legs[i]`` holds the flat legs
    ((w, h), c) of F(e_i).  ``letters`` name W and H: W_n is "<W>_n" and a
    mixed product is named by its pattern over the two letters; ``spaces``
    maps patterns to mixed products the caller has already built.
    """

    def __init__(self, algebra, factor, hopf, hopf_factor, kappa, kappa_inv, sweedler,
                 eps_basis, f_legs, letters, coeff_degrees=None, budget=None, spaces=None):
        self.algebra, self.factor = algebra, factor
        self.hopf, self.hopf_factor = hopf, hopf_factor
        self.kappa, self.kappa_inv = kappa, kappa_inv
        self.sweedler, self.eps_basis = sweedler, eps_basis
        self.f_legs = f_legs
        self.letters = letters
        self.coeff_degrees, self.budget = coeff_degrees, budget
        self.field = algebra.field
        self._spaces = {("mix", p): tp for p, tp in (spaces or {}).items()}
        self._ops: dict = {}

        # Galois map X(w (x) w') = w F(w')
        def x_terms(t):
            i, j = t
            for (k, a), c in f_legs[j]:
                for u, cu in algebra.mul_basis(i, k).items():
                    yield (u, a), c * cu

        self.X = term_map(self.power(2), self.hopf_space(1), x_terms)

    # -- spaces ----------------------------------------------------------------

    def power(self, n: int) -> TProd:
        """W_n = W (x)_M ... (x)_M W, cached."""
        if n < 1:
            raise InputError("tensor power must be at least 1")
        key = (self.letters[0], n)
        if key not in self._spaces:
            self._spaces[key] = TProd(self.field, (self.factor,) * n, self.coeff_degrees,
                                      self.budget, name=f"{self.letters[0]}_{n}")
        return self._spaces[key]

    def mixed_space(self, pattern: str) -> TProd:
        """TProd for a pattern over the letters of W (balanced) and H (free)."""
        key = ("mix", pattern)
        if key not in self._spaces:
            factors = tuple(self.factor if ch == self.letters[0] else self.hopf_factor
                            for ch in pattern)
            self._spaces[key] = TProd(self.field, factors, self.coeff_degrees,
                                      self.budget, name=pattern)
        return self._spaces[key]

    def hopf_space(self, n: int) -> TProd:
        """W_n (x) H."""
        return self.mixed_space(self.letters[0] * n + self.letters[1])

    # -- X, tau, sigma and F_2 ---------------------------------------------------

    @cached_property
    def X_inv(self) -> LinearMap:
        return self.X.inverse()

    @cached_property
    def tau(self) -> LinearMap:
        """tau(h) = X^-1(1 (x) h)."""
        wh, one = self.hopf_space(1), self.field.one
        cols = [self.X_inv.apply(embed(wh, self.algebra.unit, {a: one}))
                for a in range(self.hopf_factor.space.dim)]
        return LinearMap(self.hopf_factor.space, self.power(2).space, cols, self.field)

    @cached_property
    def tau_legs(self) -> list:
        """Flat legs ((p, q), c) of tau(e_h), for Sweedler-style loops."""
        return [flat_legs(self.power(2), col) for col in self.tau.cols]

    @cached_property
    def sigma(self) -> LinearMap:
        """sigma(w (x) w') = (-1)^{|h||w'|} w_0 w' l(h) (x) r(h), F(w) = w_0 (x) h.
        w_0 w' is formed once per leg of F(w), and a tau leg l(h) (x) r(h)
        is met only when w_0 w' l(h) is nonzero, read off ``support``."""
        mul, deg, hdeg = self.algebra.mul_basis, self.factor.degrees, self.hopf_factor.degrees
        tau_legs, sup = self.tau_legs, self.algebra.support

        def terms(t):
            i, j = t
            for (w, h), c in self.f_legs[i]:
                wj = [(u, cu, sup[u]) for u, cu in mul(w, j).items()]
                if not wj:
                    continue
                reach = frozenset().union(*(row for _, _, row in wj))
                odd = hdeg[h] * deg[j] % 2
                for (p, q), ct in tau_legs[h]:
                    if p in reach:
                        c0 = _signed(c * ct, odd)
                        for u, cu, row in wj:
                            if p in row:
                                for v, cv in mul(u, p).items():
                                    yield (v, q), c0 * cu * cv

        return term_map(self.power(2), self.power(2), terms)

    @cached_property
    def sigma_inv(self) -> LinearMap:
        """sigma^-1(w (x) w') = (-1)^{|h|(|w|+|w'_0|)} l(k) (x) r(k) w w'_0 with
        F(w') = w'_0 (x) h and k = kappa^-1(h).  A tau leg l(k) (x) r(k) is
        met only when r(k) w is nonzero, read off ``support``."""
        mul, deg, hdeg = self.algebra.mul_basis, self.factor.degrees, self.hopf_factor.degrees
        tau_legs, kinv, sup = self.tau_legs, self.kappa_inv, self.algebra.support
        one = self.field.one

        def terms(t):
            i, j = t
            for (w, h), c in self.f_legs[j]:
                odd = hdeg[h] * (deg[i] + deg[w]) % 2
                for h2, ck in kinv.cols[h].items():
                    for (p, q), ct in tau_legs[h2]:
                        if i in sup[q]:
                            c0 = _signed(_times(_times(c, ck, one), ct, one), odd)
                            for u, cu in mul(q, i).items():
                                if w in sup[u]:
                                    for v, cv in mul(u, w).items():
                                        yield (p, v), c0 * cu * cv

        return term_map(self.power(2), self.power(2), terms)

    @cached_property
    def f2(self) -> LinearMap:
        """F_2 : W_2 -> W_2 (x) H, (w (x) w') -> (-1)^{|h||w'_0|} w_0 (x) w'_0 (x) h h'."""
        mul, deg, hdeg = self.hopf.mul_basis, self.factor.degrees, self.hopf_factor.degrees
        f_legs = self.f_legs

        def terms(t):
            i, j = t
            for (w1, h1), c1 in f_legs[i]:
                for (w2, h2), c2 in f_legs[j]:
                    c0 = _signed(c1 * c2, hdeg[h1] * deg[w2] % 2)
                    for a, ca in mul(h1, h2).items():
                        yield (w1, w2, a), c0 * ca

        return term_map(self.power(2), self.hopf_space(2), terms)

    def coact_terms(self, p: int):
        """The flat rewriter of F on slot p of W_2, its H leg moved last past
        the slots after p with its Koszul sign."""
        deg, hdeg = self.factor.degrees, self.hopf_factor.degrees

        def terms(t):
            passed = sum(deg[i] for i in t[p + 1:])
            for (k, h), c in self.f_legs[t[p]]:
                yield t[:p] + (k,) + t[p + 1:] + (h,), _signed(c, hdeg[h] * passed % 2)

        return terms

    def coact_at(self, p: int) -> LinearMap:
        """F on slot p of W_2: W_2 -> W_2 (x) H; cached."""
        key = ("coact", p)
        if key not in self._ops:
            self._ops[key] = term_map(self.power(2), self.hopf_space(2), self.coact_terms(p))
        return self._ops[key]

    def varsigma(self, h: int) -> Vec:
        """The sigma-cochain l(kappa^-1(h^(1))) (x) tau(h^(2)) r(kappa^-1(h^(1)))
        of a basis element h of degree zero, in W_3: every leg has degree
        zero, so no sign enters."""
        mul, legs = self.algebra.mul_basis, self.tau_legs

        def terms():
            for (h1, h2), c in self.sweedler(h):
                for k, ck in self.kappa_inv.cols[h1].items():
                    for (x, y), ct in legs[k]:
                        for (u, v), cu in legs[h2]:
                            coeff = c * ck * ct * cu
                            for w, cw in mul(v, y).items():
                                yield (x, u, w), coeff * cw

        return from_legs(self.power(3), terms())

    # -- the right sides of the gauge-transformation laws --------------------------
    # A leg ((k, h), c) is the term c x_k (x) h of a coaction F(x) = sum c x_k (x) h,
    # and phi(k) is phi(x_k) in W.  No factor passes another, so no sign enters;
    # a coefficient of phi(k) that is one is not multiplied.

    def coact_side(self, legs, phi) -> Vec:
        """sum c phi(k) (x) h in W (x) H, the right side of F phi = (phi (x) id)F."""
        one = self.field.one
        return from_legs(self.hopf_space(1), (((i, h), c if ci is one else c * ci)
                                              for (k, h), c in legs for i, ci in phi(k).items()))

    def tau_side(self, legs, phi) -> Vec:
        """sum c phi(k) (x) tau(h) in W_3, the right side of Delta phi =
        (phi (x) tau)F."""
        tau_legs, one = self.tau_legs, self.field.one

        def terms():
            for (k, h), c in legs:
                for i, ci in phi(k).items():
                    cc = c if ci is one else c * ci
                    for (p, q), ct in tau_legs[h]:
                        yield (i, p, q), cc * ct

        return from_legs(self.power(3), terms())

    def varsigma_side(self, legs, phi) -> Vec:
        """sum c varsigma(h) . phi(k) in W_3, with each h of degree zero and
        phi(k) standing for 1 (x) 1 (x) phi(k): the braided product of W_3,
        transported along X_2.  Each varsigma(h) and each distinct phi(k) is
        carried once, and kept on the tower."""
        mult, w3, unit = self.transported_mult(3), self.power(3), self.algebra.unit
        out: Vec = {}
        for (k, h), c in legs:
            v = phi(k)
            viadd(out, c, mult.mul_carried(
                self._carried(("varsigma", h), lambda: self.varsigma(h)),
                self._carried(frozenset(v.items()), lambda: embed(w3, unit, unit, v))))
        return out

    def _carried(self, key, make) -> Vec:
        """make() carried along X_2, once per key."""
        key = ("carried", key)
        if key not in self._ops:
            self._ops[key] = self.transported_mult(3).carry(make())
        return self._ops[key]

    # -- operators on W_n ----------------------------------------------------------

    def sigma_at(self, n, p: int, inverse: bool = False) -> LinearMap:
        """sigma (or its inverse) on slots (p, p+1) of W_n, or of the mixed
        product with pattern n; cached."""
        key = ("sigma", n, p, inverse)
        if key not in self._ops:
            m, w2 = self.sigma_inv if inverse else self.sigma, self.power(2)
            wn = self.mixed_space(n) if isinstance(n, str) else self.power(n)
            self._ops[key] = term_map(wn, wn, slot_terms(p, m, w2, w2))
        return self._ops[key]

    def mu_at(self, n: int, p: int) -> LinearMap:
        """Multiply slots (p, p+1): W_n -> W_{n-1}, cached; for n >= 3 it is
        mu_at(2, 0) on those slots."""
        key = ("mu", n, p)
        if key not in self._ops:
            if n == 2:
                mul = self.algebra.mul_basis

                def terms(t):
                    return (((k,), c) for k, c in mul(*t).items())
            else:
                terms = slot_terms(p, self.mu_at(2, 0), self.power(2), self.power(1))
            self._ops[key] = term_map(self.power(n), self.power(n - 1), terms)
        return self._ops[key]

    @cached_property
    def _star_leg(self) -> list:
        """(k, c) for each basis element whose star is the one term c e_k,
        else None."""
        return [next(iter(col.items())) if len(col) == 1 else None
                for col in self.algebra.star.cols]

    def flipstar_terms(self, t):
        """The flat rewriter of the conjugation on W_n, for any n: reverse the
        slots and star each factor, with the Koszul sign of the reversal.
        Applied to a vector, it acts after its coefficients are conjugated.
        When the star of every slot is one term, so is the image."""
        star_cols, deg, one = self.algebra.star.cols, self.factor.degrees, self.field.one
        odd = seen = 0
        for i in t:
            odd += seen * deg[i]
            seen += deg[i]
        rev = t[::-1]
        legs = [self._star_leg[i] for i in rev]
        if None not in legs:
            c = one
            for _, ck in legs:
                c = _times(c, ck, one)
            return [(tuple(k for k, _ in legs), -c if odd % 2 else c)]
        acc = [((k,), c) for k, c in star_cols[rev[0]].items()]
        for i in rev[1:]:
            acc = [(tup + (k,), _times(c, ck, one)) for tup, c in acc
                   for k, ck in star_cols[i].items()]
        return [(tup, -c) for tup, c in acc] if odd % 2 else acc

    def flipstar(self, n: int) -> LinearMap:
        """The conjugation on W_n, the term map of ``flipstar_terms``; cached."""
        key = ("flipstar", n)
        if key not in self._ops:
            wn = self.power(n)
            self._ops[key] = term_map(wn, wn, self.flipstar_terms, antilinear=True)
        return self._ops[key]

    # -- the Galois tower and the transported product -----------------------------

    def x_chain(self, n: int, inverse: bool = False) -> list:
        """X_n : W_{n+1} -> W (x) H^n, or X_n^-1 with ``inverse``, as the
        steps it takes in turn, cached: each step is a triple (source,
        target, rewriter) of X or X^-1 on one pair of slots.  Unrolling
        X_{m+1} = (X (x) id^m)(id (x) X_m), X_n is X on slots (n-1, n), then
        on (n-2, n-1), ..., then on (0, 1), and X_n^-1 is X^-1 on (0, 1),
        then on (1, 2), ..., then on (n-1, n).  Only X is inverted by
        elimination.  No factor passes another, so no sign enters."""
        if n < 1:
            raise InputError("tower level must be >= 1")
        key = ("chain", n, inverse)
        if key not in self._ops:
            w, h = self.letters
            w2, wh = self.power(2), self.hopf_space(1)

            def level(k):
                """k slots of W, then n + 1 - k of H."""
                return self.power(k) if k == n + 1 else self.mixed_space(w * k + h * (n + 1 - k))

            if inverse:
                steps = [(level(p + 1), level(p + 2), slot_terms(p, self.X_inv, wh, w2))
                         for p in range(n)]
            else:
                steps = [(level(p + 2), level(p + 1), slot_terms(p, self.X, w2, wh))
                         for p in reversed(range(n))]
            self._ops[key] = steps
        return self._ops[key]

    def x_n(self, n: int) -> LinearMap:
        """X_n as a matrix, the term map of the chain ``x_chain(n)``, cached;
        X_1 is X.  Only the Galois tower suite reads it: the tower's products
        apply the chains."""
        if n == 1:
            return self.X
        key = ("X", n)
        if key not in self._ops:
            chain = self.x_chain(n)
            self._ops[key] = term_map(chain[0][0], chain[-1][1],
                                      reduce(chain_terms, (terms for _, _, terms in chain)))
        return self._ops[key]

    def transported_mult(self, n: int) -> "TransportedProduct":
        """The braided product on W_n (n >= 2), cached per n."""
        key = ("mult", n)
        if key not in self._ops:
            self._ops[key] = TransportedProduct(self, n)
        return self._ops[key]

    def add_braid_records(self, rep: ValidationReport, ids) -> None:
        """Record the braid equation on W_3, the two product compatibilities
        and mu sigma = mu; ``ids`` holds their (identity id, paper label)."""
        braid, prod1, prod2, comm = ids
        s12, s23 = self.sigma_at(3, 0), self.sigma_at(3, 1)
        rep.add(map_equality_record(*braid, (s12, s23, s12), (s23, s12, s23),
                                    witness_space=self.power(3).space))
        mu12, mu23 = self.mu_at(3, 0), self.mu_at(3, 1)
        w2 = self.power(2).space
        rep.add(map_equality_record(*prod1, (self.sigma, mu12), (mu23, s12, s23),
                                    witness_space=w2))
        rep.add(map_equality_record(*prod2, (self.sigma, mu23), (mu12, s23, s12),
                                    witness_space=w2))
        mu = self.mu_at(2, 0)
        rep.add(map_equality_record(*comm, (mu, self.sigma), mu,
                                    witness_space=self.power(1).space))

    def add_translation_records(self, rep: ValidationReport, ids) -> None:
        """Record the translation-map identities of both degrees, with their
        Koszul signs and without the terms beyond the budget: tau(h)* =
        tau(kappa(h)*), l(h)r(h) = eps(h)1, (id (x) F)tau = tau(h^(1)) (x)
        h^(2), (F (x) id)tau = chi(kappa(h^(1)) (x) tau(h^(2))), tau(hg) =
        l(g)l(h) (x) r(h)r(g) and the graded centrality of im(tau) against M;
        ``ids`` holds their (identity id, paper label)."""
        star, eps, coaction, left_coaction, mult, central = ids
        tau, legs, field = self.tau, self.tau_legs, self.field
        deg, hdeg, budget = self.factor.degrees, self.hopf_factor.degrees, self.budget
        hspace = self.hopf_factor.space
        w1, w2, w2h = self.power(1), self.power(2), self.hopf_space(2)

        def h_map(cod: TProd, terms) -> LinearMap:
            """The map H -> cod whose column h sums the flat terms ``terms(h)``."""
            return LinearMap(hspace, cod.space, [from_legs(cod, terms(h))
                                                 for h in range(hspace.dim)], field)

        rep.add(map_equality_record(*star, (self.flipstar(2), tau),
                                    (tau, self.hopf.star, self.kappa), witness_space=w2.space))

        unit_eps = LinearMap(hspace, w1.space, [vscale(self.eps_basis(h), self.algebra.unit)
                                                for h in range(hspace.dim)], field)  # W_1 is W
        rep.add(map_equality_record(*eps, (self.mu_at(2, 0), tau), unit_eps,
                                    witness_space=w1.space))

        def coact_tau(p: int) -> LinearMap:
            """F on slot p of tau, along tau's legs only."""
            coact = self.coact_terms(p)
            return h_map(w2h, lambda h: ((t, ct * c) for xy, ct in legs[h]
                                         for t, c in coact(xy)))

        def tau_h_terms(h):
            for (h1, h2), c in self.sweedler(h):
                for (p, q), ct in legs[h1]:
                    yield (p, q, h2), c * ct

        rep.add(map_equality_record(*coaction, coact_tau(1), h_map(w2h, tau_h_terms),
                                    witness_space=w2h.space))

        # kappa(h^(1)) moves past tau(h^(2)) to the end
        def kappa_tau_terms(h):
            for (h1, h2), c in self.sweedler(h):
                c1 = _signed(c, hdeg[h1] * hdeg[h2] % 2)
                for k, ck in self.kappa.cols[h1].items():
                    for (p, q), ct in legs[h2]:
                        yield (p, q, k), c1 * ck * ct

        rep.add(map_equality_record(*left_coaction, coact_tau(0), h_map(w2h, kappa_tau_terms),
                                    witness_space=w2h.space))

        mul, sup = self.algebra.mul_basis, self.algebra.support

        def product_terms(h, g):
            """l(g)l(h) (x) r(h)r(g), meeting only the pairs of legs whose
            products are both nonzero."""
            for (u, v), cu in legs[g]:
                odd, row_u = hdeg[h] * deg[u] % 2, sup[u]
                for (x, y), cx in legs[h]:
                    if x in row_u and v in sup[y]:
                        c0 = _signed(cu * cx, odd)
                        yv = mul(y, v)
                        for p, cp in mul(u, x).items():
                            for q, cq in yv.items():
                                yield (p, q), c0 * cp * cq

        def mult_failures():
            for h in range(hspace.dim):
                for g in range(hspace.dim):
                    if budget is not None and hdeg[h] + hdeg[g] > budget:
                        continue
                    lhs = tau.apply(self.hopf.mul_basis(h, g))
                    rhs = from_legs(w2, product_terms(h, g))
                    if lhs != rhs:
                        yield {"basis_pair": [hspace.labels[h], hspace.labels[g]],
                               "lhs": w2.render(lhs), "rhs": w2.render(rhs)}

        rep.check(mult, mult_failures())

        lact, ract = self.factor.lact, self.factor.ract
        cdeg = self.coeff_degrees or (0,) * len(lact)

        def central_failures():
            for f in range(len(lact)):
                for h in range(hspace.dim):
                    if budget is not None and cdeg[f] + hdeg[h] > budget:
                        continue
                    lv = slot_apply(w2, tau.cols[h], 0, lact[f])
                    rv = slot_apply(w2, tau.cols[h], 1, ract[f])
                    if lv != (vneg(rv) if cdeg[f] * hdeg[h] % 2 else rv):
                        yield {"base_index": f, "group_basis": hspace.labels[h],
                               "f.tau(a)": w2.render(lv), "tau(a).f": w2.render(rv)}

        rep.check(central, central_failures())


class TransportedProduct:
    """The braided product on W_n (n >= 2) of a tower.

    Both operands are carried along the chain of X_{n-1} to W (x) H^{n-1}
    (``carry``), multiplied there factor by factor with the sign
    (-1)^{sum_{j<i} |u_i||v_j|} (``mul_carried``), and carried back along the
    chain of X_{n-1}^-1; calling the product on two W_n vectors does all
    three.  A caller that multiplies the same operand many times carries it
    once, and a caller that multiplies many pairs of a list of operands
    asks ``products`` for them all.  Flat tuples go into a trie keyed one
    factor at a time; a left tuple walks it slot by slot through the
    smaller of the node's children and its row of each factor algebra's
    ``support``, so it meets only the tuples whose factor products with it
    are all nonzero.  Operands whose degrees add up to more than the budget
    raise DegreeBudget.
    """

    def __init__(self, tower: BalancedTower, n: int):
        self.xn, self.xinv = tower.x_chain(n - 1), tower.x_chain(n - 1, inverse=True)
        self.one = tower.field.one
        w, h = tower.letters
        self.where = f"{w}_{n}"
        self.target = tower.mixed_space(w + h * (n - 1))
        self.budget = tower.budget
        self.algs = (tower.algebra,) + (tower.hopf,) * (n - 1)
        self.supports = [alg.support for alg in self.algs]
        fdegs = (tower.factor.degrees,) + (tower.hopf_factor.degrees,) * (n - 1)
        # for each flat tuple with a graded factor (none in degree zero): the
        # degree of each factor and of the factors before it
        self.degs, self.before = degs, before = {}, {}
        for t in self.target.tuples:
            ds = [d[i] for d, i in zip(fdegs, t)]
            if any(ds):
                degs[t], before[t] = ds, list(accumulate(ds[:-1], initial=0))

    def carry(self, u: Vec) -> list:
        """u in W_n carried to W (x) H^{n-1}, as its flat terms."""
        return flat_legs(self.target, apply_chain(self.xn, u))

    def __call__(self, u: Vec, v: Vec) -> Vec:
        return self.mul_carried(self.carry(u), self.carry(v))

    def _over_budget(self, tu_terms: list, tv_terms: list) -> bool:
        """Whether the top degrees of two nonzero carried operands add up to
        more than the budget."""
        if self.budget is None or not tu_terms or not tv_terms:
            return False
        degs = self.degs
        return sum(max(sum(degs.get(t, ())) for t, _ in terms)
                   for terms in (tu_terms, tv_terms)) > self.budget

    def mul_carried(self, tu_terms: list, tv_terms: list) -> Vec:
        """The product in W_n of two carried operands."""
        if self._over_budget(tu_terms, tv_terms):
            raise DegreeBudget(f"product exceeds the degree budget in {self.where}")
        # a leaf holds (tuple, coefficient, degrees before each factor)
        before, supports = self.before, self.supports
        trie = _trie((tv, (tv, cv, before.get(tv))) for tv, cv in tv_terms)
        terms = self._products((tu, cu, tv, cv, bv) for tu, cu in tu_terms
                               for tv, cv, bv in _walk(trie, supports, tu))
        return apply_chain(self.xinv, from_legs(self.target, terms))

    def products(self, carried: list):
        """The product in W_n of carried[i] and carried[j] for every ordered
        pair (i, j), row by row, yielded as ((i, j), product): pair by pair
        what ``mul_carried`` gives, with its sign, raising DegreeBudget at
        the same pair.  The flat tuples of all the operands go into one trie,
        whose leaf for a tuple holds its coefficient in each operand.  The
        tuples of a left operand walk it once, and the terms they meet are
        kept by right operand for that operand's row."""
        before, supports = self.before, self.supports
        leaves: dict = {}  # tuple -> (tuple, degrees before each factor, {operand: coefficient})
        for j, terms in enumerate(carried):
            for t, c in terms:
                if t not in leaves:
                    leaves[t] = (t, before.get(t), {})
                leaves[t][2][j] = c
        trie = _trie(leaves.items())
        del leaves  # the trie holds the leaves
        for i, tu_terms in enumerate(carried):
            # right operand -> [(left tuple, its coefficient, right tuple, its
            # coefficient, degrees before each factor)], once the row needs it
            meets = None
            for j, tv_terms in enumerate(carried):
                if self._over_budget(tu_terms, tv_terms):
                    raise DegreeBudget(f"product exceeds the degree budget in {self.where}")
                if meets is None:
                    meets = {}
                    for tu, cu in tu_terms:
                        for tv, bv, coeffs in _walk(trie, supports, tu):
                            for k, cv in coeffs.items():
                                meets.setdefault(k, []).append((tu, cu, tv, cv, bv))
                terms = self._products(meets.get(j, ()))
                yield (i, j), apply_chain(self.xinv, from_legs(self.target, terms))

    def _products(self, meeting):
        """The flat terms of the products of the meeting pairs of terms
        (left tuple, coefficient, right tuple, coefficient, degrees before
        each factor of the right tuple), formed factor by factor with the
        Koszul sign."""
        degs, one = self.degs, self.one
        for tu, cu, tv, cv, bv in meeting:
            du = degs.get(tu)
            c0 = _times(cu, cv, one)
            if du is not None and bv is not None \
                    and sum(map(operator.mul, du, bv)) % 2:
                c0 = -c0
            terms = [((), c0)]
            for alg, i, j in zip(self.algs, tu, tv):
                terms = [(tup + (k,), _times(c, ck, one)) for tup, c in terms
                         for k, ck in alg.mul_basis(i, j).items()]
            yield from terms


def _trie(items) -> dict:
    """The (tuple, leaf) items in a trie keyed one factor per level."""
    trie: dict = {}
    for t, leaf in items:
        node = trie
        for j in t[:-1]:
            node = node.setdefault(j, {})
        node[t[-1]] = leaf
    return trie


def _walk(trie: dict, supports, tu) -> list:
    """The leaves of ``trie`` under the tuples whose factor products with tu
    are all nonzero: level by level, the children whose factor meets tu's
    factor, scanning the smaller of support row and node."""
    nodes = [trie]
    for sup, i in zip(supports, tu):
        row, reached = sup[i], []
        for node in nodes:
            if len(row) < len(node):
                for j in row:
                    child = node.get(j)
                    if child is not None:
                        reached.append(child)
            else:
                for j, child in node.items():
                    if j in row:
                        reached.append(child)
        nodes = reached
        if not nodes:
            break
    return nodes


class Bundle(BalancedTower):
    tower_budget = DEFAULT_TOWER_BUDGET

    def __init__(self, total: StarAlgebra, group: HopfStarAlgebra, ba: TProd,
                 coaction: LinearMap, base_vectors, base: StarAlgebra,
                 base_in_total: LinearMap):
        self.total = total
        self.group = group
        self.coaction = coaction  # into ba, the free product B (x) A
        self.base_vectors = base_vectors  # V basis as vectors in B
        self.base = base                  # abstract V with solved structure constants
        self.base_in_total = base_in_total
        lact = [total.left_mult_map(v) for v in base_vectors]
        ract = [total.right_mult_map(v) for v in base_vectors]
        self.b_factor = Factor.ungraded(total.space, lact, ract)
        self.a_factor = ba.factors[1]
        da = group.dim
        f_legs = [flat_legs(ba, col) for col in coaction.cols]
        super().__init__(total, self.b_factor, group.algebra, self.a_factor, group.antipode,
                         group.antipode_inverse, group.sweedler, group.eps_basis, f_legs,
                         ("B", "A"), spaces={"BA": ba})
        self.b2 = self.power(2)
        # the rank comes from the elimination that X_inv reuses
        rank = self.X.solver().rank
        if self.b2.dim != total.dim * da or rank != self.b2.dim:
            raise NotPrincipal(
                "Galois map X is not bijective "
                f"(dim B2 = {self.b2.dim}, dim B(x)A = {total.dim * da}, rank = {rank})",
                where="bundle.coaction")

    # -- cached spaces ----------------------------------------------------

    def power(self, n: int) -> TProd:
        """B_n = B (x)_V ... (x)_V B, within the tower budget."""
        if n > self.tower_budget + 1:
            raise BudgetExceeded(
                f"B_{n} exceeds the tensor budget (max n = {self.tower_budget + 1})")
        return super().power(n)

    # -- small conveniences -------------------------------------------------

    @property
    def base_dim(self) -> int:
        return len(self.base_vectors)

    def is_point_base(self) -> bool:
        return self.base_dim == 1

    def is_point_trivial(self) -> bool:
        """B = A with F = phi, so the closed-form translation oracle applies."""
        return (self.total.space.labels == self.group.space.labels
                and self.coaction.cols == self.group.coproduct.cols)


def build_bundle(total: StarAlgebra, group: HopfStarAlgebra, f_legs) -> Bundle:
    """Validate the coaction, compute the base, and assemble X and tau.

    ``f_legs[i]`` lists the legs ((j, k), c) of F(e_i) = sum c e_j (x) e_k.  F
    maps into the free product B (x) A, which is the group's square when B
    is A.  Raises NotCoaction / NotPrincipal on bad input.
    """
    field = total.field
    if total.space is group.space:
        ba = group.square
    else:
        ba = TProd(field, (Factor.ungraded(total.space), Factor.ungraded(group.space)),
                   name="B(x)A")
    coaction = LinearMap(total.space, ba.space, [from_legs(ba, legs) for legs in f_legs],
                         field)
    add_coaction_records(
        RaisingReport(NotCoaction, where="bundle.coaction"),
        (("bundle.F-mult", "F is not unital and multiplicative"),
         ("bundle.F-star", "F is not hermitian"), None,
         ("bundle.F-comodule", "(F (x) id)F != (id (x) phi)F"),
         ("bundle.F-counit", "(id (x) eps)F != id")),
        "F", total, coaction, ba, group.algebra, group.coproduct, group.square,
        group.eps_basis)

    # base V = F-fixed points
    one = field.one
    iota = LinearMap(total.space, ba.space,
                     [embed(ba, {i: one}, group.unit) for i in range(total.dim)], field)
    base_vectors = fixed_points(coaction, iota)
    if not base_vectors:
        raise NotCoaction("coaction has no fixed vectors at all", where="bundle.coaction")
    incl = LinearMap(BasedSpace(tuple(f"v{i}" for i in range(len(base_vectors)))),
                     total.space, base_vectors, field)
    # abstract V structure constants
    nb = len(base_vectors)

    def in_base(v: Vec, what: str) -> Vec:
        sol = incl.solve(v)
        if sol is None:
            raise ValidationFailed(f"{what} leaves the fixed-point subalgebra",
                                   where="bundle.coaction")
        return sol

    vmult = [[in_base(total.mul(base_vectors[i], base_vectors[j]), "product of base elements")
              for j in range(nb)] for i in range(nb)]
    vunit = in_base(total.unit, "unit")
    vstar_cols = [in_base(total.star_vec(base_vectors[i]), "star of base element")
                  for i in range(nb)]
    vstar = LinearMap(incl.domain, incl.domain, vstar_cols, field, antilinear=True)
    base = StarAlgebra("V", field, incl.domain, vmult, vunit, vstar)
    return Bundle(total, group, ba, coaction, base_vectors, base, incl)


# -- translation identity suite --------------------------------------------------


def translation_identities(b: Bundle) -> ValidationReport:
    """The translation-map identities of the tower; over a point-trivial
    bundle, tau is also matched against the closed-form oracle
    kappa(a^(1)) (x) a^(2)."""
    rep = ValidationReport()
    b.add_translation_records(rep, (
        ("translation.star", "tau involution"), ("translation.eps", "l(a)r(a) = eps(a)1"),
        ("translation.coaction", "(id (x) F)tau"),
        ("translation.left-coaction", "(F (x) id)tau"),
        ("translation.mult", "tau(ac) = l(c)l(a) (x) r(a)r(c)"),
        ("translation.centrality", "tf=ft")))

    if b.is_point_trivial():
        g, b2 = b.group, b.b2
        oracle = (term_map(g.square, b2, slot_terms(0, g.antipode)), g.coproduct)
        rep.add(map_equality_record("translation.point-oracle",
                                    "tau = kappa(a^(1)) (x) a^(2) over a point",
                                    b.tau, oracle, witness_space=b2.space))
    return rep


# -- Galois tower -----------------------------------------------------------------


def galois_tower(b: Bundle, n: int):
    """X_n: B_{n+1} -> B (x) A^n as the matrix of its chain, and tau_n by
    the product formula; verifies that X_n is bijective (its rank, the one
    elimination of an X_n), X_n tau_n = 1 (x) id on basis tuples, and that
    tau_n is X_n^-1, the chain of X^-1 steps, on 1 (x) A^n.

    Returns (X_n, tau_n, report); the report's records are those of the
    translation suite, translation.tower.*.
    """
    if n < 1:
        raise InputError("tower level must be >= 1")
    if n > b.tower_budget:
        raise BudgetExceeded(f"tower level {n} exceeds budget {b.tower_budget}")
    field = b.field
    one = field.one
    da = b.group.dim
    total = b.total
    rep = ValidationReport()

    xn = b.x_n(n)
    target = b.mixed_space("B" + "A" * n)
    # the one elimination of an X_n; X_n^-1 below is the chain of X^-1 steps
    rank = xn.solver().rank
    bijective = xn.domain.dim == xn.codomain.dim and rank == xn.domain.dim
    rep.check(("translation.tower.bijective", f"X_{n} bijective"),
              [] if bijective else [{"rank": rank, "dim": xn.domain.dim}])
    if not bijective:
        return xn, None, rep

    # tau_n via the product formula
    bn1 = b.power(n + 1)
    tau_cols = {}
    a_tuples = list(iproduct(range(da), repeat=n))
    for at in a_tuples:
        # legs of tau(a_1) (x) ... (x) tau(a_n), middle products
        acc_terms = [((), one)]
        for pos, a in enumerate(at):
            nxt = []
            for tup, c in acc_terms:
                for (x, y), ct in b.tau_legs[a]:
                    if pos == 0:
                        nxt.append((tup + (x, y), c * ct))
                    else:
                        # multiply trailing slot into x
                        base = tup[:-1]
                        yprev = tup[-1]
                        for k, ck in total.mul_basis(yprev, x).items():
                            nxt.append((base + (k, y), c * ct * ck))
            acc_terms = nxt
        tau_cols[at] = from_legs(bn1, acc_terms)

    def one_tensor(at) -> Vec:
        """1 (x) a_1 (x) ... (x) a_n in B (x) A^n."""
        return embed(target, total.unit, *({a: one} for a in at))

    def labels(at) -> list:
        return [b.group.space.labels[a] for a in at]

    # X_n tau_n (a_1 ... a_n) = 1 (x) a_1 (x) ... (x) a_n
    def inverse_failures():
        for at in a_tuples:
            got, want = xn.apply(tau_cols[at]), one_tensor(at)
            if got != want:
                yield {"tuple": labels(at), "lhs": target.render(got),
                       "rhs": target.render(want)}

    rep.check(("translation.tower.inverse", f"X_{n} tau_{n} = 1 (x) id"), inverse_failures())

    # independent check: tau_n agrees with X_n^-1 restricted to 1 (x) A^n
    xinv = b.x_chain(n, inverse=True)
    rep.check(("translation.tower.formula", f"tau_{n} product formula = X_{n}^-1 restriction"),
              ({"tuple": labels(at)} for at in a_tuples
               if apply_chain(xinv, one_tensor(at)) != tau_cols[at]))

    tau_n = tau_cols
    return xn, tau_n, rep
