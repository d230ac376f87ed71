"""The balanced braid tower, and quantum principal bundles in degree zero.

BalancedTower is the tower of a coacted slot algebra W over a coefficient
algebra M with Hopf side H, written once: the balanced powers W_n = W (x)_M
... (x)_M W, the Galois map X(w (x) w') = w F(w') with its inverse, the
translation map tau(h) = X^-1(1 (x) h) with its flat legs, the braid sigma
and its formula inverse, sigma and mu on slots (p, p+1) of W_n, the flip star
on W_n, the doubled coaction F_2, the records of the braid equation, the two
product compatibilities and mu sigma = mu, the Galois tower X_n : W_{n+1} ->
W (x) H^n with its inverse, and the braided product on W_n transported along
X_{n-1}.  The degrees of W and H, the coefficient degrees and the degree
budget are data, so the graded formulas carry their Koszul signs; a sign is
applied by negating when it is odd, and degree zero does no sign arithmetic.
Bundle is the instance W = B, M = V, H = A with every degree zero and no
budget; calculus.TotalCalculus is the graded instance W = Omega(P),
M = Omega(M), H = Gamma^.

A bundle is a coacting *-algebra (B, F) over a Hopf *-algebra A; the base V
is computed as the F-fixed-point subalgebra, never declared.  Principality is
the bijectivity of X on B (x)_V B.  What only degree zero has stays in Bundle:
the tower budget on B_n, F on one slot of B_2 and V-multiplication on one
slot; the translation and Galois tower suites are here too.  Spaces and maps
are built once and cached, so all canonical bases agree across operations.
"""

from __future__ import annotations

import operator
import os
from functools import cached_property
from itertools import accumulate

from .errors import (
    BudgetExceeded, DegreeBudget, InputError, NotCoaction, NotPrincipal, ValidationFailed,
)
from .hopf import HopfStarAlgebra, StarAlgebra, add_coaction_records
from .linalg import BasedSpace, LinearMap, Vec, fixed_points, viadd_term
from .report import (
    RaisingReport, ValidationReport, failing, map_equality_record, passing,
)
from .tensor import Factor, TProd, block_terms, term_map

DEFAULT_TOWER_BUDGET = 3


def _tower_budget() -> int:
    env = os.environ.get("QPB_TENSOR_BUDGET")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"bad QPB_TENSOR_BUDGET value {env!r}") from None
    return DEFAULT_TOWER_BUDGET


def _signed(c, odd):
    """c times (-1)^odd, by negation."""
    return -c if odd else c


class BalancedTower:
    """The braid tower of a coacted slot algebra W over M.

    ``algebra`` is W (``mul_basis``, ``support``, ``unit``, ``star``) and
    ``factor`` its Factor, with the degrees of W and the M-actions; ``hopf``
    is H (``mul_basis``, ``support``, ``unit``) with its Factor
    ``hopf_factor`` and antipode inverse ``kappa_inv``; ``f_legs[i]`` holds
    the flat legs (w, h, c) of F(e_i).  ``letters`` name W and H: W_n is
    "<W>_n" and a mixed product is named by its pattern over the two
    letters; ``spaces`` maps patterns to mixed products the caller has
    already built.
    """

    def __init__(self, algebra, factor, hopf, hopf_factor, kappa_inv, f_legs,
                 letters, coeff_degrees=None, budget=None, spaces=None):
        self.algebra, self.factor = algebra, factor
        self.hopf, self.hopf_factor, self.kappa_inv = hopf, hopf_factor, kappa_inv
        self.f_legs = f_legs
        self.letters = letters
        self.coeff_degrees, self.budget = coeff_degrees, budget
        self.field = algebra.field
        self._spaces = {("mix", p): tp for p, tp in (spaces or {}).items()}
        self._ops: dict = {}

        # Galois map X(w (x) w') = w F(w')
        def x_terms(t):
            i, j = t
            for k, a, c in f_legs[j]:
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
        wh = self.hopf_space(1)
        cols = []
        for a in range(self.hopf_factor.space.dim):
            target: Vec = {}
            for i, c in self.algebra.unit.items():
                viadd_term(target, wh.flat_index((i, a)), c)
            cols.append(self.X_inv.apply(wh.project(target)))
        return LinearMap(self.hopf_factor.space, self.power(2).space, cols, self.field)

    @cached_property
    def tau_legs(self) -> list:
        """Flat legs (p, q, c) of tau(e_h), for Sweedler-style loops."""
        w2 = self.power(2)
        return [[w2.tuples[fi] + (c,) for fi, c in w2.lift(col).items()]
                for col in self.tau.cols]

    @cached_property
    def sigma(self) -> LinearMap:
        """sigma(w (x) w') = (-1)^{|h||w'|} w_0 w' l(h) (x) r(h), F(w) = w_0 (x) h."""
        mul, deg, hdeg = self.algebra.mul_basis, self.factor.degrees, self.hopf_factor.degrees
        tau_legs = self.tau_legs

        def terms(t):
            i, j = t
            for w, h, c in self.f_legs[i]:
                odd = hdeg[h] * deg[j] % 2
                for p, q, ct in tau_legs[h]:
                    c0 = _signed(c * ct, odd)
                    for u, cu in mul(w, j).items():
                        for v, cv in mul(u, p).items():
                            yield (v, q), c0 * cu * cv

        return term_map(self.power(2), self.power(2), terms)

    @cached_property
    def sigma_inv(self) -> LinearMap:
        """sigma^-1(w (x) w') = (-1)^{|h|(|w|+|w'_0|)} l(k) (x) r(k) w w'_0 with
        F(w') = w'_0 (x) h and k = kappa^-1(h)."""
        mul, deg, hdeg = self.algebra.mul_basis, self.factor.degrees, self.hopf_factor.degrees
        tau_legs, kinv = self.tau_legs, self.kappa_inv

        def terms(t):
            i, j = t
            for w, h, c in self.f_legs[j]:
                odd = hdeg[h] * (deg[i] + deg[w]) % 2
                for h2, ck in kinv.cols[h].items():
                    for p, q, ct in tau_legs[h2]:
                        c0 = _signed(c * ck * ct, odd)
                        for u, cu in mul(q, i).items():
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
            for w1, h1, c1 in f_legs[i]:
                for w2, h2, c2 in f_legs[j]:
                    c0 = _signed(c1 * c2, hdeg[h1] * deg[w2] % 2)
                    for a, ca in mul(h1, h2).items():
                        yield (w1, w2, a), c0 * ca

        return term_map(self.power(2), self.hopf_space(2), terms)

    # -- operators on W_n ----------------------------------------------------------

    def sigma_at(self, n, p: int, inverse: bool = False) -> LinearMap:
        """sigma (or its inverse) on slots (p, p+1) of W_n, or of the mixed
        product with pattern n; cached."""
        key = ("sigma", n, p, inverse)
        if key not in self._ops:
            m = self.sigma_inv if inverse else self.sigma
            w2 = self.power(2)
            wn = self.mixed_space(n) if isinstance(n, str) else self.power(n)

            def terms(t):
                for pair, c in block_terms(w2, (t[p], t[p + 1]), m):
                    yield t[:p] + pair + t[p + 2:], c

            self._ops[key] = term_map(wn, wn, terms)
        return self._ops[key]

    def mu_at(self, n: int, p: int) -> LinearMap:
        """Multiply slots (p, p+1): W_n -> W_{n-1}, cached."""
        key = ("mu", n, p)
        if key not in self._ops:
            mul = self.algebra.mul_basis

            def terms(t):
                for k, c in mul(t[p], t[p + 1]).items():
                    yield t[:p] + (k,) + t[p + 2:], c

            self._ops[key] = term_map(self.power(n), self.power(n - 1), terms)
        return self._ops[key]

    def flipstar(self, n: int) -> LinearMap:
        """The conjugation on W_n: reverse the slots and star each factor, with
        the Koszul sign of the reversal; cached."""
        key = ("flipstar", n)
        if key not in self._ops:
            star_cols, deg = self.algebra.star.cols, self.factor.degrees

            def terms(t):
                odd = seen = 0
                for i in t:
                    odd += seen * deg[i]
                    seen += deg[i]
                rev = t[::-1]
                acc = [((k,), c) for k, c in star_cols[rev[0]].items()]
                for i in rev[1:]:
                    acc = [(tup + (k,), c * ck) for tup, c in acc
                           for k, ck in star_cols[i].items()]
                return [(tup, -c) for tup, c in acc] if odd % 2 else acc

            wn = self.power(n)
            self._ops[key] = term_map(wn, wn, terms, antilinear=True)
        return self._ops[key]

    # -- the Galois tower and the transported product -----------------------------

    def x_n(self, n: int) -> LinearMap:
        """X_n : W_{n+1} -> W (x) H^n, cached: X_1 = X and
        X_{m+1}(w (x) q) = (X (x) id^m)(w (x) X_m(q)); no factor passes
        another, so there is no sign."""
        if n < 1:
            raise InputError("tower level must be >= 1")
        if n == 1:
            return self.X
        key = ("X", n)
        if key not in self._ops:
            prev, prev_src = self.x_n(n - 1), self.power(n)
            w, h = self.letters
            prev_target = self.mixed_space(w + h * (n - 1))
            w2, wh = self.power(2), self.hopf_space(1)

            def terms(t):
                sub = prev.apply(prev_src.project_tuple(t[1:]))
                for fi, c in prev_target.lift(sub).items():
                    st = prev_target.tuples[fi]
                    xv = self.X.apply(w2.project_tuple((t[0], st[0])))
                    for fj, c2 in wh.lift(xv).items():
                        yield wh.tuples[fj] + st[1:], c * c2

            self._ops[key] = term_map(self.power(n + 1), self.mixed_space(w + h * n), terms)
        return self._ops[key]

    def x_n_inverse(self, n: int) -> LinearMap:
        """X_n^-1, cached; raises ValidationFailed unless X_n is bijective."""
        if n == 1:
            return self.X_inv
        key = ("Xinv", n)
        if key not in self._ops:
            xn = self.x_n(n)
            if xn.domain.dim != xn.codomain.dim or xn.solver().rank != xn.domain.dim:
                raise ValidationFailed(f"X_{n} is not bijective")
            self._ops[key] = xn.inverse()
        return self._ops[key]

    def transported_mult(self, n: int):
        """The braided product on W_n (n >= 2), cached per n.

        Both operands are carried along X_{n-1} to W (x) H^{n-1}, multiplied
        there factor by factor with the sign (-1)^{sum_{j<i} |u_i||v_j|}, and
        carried back.  The right operand's flat tuples go into a trie keyed
        one factor at a time; each left term walks it slot by slot through
        the smaller of the node's children and its row of each factor
        algebra's ``support``, so it meets only the right terms whose factor
        products are all nonzero.  Operands whose degrees add up to more than
        the budget raise DegreeBudget.
        """
        key = ("mult", n)
        if key in self._ops:
            return self._ops[key]
        xn, xinv = self.x_n(n - 1), self.x_n_inverse(n - 1)
        w, h = self.letters
        target = self.mixed_space(w + h * (n - 1))
        tuples, budget = target.tuples, self.budget
        algs = (self.algebra,) + (self.hopf,) * (n - 1)
        supports = [alg.support for alg in algs]
        fdegs = (self.factor.degrees,) + (self.hopf_factor.degrees,) * (n - 1)
        # for each flat tuple with a graded factor (none in degree zero): the
        # degree of each factor and of the factors before it
        degs, before = {}, {}
        for f, t in enumerate(tuples):
            ds = [d[i] for d, i in zip(fdegs, t)]
            if any(ds):
                degs[f], before[f] = ds, list(accumulate(ds[:-1], initial=0))

        def mul(u: Vec, v: Vec) -> Vec:
            tu_terms = target.lift(xn.apply(u))
            tv_terms = target.lift(xn.apply(v))
            if budget is not None and tu_terms and tv_terms and \
                    max(sum(degs.get(f, ())) for f in tu_terms) \
                    + max(sum(degs.get(f, ())) for f in tv_terms) > budget:
                raise DegreeBudget(f"product exceeds the degree budget in {w}_{n}")
            # the right terms by flat tuple, one factor per level; a leaf
            # holds (tuple, coefficient, degrees before each factor)
            trie: dict = {}
            for fv, cv in tv_terms.items():
                tv = tuples[fv]
                node = trie
                for j in tv[:-1]:
                    node = node.setdefault(j, {})
                node[tv[-1]] = (tv, cv, before.get(fv))
            out: Vec = {}
            for fu, cu in tu_terms.items():
                tu = tuples[fu]
                # keep, level by level, the children whose factor meets the
                # left term's factor, scanning the smaller of row and node
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
                du = degs.get(fu)
                for tv, cv, bv in nodes:
                    c0 = cu * cv
                    if du is not None and bv is not None \
                            and sum(map(operator.mul, du, bv)) % 2:
                        c0 = -c0
                    terms = [((), c0)]
                    for alg, i, j in zip(algs, tu, tv):
                        terms = [(tup + (k,), c * ck) for tup, c in terms
                                 for k, ck in alg.mul_basis(i, j).items()]
                    for tup, c in terms:
                        viadd_term(out, target.flat_index(tup), c)
            return xinv.apply(target.project(out))

        self._ops[key] = mul
        return mul

    def add_braid_records(self, rep: ValidationReport, ids) -> None:
        """Record the braid equation on W_3, the two product compatibilities
        and mu sigma = mu; ``ids`` holds their (identity id, paper label)."""
        braid, prod1, prod2, comm = ids
        s12, s23 = self.sigma_at(3, 0), self.sigma_at(3, 1)
        rep.add(map_equality_record(*braid, s12.compose(s23).compose(s12),
                                    s23.compose(s12).compose(s23),
                                    witness_space=self.power(3).space))
        mu12, mu23 = self.mu_at(3, 0), self.mu_at(3, 1)
        w2 = self.power(2).space
        rep.add(map_equality_record(*prod1, self.sigma.compose(mu12),
                                    mu23.compose(s12).compose(s23), witness_space=w2))
        rep.add(map_equality_record(*prod2, self.sigma.compose(mu23),
                                    mu12.compose(s23).compose(s12), witness_space=w2))
        mu = self.mu_at(2, 0)
        rep.add(map_equality_record(*comm, mu.compose(self.sigma), mu,
                                    witness_space=self.power(1).space))


class Bundle(BalancedTower):
    def __init__(self, total: StarAlgebra, group: HopfStarAlgebra, coaction: LinearMap,
                 base_vectors, base: StarAlgebra, base_in_total: LinearMap):
        self.total = total
        self.group = group
        self.coaction = coaction
        self.base_vectors = base_vectors  # V basis as vectors in B
        self.base = base                  # abstract V with solved structure constants
        self.base_in_total = base_in_total
        self.tower_budget = _tower_budget()
        lact = [total.left_mult_map(v) for v in base_vectors]
        ract = [total.right_mult_map(v) for v in base_vectors]
        self.b_factor = Factor.ungraded(total.space, lact, ract)
        self.a_factor = Factor.ungraded(group.space)
        da = group.dim
        f_legs = [[(idx // da, idx % da, c) for idx, c in col.items()]
                  for col in coaction.cols]
        super().__init__(total, self.b_factor, group.algebra, self.a_factor,
                         group.antipode_inverse, f_legs, ("B", "A"))
        self.b2 = self.b_space(2)
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
                f"B_{n} exceeds the tensor budget (max n = {self.tower_budget + 1}; "
                "set QPB_TENSOR_BUDGET to raise)")
        return super().power(n)

    b_space = power

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

    def coact_at(self, p: int) -> LinearMap:
        """F on slot p of B_2, its A leg moved last: B_2 -> B_2 (x) A; cached."""
        key = ("coact", p)
        if key not in self._ops:
            def terms(t):
                for k, a, c in self.f_legs[t[p]]:
                    yield t[:p] + (k,) + t[p + 1:] + (a,), c

            self._ops[key] = term_map(self.b2, self.hopf_space(2), terms)
        return self._ops[key]

    def lmult_map(self, n: int, slot: int, w: Vec) -> LinearMap:
        """Left multiplication by w in one slot of B_n."""
        bn = self.b_space(n)
        total = self.total

        def terms(t):
            for k, c in total.mul(w, {t[slot]: self.field.one}).items():
                yield t[:slot] + (k,) + t[slot + 1:], c

        return term_map(bn, bn, terms)

    def rmult_map(self, n: int, slot: int, w: Vec) -> LinearMap:
        bn = self.b_space(n)
        total = self.total

        def terms(t):
            for k, c in total.mul({t[slot]: self.field.one}, w).items():
                yield t[:slot] + (k,) + t[slot + 1:], c

        return term_map(bn, bn, terms)


def _check(rep: ValidationReport, ident, label, bad):
    rep.add(failing(ident, label, bad) if bad else passing(ident, label))


def build_bundle(total: StarAlgebra, group: HopfStarAlgebra,
                 coaction: LinearMap) -> Bundle:
    """Validate the coaction, compute the base, and assemble X and tau.

    Raises NotCoaction / NotPrincipal on bad input.
    """
    field = total.field
    ba = TProd(field, (Factor.ungraded(total.space), Factor.ungraded(group.space)),
               name="B(x)A")
    add_coaction_records(
        RaisingReport(NotCoaction, where="bundle.coaction"),
        (("bundle.F-mult", "F is not unital and multiplicative"),
         ("bundle.F-star", "F is not hermitian"), None,
         ("bundle.F-comodule", "(F (x) id)F != (id (x) phi)F"),
         ("bundle.F-counit", "(id (x) eps)F != id")),
        "F", total, coaction, ba, group.algebra, group.coproduct, group.square,
        group.eps_basis)

    # base V = F-fixed points
    iota = LinearMap(total.space, coaction.codomain,
                     [{i * group.dim + a: c for a, c in group.unit.items()}
                      for i in range(total.dim)], field)
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
    return Bundle(total, group, coaction, base_vectors, base, incl)


# -- translation identity suite --------------------------------------------------


def translation_identities(b: Bundle) -> ValidationReport:
    """The six translation-map identities plus bimodule centrality; over a
    point-trivial bundle, tau is also matched against the closed-form oracle
    kappa(a^(1)) (x) a^(2)."""
    rep = ValidationReport()
    field = b.field
    g = b.group
    total = b.total
    b2 = b.b2
    da = g.dim

    # tau(a)* = tau[kappa(a)*]
    s2 = b.flipstar(2)
    lhs = s2.compose(b.tau)
    rhs = b.tau.compose(g.algebra.star.compose(g.antipode))
    rep.add(map_equality_record("translation.star", "tau involution", lhs, rhs,
                                witness_space=b2.space))

    # l(a) r(a) = eps(a) 1
    b1 = b.b_space(1)
    lhs = b.mu_at(2, 0).compose(b.tau)
    eps_cols = [b1.project({b1.flat_index((i,)): c * g.eps_basis(a)
                            for i, c in total.unit.items()})
                for a in range(da)]
    rhs = LinearMap(g.space, b1.space, eps_cols, field)
    rep.add(map_equality_record("translation.eps", "l(a)r(a) = eps(a)1", lhs, rhs,
                                witness_space=b1.space))

    # (id (x) F) tau(a) = tau(a^(1)) (x) a^(2)
    bba = b.mixed_space("BBA")

    lhs = b.coact_at(1).compose(b.tau)
    rhs_cols = []
    for a in range(da):
        acc: Vec = {}
        for a1, a2, c in g.sweedler(a):
            for i, j, ct in b.tau_legs[a1]:
                viadd_term(acc, bba.flat_index((i, j, a2)), c * ct)
        rhs_cols.append(bba.project(acc))
    rhs = LinearMap(g.space, bba.space, rhs_cols, field)
    rep.add(map_equality_record("translation.coaction", "(id (x) F)tau", lhs, rhs,
                                witness_space=bba.space))

    # tau(ac) = l(c)l(a) (x) r(a)r(c)
    bad = None
    for a in range(da):
        for c_ in range(da):
            lhs_v = b.tau.apply(g.algebra.mul_basis(a, c_))
            acc: Vec = {}
            for u, v, cc in b.tau_legs[c_]:
                for x, y, ca in b.tau_legs[a]:
                    coeff = cc * ca
                    for p, cp in total.mul_basis(u, x).items():
                        for q, cq in total.mul_basis(y, v).items():
                            viadd_term(acc, b2.flat_index((p, q)), coeff * cp * cq)
            rhs_v = b2.project(acc)
            if lhs_v != rhs_v:
                bad = {"basis_pair": [g.space.labels[a], g.space.labels[c_]],
                       "lhs": b2.render(lhs_v), "rhs": b2.render(rhs_v)}
                break
        if bad:
            break
    _check(rep, "translation.mult", "tau(ac) = l(c)l(a) (x) r(a)r(c)", bad)

    # (F (x) id) tau(a) = l(a^(2)) (x) kappa(a^(1)) (x) r(a^(2)),
    # both sides carried into B (x)_V B (x) A by the free slot swap
    lhs = b.coact_at(0).compose(b.tau)
    rhs_cols = []
    for a in range(da):
        acc = {}
        for a1, a2, c in g.sweedler(a):
            kap = g.antipode.cols[a1]
            for x, y, ct in b.tau_legs[a2]:
                for k, ck in kap.items():
                    viadd_term(acc, bba.flat_index((x, y, k)), c * ct * ck)
        rhs_cols.append(bba.project(acc))
    rhs = LinearMap(g.space, bba.space, rhs_cols, field)
    rep.add(map_equality_record("translation.left-coaction", "(F (x) id)tau", lhs, rhs,
                                witness_space=bba.space))

    # tau(a) f = f tau(a) for f in a basis of V
    bad = None
    for fi, fvec in enumerate(b.base_vectors):
        lf = b.lmult_map(2, 0, fvec)
        rf = b.rmult_map(2, 1, fvec)
        for a in range(da):
            lv = lf.apply(b.tau.cols[a])
            rv = rf.apply(b.tau.cols[a])
            if lv != rv:
                bad = {"base_index": fi, "group_basis": g.space.labels[a],
                       "f.tau(a)": b2.render(lv), "tau(a).f": b2.render(rv)}
                break
        if bad:
            break
    _check(rep, "translation.centrality", "tf=ft", bad)

    # closed-form oracle over a point-trivial bundle
    if b.is_point_trivial():
        oracle_cols = []
        for a in range(da):
            acc = {}
            for a1, a2, c in g.sweedler(a):
                for k, ck in g.antipode.cols[a1].items():
                    viadd_term(acc, b2.flat_index((k, a2)), c * ck)
            oracle_cols.append(b2.project(acc))
        oracle = LinearMap(g.space, b2.space, oracle_cols, field)
        rep.add(map_equality_record("translation.point-oracle",
                                    "tau = kappa(a^(1)) (x) a^(2) over a point",
                                    b.tau, oracle, witness_space=b2.space))
    return rep


# -- Galois tower -----------------------------------------------------------------


def galois_tower(b: Bundle, n: int):
    """X_n: B_{n+1} -> B (x) A^n by the recursion, tau_n as its restricted
    inverse; verifies X_n tau_n = 1 (x) id on basis tuples.

    Returns (X_n, tau_n, report).
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
    # the rank comes from the elimination that x_n_inverse reuses
    rank = xn.solver().rank
    if xn.domain.dim != xn.codomain.dim or rank != xn.domain.dim:
        rep.add(failing("tower.bijective", f"X_{n} bijective",
                        {"rank": rank, "dim": xn.domain.dim}))
        return xn, None, rep
    rep.add(passing("tower.bijective", f"X_{n} bijective"))

    # tau_n via the product formula
    bn1 = b.b_space(n + 1)
    from itertools import product as iproduct
    tau_cols = {}
    a_tuples = list(iproduct(range(da), repeat=n))
    for at in a_tuples:
        # legs of tau(a_1) (x) ... (x) tau(a_n), middle products
        acc_terms = [((), one)]
        for pos, a in enumerate(at):
            nxt = []
            for tup, c in acc_terms:
                for x, y, ct in b.tau_legs[a]:
                    if pos == 0:
                        nxt.append((tup + (x, y), c * ct))
                    else:
                        # multiply trailing slot into x
                        base = tup[:-1]
                        yprev = tup[-1]
                        for k, ck in total.mul_basis(yprev, x).items():
                            nxt.append((base + (k, y), c * ct * ck))
            acc_terms = nxt
        acc: Vec = {}
        for tup, c in acc_terms:
            viadd_term(acc, bn1.flat_index(tup), c)
        tau_cols[at] = bn1.project(acc)

    # X_n tau_n (a_1 ... a_n) = 1 (x) a_1 (x) ... (x) a_n
    bad = None
    for at in a_tuples:
        got = xn.apply(tau_cols[at])
        want: Vec = {}
        for i, c in total.unit.items():
            viadd_term(want, target.flat_index((i,) + at), c)
        want = target.project(want)
        if got != want:
            bad = {"tuple": [b.group.space.labels[a] for a in at],
                   "lhs": target.render(got), "rhs": target.render(want)}
            break
    _check(rep, "tower.inverse", f"X_{n} tau_{n} = 1 (x) id", bad)

    # independent check: tau_n agrees with the restricted inverse of X_n
    xinv = b.x_n_inverse(n)
    bad = None
    for at in a_tuples:
        want: Vec = {}
        for i, c in total.unit.items():
            viadd_term(want, target.flat_index((i,) + at), c)
        direct = xinv.apply(target.project(want))
        if direct != tau_cols[at]:
            bad = {"tuple": [b.group.space.labels[a] for a in at]}
            break
    _check(rep, "tower.formula", f"tau_{n} product formula = X_{n}^-1 restriction", bad)

    tau_n = tau_cols
    return xn, tau_n, rep
