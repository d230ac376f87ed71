"""Balanced tensor products of based factor spaces.

A TProd is a tensor product of graded factor spaces, truncated to a total
degree budget, quotiented by middle-linearity relations x.f (x) y - x (x) f.y
over a coefficient algebra (the base algebra V in degree zero, the base
calculus Omega(M) in the graded setting).  Balancing happens on an adjacent
pair exactly when the left factor carries a right action and the right factor
a left action; factors without actions (e.g. trailing Hopf-algebra legs) stay
free.

The kernel is assembled from adjacent pairs.  A two-factor product emits one
relation per flat tuple and coefficient basis element.  The kernel of an
n-factor product is the sum over balanced pairs p of
F_<p (x) K(F_p, F_p+1) (x) F_>p+1, truncated at the budget, where K is the
kernel of the two-factor product (F_p, F_p+1): its RREF rows are built once
per distinct pair and placed beside every context tuple that fits.
QuotientSpace records the many single-entry rows (tuples that are zero in the
quotient) without elimination.

Operators between TProds are assembled per canonical basis element by lifting
to the flat tensor basis, rewriting tuples, and projecting back; the caller's
rewrite rule must descend to the quotient (all rules used here are module maps
in the balanced slots).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CycloField
from .errors import DegreeBudget, InputError
from .linalg import BasedSpace, LinearMap, QuotientSpace, Vec, viadd_term


@dataclass
class Factor:
    """One tensor slot: a based space with degrees and optional left/right
    actions of the coefficient algebra basis."""
    space: BasedSpace
    degrees: tuple
    lact: list | None = None  # list[LinearMap], one per coefficient basis element
    ract: list | None = None

    @classmethod
    def ungraded(cls, space: BasedSpace, lact=None, ract=None) -> "Factor":
        return cls(space, (0,) * space.dim, lact, ract)


class TProd:
    def __init__(self, field: CycloField, factors, coeff_degrees=None, budget=None,
                 name: str = ""):
        self.field = field
        self.factors = tuple(factors)
        self.coeff_degrees = coeff_degrees
        self.budget = budget
        self.name = name
        # tuples in lexicographic order with their total degrees; degrees
        # are non-negative, so a prefix over the budget is dropped with its tails
        tuples, tuple_degrees = [()], [0]
        for f in self.factors:
            d = f.degrees
            longer, longer_degrees = [], []
            for t, s in zip(tuples, tuple_degrees):
                for i in range(f.space.dim):
                    if budget is None or s + d[i] <= budget:
                        longer.append(t + (i,))
                        longer_degrees.append(s + d[i])
            tuples, tuple_degrees = longer, longer_degrees
        self.tuples = tuples
        self.tuple_index = {t: i for i, t in enumerate(tuples)}
        labels = tuple("|".join(f.space.labels[i] for f, i in zip(self.factors, t))
                       for t in tuples)
        self.flat = BasedSpace(labels)
        if len(self.factors) == 2:
            relations = self._pair_relations(tuple_degrees)
        else:
            relations = self._embedded_pair_kernels()
        self.quotient = QuotientSpace(self.flat, relations, field)
        self.space = self.quotient.space

    # -- construction ------------------------------------------------------

    def _balanced(self, p: int) -> bool:
        left, right = self.factors[p], self.factors[p + 1]
        if left.ract is None or right.lact is None:
            return False
        if len(left.ract) != len(right.lact):
            raise InputError("factor actions disagree on coefficient dimension")
        return True

    def _pair_relations(self, tuple_degrees):
        """Middle-linearity relations x.c (x) y - x (x) c.y of a two-factor
        product, one per tuple and coefficient basis element c;
        ``tuple_degrees[i]`` is the total degree of ``self.tuples[i]``."""
        if not self._balanced(0):
            return
        left, right = self.factors
        index = self.tuple_index
        for c in range(len(left.ract)):
            cdeg = 0 if self.coeff_degrees is None else self.coeff_degrees[c]
            r_cols = left.ract[c].cols
            neg_l_cols = [{k: -s for k, s in col.items()} for col in right.lact[c].cols]
            for (x, y), deg in zip(self.tuples, tuple_degrees):
                if self.budget is not None and deg + cdeg > self.budget:
                    continue
                xc, cy = r_cols[x], neg_l_cols[y]
                if not xc and not cy:
                    continue
                rel: Vec = {}
                for k, s in xc.items():
                    viadd_term(rel, index[(k, y)], s)
                for k, s in cy.items():
                    viadd_term(rel, index[(x, k)], s)
                if rel:
                    yield rel

    def _embedded_pair_kernels(self):
        """The kernel of an n-factor product is the sum over adjacent pairs p
        of F_<p (x) K(F_p, F_p+1) (x) F_>p+1, truncated at the budget, where
        K is the kernel of the two-factor product.  Each pair's RREF rows are
        homogeneous, so a row fits beside a context exactly when its pivot
        tuple does: every flat tuple whose pair part is a pivot yields one row.
        """
        kernels = {}  # identical adjacent pairs share one kernel
        index = self.tuple_index
        for p in range(len(self.factors) - 1):
            if not self._balanced(p):
                continue
            key = (id(self.factors[p]), id(self.factors[p + 1]))
            if key not in kernels:
                pair = TProd(self.field, self.factors[p:p + 2], self.coeff_degrees,
                             self.budget)
                kernels[key] = {pair.tuples[q]: [(pair.tuples[k], c) for k, c in row.items()]
                                for q, row in pair.quotient.relations.rows.items()}
            rows = kernels[key]
            for t in self.tuples:
                row = rows.get(t[p:p + 2])
                if row is not None:
                    head, tail = t[:p], t[p + 2:]
                    yield {index[head + pq + tail]: c for pq, c in row}

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    def degree(self, t) -> int:
        return sum(f.degrees[i] for f, i in zip(self.factors, t))

    def basis_degree(self, b: int) -> int:
        """Degree of a canonical basis element (its representative tuple)."""
        return self.degree(self.tuples[self.quotient.keep[b]])

    def degrees(self):
        return [self.basis_degree(b) for b in range(self.dim)]

    def project(self, flat: Vec) -> Vec:
        return self.quotient.project(flat)

    def lift(self, v: Vec) -> Vec:
        return self.quotient.lift(v)

    def flat_index(self, t) -> int:
        idx = self.tuple_index.get(t)
        if idx is None:
            raise DegreeBudget(f"tuple {t} exceeds the degree budget in {self.name or 'TProd'}")
        return idx

    def flat_vec(self, t) -> Vec:
        return {self.flat_index(t): self.field.one}

    def project_tuple(self, t) -> Vec:
        return self.project(self.flat_vec(t))

    def render(self, v: Vec) -> str:
        return self.space.render(v)

    def basis_vec(self, b: int) -> Vec:
        return {b: self.field.one}


def term_map(src: TProd, dst: TProd, fn, antilinear: bool = False,
             field: CycloField | None = None) -> LinearMap:
    """Build a map src.space -> dst.space from a flat term rewriter.

    ``fn(t)`` receives a source tuple and yields (tuple, Scalar) pairs over
    dst; the rewriter must descend to the balanced quotient.
    """
    field = field or src.field
    cols = []
    for b in range(src.dim):
        flat = src.lift(src.basis_vec(b))
        out: Vec = {}
        for fi, c in flat.items():
            if antilinear:
                c = c.conj()
            for t2, c2 in fn(src.tuples[fi]):
                if c2:
                    viadd_term(out, dst.flat_index(t2), c * c2)
        cols.append(dst.project(out))
    return LinearMap(src.space, dst.space, cols, field, antilinear)


def block_terms(sub: TProd, subtuple, m: LinearMap):
    """Apply a map defined on a sub-TProd to one flat subtuple: project the
    subtuple, apply, lift back to flat subtuples.  Yields (subtuple, Scalar)."""
    v = m.apply(sub.project_tuple(subtuple))
    flat = sub.lift(v)
    for fi, c in flat.items():
        yield sub.tuples[fi], c


def slot_apply(tp: TProd, v: Vec, slot: int, m: LinearMap) -> Vec:
    """Apply the one-factor map m to one slot of v; m must descend to the
    balanced quotient (a module map in the balanced slots does)."""
    out: Vec = {}
    for fi, c in tp.lift(v).items():
        t = tp.tuples[fi]
        for k, ck in m.cols[t[slot]].items():
            viadd_term(out, tp.flat_index(t[:slot] + (k,) + t[slot + 1:]), c * ck)
    return tp.project(out)


def unit_leg(src: TProd, dst: TProd, unit: Vec) -> LinearMap:
    """x -> x (x) unit, into dst, whose factors are src's and one free factor."""
    return term_map(src, dst, lambda t: ((t + (a,), c) for a, c in unit.items()))
