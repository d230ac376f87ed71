"""Balanced tensor products of based factor spaces.

A TProd is a tensor product of graded factor spaces, truncated to a total
degree budget, quotiented by middle-linearity relations x.f (x) y - x (x) f.y
over a coefficient algebra (the base algebra V in degree zero, the base
calculus Omega(M) in the graded setting).  Balancing happens on an adjacent
pair exactly when the left factor carries a right action and the right factor
a left action; factors without actions (e.g. trailing Hopf-algebra legs) stay
free.

The kernel is assembled from adjacent pairs.  A two-factor product emits one
relation per flat tuple and coefficient basis element; its RREF is the
``PairKernel`` of the pair, built once per (left factor, right factor,
coefficient degrees, budget) and cached on the left factor, so the named
two-factor products and every longer product over the same pair share it.
The kernel of an n-factor product is the sum over balanced pairs p of
F_<p (x) K(F_p, F_p+1) (x) F_>p+1, truncated at the budget, and it splits
into two parts:

* the zero set: a pair RREF row with a single entry says that pair tuple is
  zero, so a flat tuple is zero exactly when one of its balanced adjacent
  pairs is.  It is computed as a set of flat indices, with no row per tuple;
* the multi-term pair rows, placed beside every context tuple that fits, with
  their entries at zero tuples dropped.  Only these are eliminated.

RREF is unique and the zero rows are unit vectors, so this gives the same
kept tuples and projection as eliminating every relation.  The quotient keeps
its projection sparse (pivot -> column, no column for a zero tuple), and only
kept tuples get a "|"-joined label.

Operators between TProds are assembled per canonical basis element by lifting
to the flat tensor basis, rewriting tuples, and projecting back; the caller's
rewrite rule must descend to the quotient (all rules used here are module maps
in the balanced slots).
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

from .cyclotomic import CycloField
from .errors import DegreeBudget, InputError
from .linalg import BasedSpace, LinearMap, QuotientSpace, Vec, viadd_term


@dataclasses.dataclass(eq=False)
class Factor:
    """One tensor slot: a based space with degrees and optional left/right
    actions of the coefficient algebra basis.

    Factors compare and hash by identity.  ``pair_kernels`` caches the
    kernels of the two-factor products with this factor on the left, keyed
    by the right factor itself (so it stays alive), the coefficient degrees
    and the budget.  A factor's actions must not change once a product has
    used it.
    """
    space: BasedSpace
    degrees: tuple
    lact: list | None = None  # list[LinearMap], one per coefficient basis element
    ract: list | None = None
    pair_kernels: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    @classmethod
    def ungraded(cls, space: BasedSpace, lact=None, ract=None) -> "Factor":
        return cls(space, (0,) * space.dim, lact, ract)


def flat_tuples(factors, budget):
    """Flat tuples in lexicographic order with their total degrees; degrees
    are non-negative, so a prefix over the budget is dropped with its tails."""
    tuples, tuple_degrees = [()], [0]
    for f in factors:
        d = f.degrees
        longer, longer_degrees = [], []
        for t, s in zip(tuples, tuple_degrees):
            for i in range(f.space.dim):
                if budget is None or s + d[i] <= budget:
                    longer.append(t + (i,))
                    longer_degrees.append(s + d[i])
        tuples, tuple_degrees = longer, longer_degrees
    return tuples, tuple_degrees


def tuple_label(factors, t) -> str:
    """The label of a flat tuple: its factor labels joined by "|"."""
    return "|".join(f.space.labels[i] for f, i in zip(factors, t))


def balanced(left: Factor, right: Factor) -> bool:
    if left.ract is None or right.lact is None:
        return False
    if len(left.ract) != len(right.lact):
        raise InputError("factor actions disagree on coefficient dimension")
    return True


def pair_kernel(field: CycloField, left: Factor, right: Factor, coeff_degrees,
                budget) -> "PairKernel":
    """The cached kernel of left (x) right at these coefficient degrees and
    budget, built on first use."""
    key = (right, None if coeff_degrees is None else tuple(coeff_degrees), budget)
    kernel = left.pair_kernels.get(key)
    if kernel is None:
        kernel = left.pair_kernels[key] = PairKernel(field, left, right, coeff_degrees,
                                                     budget)
    return kernel


class PairKernel:
    """The two-factor product left (x) right: its flat tuples, their index,
    and its quotient by the middle-linearity relations.  ``zero_tuples`` and
    ``row_tuples`` give the kernel by pair tuple, for longer products: the
    pair tuples that are zero, and each multi-term pivot tuple's RREF row as
    (tuple, coefficient) pairs."""

    def __init__(self, field: CycloField, left: Factor, right: Factor, coeff_degrees,
                 budget):
        self.tuples, tuple_degrees = flat_tuples((left, right), budget)
        self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
        relations = ()
        if balanced(left, right):
            relations = self._relations(left, right, tuple_degrees, coeff_degrees, budget)
        self.quotient = QuotientSpace(len(self.tuples), relations, field)

    def _relations(self, left, right, tuple_degrees, coeff_degrees, budget):
        """x.c (x) y - x (x) c.y, one per tuple and coefficient basis element
        c; ``tuple_degrees[i]`` is the total degree of ``self.tuples[i]``."""
        index = self.tuple_index
        for c in range(len(left.ract)):
            cdeg = 0 if coeff_degrees is None else coeff_degrees[c]
            r_cols = left.ract[c].cols
            neg_l_cols = [{k: -s for k, s in col.items()} for col in right.lact[c].cols]
            for (x, y), deg in zip(self.tuples, tuple_degrees):
                if budget is not None and deg + cdeg > budget:
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

    @cached_property
    def zero_tuples(self) -> set:
        tuples = self.tuples
        return {tuples[i] for i in self.quotient.zero}

    @cached_property
    def row_tuples(self) -> dict:
        tuples = self.tuples
        return {tuples[p]: [(tuples[k], c) for k, c in row.items()]
                for p, row in self.quotient.rows.items()}


class TProd:
    def __init__(self, field: CycloField, factors, coeff_degrees=None, budget=None,
                 name: str = ""):
        self.field = field
        self.factors = tuple(factors)
        self.coeff_degrees = coeff_degrees
        self.budget = budget
        self.name = name
        if len(self.factors) == 2:
            pair = pair_kernel(field, *self.factors, coeff_degrees, budget)
            self.tuples, self.tuple_index = pair.tuples, pair.tuple_index
            self.quotient = pair.quotient
        else:
            self.tuples = flat_tuples(self.factors, budget)[0]
            self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
            zero, relations = self._embedded_pair_kernels()
            self.quotient = QuotientSpace(len(self.tuples), relations, field, zero)
        self.space = BasedSpace(tuple_label(self.factors, self.tuples[k])
                                for k in self.quotient.keep)

    # -- construction ------------------------------------------------------

    def _embedded_pair_kernels(self):
        """(zero set, multi-term relations) of an n-factor product.

        A flat tuple is zero when one of its balanced adjacent pairs is a
        zero pair tuple.  Each pair's multi-term RREF rows are homogeneous,
        so a row fits beside a context exactly when its pivot tuple does:
        every flat tuple whose pair part is a pivot yields one row, whose
        entries at zero tuples the quotient drops.
        """
        factors = self.factors
        pairs = [(p, pair_kernel(self.field, factors[p], factors[p + 1],
                                 self.coeff_degrees, self.budget))
                 for p in range(len(factors) - 1) if balanced(factors[p], factors[p + 1])]
        tuples, index = self.tuples, self.tuple_index
        zero = set()
        for p, kernel in pairs:
            zero_pairs = kernel.zero_tuples
            if zero_pairs:
                zero.update(i for i, t in enumerate(tuples) if t[p:p + 2] in zero_pairs)
        relations = []
        for p, kernel in pairs:
            rows = kernel.row_tuples
            if not rows:
                continue
            for t in tuples:
                row = rows.get(t[p:p + 2])
                if row is None:
                    continue
                head, tail = t[:p], t[p + 2:]
                relations.append({index[head + pq + tail]: c for pq, c in row})
        return zero, relations

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


def term_map(src: TProd, dst: TProd, fn, antilinear: bool = False,
             field: CycloField | None = None) -> LinearMap:
    """Build a map src.space -> dst.space from a flat term rewriter.

    ``fn(t)`` receives the kept tuple of each source basis element (its
    lift, with coefficient one) and yields (tuple, Scalar) pairs over dst;
    the rewriter must descend to the balanced quotient.
    """
    field = field or src.field
    cols = []
    tuples = src.tuples
    for k in src.quotient.keep:
        out: Vec = {}
        for t2, c2 in fn(tuples[k]):
            if c2:
                viadd_term(out, dst.flat_index(t2), c2)
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
