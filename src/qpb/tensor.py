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
``Layout`` of the pair.  A product's layout (its tuples, their index and
its quotient) is keyed by content, the field, each factor's dim, degrees
and actions, the coefficient degrees and the budget, so products of equal
content share one, such as W_2 and L^ (x) L^ when L^ and W are equal
bimodules, and every longer product over a pair shares the pair's.
The kernel of an n-factor product is the sum over balanced pairs p of
F_<p (x) K(F_p, F_p+1) (x) F_>p+1, truncated at the budget, and it splits
into two parts:

* the zero tuples: a pair RREF row with a single entry says that pair tuple
  is zero, so a flat tuple is zero exactly when one of its balanced adjacent
  pairs is.  A product of three or more factors holds its support only: its
  ``tuples``, ``tuple_index``, quotient and labels never see a zero tuple,
  because each prefix is extended only through the pair's ``adjacency``.
  ``flat_index`` of a zero tuple within the budget is the sink ``None``,
  which is no list index and which ``project`` drops; a tuple over the
  budget still raises DegreeBudget;
* the multi-term pair rows, placed beside every (head, tail) context of
  nonzero sub-tuples that fits, with their entries outside the support
  dropped.  Only these are eliminated.

RREF is unique and the zero rows are unit vectors, so this gives the same
kept tuples and projection as eliminating every relation on all flat tuples.
Two-factor products enumerate every flat tuple: they are where the zero
pairs are found.  The quotient keeps its projection sparse (pivot -> column,
no column for a zero tuple).

A product's labels, the "|"-joined labels of its kept tuples, are built on
demand: its space knows its dim at once and builds the labels the first time
they are read, for a witness or a rendered vector.  A passing check reads
none.  They are unique without a check: input labels hold no "|"
(``LABEL_SEPARATORS``), so all labels of one factor have the same number of
"|"-separated parts, and a product label splits back into its tuple.

A vector of a product is written and read one way: as flat terms, pairs
(t, c) of a flat tuple t and its coefficient c.  ``from_legs`` sums terms
into a vector (a zero coefficient is skipped, a zero tuple goes to the sink,
a tuple over the budget raises DegreeBudget) and projects it; ``flat_legs``
lists a vector's terms, lifted, and ``from_legs`` inverts it.  Term
rewriters, Sweedler legs and the legs of a coaction are such pairs too, and
every accumulator that builds a vector term by term feeds its terms, as a
generator, to ``from_legs``.

Operators between TProds are assembled per canonical basis element by lifting
to the flat tensor basis, rewriting terms, and projecting back; the caller's
rewrite rule must descend to the quotient (all rules used here are module maps
in the balanced slots).  Most maps of the paper act on a few slots and leave
the others alone, such as sigma on slots (p, p+1), Delta (x) id or X on
slots (p, p+1), one step of the Galois tower: X_n is X on slots (n-1, n),
then on (n-2, n-1), ..., then on (0, 1), and X_n^-1 is X^-1 on the same
pairs in the opposite order.  ``slot_terms`` is the one rewriter that
applies a map to a block of slots and splices its image in their place,
``chain_terms`` runs two rewriters in turn, ``term_map`` builds the map a
rewriter defines, ``apply_terms`` applies a rewriter to one vector and
``apply_chain`` applies such steps in turn, projecting after each, which is
how X_n and X_n^-1 act without a matrix.  So the flat layout
(``tuples``, ``tuple_index``, ``flat_index``, ``lift``, ``project``) is read
here, and a caller names slots, maps and terms.  ``embed`` builds the
elementary tensor of one vector per factor, such as 1 (x) 1 or x (x) y, the
one way to write one.  Free products of two spaces, such as A (x) A,
B (x) A, Gamma_inv (x) Gamma_inv and the blocks A (x) Gamma_inv and
A (x) Lambda^2 of Gamma^, are TProds too, so no other module computes a
product's flat index.
"""

from __future__ import annotations

import weakref
from functools import cached_property, partial

from .cyclotomic import CycloField
from .errors import DegreeBudget, InputError
from .linalg import BasedSpace, LinearMap, QuotientSpace, Vec, viadd_term


class Factor:
    """One tensor slot: a based space with degrees and optional left/right
    actions of the coefficient algebra basis (``lact``, ``ract``: one
    ``LinearMap`` per coefficient basis element, or None).

    ``shape`` is the factor's content: its dim, degrees and action columns.
    Factors of equal content hold the one ``Shape``, so products of equal
    content share one ``Layout`` (``layout``).  A factor's actions must not
    change once it is built.
    """

    __slots__ = ("space", "degrees", "lact", "ract", "shape")

    def __init__(self, space: BasedSpace, degrees, lact: list | None = None,
                 ract: list | None = None):
        self.space, self.degrees, self.lact, self.ract = space, degrees, lact, ract
        content = (space.dim, tuple(degrees), _action_content(lact), _action_content(ract))
        shape = _shapes.get(content)
        if shape is None:
            shape = _shapes[content] = Shape(content)
        self.shape = shape

    @classmethod
    def ungraded(cls, space: BasedSpace, lact=None, ract=None) -> "Factor":
        return cls(space, (0,) * space.dim, lact, ract)


def _action_content(maps):
    """The columns of an action as sorted (index, Scalar) tuples; scalars are
    interned, so equal tuples are equal actions."""
    if maps is None:
        return None
    return tuple(tuple(tuple(sorted(col.items())) for col in m.cols) for m in maps)


class Shape:
    """The content of a factor, shared by every factor of that content and
    found through ``_shapes``, which holds it weakly.  ``layouts`` holds the
    Layout of each product whose first factor has this shape, keyed by the
    field, the contents of the other factors, the coefficient degrees and the
    budget.  A key holds no shape, and an entry is dropped when a shape of
    its other factors dies, so a layout lives exactly as long as the shapes
    of its factors, and a dropped build frees its layouts by reference
    counting."""

    __slots__ = ("content", "layouts", "__weakref__")

    def __init__(self, content):
        self.content, self.layouts = content, {}


_shapes: "weakref.WeakValueDictionary[tuple, Shape]" = weakref.WeakValueDictionary()


def layout(field: CycloField, factors, coeff_degrees, budget) -> "Layout":
    """The shared Layout of the product of ``factors`` at these coefficient
    degrees and budget, built on first use."""
    first = factors[0].shape
    others = [f.shape for f in factors[1:]]
    key = (field, tuple(s.content for s in others),
           None if coeff_degrees is None else tuple(coeff_degrees), budget)
    entry = first.layouts.get(key)
    if entry is None:
        anchor = weakref.ref(first)

        def forget(_):
            shape = anchor()
            if shape is not None:
                shape.layouts.pop(key, None)

        guards = [weakref.ref(s, forget) for s in others if s is not first]
        entry = first.layouts[key] = (Layout(field, factors, coeff_degrees, budget), guards)
    return entry[0]


def flat_tuples(factors, budget, adjacency=None):
    """Flat tuples in lexicographic order with their total degrees; degrees
    are non-negative, so a prefix over the budget is dropped with its tails.

    ``adjacency``, if given, has one entry per adjacent pair: None for a free
    pair, or a balanced pair's ``Layout.adjacency``.  A prefix ending in
    x then grows only by the y listed for x, so the result is the support:
    the flat tuples none of whose balanced pairs is zero."""
    tuples, tuple_degrees = [()], [0]
    for p, f in enumerate(factors):
        d = f.degrees
        every = range(f.space.dim)
        adj = adjacency[p - 1] if adjacency and p else None
        longer, longer_degrees = [], []
        for t, s in zip(tuples, tuple_degrees):
            for i in every if adj is None else adj.get(t[-1], ()):
                if budget is None or s + d[i] <= budget:
                    longer.append(t + (i,))
                    longer_degrees.append(s + d[i])
        tuples, tuple_degrees = longer, longer_degrees
    return tuples, tuple_degrees


def tuple_label(factors, t) -> str:
    """The label of a flat tuple: its factor labels joined by "|"."""
    return "|".join(f.space.labels[i] for f, i in zip(factors, t))


def kept_labels(factors, tuples, keep) -> list[str]:
    """The labels of a product's basis: those of its kept tuples."""
    return [tuple_label(factors, tuples[k]) for k in keep]


def balanced(left: Factor, right: Factor) -> bool:
    if left.ract is None or right.lact is None:
        return False
    if len(left.ract) != len(right.lact):
        raise InputError("factor actions disagree on coefficient dimension")
    return True


class Layout:
    """The flat tuples of a product, their index and its quotient by the
    middle-linearity relations; it holds no factor.

    A two-factor layout lists all its flat tuples and eliminates one
    relation per tuple and coefficient basis element.  Its ``adjacency`` and
    ``row_tuples`` give the kernel by pair tuple, for longer products: each
    left index x -> the right indices y, ascending, with (x, y) within the
    budget and not zero, and each multi-term pivot tuple's RREF row as
    (tuple, coefficient) pairs.  A layout of one or of three or more factors
    holds the support only, from the layouts of its adjacent pairs."""

    def __init__(self, field: CycloField, factors, coeff_degrees, budget):
        if len(factors) == 2:
            self.tuples, tuple_degrees = flat_tuples(factors, budget)
            self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
            relations = ()
            if balanced(*factors):
                relations = self._relations(*factors, tuple_degrees, coeff_degrees, budget)
        else:
            self.tuples, self.tuple_index, relations = self._support_and_relations(
                field, factors, coeff_degrees, budget)
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

    @staticmethod
    def _support_and_relations(field, factors, coeff_degrees, budget):
        """(support tuples, their index, multi-term relations) of a product
        of one or of three or more factors.

        Each pair's multi-term RREF rows are homogeneous, so a row fits
        beside a (head, tail) context exactly when its pivot tuple does.  The
        heads and tails are the supports of the factors before and after the
        pair, and every context that fits yields one row, with its entries
        outside the support dropped.  A pivot that is zero through a
        neighbouring pair keeps its contexts: nothing shows that the rest of
        such a row is zero too.
        """
        kernels = [layout(field, (left, right), coeff_degrees, budget)
                   if balanced(left, right) else None
                   for left, right in zip(factors, factors[1:])]
        adjacency = [k and k.adjacency for k in kernels]
        tuples = flat_tuples(factors, budget, adjacency)[0]
        index = {t: i for i, t in enumerate(tuples)}
        relations = []
        for p, kernel in enumerate(kernels):
            rows = kernel and kernel.row_tuples
            if not rows:
                continue
            dl, dr = factors[p].degrees, factors[p + 1].degrees
            pivots = [(pq, dl[pq[0]] + dr[pq[1]], rows[pq]) for pq in sorted(rows)]
            heads = zip(*flat_tuples(factors[:p], budget, adjacency[:p - 1]))
            tails = list(zip(*flat_tuples(factors[p + 2:], budget, adjacency[p + 2:])))
            for head, hd in heads:
                for pq, pd, row in pivots:
                    for tail, td in tails:
                        if budget is not None and hd + pd + td > budget:
                            continue
                        rel = {}
                        for rq, c in row:
                            k = index.get(head + rq + tail)
                            if k is not None:
                                rel[k] = c
                        if rel:
                            relations.append(rel)
        return tuples, index, relations

    @cached_property
    def adjacency(self) -> dict:
        adj: dict = {}
        zero = self.quotient.zero
        for i, (x, y) in enumerate(self.tuples):
            if i not in zero:
                adj.setdefault(x, []).append(y)
        return adj

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
        lay = layout(field, self.factors, coeff_degrees, budget)
        self.tuples, self.tuple_index, self.quotient = lay.tuples, lay.tuple_index, lay.quotient
        self.space = BasedSpace.deferred(
            self.quotient.dim, partial(kept_labels, self.factors, self.tuples,
                                       self.quotient.keep))

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

    def flat_index(self, t) -> int | None:
        """The index of flat tuple t; None, the sink, for a zero tuple within
        the budget (only a product of three or more factors has one).
        ``project`` drops the sink, so a flat vector may carry it."""
        idx = self.tuple_index.get(t)
        if idx is None and self.budget is not None and self.degree(t) > self.budget:
            raise DegreeBudget(f"tuple {t} exceeds the degree budget in {self.name or 'TProd'}")
        return idx

    def flat_vec(self, t) -> Vec:
        return {self.flat_index(t): self.field.one}

    def project_tuple(self, t) -> Vec:
        return self.project(self.flat_vec(t))

    def render(self, v: Vec) -> str:
        return self.space.render(v)


def _times(a, b, one):
    """a * b, with no product taken when a or b is ``one``."""
    return b if a is one else a if b is one else a * b


def embed(tp: TProd, *vecs) -> Vec:
    """The elementary tensor of one vector per factor of tp, projected into
    tp by ``from_legs``; a coefficient that is one is not multiplied."""
    one = tp.field.one
    terms = [((), one)]
    for v in vecs:
        terms = [(t + (k,), _times(c, ck, one)) for t, c in terms for k, ck in v.items()]
    return from_legs(tp, terms)


def flat_legs(tp: TProd, v: Vec) -> list:
    """The flat terms (t, c) of v in tp, one per lifted tuple t with its
    coefficient c, for Sweedler-style loops; ``from_legs`` inverts it."""
    tuples, keep = tp.tuples, tp.quotient.keep
    return [(tuples[keep[b]], c) for b, c in v.items()]


def from_legs(tp: TProd, terms) -> Vec:
    """The vector of tp whose flat terms are ``terms``, (tuple, coefficient)
    pairs: their sum, projected into tp.  A zero coefficient is skipped, a
    zero tuple goes to the sink and a tuple over the budget raises
    DegreeBudget, as in ``flat_index``.  Every vector of a product that is
    written term by term is written here."""
    zero, get, out = tp.field.zero, tp.tuple_index.get, {}
    for t, c in terms:
        if c is zero:
            continue
        k = get(t)
        if k is None:
            k = tp.flat_index(t)
        # viadd_term, inlined: this loop runs once per term of every product
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return tp.project(out)


def term_map(src: TProd, dst: TProd, fn, antilinear: bool = False) -> LinearMap:
    """Build a map src.space -> dst.space from a flat term rewriter.

    ``fn(t)`` receives the kept tuple of each source basis element (its
    lift, with coefficient one) and yields (tuple, Scalar) pairs over dst;
    the rewriter must descend to the balanced quotient.
    """
    tuples = src.tuples
    cols = [from_legs(dst, fn(tuples[k])) for k in src.quotient.keep]
    return LinearMap(src.space, dst.space, cols, src.field, antilinear)


def apply_terms(src: TProd, dst: TProd, fn, v: Vec) -> Vec:
    """The flat term rewriter ``fn`` (as for ``term_map``) applied to one
    vector v of src, projected into dst; a coefficient one is not
    multiplied."""
    one = src.field.one
    return from_legs(dst, ((t, _times(c, ct, one)) for s, c in flat_legs(src, v)
                           for t, ct in fn(s)))


def apply_chain(steps, v: Vec) -> Vec:
    """The steps (src, dst, rewriter) applied to v in turn, each by
    ``apply_terms``, so every intermediate vector is projected."""
    for src, dst, fn in steps:
        v = apply_terms(src, dst, fn, v)
    return v


def slot_terms(p: int, m: LinearMap, m_src: TProd | None = None,
               m_dst: TProd | None = None):
    """The flat term rewriter, for ``term_map`` or ``apply_terms``, that
    applies m to the slots of a tuple from slot p on and splices m's image in
    their place.

    m's domain is one factor (``m_src`` None), read at slot p, or the TProd
    ``m_src`` spread over as many slots, whose block is projected into it (a
    block that is zero there goes to the sink, and has no terms).  On one
    factor, m may also be a function from a basis index to its image, such as
    a multiplication by a fixed element, computed for the blocks met.  m's
    codomain is one factor (``m_dst`` None) or the TProd ``m_dst``, whose
    lifted tuples are spliced in.  Each distinct block is mapped once, when
    it is first met.  m must descend to the balanced quotient, as a module
    map in the balanced slots does; it preserves degree and no factor passes
    another, so no Koszul sign enters.
    """
    width = 1 if m_src is None else len(m_src.factors)
    column = m.cols.__getitem__ if isinstance(m, LinearMap) else m
    images: dict = {}

    def image(block):
        v = column(block[0]) if m_src is None else m.apply(m_src.project_tuple(block))
        return [((k,), c) for k, c in v.items()] if m_dst is None else flat_legs(m_dst, v)

    def terms(t):
        block = t[p:p + width]
        img = images.get(block)
        if img is None:
            img = images[block] = image(block)
        head, tail = t[:p], t[p + width:]
        return [(head + b + tail, c) for b, c in img]

    return terms


def chain_terms(first, second):
    """The rewriter that applies ``first`` and then ``second`` to each tuple
    ``first`` yields; a coefficient one is not multiplied."""
    def terms(t):
        for t1, c1 in first(t):
            one = c1.field.one
            for t2, c2 in second(t1):
                yield t2, _times(c1, c2, one)

    return terms


def slot_apply(tp: TProd, v: Vec, slot: int, m) -> Vec:
    """Apply the one-factor map m (as in ``slot_terms``) to one slot of v; m
    must descend to the balanced quotient (a module map in the balanced slots
    does)."""
    return apply_terms(tp, tp, slot_terms(slot, m), v)


def unit_leg(src: TProd, dst: TProd, unit: Vec) -> LinearMap:
    """x -> x (x) unit, into dst, whose factors are src's and one free factor."""
    return term_map(src, dst, lambda t: ((t + (a,), c) for a, c in unit.items()))
