"""Based linear algebra over a cyclotomic field.

Vectors are sparse dicts {index: Scalar} with no explicit zeros.  Linear maps
store sparse columns.  All eliminations use reduced row echelon form with
lexicographic pivot order, so every derived basis (kernels, spans, quotient
bases, solutions) is canonical and byte-reproducible.
"""

from __future__ import annotations

import os
from functools import cached_property

from .cyclotomic import CycloField, Scalar
from .errors import InputError

Vec = dict  # {int: Scalar}

# when set, every successful solve is re-checked by substitution and every
# inverse by self o inverse == id
DEBUG_SOLVE = bool(os.environ.get("QPB_DEBUG_SOLVE"))


# -- sparse vector helpers ---------------------------------------------------

def _iadd(acc: Vec, b: Vec) -> None:
    """acc += b, in place."""
    for k, v in b.items():
        s = acc.get(k)
        if s is None:
            acc[k] = v
        else:
            s = s + v
            if s:
                acc[k] = s
            else:
                del acc[k]


def vadd(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    _iadd(out, b)
    return out


def vsub(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = -v
        else:
            s = s - v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def viadd(acc: Vec, c: Scalar, b: Vec) -> None:
    """acc += c*b, in place; c = 1 adds b's entries as they are."""
    field = c.field
    if c is field.zero:
        return
    if c is field.one:
        _iadd(acc, b)
        return
    for k, v in b.items():
        s = acc.get(k)
        if s is None:
            acc[k] = c * v
        else:
            s = s + c * v
            if s:
                acc[k] = s
            else:
                del acc[k]


def viadd_term(acc: Vec, k: int, c: Scalar) -> None:
    """acc[k] += c, in place; the one-term case of viadd."""
    if c is c.field.zero:
        return
    s = acc.get(k)
    if s is None:
        acc[k] = c
    else:
        s = s + c
        if s:
            acc[k] = s
        else:
            del acc[k]


def vscale(c: Scalar, a: Vec) -> Vec:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def vneg(a: Vec) -> Vec:
    return {k: -v for k, v in a.items()}


class BasedSpace:
    """A finite-dimensional space with an ordered basis of unique labels.

    ``BasedSpace.deferred`` makes a space that knows its dim at once and
    builds its labels, and the label -> index dict, the first time
    ``labels``, ``index`` or ``render`` is read.
    """

    __slots__ = ("dim", "_labels", "_index", "_make")

    def __init__(self, labels):
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise InputError("basis labels must be unique")
        self.dim = len(labels)
        self._labels, self._index, self._make = labels, index, None

    @classmethod
    def deferred(cls, dim: int, make_labels) -> "BasedSpace":
        """A space of dimension dim whose labels are ``make_labels()``, called
        on first read; they must be unique by construction, and are not
        checked."""
        space = cls.__new__(cls)
        space.dim = dim
        space._labels = space._index = None
        space._make = make_labels
        return space

    def _build(self) -> None:
        self._labels = labels = tuple(self._make())
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._make = None

    @property
    def labels(self) -> tuple:
        if self._labels is None:
            self._build()
        return self._labels

    def index(self, label: str) -> int:
        if self._index is None:
            self._build()
        return self._index[label]

    def render(self, v: Vec) -> str:
        """Human/report form '1/2*label+...' with indices ascending; '0' if empty."""
        if not v:
            return "0"
        parts = []
        for k in sorted(v):
            parts.append(f"{v[k].literal()}*{self.labels[k]}")
        return " + ".join(parts)

    def __eq__(self, other):
        return isinstance(other, BasedSpace) and self.labels == other.labels

    def __repr__(self):
        return f"BasedSpace(dim={self.dim})"


# "|" joins the factor labels of a TProd's flat tuple and "(x)" the two
# Gamma_inv labels in a Lambda^2 label w2[x(x)y]; a factor label holding
# either could collide with another tensor label
LABEL_SEPARATORS = ("|", "(x)")


# -- row echelon --------------------------------------------------------------

class Echelon:
    """Incremental row echelon form of a growing set of sparse rows, reduced
    on read.

    Pivot columns are chosen as the smallest index of each inserted residual
    and every stored row is normalised to a leading 1 at its pivot.  Between
    inserts the rows are only in echelon form (each row's minimum is its
    pivot); reading ``rows`` or ``basis()`` back-substitutes once, so what is
    read is the canonical RREF basis of the span regardless of insertion
    order.
    """

    def __init__(self, rref: dict[int, Vec] | None = None):
        # pivot column -> row with leading 1; ``rref`` seeds rows that are
        # already in RREF, and the Echelon takes ownership of them
        self._rows: dict[int, Vec] = {} if rref is None else rref
        self._dirty = False  # True while some row may hold another pivot column

    @property
    def rows(self) -> dict[int, Vec]:
        """pivot column -> RREF row, in insertion order."""
        if self._dirty:
            self._back_substitute()
        return self._rows

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after elimination against the stored rows.

        Every stored row has its minimum at its pivot, so eliminating at the
        current minimum only introduces larger indices; the minimum of the
        work vector increases monotonically and the loop terminates.  The
        residual has no entry at any pivot column, so it is the same whether
        or not the rows are reduced against each other.
        """
        rows = self._rows
        v = dict(v)
        out: Vec = {}
        while v:
            p = min(v)
            c = v.pop(p)
            row = rows.get(p)
            if row is None:
                out[p] = c
                continue
            c = -c
            for kk, vv in row.items():
                if kk == p:
                    continue
                s = v.get(kk)
                s = c * vv if s is None else s + c * vv
                if s:
                    v[kk] = s
                elif kk in v:
                    del v[kk]
        return out

    def add(self, v: Vec) -> bool:
        """Insert v's class; True if it enlarged the span."""
        r = self.reduce(v)
        if not r:
            return False
        self.insert(r)
        return True

    def insert(self, r: Vec) -> None:
        """Store r, a nonzero residual of ``reduce``, as the row at its
        smallest index, normalised to a leading 1 there; the Echelon takes
        ownership of r."""
        p = min(r)
        lead = r[p]
        if lead is not lead.field.one:
            inv = lead.inverse()
            r = {k: inv * c for k, c in r.items()}
        self._rows[p] = r
        self._dirty = True

    def _back_substitute(self) -> None:
        """Bring the rows to RREF in place, pivots in descending order.

        When row p is reached, every row with a larger pivot is already
        reduced, so it has no entry at another pivot column and one
        subtraction per pivot entry of row p clears them all.
        """
        rows = self._rows
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q in [k for k in row if k != p and k in rows]:
                c = -row.pop(q)
                for kk, vv in rows[q].items():
                    if kk == q:
                        continue
                    s = row.get(kk)
                    s = c * vv if s is None else s + c * vv
                    if s:
                        row[kk] = s
                    else:
                        del row[kk]
        self._dirty = False

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def basis(self) -> list[Vec]:
        """Canonical RREF basis, ordered by pivot column."""
        rows = self.rows
        return [dict(rows[p]) for p in sorted(rows)]


def span_basis(vectors) -> list[Vec]:
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.basis()


def fixed_points(f: "LinearMap", iota: "LinearMap") -> list[Vec]:
    """Canonical basis of {x : f(x) = iota(x)}; with iota(x) = x (x) 1 these
    are the invariants of a coaction f."""
    return span_basis(f.sub(iota).nullspace())


def spans_equal(vs, ws) -> bool:
    e1 = Echelon()
    for v in vs:
        e1.add(v)
    e2 = Echelon()
    for w in ws:
        e2.add(w)
    if e1.rank != e2.rank:
        return False
    return all(e1.contains(w) for w in e2.basis())


def first_outside(vs, ws) -> int | None:
    """Index of the first of vs outside span(ws), or None."""
    ech = Echelon()
    for w in ws:
        ech.add(w)
    return next((i for i, v in enumerate(vs) if not ech.contains(v)), None)


def intersect_spans(us, ws) -> list[Vec]:
    """Canonical basis of span(us) & span(ws)."""
    us = span_basis(us)
    ws = span_basis(ws)
    if not us or not ws:
        return []
    # nullspace of [U^T | -W^T] on stacked coefficients
    cols = [dict(u) for u in us] + [vneg(w) for w in ws]
    field = _field_of(cols)
    ker = nullspace_of_columns(cols, field)
    out = []
    for coeffs in ker:
        v: Vec = {}
        for j, c in coeffs.items():
            if j < len(us):
                viadd(v, c, us[j])
        if v:
            out.append(v)
    return span_basis(out)


def _field_of(vecs) -> CycloField:
    for v in vecs:
        for c in v.values():
            return c.field
    raise InputError("cannot infer field from all-zero data")


def nullspace_of_columns(cols: list[Vec], field: CycloField) -> list[Vec]:
    """Kernel basis of the map with the given columns (domain dim = len(cols)).

    Deterministic: one vector per column that depends on the earlier ones,
    in ascending order, with a 1 at that column and zeros at the other such
    columns (``PreparedSolve.kernel``).
    """
    return PreparedSolve(cols, _target_dim(cols), field).kernel


class LinearMap:
    """A based linear (or antilinear) map stored by sparse columns.

    Antilinear maps conjugate input coefficients: T(c*v) = conj(c)*T(v).
    The map owns the column list it is given, which must not change
    afterwards; a caller passing another map's columns copies them.
    """

    __slots__ = ("domain", "codomain", "cols", "antilinear", "field", "_solver")

    def __init__(self, domain: BasedSpace, codomain: BasedSpace, cols, field: CycloField,
                 antilinear: bool = False):
        if len(cols) != domain.dim:
            raise InputError("column count does not match domain dimension")
        self.domain = domain
        self.codomain = codomain
        self.cols = cols
        self.antilinear = antilinear
        self.field = field

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, space: BasedSpace, field: CycloField) -> "LinearMap":
        return cls(space, space, [{i: field.one} for i in range(space.dim)], field)

    @classmethod
    def zero(cls, domain: BasedSpace, codomain: BasedSpace, field: CycloField) -> "LinearMap":
        return cls(domain, codomain, [{} for _ in range(domain.dim)], field)

    # -- application / composition ---------------------------------------

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for j, c in v.items():
            if self.antilinear:
                c = c.conj()
            viadd(out, c, self.cols[j])
        return out

    def __call__(self, v: Vec) -> Vec:
        return self.apply(v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain.dim != self.domain.dim:
            raise InputError("composition dimension mismatch")
        cols = [self.apply(c) for c in other.cols]
        return LinearMap(other.domain, self.codomain, cols, self.field,
                         self.antilinear ^ other.antilinear)

    def add(self, other: "LinearMap") -> "LinearMap":
        if self.antilinear != other.antilinear:
            raise InputError("cannot add linear and antilinear maps")
        return LinearMap(self.domain, self.codomain,
                         [vadd(a, b) for a, b in zip(self.cols, other.cols)],
                         self.field, self.antilinear)

    def sub(self, other: "LinearMap") -> "LinearMap":
        if self.antilinear != other.antilinear:
            raise InputError("cannot subtract linear and antilinear maps")
        return LinearMap(self.domain, self.codomain,
                         [vsub(a, b) for a, b in zip(self.cols, other.cols)],
                         self.field, self.antilinear)

    def scale(self, c: Scalar) -> "LinearMap":
        return LinearMap(self.domain, self.codomain, [vscale(c, col) for col in self.cols],
                         self.field, self.antilinear)

    # -- solving -----------------------------------------------------------

    def solver(self) -> "PreparedSolve":
        s = getattr(self, "_solver", None)
        if s is None:
            s = PreparedSolve(self.cols, self.codomain.dim, self.field)
            self._solver = s
        return s

    def solve(self, b: Vec) -> Vec | None:
        """The solution of A x = b with every free variable zero, or None
        when b leaves the image; the free variables are the columns that
        depend on earlier ones (``PreparedSolve``).  Under QPB_DEBUG_SOLVE a
        solution is checked by substitution and a None by an independent
        elimination of the columns."""
        if b and (min(b) < 0 or max(b) >= self.codomain.dim):
            raise InputError("target vector outside codomain")
        sol = self.solver().solve(b)
        if DEBUG_SOLVE:
            if sol is None:
                image = Echelon()
                for col in self.cols:
                    image.add(col)
                assert not image.contains(b), "solve returned None for a target in the image"
            else:
                check: Vec = {}
                for j, c in sol.items():
                    viadd(check, c, self.cols[j])
                assert check == b, "solve substitution check failed"
        return sol

    def nullspace(self) -> list[Vec]:
        """Kernel basis as in ``nullspace_of_columns``; the vectors are
        shared with the prepared solve and must not be changed."""
        return list(self.solver().kernel)

    def rank(self) -> int:
        return self.solver().rank

    def is_bijective(self) -> bool:
        return (self.domain.dim == self.codomain.dim
                and self.rank() == self.domain.dim)

    def inverse(self) -> "LinearMap":
        """Two-sided inverse of a square bijective map.

        The image is everything, so its RREF rows are the unit vectors and
        the prepared solve's T_i, with A T_i = e_i, is column i of the
        inverse: no solves.  A linear inverse shares these dicts with the
        solver; neither changes them.
        """
        n = self.domain.dim
        if n != self.codomain.dim:
            raise InputError("inverse of non-square map")
        solver = self.solver()
        if solver.rank != n:
            raise InputError("map is not invertible")
        tracks = solver.tracks
        cols = [{p: c.conj() for p, c in tracks[i].items()} for i in range(n)] \
            if self.antilinear else [tracks[i] for i in range(n)]
        inv = LinearMap(self.codomain, self.domain, cols, self.field, self.antilinear)
        if DEBUG_SOLVE:
            assert self.compose(inv) == LinearMap.identity(self.codomain, self.field), \
                "inverse check failed"
        return inv

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.antilinear == other.antilinear
                and self.domain.dim == other.domain.dim
                and self.codomain.dim == other.codomain.dim
                and self.cols == other.cols)

    def __repr__(self):
        kind = "antilinear" if self.antilinear else "linear"
        return f"LinearMap({self.domain.dim}->{self.codomain.dim}, {kind})"


class PreparedSolve:
    """One column elimination, many right-hand sides.

    Column j of A goes into an ``Echelon`` together with its tracking unit
    vector e_j, placed after the ncod target entries.  A column whose
    residual has no target entry left depends on the earlier columns: it
    stores no row and its variable is free, and the tracking part of its
    residual, a 1 at j plus pivot variables, is its ``kernel`` vector.  The
    other columns are the ``pivots``, the first independent columns in
    ascending order.  The first solve or read of ``tracks`` brings the
    stored rows to RREF, and the row at target entry p splits into R_p, the
    RREF basis vector of the image with its leading 1 at p, and
    ``tracks[p]`` = T_p, the combination of pivot columns with A T_p = R_p.

    b lies in the image exactly when b = sum_p b_p R_p, and then
    x = sum_p b_p T_p is the one solution with every free variable zero.
    solve(b) visits only the rows at b's entries and returns None when b
    leaves the image.
    """

    def __init__(self, cols: list[Vec], ncod: int, field: CycloField):
        self.ncod = ncod
        one = field.one
        ech = Echelon()
        self.pivots: list[int] = []
        self.kernel: list[Vec] = []
        for j, col in enumerate(cols):
            r = ech.reduce({**col, ncod + j: one})
            if min(r) < ncod:
                ech.insert(r)
                self.pivots.append(j)
            else:
                self.kernel.append({k - ncod: c for k, c in r.items()})
        self.rank = len(self.pivots)
        self._ech = ech

    @cached_property
    def _rref(self) -> tuple[dict[int, Vec], dict[int, Vec]]:
        """(p -> -R_p off p, p -> T_p), split from the stored rows in RREF on
        first use, so a caller after the rank or the kernel alone does not
        back-substitute; the rows are freed as they are split."""
        ncod = self.ncod
        rests: dict[int, Vec] = {}
        tracks: dict[int, Vec] = {}
        rows = self._ech.rows
        for p in list(rows):
            rest, track = {}, {}
            for k, c in rows.pop(p).items():
                if k >= ncod:
                    track[k - ncod] = c
                elif k != p:
                    rest[k] = -c
            rests[p], tracks[p] = rest, track
        del self._ech
        return rests, tracks

    @property
    def tracks(self) -> dict[int, Vec]:
        return self._rref[1]

    def solve(self, b: Vec) -> Vec | None:
        rests, tracks = self._rref
        left: Vec = {}  # b - sum_p b_p R_p, which is zero at every pivot entry
        x: Vec = {}
        for r, c in b.items():
            track = tracks.get(r)
            if track is None:
                viadd_term(left, r, c)
            else:
                viadd(left, c, rests[r])
                viadd(x, c, track)
        return None if left else x


def solve_columns(cols: list[Vec], b: Vec, field: CycloField) -> Vec | None:
    """Solve sum_j x_j cols[j] = b as ``PreparedSolve`` does, every free
    variable zero; None when inconsistent."""
    return PreparedSolve(cols, _target_dim([*cols, b]), field).solve(b)


def _target_dim(vecs) -> int:
    """One more than the largest index of any of the vectors."""
    return max((r for v in vecs for r in v), default=-1) + 1


class QuotientSpace:
    """The ambient indices 0..ambient_dim-1 modulo the span of
    ``relations``, with canonical projection and section.

    Class b of the quotient is the ambient basis vector ``keep[b]``: the
    non-pivot indices of the RREF of all relations, in lexicographic pivot
    order.  That RREF has two parts, kept apart:

    * ``zero``, the set of indices whose RREF row is a unit vector.  Every
      single-entry relation starts it, with no row stored per index; a
      relation that reduces to one entry joins it.
    * ``rows``, pivot -> RREF row with at least two entries.  The multi-term
      relations are eliminated after their entries at the zero set are
      dropped, which leaves the pivots and the RREF unchanged; they alone go
      through ``Echelon.add``.

    The projection is kept sparse: a kept index is its own class, a zero
    index has none, and each multi-term pivot has the column
    ``{keep position: -entry}`` of its row.  These columns are the one
    stored form of the multi-term rows: a row's other entries are at kept
    indices, so ``rows`` rebuilds each row from its column when read.  The
    positions are one list, indexed by ambient index, holding ``keep``'s
    position b at ``keep[b]`` and None at every other index.  ``project``
    reads ambient indices and drops a zero index and the key None, a
    ``TProd``'s sink.  ``projection_cols`` writes the full column list out
    for a caller that wants a ``LinearMap``.  Labels belong to the caller:
    the quotient knows indices only.
    """

    def __init__(self, ambient_dim: int, relations, field: CycloField):
        self.ambient_dim = ambient_dim
        self.field = field
        zero = set()
        multi = []
        for r in relations:
            if r and (min(r) < 0 or max(r) >= ambient_dim):
                raise InputError("relation vector outside ambient space")
            if len(r) == 1:
                zero.update(r)
            elif r:
                multi.append(r)
        ech = Echelon()
        for r in multi:
            r = {k: c for k, c in r.items() if k not in zero}
            if r:
                ech.add(r)
        rows = ech.rows
        for p in [p for p, row in rows.items() if len(row) == 1]:
            del rows[p]
            zero.add(p)
        self.zero = zero
        keep = [i for i in range(ambient_dim) if i not in zero and i not in rows]
        self.keep = keep
        self._pos = pos = [None] * ambient_dim
        for b, k in enumerate(keep):
            pos[k] = b
        self._cols = {p: {pos[k]: -c for k, c in row.items() if k != p}
                      for p, row in rows.items()}

    @property
    def dim(self) -> int:
        return len(self.keep)

    @property
    def rows(self) -> dict[int, Vec]:
        """pivot -> multi-term RREF row, rebuilt from its projection column:
        the leading 1 at the pivot, then each kept index with its column
        entry negated, in the elimination's order."""
        one, keep = self.field.one, self.keep
        return {p: {p: one, **{keep[b]: -c for b, c in col.items()}}
                for p, col in self._cols.items()}

    def project(self, v: Vec) -> Vec:
        """The class of v, whose keys are ambient indices or the sink None: a
        kept index is its own class, a multi-term pivot contributes its
        column, and a zero index or the sink nothing."""
        out: Vec = {}
        pos, cols = self._pos, self._cols
        for i, c in v.items():
            if i is None:
                continue
            b = pos[i]
            if b is not None:
                viadd_term(out, b, c)
            else:
                col = cols.get(i)
                if col is not None:
                    viadd(out, c, col)
        return out

    def lift(self, v: Vec) -> Vec:
        """The section's columns are unit vectors, so lifting renames indices."""
        keep = self.keep
        return {keep[b]: c for b, c in v.items()}

    def contains(self, v: Vec) -> bool:
        """True if v lies in the span of the relations, i.e. its class is 0."""
        return not self.project(v)

    def projection_cols(self) -> list[Vec]:
        """Column i of the projection for every ambient index i, as fresh
        dicts a ``LinearMap`` can own."""
        one, cols = self.field.one, self._cols
        return [{b: one} if b is not None else dict(cols.get(i, {}))
                for i, b in enumerate(self._pos)]

    def verify(self) -> bool:
        """projection o section = id and kernel(projection) = span(relations),
        the latter read off an elimination independent of the columns."""
        cols = self.projection_cols()
        if any(cols[k] != {b: self.field.one} for b, k in enumerate(self.keep)):
            return False
        ker = nullspace_of_columns(cols, self.field)
        rows = self.rows
        if len(ker) != len(self.zero) + len(rows):
            return False
        rel = Echelon(rows)
        return all(not rel.reduce({k: c for k, c in v.items() if k not in self.zero})
                   for v in ker)
