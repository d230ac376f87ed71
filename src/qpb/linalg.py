"""Based linear algebra over a cyclotomic field.

Vectors are sparse dicts {index: Scalar} with no explicit zeros.  Linear maps
store sparse columns.  All eliminations use reduced row echelon form with
lexicographic pivot order, so every derived basis (kernels, spans, quotient
bases, solutions) is canonical and byte-reproducible.
"""

from __future__ import annotations

import os

from .cyclotomic import CycloField, Scalar
from .errors import InputError

Vec = dict  # {int: Scalar}

# when set, every successful solve is re-checked by substitution and every
# inverse by self o inverse == id
DEBUG_SOLVE = bool(os.environ.get("QPB_DEBUG_SOLVE"))


# -- sparse vector helpers ---------------------------------------------------

def vadd(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
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
    """acc += c*b, in place."""
    if not c:
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
    if not c:
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
    """A finite-dimensional space with an ordered basis of unique labels."""

    __slots__ = ("labels", "dim", "_index")

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InputError("basis labels must be unique")
        self.labels = labels
        self.dim = len(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}

    def index(self, label: str) -> int:
        return self._index[label]

    def basis_vec(self, i: int, field: CycloField) -> Vec:
        return {i: field.one}

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


def tensor_labels(a: BasedSpace, b: BasedSpace) -> BasedSpace:
    return BasedSpace(tuple(f"{x}(x){y}" for x in a.labels for y in b.labels))


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
        p = min(r)
        inv = r[p].inverse()
        self._rows[p] = {k: inv * c for k, c in r.items()}
        self._dirty = True
        return True

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

    Deterministic: RREF over the equations, free variables in ascending order,
    each kernel vector has a 1 at its free index.
    """
    # equations indexed by row: row r -> {j: cols[j][r]}
    rows: dict[int, Vec] = {}
    for j, col in enumerate(cols):
        for r, c in col.items():
            rows.setdefault(r, {})[j] = c
    ech = Echelon()
    for r in sorted(rows):
        ech.add(rows[r])
    pivset = set(ech.rows)
    out = []
    for f in range(len(cols)):
        if f in pivset:
            continue
        v = {f: field.one}
        for p, row in ech.rows.items():
            c = row.get(f)
            if c is not None:
                v[p] = -c
        out.append({k: c for k, c in v.items() if c})
    return out


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

    def tensor(self, other: "LinearMap") -> "LinearMap":
        if self.antilinear != other.antilinear:
            raise InputError("tensor factors must have equal antilinearity")
        dom = tensor_labels(self.domain, other.domain)
        cod = tensor_labels(self.codomain, other.codomain)
        bd = other.domain.dim
        bc = other.codomain.dim
        cols = []
        for i in range(self.domain.dim):
            ci = self.cols[i]
            for j in range(bd):
                cj = other.cols[j]
                col: Vec = {}
                for r1, c1 in ci.items():
                    for r2, c2 in cj.items():
                        col[r1 * bc + r2] = c1 * c2
                cols.append(col)
        return LinearMap(dom, cod, cols, self.field, self.antilinear)

    # -- solving -----------------------------------------------------------

    def solver(self) -> "PreparedSolve":
        s = getattr(self, "_solver", None)
        if s is None:
            s = PreparedSolve(self.cols, self.codomain.dim, self.field)
            self._solver = s
        return s

    def solve(self, b: Vec) -> Vec | None:
        """Deterministic preimage of b (free variables zero), or None."""
        if b and (min(b) < 0 or max(b) >= self.codomain.dim):
            raise InputError("target vector outside codomain")
        sol = self.solver().solve(b)
        if DEBUG_SOLVE and sol is not None:
            check: Vec = {}
            for j, c in sol.items():
                viadd(check, c, self.cols[j])
            assert check == b, "solve substitution check failed"
        return sol

    def nullspace(self) -> list[Vec]:
        return nullspace_of_columns(self.cols, self.field)

    def rank(self) -> int:
        ech = Echelon()
        for c in self.cols:
            ech.add(c)
        return ech.rank

    def is_bijective(self) -> bool:
        return (self.domain.dim == self.codomain.dim
                and self.rank() == self.domain.dim)

    def inverse(self) -> "LinearMap":
        """Two-sided inverse of a square bijective map.

        Entry i of the prepared solve holds the coefficient of b_i in every
        pivot variable, and a bijective map has no constraints, so it is
        column i of the inverse: no solves and no transposition.  A linear
        inverse shares these dicts with the solver; neither changes them.
        """
        n = self.domain.dim
        if n != self.codomain.dim:
            raise InputError("inverse of non-square map")
        solver = self.solver()
        if solver.rank != n:
            raise InputError("map is not invertible")
        cols = [{p: c.conj() for p, c in col.items()} for col in solver.entries] \
            if self.antilinear else list(solver.entries)
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

    def first_difference(self, other: "LinearMap"):
        """Index of the first differing column, or None if equal."""
        for j, (a, b) in enumerate(zip(self.cols, other.cols)):
            if a != b:
                return j
        return None

    def __repr__(self):
        kind = "antilinear" if self.antilinear else "linear"
        return f"LinearMap({self.domain.dim}->{self.codomain.dim}, {kind})"


class PreparedSolve:
    """One elimination, many right-hand sides.

    Rows [A | I] are fully reduced once.  Each reduced row has a pivot: a
    solution variable p < n, or, when its A part vanished, a column of the
    tracking region, and then its tracking part is a constraint that must
    annihilate b.  The tracking block is stored by target entry:
    ``entries[r]`` maps each pivot to the coefficient of b_r in its row, in
    pivot order.  solve(b) visits only the entries b touches; it returns None
    if a constraint total is nonzero, and otherwise the particular solution
    (free variables zero) with its keys in pivot order.
    """

    def __init__(self, cols: list[Vec], ncod: int, field: CycloField):
        self.n = len(cols)
        self.ncod = ncod
        self.field = field
        rows: dict[int, Vec] = {}
        for j, col in enumerate(cols):
            for r, c in col.items():
                rows.setdefault(r, {})[j] = c
        ech = Echelon()
        n = self.n
        for r in range(ncod):
            row = dict(rows.get(r, {}))
            row[n + r] = field.one
            ech.add(row)
        self.entries: list[Vec] = [{} for _ in range(ncod)]  # r -> {pivot: coeff}
        self.pivots = []
        rows = ech.rows  # freed row by row as it is transposed
        for p in list(rows):
            row = rows.pop(p)
            if p < n:
                self.pivots.append(p)
            for k, v in row.items():
                if k >= n:
                    self.entries[k - n][p] = v
        self.rank = len(self.pivots)
        self._position = {p: i for i, p in enumerate(self.pivots)}

    def solve(self, b: Vec) -> Vec | None:
        entries = self.entries
        acc: Vec = {}
        for r, v in b.items():
            if v:
                for p, c in entries[r].items():
                    s = acc.get(p)
                    acc[p] = c * v if s is None else s + c * v
        n = self.n
        if any(c for p, c in acc.items() if p >= n):
            return None
        return {p: acc[p] for p in sorted((p for p in acc if p < n),
                                          key=self._position.__getitem__) if acc[p]}


def solve_columns(cols: list[Vec], b: Vec, field: CycloField,
                  ncod: int | None = None) -> Vec | None:
    """Solve sum_j x_j cols[j] = b; lexicographically smallest pivot choice,
    free variables zero; None when inconsistent."""
    if ncod is None:
        ncod = 0
        for col in cols:
            for r in col:
                ncod = max(ncod, r + 1)
        for r in b:
            ncod = max(ncod, r + 1)
    return PreparedSolve(cols, ncod, field).solve(b)


class QuotientSpace:
    """ambient / span(relations), with canonical projection and section.

    The quotient basis consists of the ambient basis classes at the non-pivot
    indices of the RREF of the relations (lexicographic pivot order); the
    section maps each class to its representative ambient basis vector.

    A single-entry relation says that one ambient basis vector is zero: it is
    its own RREF row, so it is recorded without elimination, and the
    multi-term relations are eliminated after all of them.
    """

    def __init__(self, ambient: BasedSpace, relations, field: CycloField):
        self.ambient = ambient
        self.field = field
        units: dict[int, Vec] = {}
        multi = []
        for r in relations:
            if r and (min(r) < 0 or max(r) >= ambient.dim):
                raise InputError("relation vector outside ambient space")
            if len(r) == 1:
                (i,) = r
                units[i] = {i: field.one}
            elif r:
                multi.append(r)
        ech = Echelon(units)
        for r in multi:
            ech.add(r)
        self.relations = ech
        rows = ech.rows
        keep = [i for i in range(ambient.dim) if i not in rows]
        self.keep = keep
        self._pos = pos = {k: idx for idx, k in enumerate(keep)}
        self.space = BasedSpace(tuple(ambient.labels[i] for i in keep))
        proj_cols = []
        for i in range(ambient.dim):
            row = rows.get(i)
            if row is None:
                proj_cols.append({pos[i]: field.one})
            else:
                proj_cols.append({pos[k]: -c for k, c in row.items() if k != i})
        self.projection = LinearMap(ambient, self.space, proj_cols, field)
        self.section = LinearMap(self.space, ambient, [{k: field.one} for k in keep], field)

    @property
    def dim(self) -> int:
        return self.space.dim

    def project(self, v: Vec) -> Vec:
        """The class of v: a kept index is its own class, a pivot index
        contributes its projection column (empty for a zero class)."""
        out: Vec = {}
        pos, cols = self._pos, self.projection.cols
        for i, c in v.items():
            b = pos.get(i)
            if b is not None:
                viadd_term(out, b, c)
            elif cols[i]:
                viadd(out, c, cols[i])
        return out

    def lift(self, v: Vec) -> Vec:
        """The section's columns are unit vectors, so lifting renames indices."""
        keep = self.keep
        return {keep[b]: c for b, c in v.items()}

    def verify(self) -> bool:
        """projection o section = id and kernel(projection) = span(relations)."""
        comp = self.projection.compose(self.section)
        if comp != LinearMap.identity(self.space, self.field):
            return False
        ker = self.projection.nullspace()
        if len(ker) != self.relations.rank:
            return False
        return all(self.relations.contains(v) for v in ker)
