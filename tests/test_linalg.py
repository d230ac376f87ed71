from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qpb import linalg
from qpb.cyclotomic import CycloField
from qpb.errors import InputError
from qpb.linalg import (
    BasedSpace, Echelon, LinearMap, PreparedSolve, QuotientSpace, intersect_spans,
    nullspace_of_columns, span_basis, spans_equal, vadd, viadd,
)

F = CycloField(12)
ONE = F.one


def vec(*pairs):
    return {i: F.rational(c) for i, c in pairs if c}


def space(n, prefix="e"):
    return BasedSpace(tuple(f"{prefix}{i}" for i in range(n)))


def test_solve_identity():
    m = LinearMap.identity(space(3), F)
    assert m.solve(vec((0, 1))) == vec((0, 1))


def test_solve_underdetermined_pivot_rule():
    # 1x2 matrix [1 1], target [2] -> [2, 0]
    m = LinearMap(space(2), space(1), [vec((0, 1)), vec((0, 1))], F)
    assert m.solve(vec((0, 2))) == vec((0, 2))


def test_solve_inconsistent():
    m = LinearMap(space(2), space(2), [vec((0, 1), (1, 1)), vec((0, 1), (1, 1))], F)
    assert m.solve(vec((0, 1))) is None


def test_solve_rejects_bad_target():
    m = LinearMap.identity(space(2), F)
    with pytest.raises(InputError):
        m.solve({5: ONE})


def test_solution_check_by_substitution():
    cols = [vec((0, 2), (1, 1)), vec((0, 1)), vec((1, 3), (2, 1))]
    m = LinearMap(space(3), space(3), cols, F)
    b = vec((0, 7), (1, 5), (2, 2))
    x = m.solve(b)
    assert x is not None and m.apply(x) == b


def test_nullspace():
    # x + y = 0 has kernel spanned by (1, -1) after normalization at the free var
    cols = [vec((0, 1)), vec((0, 1))]
    ker = nullspace_of_columns(cols, F)
    assert len(ker) == 1
    m = LinearMap(space(2), space(1), cols, F)
    assert m.apply(ker[0]) == {}


def test_quotient_basic():
    q = QuotientSpace(2, [vec((0, 1), (1, -1))], F)
    assert q.dim == 1
    assert q.verify()
    # both classes agree
    assert q.project(vec((0, 1))) == q.project(vec((1, 1)))


def test_quotient_no_relations():
    amb = space(3)
    q = QuotientSpace(3, [], F)
    assert q.dim == 3
    assert LinearMap(amb, amb, q.projection_cols(), F) == LinearMap.identity(amb, F)
    assert q.verify()


def test_quotient_rejects_out_of_range():
    with pytest.raises(InputError):
        QuotientSpace(2, [{5: ONE}], F)


@pytest.mark.parametrize("zero", [{2}, {-1}, {0, 7}])
def test_quotient_rejects_zero_index_out_of_range(zero):
    """A zero index enters as a single-entry relation, with the same check."""
    with pytest.raises(InputError):
        QuotientSpace(2, [{i: ONE} for i in zero], F)


def test_echelon_membership_and_span():
    e = Echelon()
    assert e.add(vec((0, 1), (1, 2)))
    assert e.add(vec((1, 1)))
    assert not e.add(vec((0, 3), (1, 1)))
    assert e.rank == 2
    assert e.contains(vec((0, 5)))
    basis = span_basis([vec((0, 1), (1, 2)), vec((0, 2), (1, 4)), vec((2, 1))])
    assert len(basis) == 2
    assert spans_equal(basis, [vec((0, 1), (1, 2)), vec((2, 7))])


def test_intersection():
    u = [vec((0, 1)), vec((1, 1))]
    w = [vec((1, 1)), vec((2, 1))]
    both = intersect_spans(u, w)
    assert len(both) == 1 and both[0] == vec((1, 1))


def test_antilinear_composition_and_inverse():
    z = F.zeta()
    st = LinearMap(space(1), space(1), [{0: z}], F, antilinear=True)
    # st(c*e0) = conj(c)*z*e0; involutive iff z*conj(z) = 1
    comp = st.compose(st)
    assert not comp.antilinear
    assert comp == LinearMap.identity(space(1), F)
    inv = st.inverse()
    assert inv.compose(st) == LinearMap.identity(space(1), F)


def test_inverse_roundtrip():
    cols = [vec((0, 1), (1, 1)), vec((1, 1))]
    m = LinearMap(space(2), space(2), cols, F)
    inv = m.inverse()
    assert inv.compose(m) == LinearMap.identity(space(2), F)
    assert m.compose(inv) == LinearMap.identity(space(2), F)


class EagerEchelon:
    """Oracle: the eager algorithm, which back-substitutes every new row into
    all stored rows on insert, so its rows are RREF at all times."""

    def __init__(self):
        self.rows = {}

    def reduce(self, v):
        v = dict(v)
        out = {}
        while v:
            p = min(v)
            c = v.pop(p)
            row = self.rows.get(p)
            if row is None:
                out[p] = c
                continue
            for kk, vv in row.items():
                if kk == p:
                    continue
                s = v.get(kk)
                s = -c * vv if s is None else s - c * vv
                if s:
                    v[kk] = s
                elif kk in v:
                    del v[kk]
        return out

    def add(self, v):
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        inv = r[p].inverse()
        r = {k: inv * c for k, c in r.items()}
        for row in self.rows.values():
            c = row.get(p)
            if c is not None:
                for kk, vv in r.items():
                    if kk == p:
                        continue
                    s = row.get(kk)
                    s = -c * vv if s is None else s - c * vv
                    if s:
                        row[kk] = s
                    elif kk in row:
                        del row[kk]
                del row[p]
        self.rows[p] = r
        return True


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def sparse_vecs(field, dim, max_terms):
    entries = st.lists(small_fractions, min_size=1, max_size=field.degree).map(field.scalar)
    return st.dictionaries(st.integers(0, dim - 1), entries, max_size=max_terms).map(
        lambda d: {k: c for k, c in d.items() if c})


@st.composite
def echelon_scripts(draw):
    """A field, a list of operations and some query vectors.  An operation
    is a vector to add, a linear combination of two earlier vectors (so that
    some inserts do not enlarge the span), or None for a read of ``rows``."""
    field = CycloField(draw(st.sampled_from([1, 3])))
    vecs = sparse_vecs(field, 8, 5)
    ops = []
    added = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["vec", "vec", "combo", "read"]))
        if kind == "read":
            ops.append(None)
            continue
        if kind == "combo" and len(added) >= 2:
            i, j = draw(st.integers(0, len(added) - 1)), draw(st.integers(0, len(added) - 1))
            c = field.scalar(draw(st.lists(small_fractions, min_size=1, max_size=field.degree)))
            v = dict(added[j])
            for k, x in added[i].items():
                s = v.get(k, field.zero) + c * x
                if s:
                    v[k] = s
                else:
                    v.pop(k, None)
        else:
            v = draw(vecs)
        added.append(v)
        ops.append(v)
    return ops, draw(st.lists(vecs, max_size=4))


@settings(max_examples=80, deadline=None)
@given(echelon_scripts())
def test_deferred_echelon_matches_eager(script):
    ops, queries = script
    ech, eager = Echelon(), EagerEchelon()
    for v in ops:
        if v is None:
            # a read in the middle: dirty -> clean, and later adds dirty it again
            assert ech.rows == eager.rows
            assert list(ech.rows) == list(eager.rows)
            continue
        assert ech.add(v) == eager.add(v)
        assert ech.rank == len(eager.rows)
    assert ech.rows == eager.rows
    assert list(ech.rows) == list(eager.rows)
    assert ech.basis() == [eager.rows[p] for p in sorted(eager.rows)]
    assert ech.pivots == sorted(eager.rows)
    for w in queries + [v for v in ops if v is not None]:
        assert ech.contains(w) == (not eager.reduce(w))
        assert ech.reduce(w) == eager.reduce(w)
    # RREF is unique: the reversed insertion order gives the same basis
    rev = Echelon()
    for v in reversed([v for v in ops if v is not None]):
        rev.add(v)
    assert rev.basis() == ech.basis()


@st.composite
def quotient_scripts(draw):
    """A field, an ambient dimension, a script mixing single-entry and
    multi-term relations with zero indices (``int`` items, each to be fed as
    a unit relation) in random order, and some vectors to project."""
    field = CycloField(draw(st.sampled_from([1, 3])))
    dim = draw(st.integers(1, 8))
    nonzero = st.lists(small_fractions, min_size=1, max_size=field.degree).map(
        field.scalar).filter(bool)
    unit = st.builds(lambda i, c: {i: c}, st.integers(0, dim - 1), nonzero)
    items = st.one_of(unit, sparse_vecs(field, dim, 5), st.integers(0, dim - 1))
    script = draw(st.lists(items, max_size=12))
    return field, dim, script, draw(st.lists(sparse_vecs(field, dim, 5), max_size=4))


@settings(max_examples=80, deadline=None)
@given(quotient_scripts())
def test_quotient_matches_plain_elimination(script):
    field, dim, items, queries = script
    # an integer item is a zero index, fed as a single-entry relation
    relations = [r if isinstance(r, dict) else {r: field.one} for r in items]
    q = QuotientSpace(dim, relations, field)
    plain = Echelon()
    for r in relations:
        plain.add(r)
    # the full RREF: a unit row at each zero index, and the multi-term rows
    rref = {z: {z: field.one} for z in q.zero} | q.rows
    assert len(rref) == len(q.zero) + len(q.rows)
    assert q.zero == {p for p, row in plain.rows.items() if len(row) == 1}
    assert rref == plain.rows
    assert [rref[p] for p in sorted(rref)] == plain.basis()
    assert q.keep == [i for i in range(dim) if i not in plain.rows]
    # the rows rebuilt from the projection columns are the multi-term rows of
    # eliminating the relations off their unit entries, key order included
    units = {k for r in relations if len(r) == 1 for k in r}
    multi = Echelon()
    for r in relations:
        if len(r) > 1:
            multi.add({k: c for k, c in r.items() if k not in units})
    eliminated = [(p, list(row.items())) for p, row in multi.rows.items() if len(row) > 1]
    assert [(p, list(row.items())) for p, row in q.rows.items()] == eliminated
    assert q.verify()
    amb, quo = space(dim), space(q.dim, "c")
    projection = LinearMap(amb, quo, q.projection_cols(), field)
    section = LinearMap(quo, amb, [{k: field.one} for k in q.keep], field)
    for v in queries:
        cls = q.project(v)
        assert cls == projection.apply(v)
        assert q.lift(cls) == section.apply(cls)
        assert q.project(q.lift(cls)) == cls
        assert q.contains(v) == plain.contains(v)


class RowWalkSolve:
    """Reference prepared solve kept by rows: the tracking part of each
    reduced row of [A | I] whose pivot is a variable, and the constraints;
    each solve walks every constraint and then every variable row."""

    def __init__(self, cols, ncod, field):
        n = len(cols)
        rows = {}
        for j, col in enumerate(cols):
            for r, c in col.items():
                rows.setdefault(r, {})[j] = c
        ech = Echelon()
        for r in range(ncod):
            row = dict(rows.get(r, {}))
            row[n + r] = field.one
            ech.add(row)
        self.transform, self.constraints = {}, []
        for p, row in ech.rows.items():
            if p < n:
                self.transform[p] = {k - n: v for k, v in row.items() if k >= n}
            else:
                self.constraints.append({k - n: v for k, v in row.items()})

    @staticmethod
    def _total(row, b):
        acc = None
        for r, c in row.items():
            v = b.get(r)
            if v:
                acc = c * v if acc is None else acc + c * v
        return acc

    def solve(self, b):
        if any(self._total(con, b) for con in self.constraints):
            return None
        sol = {}
        for p, tr in self.transform.items():
            acc = self._total(tr, b)
            if acc:
                sol[p] = acc
        return sol


def row_rref_kernel(cols, field):
    """Reference kernel from the RREF of the equations (the rows of A): one
    vector per free variable, ascending, with a 1 there and minus the free
    variable's RREF entry at each pivot."""
    rows = {}
    for j, col in enumerate(cols):
        for r, c in col.items():
            rows.setdefault(r, {})[j] = c
    ech = Echelon()
    for r in sorted(rows):
        ech.add(rows[r])
    out = []
    for f in range(len(cols)):
        if f in ech.rows:
            continue
        v = {f: field.one}
        for p, row in ech.rows.items():
            c = row.get(f)
            if c is not None:
                v[p] = -c
        out.append(v)
    return out


def first_independent_columns(cols):
    """The columns outside the span of the columns before them, ascending."""
    ech = Echelon()
    return [j for j, col in enumerate(cols) if ech.add(col)]


def inverse_from_row_walk(m):
    """Column i of m's inverse is entry i of every variable row of the
    row-wise tracking block, conjugated for an antilinear m."""
    ref = RowWalkSolve(m.cols, m.codomain.dim, m.field)
    want = [{} for _ in range(m.codomain.dim)]
    for p, tr in ref.transform.items():
        for i, c in tr.items():
            want[i][p] = c.conj() if m.antilinear else c
    return want


@st.composite
def invertible_maps(draw):
    """P L U with P a permutation, L unit lower triangular and U upper
    triangular with a nonzero diagonal; linear or antilinear."""
    field = CycloField(draw(st.sampled_from([1, 3, 4])))
    n = draw(st.integers(1, 6))
    sp = space(n)
    scalars = st.lists(small_fractions, min_size=1, max_size=field.degree).map(field.scalar)
    nonzero = scalars.filter(bool)

    def triangular(upper):
        cols = []
        for j in range(n):
            col = {j: draw(nonzero) if upper else field.one}
            for i in (range(j) if upper else range(j + 1, n)):
                if draw(st.booleans()):
                    c = draw(scalars)
                    if c:
                        col[i] = c
            cols.append(col)
        return LinearMap(sp, sp, cols, field)

    perm = draw(st.permutations(range(n)))
    p = LinearMap(sp, sp, [{perm[j]: field.one} for j in range(n)], field)
    m = p.compose(triangular(False)).compose(triangular(True))
    return LinearMap(sp, sp, m.cols, field, antilinear=draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(invertible_maps())
def test_inverse_matches_columnwise_solves(m):
    inv = m.inverse()
    field, n = m.field, m.domain.dim
    solver = m.solver()
    for i in range(n):
        sol = solver.solve({i: field.one})
        if m.antilinear:
            sol = {k: c.conj() for k, c in sol.items()}
        assert inv.cols[i] == sol
    assert inv.antilinear == m.antilinear
    assert inv.cols == inverse_from_row_walk(m)
    assert solver.pivots == list(range(n)) and solver.kernel == []
    ident = LinearMap.identity(m.domain, field)
    assert m.compose(inv) == ident
    assert inv.compose(m) == ident


@st.composite
def solve_problems(draw):
    """Sparse columns over Q(zeta_3) in one of four shapes (tall with
    ncod >= 4n, square, wide, or any), some target entries covered by no
    column, optionally some columns replaced by combinations of earlier
    ones (rank deficient), and right-hand sides that are consistent,
    arbitrary (mostly inconsistent), touch an uncovered entry, are moved off
    a consistent one along one target entry, or carry explicit zeros."""
    field = CycloField(3)
    shape = draw(st.sampled_from(["tall", "square", "wide", "any"]))
    if shape == "tall":
        n = draw(st.integers(1, 4))
        ncod = draw(st.integers(4 * n, 4 * n + 4))
    elif shape == "square":
        n = ncod = draw(st.integers(1, 7))
    elif shape == "wide":
        ncod = draw(st.integers(1, 5))
        n = draw(st.integers(ncod + 1, 9))
    else:
        ncod, n = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    uncovered = draw(st.sets(st.integers(0, ncod - 1), max_size=2)) if shape != "square" \
        else set()
    cols = [{r: c for r, c in draw(sparse_vecs(field, ncod, 4)).items() if r not in uncovered}
            for _ in range(n)]
    nonzero = st.lists(small_fractions, min_size=1, max_size=2).map(field.scalar).filter(bool)
    if n >= 2 and draw(st.booleans()):
        for j in sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=3))):
            dep = {}
            for i in draw(st.sets(st.integers(0, j - 1), max_size=3)):
                viadd(dep, draw(nonzero), cols[i])
            cols[j] = dep
    consistent = {}
    for j, c in (draw(sparse_vecs(field, n, n)) if n else {}).items():
        viadd(consistent, c, cols[j])
    rhs = [consistent, draw(sparse_vecs(field, ncod, 5))]
    for r in uncovered:
        rhs.append({**consistent, r: draw(nonzero)})
    rhs.append(vadd(consistent, {draw(st.integers(0, ncod - 1)): draw(nonzero)}))
    zeros = draw(st.sets(st.integers(0, ncod - 1), max_size=3))
    rhs.append({**{r: field.zero for r in zeros}, **consistent})
    return field, ncod, cols, rhs


@settings(max_examples=80, deadline=None)
@given(solve_problems(), st.booleans())
def test_prepared_solve_matches_row_walk(problem, antilinear):
    field, ncod, cols, rhs = problem
    fast, ref = PreparedSolve(cols, ncod, field), RowWalkSolve(cols, ncod, field)
    assert fast.pivots == first_independent_columns(cols)
    assert set(fast.pivots) == set(ref.transform)
    assert fast.rank == len(ref.transform)
    for b in rhs:
        got, want = fast.solve(b), ref.solve(b)
        if want is None:
            assert got is None
        else:
            assert got == want
    # b = A x, with or without explicit zero entries, is solvable
    assert fast.solve(rhs[0]) is not None and fast.solve(rhs[-1]) is not None
    # a dependent column's tracking part is the row-RREF kernel vector
    assert fast.kernel == row_rref_kernel(cols, field)
    assert nullspace_of_columns(cols, field) == fast.kernel
    m = LinearMap(space(len(cols)), space(ncod), cols, field, antilinear)
    assert m.rank() == fast.rank and m.nullspace() == fast.kernel
    if len(cols) == ncod and fast.rank == ncod:
        assert m.inverse().cols == inverse_from_row_walk(m)


def test_prepared_solve_pivots_are_first_independent_columns():
    """Column 1 is twice column 0, so variable 1 is free: it gets the kernel
    vector e_1 - 2 e_0 and stays zero in every solution."""
    solver = PreparedSolve([vec((1, 1)), vec((1, 2)), vec((0, 1))], 2, F)
    assert solver.pivots == [0, 2] and solver.rank == 2
    assert solver.kernel == [vec((0, -2), (1, 1))]
    assert solver.solve(vec((0, 2), (1, 3))) == vec((0, 3), (2, 2))
    assert PreparedSolve([vec((1, 1)), vec((0, 1))], 2, F).pivots == [0, 1]
    assert PreparedSolve([vec((0, 1), (1, 1))], 3, F).solve(vec((0, 1), (2, 1))) is None


def test_debug_switch_checks_a_none_answer(monkeypatch):
    monkeypatch.setattr(linalg, "DEBUG_SOLVE", True)
    m = LinearMap(space(2), space(3), [vec((0, 1), (1, 1)), vec((2, 1))], F)
    assert m.solve(vec((0, 1))) is None  # a right None passes the check
    monkeypatch.setattr(PreparedSolve, "solve", lambda self, b: None)
    assert m.solve(vec((0, 1))) is None
    with pytest.raises(AssertionError, match="in the image"):
        m.solve(vec((0, 1), (1, 1)))


def test_inverse_rejects_singular_and_non_square(monkeypatch):
    monkeypatch.setattr(linalg, "DEBUG_SOLVE", True)
    singular = LinearMap(space(2), space(2), [vec((0, 1), (1, 2)), vec((0, 2), (1, 4))], F)
    with pytest.raises(InputError):
        singular.inverse()
    with pytest.raises(InputError):
        LinearMap(space(2), space(2), [vec((0, 1)), {}], F, antilinear=True).inverse()
    with pytest.raises(InputError):
        LinearMap(space(2), space(3), [vec((0, 1)), vec((1, 1))], F).inverse()
    with pytest.raises(InputError):
        LinearMap(space(3), space(2), [vec((0, 1)), vec((1, 1)), {}], F).inverse()
    # the debug switch checks self o inverse = id on an invertible map
    z = F.zeta()
    m = LinearMap(space(2), space(2), [{0: z, 1: ONE}, {1: F.rational(Fraction(-1, 3))}], F,
                  antilinear=True)
    assert m.compose(m.inverse()) == LinearMap.identity(space(2), F)
