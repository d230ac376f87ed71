"""Balanced tensor products against their definition.

A TProd builds the kernel of an n-factor product from the RREF kernels of
its adjacent pairs, and from three factors on it holds its support only.
The reference here writes out the definition instead, on every flat tuple
within the budget: one middle-linearity relation x.c (x) y - x (x) c.y per
flat tuple, balanced slot and coefficient basis element c, eliminated by
plain ``Echelon.add``.  RREF is unique, so the kept tuples and the class of
every flat tuple must agree exactly; a tuple outside the support has class 0.
"""

import gc
import hashlib
import json
import re
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from qpb import linalg, tensor
from qpb.cyclotomic import CycloField, Scalar
from qpb.errors import DegreeBudget, QpbError
from qpb.formats import BuildResult, load_file, run_suites
from qpb.linalg import Echelon, viadd_term

CASES = Path(__file__).resolve().parents[1] / "bench" / "cases"
EXPECTED = json.loads((CASES / "expected.json").read_text(encoding="utf-8"))


def per_tuple_relations(tp, tuples):
    """One relation per (flat tuple, balanced slot, coefficient), within the
    degree budget, over ``tuples``: every flat tuple of tp's factors."""
    degrees = [tp.degree(t) for t in tuples]
    index = {t: i for i, t in enumerate(tuples)}
    for p in range(len(tp.factors) - 1):
        left, right = tp.factors[p], tp.factors[p + 1]
        if left.ract is None or right.lact is None:
            continue
        for c in range(len(left.ract)):
            cdeg = 0 if tp.coeff_degrees is None else tp.coeff_degrees[c]
            for t, deg in zip(tuples, degrees):
                if tp.budget is not None and deg + cdeg > tp.budget:
                    continue
                rel = {}
                for k, s in left.ract[c].cols[t[p]].items():
                    viadd_term(rel, index[t[:p] + (k,) + t[p + 1:]], s)
                for k, s in right.lact[c].cols[t[p + 1]].items():
                    viadd_term(rel, index[t[:p + 1] + (k,) + t[p + 2:]], -s)
                if rel:
                    yield rel


def plain_quotient(tp):
    """(flat tuples, keep, projection columns) of the unpruned flat space of
    tp's factors modulo the per-tuple relations, each inserted with
    ``Echelon.add``."""
    tuples = tensor.flat_tuples(tp.factors, tp.budget)[0]
    ech = Echelon()
    for rel in per_tuple_relations(tp, tuples):
        ech.add(rel)
    rows = ech.rows
    keep = [i for i in range(len(tuples)) if i not in rows]
    pos = {k: b for b, k in enumerate(keep)}
    one = tp.field.one
    cols = [{pos[i]: one} if i not in rows
            else {pos[k]: -c for k, c in rows[i].items() if k != i}
            for i in range(len(tuples))]
    return tuples, keep, cols


def run_check(name):
    """Every TProd that building and checking a bench case constructs, the
    bundle's four-factor B_4, the ``Echelon.add`` calls made inside
    ``QuotientSpace.__init__`` during the check, the content key of every
    pair kernel built, the number of flat-tuple labels built, and
    ``failure``: None for a passing check, else what went wrong.  Layouts
    are shared by content with every live product, so the cycles of earlier
    builds are collected first."""
    gc.collect()
    built, kernels = [], []
    adds, labels = [0], [0]
    inside = [False]
    tprod_init = tensor.TProd.__init__
    layout_init = tensor.Layout.__init__
    quotient_init = linalg.QuotientSpace.__init__
    echelon_add = linalg.Echelon.add
    tuple_label = tensor.tuple_label

    def tprod(self, *args, **kwargs):
        tprod_init(self, *args, **kwargs)
        built.append(self)

    def layout(self, field, factors, coeff_degrees, budget):
        if len(factors) == 2:
            kernels.append((field, tuple(f.shape.content for f in factors),
                            coeff_degrees and tuple(coeff_degrees), budget))
        layout_init(self, field, factors, coeff_degrees, budget)

    def quotient(self, *args, **kwargs):
        outer, inside[0] = inside[0], True
        try:
            quotient_init(self, *args, **kwargs)
        finally:
            inside[0] = outer

    def add(self, v):
        adds[0] += inside[0]
        return echelon_add(self, v)

    def label(factors, t):
        labels[0] += 1
        return tuple_label(factors, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor.TProd, "__init__", tprod)
        mp.setattr(tensor.Layout, "__init__", layout)
        mp.setattr(linalg.QuotientSpace, "__init__", quotient)
        mp.setattr(linalg.Echelon, "add", add)
        mp.setattr(tensor, "tuple_label", label)
        # a failure is kept, so that the products built so far can still be
        # compared with the reference before it is reported
        failure, b4, check_adds = None, None, None
        try:
            build = BuildResult(load_file(str(CASES / f"{name}.json")))
            adds[0] = 0
            if not run_suites(build, ["all"]).ok:
                failure = "an identity failed"
            check_adds = adds[0]
            b4 = build.bundle.power(4)
        except QpbError as err:
            failure = err
    return SimpleNamespace(failure=failure, built=built, b4=b4, check_adds=check_adds,
                           kernels=kernels, labels=labels[0])


@pytest.fixture(scope="module")
def calculus_z3():
    return run_check("calculus-z3")


@pytest.mark.parametrize("name", ["calculus-z3", "z2-trivial-3pt", "z3-trivial-2pt",
                                  "classical-s3"])
def test_pair_kernels_match_per_tuple_elimination(name, request):
    """The kept tuples are the reference's, every flat tuple (in the support
    or not) projects to the reference's column, the zero set is the support's
    empty columns, and the full column list written out on request is the
    reference's on the support."""
    run = request.getfixturevalue("calculus_z3") if name == "calculus-z3" else run_check(name)
    for tp in run.built:
        tuples, keep, cols = plain_quotient(tp)
        q = tp.quotient
        assert [tp.tuples[k] for k in q.keep] == [tuples[i] for i in keep], tp.name
        for t, col in zip(tuples, cols):
            if t not in tp.tuple_index:
                assert col == {}, (tp.name, t)
            assert tp.project_tuple(t) == col, (tp.name, t)
        support = [cols[i] for i, t in enumerate(tuples) if t in tp.tuple_index]
        assert q.zero == {i for i, col in enumerate(support) if not col}, tp.name
        assert q.projection_cols() == support, tp.name
    assert run.failure is None, run.failure
    assert len(run.b4.factors) == 4 and run.b4 in run.built
    # calculus-z3 also builds graded three-factor products over Omega(M)
    graded = any(len(tp.factors) == 3 and tp.coeff_degrees is not None
                 for tp in run.built)
    assert graded == (name == "calculus-z3")


def test_three_factor_products_hold_their_support_only(calculus_z3):
    """calculus-z3's W_3 lists 3,132 support tuples of 12,528 flat ones; a
    zero tuple within the budget has the sink index, which ``project`` drops,
    and a tuple over the budget still raises DegreeBudget."""
    assert calculus_z3.failure is None, calculus_z3.failure
    w3 = next(tp for tp in calculus_z3.built if tp.name == "W_3")
    flat = tensor.flat_tuples(w3.factors, w3.budget)[0]
    assert (len(w3.tuples), len(flat)) == (3132, 12528)
    assert w3.dim < len(w3.tuples)
    zero = next(t for t in flat if t not in w3.tuple_index)
    assert w3.flat_index(zero) is None
    assert w3.project({w3.flat_index(zero): w3.field.one}) == {}
    assert w3.project_tuple(zero) == {}
    top = tuple(max(range(f.space.dim), key=f.degrees.__getitem__) for f in w3.factors)
    assert w3.degree(top) > w3.budget
    with pytest.raises(DegreeBudget):
        w3.flat_index(top)


def test_balanced_products_skip_dependent_relations(calculus_z3):
    """The per-tuple elimination makes 146,053 ``Echelon.add`` calls inside
    ``QuotientSpace.__init__`` during this check, two thirds of them
    dependent; the pair kernels' multi-term rows need far fewer."""
    assert calculus_z3.failure is None, calculus_z3.failure
    assert calculus_z3.check_adds <= 15_000


# sha256 of the JSON of each pair kernel's row_tuples, taken while
# QuotientSpace stored its multi-term rows beside the projection columns
ROW_TUPLES_SHA256 = {
    "W_2": "8b7e68d7a189c69fced0ccca60a4066bd9f29a0144ce4049beeec3ccab89bec7",
    "L^(x)L^": "8b7e68d7a189c69fced0ccca60a4066bd9f29a0144ce4049beeec3ccab89bec7",
}


def test_row_tuples_survive_the_one_stored_form(calculus_z3):
    """Layout.row_tuples reads the rows that QuotientSpace rebuilds from
    its projection columns; on calculus-z3's W_2 and L^ (x) L^, 126 rows
    each, they are the stored rows of before, order and coefficients
    included."""
    built = {tp.name: tp for tp in calculus_z3.built}
    for name, digest in ROW_TUPLES_SHA256.items():
        tp = built[name]
        rows = tensor.layout(tp.field, tp.factors, tp.coeff_degrees, tp.budget).row_tuples
        doc = [[list(p), [[list(t), str(c)] for t, c in row]] for p, row in rows.items()]
        assert len(rows) == 126, name
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, name


def test_pair_kernels_and_labels_are_built_once(calculus_z3, monkeypatch):
    """Each pair kernel is built once per content: field, the two factors'
    dims, degrees and actions, coefficient degrees and budget, whichever
    products and factors share it.  Labels are built on demand: the passing
    check builds none, and reading every product's labels afterwards builds
    one per kept tuple, the sum of the products' dims, not of their flat
    tuple counts."""
    assert calculus_z3.failure is None, calculus_z3.failure
    keys = calculus_z3.kernels
    assert keys and len(set(keys)) == len(keys)
    assert calculus_z3.labels == 0
    built = calculus_z3.built
    dim_sum = sum(tp.dim for tp in built)
    # Gamma^'s blocks A (x) Gamma_inv and A (x) Lambda^2 are 6 + 12 of it, and
    # the levels BBBA and BBAA that the chain of X_3 passes through 162 + 162
    assert dim_sum == 15_826 < sum(len(tp.tuples) for tp in built)
    tuple_label, count = tensor.tuple_label, [0]

    def label(factors, t):
        count[0] += 1
        return tuple_label(factors, t)

    monkeypatch.setattr(tensor, "tuple_label", label)
    for tp in built:
        assert tp.space.labels == tuple(tuple_label(tp.factors, tp.tuples[k])
                                        for k in tp.quotient.keep), tp.name
    assert count[0] == dim_sum


def test_products_of_equal_content_share_one_quotient(calculus_z3):
    """On calculus-z3, L^ is the same Omega(M)-bimodule as Omega(P), entry for
    entry, so L^'s products hold W_n's tuples, index and quotient; each keeps
    its own space and labels."""
    assert calculus_z3.failure is None, calculus_z3.failure
    built = {tp.name: tp for tp in calculus_z3.built}
    for w, lhat in (("W_2", "L^(x)L^"), ("W_2", "L^(x)Omega"), ("W_3", "L^(x)L^(x)L^"),
                    ("W_3", "L^(x)L^(x)Omega"), ("W_3", "L^(x)Omega(x)Omega")):
        w, lhat = built[w], built[lhat]
        assert lhat.factors[0] is not w.factors[0]
        assert lhat.factors[0].shape is w.factors[0].shape
        assert lhat.quotient is w.quotient
        assert lhat.tuples is w.tuples and lhat.tuple_index is w.tuple_index
        assert lhat.space is not w.space
        assert lhat.space.labels[0].startswith("L^")


def test_free_factors_over_two_fields_do_not_share():
    """Free factors of equal dims have one shape whatever the field, but their
    products over Q and Q(zeta_3) keep separate quotients, whose scalars are
    their own field's; over one field they share."""
    q, q3 = CycloField(1), CycloField(3)
    space = linalg.BasedSpace(("a", "b", "c"))
    left, right = tensor.Factor.ungraded(space), tensor.Factor.ungraded(space)
    assert left.shape is right.shape
    over_q = tensor.TProd(q, (left, right))
    over_q3 = tensor.TProd(q3, (left, right))
    assert over_q.quotient is not over_q3.quotient
    assert over_q.project_tuple((0, 1)) == {1: q.one}
    assert over_q3.project_tuple((0, 1)) == {1: q3.one}
    assert tensor.TProd(q3, (right, left)).quotient is over_q3.quotient


def test_a_layout_dies_with_any_of_its_factors():
    """A product's layout is cached on its first factor's shape, and it is
    dropped as soon as the shape of another factor dies, also while the
    first lives on."""
    q = CycloField(1)
    left = tensor.Factor.ungraded(linalg.BasedSpace(("a", "b", "c", "d", "e")))
    right = tensor.Factor.ungraded(linalg.BasedSpace(("x", "y", "z", "w", "v", "u", "t")))
    tp = tensor.TProd(q, (left, right))
    assert tensor.TProd(q, (left, right)).quotient is tp.quotient
    quotient = weakref.ref(tp.quotient)
    del tp, right
    gc.collect()
    assert quotient() is None
    assert not left.shape.layouts


def test_bimodules_of_unequal_content_do_not_share():
    """On s3-group-algebra, L^ and Omega(P) have equal dims but different
    degrees, so their shapes and their products' quotients differ."""
    tc = BuildResult(load_file(str(CASES / "s3-group-algebra.json"))).total_calculus()
    lhat, w = tc.lhat.l_factor, tc.factor
    assert lhat.space.dim == w.space.dim
    assert lhat.shape is not w.shape and lhat.shape.content != w.shape.content
    assert tc.lhat.t_ll.quotient is not tc.power(2).quotient
    assert tc.lhat.t_lll.quotient is not tc.power(3).quotient


def test_a_dropped_build_frees_its_shared_quotient():
    """The layout cache lives as long as the factors that use it: once a
    build is dropped and its cycles collected, the quotient that B_2 and
    L (x) L shared is freed, and no shape of its factors is left.  (The
    module's calculus-z3 build holds z3-trivial-2pt's bundle, so another
    case is dropped here.)"""
    gc.collect()
    build = BuildResult(load_file(str(CASES / "z2-trivial-3pt.json")))
    assert run_suites(build, ["all"]).ok
    b2, t_ll = build.bundle.b2, build.gauge.t_ll
    assert t_ll.quotient is b2.quotient
    quotient, shape = weakref.ref(b2.quotient), weakref.ref(b2.factors[0].shape)
    del build, b2, t_ll
    gc.collect()
    assert quotient() is None and shape() is None


PEAK_RUN = """
import contextlib, io, sys, tracemalloc
tracemalloc.start()
from qpb import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", sys.argv[1], "--suite", "all"])
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_calculus_z3_check_stays_within_its_traced_peak():
    """A guard on shared quotients: in a fresh interpreter, traced from
    before ``import qpb``, calculus-z3's ``--suite all`` check peaks at about
    10.4 MB; with a quotient rebuilt for each of L^'s products it peaked at
    13.5 MB."""
    proc = subprocess.run([sys.executable, "-c", PEAK_RUN, str(CASES / "calculus-z3.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak <= 11_500_000, peak


def test_embed_is_the_projected_elementary_tensor(calculus_z3, monkeypatch):
    """On unit vectors, ``embed`` of calculus-z3's W_3 is ``project_tuple``
    of the tuple, with no product by one: a zero tuple goes through the sink
    to 0, and a tuple over the budget raises DegreeBudget.  It is linear in
    each factor."""
    assert calculus_z3.failure is None, calculus_z3.failure
    w3 = next(tp for tp in calculus_z3.built if tp.name == "W_3")
    one = w3.field.one
    flat = tensor.flat_tuples(w3.factors, w3.budget)[0]
    zero = next(t for t in flat if t not in w3.tuple_index)
    times, unit_operands = Scalar.__mul__, []

    def watched(a, b):
        if a is one or b is one:
            unit_operands.append((a, b))
        return times(a, b)

    monkeypatch.setattr(Scalar, "__mul__", watched)
    for t in flat[::5] + [zero]:
        assert tensor.embed(w3, *({i: one} for i in t)) == w3.project_tuple(t), t
    assert tensor.embed(w3, *({i: one} for i in zero)) == {}
    assert unit_operands == []
    monkeypatch.undo()
    top = tuple(max(range(f.space.dim), key=f.degrees.__getitem__) for f in w3.factors)
    with pytest.raises(DegreeBudget):
        tensor.embed(w3, *({i: one} for i in top))
    two, three = w3.field.rational(2), w3.field.rational(3)
    t = next(t for t in flat if t in w3.tuple_index)
    u = next(u for u in w3.tuples if u[:2] == t[:2] and u != t)
    want = {}
    for k, c in w3.project_tuple(t).items():
        viadd_term(want, k, two * c)
    for k, c in w3.project_tuple(u).items():
        viadd_term(want, k, two * three * c)
    assert tensor.embed(w3, {t[0]: two}, {t[1]: one}, {t[2]: one, u[2]: three}) == want


def test_from_legs_inverts_flat_legs(calculus_z3):
    """``from_legs`` of a vector's flat terms is the vector, on every basis
    vector of calculus-z3's W_2 and W_3 and on a sum of two; a zero tuple
    within the budget goes to the sink and adds nothing, a zero coefficient
    is skipped even on a tuple over the budget, and a tuple over the budget
    with a nonzero coefficient raises DegreeBudget."""
    assert calculus_z3.failure is None, calculus_z3.failure
    for name in ("W_2", "W_3"):
        tp = next(tp for tp in calculus_z3.built if tp.name == name)
        one, zero = tp.field.one, tp.field.zero
        for b in range(tp.dim):
            v = {b: one}
            legs = tensor.flat_legs(tp, v)
            assert all(isinstance(t, tuple) and len(t) == len(tp.factors) for t, _ in legs)
            assert tensor.from_legs(tp, legs) == v, (name, b)
            assert tensor.from_legs(tp, iter(legs)) == v, (name, b)
        two = tp.field.rational(2)
        v = {0: two, tp.dim - 1: one}
        assert tensor.from_legs(tp, tensor.flat_legs(tp, v)) == v
    w3 = next(tp for tp in calculus_z3.built if tp.name == "W_3")
    one, zero = w3.field.one, w3.field.zero
    flat = tensor.flat_tuples(w3.factors, w3.budget)[0]
    zero_tuple = next(t for t in flat if t not in w3.tuple_index)
    kept = w3.tuples[w3.quotient.keep[0]]
    assert tensor.from_legs(w3, [(zero_tuple, one)]) == {}
    assert tensor.from_legs(w3, [(zero_tuple, one), (kept, one)]) == {0: one}
    top = tuple(max(range(f.space.dim), key=f.degrees.__getitem__) for f in w3.factors)
    assert w3.degree(top) > w3.budget
    assert tensor.from_legs(w3, [(top, zero)]) == {}
    with pytest.raises(DegreeBudget):
        tensor.from_legs(w3, [(kept, one), (top, one)])


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_no_sink_key_reaches_a_linear_map(name, monkeypatch):
    """The sink index of a zero tuple never escapes ``project``: every column
    key of every map that a bench case builds and checks is a basis index of
    the codomain."""
    init = linalg.LinearMap.__init__

    def checked(self, domain, codomain, cols, *args, **kwargs):
        for col in cols:
            assert all(type(k) is int and 0 <= k < codomain.dim for k in col), \
                (codomain.dim, sorted(col, key=repr))
        init(self, domain, codomain, cols, *args, **kwargs)

    monkeypatch.setattr(linalg.LinearMap, "__init__", checked)
    path = str(CASES / f"{name}.json")
    if EXPECTED[name]["exit"] == 2:
        with pytest.raises(QpbError):
            run_suites(BuildResult(load_file(path)), ["all"])
    else:
        assert run_suites(BuildResult(load_file(path)), ["all"]).ok


# -- maps on slots ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def z3_tower():
    """calculus-z3's graded tower, with its differential gauge coalgebra."""
    return BuildResult(load_file(str(CASES / "calculus-z3.json"))).total_calculus()


def spliced(tp, p, width, m, t):
    """The reference for ``slot_terms``: project the block of t at slots
    p..p+width-1 into the width-factor product tp, apply m, lift back into
    tp and splice each tuple in place of the block."""
    image = tp.lift(m.apply(tp.project_tuple(t[p:p + width])))
    return {t[:p] + tp.tuples[fi] + t[p + width:]: c for fi, c in image.items()}


@pytest.mark.parametrize("p", [0, 1])
def test_slot_terms_applies_sigma_on_each_pair_of_w3(z3_tower, p):
    tc = z3_tower
    w2, w3 = tc.power(2), tc.power(3)
    fn = tensor.slot_terms(p, tc.sigma, w2, w2)
    for t in w3.tuples:
        assert dict(fn(t)) == spliced(w2, p, 2, tc.sigma, t), t
    assert tensor.term_map(w3, w3, fn) == tc.sigma_at(3, p)


def test_slot_terms_splices_the_lifted_image_of_one_slot(z3_tower):
    """j_lb, l_incl on the L slot of L (x) W into W_3, is the embedding of
    each l (x) e_j, summed over the flat legs of l in W_2."""
    lhat, one = z3_tower.lhat, z3_tower.field.one
    w2, w3, t_lb = z3_tower.power(2), z3_tower.power(3), lhat.t_lb
    for b, k in enumerate(t_lb.quotient.keep):
        l, j = t_lb.tuples[k]
        want = {}
        for (x, y), c in tensor.flat_legs(w2, lhat.l_basis[l]):
            linalg.viadd(want, c, tensor.embed(w3, {x: one}, {y: one}, {j: one}))
        assert lhat.j_lb.cols[b] == want, (l, j)


def test_a_block_that_is_zero_goes_to_the_sink(z3_tower):
    """A block that is zero in the map's domain has no terms: a zero pair of
    W_2, and a zero flat tuple of W_3, where ``flat_index`` is the sink."""
    tc = z3_tower
    w2, w3 = tc.power(2), tc.power(3)
    pair = w2.tuples[min(w2.quotient.zero)]
    assert tensor.slot_terms(0, tc.sigma, w2, w2)(pair + (0,)) == []
    flat = tensor.flat_tuples(w3.factors, w3.budget)[0]
    zero = next(t for t in flat if t not in w3.tuple_index)
    assert w3.flat_index(zero) is None
    assert tensor.slot_terms(0, tc.sigma_at(3, 0), w3, w3)(zero) == []


def test_slot_terms_maps_each_distinct_block_once(z3_tower, monkeypatch):
    tc = z3_tower
    w2, w3 = tc.power(2), tc.power(3)
    apply, seen = linalg.LinearMap.apply, []

    def watched(m, v):
        if m is tc.sigma:
            seen.append(tuple(sorted(v)))
        return apply(m, v)

    monkeypatch.setattr(linalg.LinearMap, "apply", watched)
    tensor.term_map(w3, w3, tensor.slot_terms(1, tc.sigma, w2, w2))
    blocks = {w3.tuples[k][1:] for k in w3.quotient.keep}
    assert len(seen) == len(blocks) > 1


def test_chained_slot_maps_give_the_galois_tower(z3_tower):
    """X_2, one term map over X on slots 1.. and then X on slots 0-1, is
    (X (x) id)(id (x) X) built as two separate maps."""
    tc = z3_tower
    w2, wg, wwg, wgg = tc.power(2), tc.hopf_space(1), tc.hopf_space(2), tc.mixed_space("WGG")
    id_x = tensor.term_map(tc.power(3), wwg, tensor.slot_terms(1, tc.X, w2, wg))
    x_id = tensor.term_map(wwg, wgg, tensor.slot_terms(0, tc.X, w2, wg))
    assert tc.x_n(2) == x_id.compose(id_x)


# -- the flat layout stays here ----------------------------------------------------


LAYOUT = re.compile(r"\.tuples\[|\.flat_index\(|\.tuple_index\b|\.lift\(|\.project\(|\bdivmod\(")
# the two left: QuotientSpace.contains projecting onto its own quotient, and
# the lift of a Lambda^2 basis vector to Gamma_inv (x) Gamma_inv in fodc
LAYOUT_LINES = 2


def test_the_flat_layout_is_read_in_tensor_py():
    """A guard: the lines outside tensor.py that read a product's flat layout
    (its tuples, their index, a lift or a projection) or split an index with
    ``divmod`` do not grow, and the hand-written block helpers and the second
    product spaces stay deleted; maps on slots are built with ``slot_terms``,
    every free product of two spaces is a TProd, and Gamma^'s blocks are
    TProds with no index arithmetic."""
    src = Path(__file__).resolve().parents[1] / "src" / "qpb"
    lines = sum(bool(LAYOUT.search(line))
                for path in src.glob("*.py") if path.name != "tensor.py"
                for line in path.read_text(encoding="utf-8").splitlines())
    assert lines <= LAYOUT_LINES, lines
    assert not hasattr(tensor, "block_terms")
    assert not hasattr(linalg.LinearMap, "tensor")
    assert not hasattr(linalg, "tensor_labels")
    fodc_text = (src / "fodc.py").read_text(encoding="utf-8")
    assert "sq_space" not in fodc_text
    gamma = fodc_text[fodc_text.index("class GammaEnvelope"):]
    assert not re.search(r" // | % [a-z]|def (split|i1|i2)\b", gamma)
