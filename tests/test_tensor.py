"""Balanced tensor products against their definition.

A TProd builds the kernel of an n-factor product from the RREF kernels of
its adjacent pairs.  The reference here writes out the definition instead:
one middle-linearity relation x.c (x) y - x (x) c.y per flat tuple, balanced
slot and coefficient basis element c, eliminated by plain ``Echelon.add``.
RREF is unique, so the kept tuples, the zero set and the projection must
agree exactly.
"""

from pathlib import Path
from types import SimpleNamespace

import pytest

from qpb import linalg, tensor
from qpb.formats import BuildResult, load_file, run_suites
from qpb.linalg import Echelon, viadd_term

CASES = Path(__file__).resolve().parents[1] / "bench" / "cases"


def per_tuple_relations(tp):
    """One relation per (flat tuple, balanced slot, coefficient), within the
    degree budget."""
    degrees = [tp.degree(t) for t in tp.tuples]
    index = tp.tuple_index
    for p in range(len(tp.factors) - 1):
        left, right = tp.factors[p], tp.factors[p + 1]
        if left.ract is None or right.lact is None:
            continue
        for c in range(len(left.ract)):
            cdeg = 0 if tp.coeff_degrees is None else tp.coeff_degrees[c]
            for t, deg in zip(tp.tuples, degrees):
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
    """(keep, projection columns) of the flat space modulo the per-tuple
    relations, each inserted with ``Echelon.add``."""
    ech = Echelon()
    for rel in per_tuple_relations(tp):
        ech.add(rel)
    rows = ech.rows
    keep = [i for i in range(len(tp.tuples)) if i not in rows]
    pos = {k: b for b, k in enumerate(keep)}
    one = tp.field.one
    cols = [{pos[i]: one} if i not in rows
            else {pos[k]: -c for k, c in rows[i].items() if k != i}
            for i in range(len(tp.tuples))]
    return keep, cols


def run_check(name):
    """Every TProd that building and checking a bench case constructs, the
    bundle's four-factor B_4, the ``Echelon.add`` calls made inside
    ``QuotientSpace.__init__`` during the check, the key of every pair
    kernel built and the number of flat-tuple labels built."""
    built, kernels = [], []
    adds, labels = [0], [0]
    inside = [False]
    tprod_init = tensor.TProd.__init__
    kernel_init = tensor.PairKernel.__init__
    quotient_init = linalg.QuotientSpace.__init__
    echelon_add = linalg.Echelon.add
    tuple_label = tensor.tuple_label

    def tprod(self, *args, **kwargs):
        tprod_init(self, *args, **kwargs)
        built.append(self)

    def kernel(self, field, left, right, coeff_degrees, budget):
        kernels.append((left, right, coeff_degrees and tuple(coeff_degrees), budget))
        kernel_init(self, field, left, right, coeff_degrees, budget)

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
        mp.setattr(tensor.PairKernel, "__init__", kernel)
        mp.setattr(linalg.QuotientSpace, "__init__", quotient)
        mp.setattr(linalg.Echelon, "add", add)
        mp.setattr(tensor, "tuple_label", label)
        build = BuildResult(load_file(str(CASES / f"{name}.json")))
        adds[0] = 0
        report = run_suites(build, ["all"])
        check_adds = adds[0]
        b4 = build.bundle.power(4)
    assert report.ok
    return SimpleNamespace(built=built, b4=b4, check_adds=check_adds, kernels=kernels,
                           labels=labels[0])


@pytest.fixture(scope="module")
def calculus_z3():
    return run_check("calculus-z3")


@pytest.mark.parametrize("name", ["calculus-z3", "z2-trivial-3pt"])
def test_pair_kernels_match_per_tuple_elimination(name, calculus_z3):
    """The zero set is the reference's empty columns, the sparse projection
    agrees with the reference on every other column, and the full column
    list written out on request is the reference's."""
    run = calculus_z3 if name == "calculus-z3" else run_check(name)
    assert len(run.b4.factors) == 4 and run.b4 in run.built
    # calculus-z3 also builds graded three-factor products over Omega(M)
    graded = any(len(tp.factors) == 3 and tp.coeff_degrees is not None
                 for tp in run.built)
    assert graded == (name == "calculus-z3")
    one = run.b4.field.one
    for tp in run.built:
        keep, cols = plain_quotient(tp)
        q = tp.quotient
        assert q.keep == keep, tp.name
        assert q.zero == {i for i, col in enumerate(cols) if not col}, tp.name
        for i, col in enumerate(cols):
            if i not in q.zero:
                assert tp.project({i: one}) == col, (tp.name, i)
        assert q.projection_cols() == cols, tp.name


def test_balanced_products_skip_dependent_relations(calculus_z3):
    """The per-tuple elimination makes 146,053 ``Echelon.add`` calls inside
    ``QuotientSpace.__init__`` during this check, two thirds of them
    dependent; the pair kernels' multi-term rows need far fewer."""
    assert calculus_z3.check_adds <= 15_000


def test_pair_kernels_and_labels_are_built_once(calculus_z3):
    """Each factor pair's kernel is built once per coefficient degrees and
    budget, whichever products share it, and only kept tuples are labelled:
    the labels built are the sum of the products' dims, not of their flat
    tuple counts."""
    keys = [(id(left), id(right), cdeg, budget)
            for left, right, cdeg, budget in calculus_z3.kernels]
    assert keys and len(set(keys)) == len(keys)
    built = calculus_z3.built
    dim_sum = sum(tp.dim for tp in built)
    assert calculus_z3.labels == dim_sum
    assert dim_sum < sum(len(tp.tuples) for tp in built)
