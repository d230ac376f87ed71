import random
from fractions import Fraction
from pathlib import Path

import pytest

import qpb.braiding as braiding_mod
import qpb.linalg as linalg_mod
from qpb.bundle import build_bundle
from qpb.braiding import (
    braided_structure, classicality_report, sigma_m, verify_braiding_suite,
)
from qpb.calculus import build_total_calculus, trivial_base_calculus
from qpb.errors import DegreeBudget
from qpb.fodc import build_fodc, universal_ideal
from qpb.formats import BuildResult, load_file, run_suites
from qpb.gauge import classical_braided_hopf
from qpb.hopf import BUDGET
from qpb.linalg import LinearMap, viadd, viadd_term
from qpb.presets import functions_on_points, hopf_preset, point_bundle_data, trivial_bundle_data
from qpb.tensor import flat_legs, slot_terms, term_map

CASES = Path(__file__).resolve().parents[1] / "bench" / "cases"


def make_point(group, kind="function_algebra"):
    return build_bundle(*point_bundle_data(group, kind))


def make_trivial(group, points):
    return build_bundle(*trivial_bundle_data(group, points))


def test_sigma_on_units():
    b = make_point("Z2", "group_algebra")
    sigma_m(b)
    # sigma(1 (x) q) = q (x) 1 for every q
    one = b.field.one
    for q in range(b.total.dim):
        v = b.b2.project_tuple((0, q))  # basis 0 is the unit e of C[Z2]
        got = b.sigma.apply(v)
        assert got == b.b2.project_tuple((q, 0))


def test_sigma_z2_group_algebra_values():
    b = make_point("Z2", "group_algebra")
    sigma_m(b)
    # sigma(g (x) h) = ghg^-1 (x) g; for Z2: sigma(g (x) e) = e (x) g etc.
    assert b.sigma.apply(b.b2.project_tuple((1, 0))) == b.b2.project_tuple((0, 1))
    assert b.sigma.apply(b.b2.project_tuple((1, 1))) == b.b2.project_tuple((1, 1))


def test_sigma_function_algebra_is_flip_over_point():
    b = make_point("S3")
    sigma_m(b)
    for i in range(3):
        for j in range(3):
            assert b.sigma.apply(b.b2.project_tuple((i, j))) == \
                b.b2.project_tuple((j, i))


@pytest.mark.parametrize("mk", [
    lambda: make_point("Z3"),
    lambda: make_point("S3", "group_algebra"),
    lambda: make_trivial("Z2", 2),
])
def test_braiding_suite(mk):
    b = mk()
    rep = verify_braiding_suite(b)
    assert rep.ok, rep.to_text()


def test_braided_structure_b2():
    b = make_point("Z2")
    mult, star, rep = braided_structure(b, 2)
    assert rep.ok, rep.to_text()


def test_braided_structure_b3_small():
    b = make_point("Z2", "group_algebra")
    mult, star, rep = braided_structure(b, 3)
    assert rep.ok, rep.to_text()


def test_classicality_dichotomy():
    for group in ("Z2", "Z3", "S3"):
        classical, rep = classicality_report(make_point(group))
        assert classical, group
    classical, rep = classicality_report(make_point("S3", "group_algebra"))
    assert not classical
    recs = {r.identity_id: r for r in rep.records}
    assert recs["classicality.iv"].witness is not None
    assert "sigma^2" in recs["classicality.iv"].witness
    # trivial group: all four true
    classical, _ = classicality_report(make_point("trivial", "group_algebra"))
    assert classical


def test_classicality_trivial_bundle():
    classical, rep = classicality_report(make_trivial("Z2", 2))
    assert classical


def all_pairs_mult_n(braid, n):
    """Reference braided product on B_n: every pair of transported terms,
    multiplied factor by factor in B (x) A^{n-1}, with no pruning, and
    carried back by the elimination inverse of the matrix X_{n-1}."""
    b = braid.bundle
    xn = b.x_n(n - 1)
    xinv = xn.inverse()
    target = b.mixed_space("B" + "A" * (n - 1))
    one = b.field.one

    def mul(u, v):
        out = {}
        for fu, cu in target.lift(xn.apply(u)).items():
            tu = target.tuples[fu]
            for fv, cv in target.lift(xn.apply(v)).items():
                tv = target.tuples[fv]
                terms = [((), cu * cv)]
                for pos in range(n):
                    alg = b.total if pos == 0 else b.group.algebra
                    terms = [(tup + (k,), c * ck) for tup, c in terms
                             for k, ck in alg.mul_basis(tu[pos], tv[pos]).items()]
                for tup, c in terms:
                    viadd(out, c, {target.flat_index(tup): one})
        return xinv.apply(target.project(out))

    return mul


BUNDLES = pytest.mark.parametrize("mk, ns", [
    (lambda: make_point("Z2"), (3, 4)),                   # classical: pairs pruned
    (lambda: make_point("S3", "group_algebra"), (3,)),   # every factor product nonzero
    (lambda: make_trivial("Z2", 3), (3, 4)),             # V != C: balanced B_n
], ids=["z2-point", "s3-group-algebra", "z2-trivial-3pt"])


@BUNDLES
def test_mult_n_matches_all_pairs_product(mk, ns):
    b = mk()
    braid = sigma_m(b)
    one = b.field.one
    for n in ns:
        bn = b.power(n)
        fast, ref = braid.mult_n(n), all_pairs_mult_n(braid, n)
        assert braid.mult_n(n) is fast
        for i in range(bn.dim):
            for j in range(bn.dim):
                assert fast({i: one}, {j: one}) == ref({i: one}, {j: one}), (n, i, j)


def random_vec(rng, field, dim, terms):
    """A sum of up to ``terms`` distinct basis vectors of a space of
    dimension dim, with nonzero rational coefficients."""
    return {i: field.rational(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            for i in rng.sample(range(dim), min(terms, dim))}


def sigma_formula_mult(braid, u, v):
    """(p (x) b)(q (x) g) = p sigma(b (x) q) g on B_2, term by term over the
    flat legs of both operands, with sigma read off its matrix."""
    b = braid.bundle
    b2, mul = b.b2, b.total.mul_basis
    out = {}
    for (p, bb), cu in flat_legs(b2, u):
        for (q, g), cv in flat_legs(b2, v):
            for (x, y), cs in flat_legs(b2, b.sigma.apply(b2.project_tuple((bb, q)))):
                for xx, cx in mul(p, x).items():
                    for yy, cy in mul(y, g).items():
                        viadd_term(out, b2.flat_index((xx, yy)), cu * cv * cs * cx * cy)
    return b2.project(out)


@BUNDLES
def test_memoised_b2_product_is_the_sigma_formula(mk, ns):
    """Braided B_2 forms each product of basis elements once, its bilinear
    product equals the sigma formula on random sums, and its star is the
    braided star on B_2."""
    b = mk()
    braid = sigma_m(b)
    alg = braid.b2_algebra
    assert braid.b2_algebra is alg
    assert alg.star is braid.star_n(2)
    dim = b.b2.dim
    rng = random.Random(dim)
    for _ in range(40):
        u, v = (random_vec(rng, b.field, dim, rng.randint(1, 5)) for _ in range(2))
        assert braid.mult2(u, v) == sigma_formula_mult(braid, u, v)
    one = b.field.one
    for i in range(dim):
        for j in range(dim):
            assert alg.mul_basis(i, j) is alg.mul_basis(i, j)
            assert alg.mul_basis(i, j) == sigma_formula_mult(braid, {i: one}, {j: one})


@BUNDLES
def test_all_pairs_products_match_mul_carried(mk, ns):
    """TransportedProduct.products on a list of carried operands gives, pair
    by pair and row by row, what mul_carried gives."""
    b = mk()
    braid = sigma_m(b)
    for n in ns:
        mult, dim = braid.mult_n(n), b.power(n).dim
        rng = random.Random(dim)
        carried = [mult.carry(random_vec(rng, b.field, dim, rng.randint(1, 4)))
                   for _ in range(5)] + [[]]
        want = [((i, j), mult.mul_carried(carried[i], carried[j]))
                for i in range(len(carried)) for j in range(len(carried))]
        assert list(mult.products(carried)) == want


@pytest.mark.parametrize("n", [2, 3])
def test_all_pairs_products_keep_the_sign_and_the_degree_budget(n):
    """On W_n of the point calculus over C(Z2) with the universal FODC: the
    products of sums of every basis vector of degree one, where odd factors
    pass each other, equal mul_carried's.  Beside an operand of degree zero,
    an operand of top degree multiplies and is multiplied as mul_carried
    does, and its square raises DegreeBudget, as mul_carried does, after the
    products before it.  On W_2 that operand is tau of a top-degree form,
    whose square the support skips, so only the degree check can raise."""
    h = hopf_preset("Z2", "function_algebra")
    point = trivial_base_calculus(functions_on_points(1, h.field))
    tc = build_total_calculus(build_fodc(h, universal_ideal(h)), point)
    mult, degs = tc.transported_mult(n), tc.power(n).degrees()
    rng = random.Random(n)
    vecs = [random_vec(rng, tc.field, len(degs), len(degs)) for _ in range(3)]
    # on W_2, tau of a top-degree form; on W_3, a basis vector of top degree
    top = tc.tau.cols[tc.gamma.degrees.index(BUDGET)] if n == 2 \
        else {degs.index(BUDGET): tc.field.one}
    ops = [{i: c for i, c in v.items() if degs[i] == d} for v, d in zip(vecs, (1, 1, 0))]
    carried = [mult.carry(v) for v in ops + [top]]
    ones = carried[:2]
    assert list(mult.products(ones)) == \
        [((i, j), mult.mul_carried(ones[i], ones[j])) for i in range(2) for j in range(2)]
    got = mult.products(carried[2:])
    for i, j in [(0, 0), (0, 1), (1, 0)]:
        assert next(got) == ((i, j), mult.mul_carried(carried[2 + i], carried[2 + j]))
    with pytest.raises(DegreeBudget):
        mult.mul_carried(carried[3], carried[3])
    with pytest.raises(DegreeBudget):
        next(got)


def composed(maps):
    """The product of ``maps``, the first applied first."""
    out = maps[0]
    for m in maps[1:]:
        out = m.compose(out)
    return out


@BUNDLES
def test_braid_words_applied_to_vectors_match_the_composed_matrices(mk, ns):
    """word(n, slots) and star_word(n), applied to one vector at a time,
    equal the matrices of sigma on slots (p, p+1) of B_n, and of the flip
    star, built here and composed."""
    b = mk()
    braid = sigma_m(b)
    b2, star = b.b2, b.total.star.cols
    for n in (2,) + ns:
        bn = b.power(n)
        at = [term_map(bn, bn, slot_terms(p, b.sigma, b2, b2)) for p in range(n - 1)]

        def flip(t):
            out = [((), b.field.one)]
            for i in reversed(t):
                out = [(tup + (k,), c * ck) for tup, c in out for k, ck in star[i].items()]
            return out

        slots = [p for k in range(1, n) for p in range(k - 1, -1, -1)]
        star_n = composed([term_map(bn, bn, flip, antilinear=True)] + [at[p] for p in slots])
        twist = list(reversed(slots)) + [0]
        word_n = composed([at[p] for p in twist])
        word, star_word = braid.word(n, twist), braid.star_word(n)
        rng = random.Random(bn.dim)
        vecs = [{i: b.field.one} for i in range(bn.dim)]
        vecs += [random_vec(rng, b.field, bn.dim, 4) for _ in range(10)]
        vecs += [{k: c * b.field.zeta() for k, c in v.items()} for v in vecs[-3:]]
        for v in vecs:
            assert word(v) == word_n.apply(v)
            assert star_word(v) == star_n.apply(v)
        assert braid.star_n(n).cols == star_n.cols


def test_classical_braided_hopf_builds_no_map_on_b4(monkeypatch):
    """On classical-s3, the braided Hopf structure of L applies its braid
    words and products to vectors: no LinearMap whose domain is B_4 is
    built, whether by term_map, by compose or directly."""
    build = BuildResult(load_file(str(CASES / "classical-s3.json")))
    gc = build.gauge
    b4 = build.bundle.power(4).space
    on_b4 = []
    init = LinearMap.__init__

    def watched(self, domain, *args, **kwargs):
        if domain is b4:
            on_b4.append(domain)
        init(self, domain, *args, **kwargs)

    monkeypatch.setattr(linalg_mod.LinearMap, "__init__", watched)
    assert classical_braided_hopf(gc).report.ok
    assert on_b4 == []
    build.bundle.sigma_at(4, 0)  # a map on B_4, to see the watch fire
    assert on_b4 == [b4]


def test_the_braid_is_checked_once_per_bundle(monkeypatch):
    """sigma_m returns the bundle's one BraidOperator, and all of
    ``check --suite all`` on classical-s3 constructs one."""
    b = make_point("Z2")
    assert sigma_m(b) is sigma_m(b)
    made = []
    init = braiding_mod.BraidOperator.__init__

    def counted(self, bundle):
        made.append(bundle)
        init(self, bundle)

    monkeypatch.setattr(braiding_mod.BraidOperator, "__init__", counted)
    build = BuildResult(load_file(str(CASES / "classical-s3.json")))
    assert run_suites(build, ["all"]).ok
    assert made == [build.bundle]
