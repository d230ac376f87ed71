import operator
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from qpb.bundle import build_bundle, galois_tower, translation_identities
from qpb.calculus import build_total_calculus, trivial_base_calculus
from qpb.errors import BudgetExceeded, DegreeBudget, NotPrincipal
from qpb.fodc import build_fodc, universal_ideal
from qpb.formats import BuildResult, load_file, run_suites
from qpb.gauge import classical_braided_hopf
from qpb.hopf import BUDGET
from qpb.linalg import LinearMap, viadd_term
from qpb.presets import (
    functions_on_points, hopf_preset, point_bundle_data, trivial_bundle_data,
)
from qpb.tensor import apply_chain, chain_terms, slot_terms, term_map

CASES = Path(__file__).resolve().parents[1] / "bench" / "cases"


def make_point(group, kind="function_algebra"):
    return build_bundle(*point_bundle_data(group, kind))


def make_trivial(group, points):
    return build_bundle(*trivial_bundle_data(group, points))


def test_point_bundle_group_algebra_z2():
    b = make_point("Z2", "group_algebra")
    assert b.base_dim == 1
    assert b.b2.dim == 4
    # tau(g) = kappa(g) (x) g = g (x) g for the grouplike g (basis order e, g)
    i_g = 1
    assert b.tau.cols[i_g] == b.b2.project_tuple((i_g, i_g))


def test_trivial_bundle_dims():
    b = make_trivial("Z2", 2)
    assert b.base_dim == 2
    assert b.total.dim == 4
    assert b.b2.dim == 8  # dim B * dim A


def test_non_principal_rejected():
    from qpb.presets import hopf_preset
    h = hopf_preset("Z2", "function_algebra")
    # trivial coaction b -> b (x) 1 on a dim > 1 algebra
    f_legs = [[((i, j), c) for j, c in h.unit.items()] for i in range(h.dim)]
    with pytest.raises(NotPrincipal):
        build_bundle(h.algebra, h, f_legs)


@pytest.mark.parametrize("group,kind", [
    ("Z2", "group_algebra"),
    ("S3", "group_algebra"),
    ("Z3", "function_algebra"),
    ("S3", "function_algebra"),
])
def test_translation_identities_point(group, kind):
    rep = translation_identities(make_point(group, kind))
    assert rep.ok, rep.to_text()
    ids = {r.identity_id for r in rep.records}
    assert "translation.point-oracle" in ids


def test_translation_identities_trivial_bundle():
    rep = translation_identities(make_trivial("Z2", 2))
    assert rep.ok, rep.to_text()
    ids = {r.identity_id for r in rep.records}
    assert "translation.point-oracle" not in ids
    assert "translation.centrality" in ids


def test_galois_tower_z2():
    b = make_point("Z2", "group_algebra")
    xn, tau_n, rep = galois_tower(b, 2)
    assert rep.ok, rep.to_text()
    # the records are the translation suite's own
    assert [r.identity_id for r in rep.records] == [
        "translation.tower.bijective", "translation.tower.inverse", "translation.tower.formula"]
    # X_2 : B_3 <-> B (x) A (x) A, dim 8 both sides
    assert xn.domain.dim == 8 and xn.codomain.dim == 8


def test_galois_tower_base_case_and_budget():
    b = make_point("Z2", "group_algebra")
    x1, tau_1, rep = galois_tower(b, 1)
    assert rep.ok
    assert x1 is b.X
    with pytest.raises(BudgetExceeded):
        galois_tower(b, b.tower_budget + 1)


def test_tower_trivial_bundle():
    b = make_trivial("Z2", 2)
    xn, tau_n, rep = galois_tower(b, 2)
    assert rep.ok, rep.to_text()


def case_tower(case: str):
    """The bundle of a bench case, or its Omega(P) tower for calculus-z3."""
    build = BuildResult(load_file(str(CASES / f"{case}.json")))
    return build.total_calculus() if case == "calculus-z3" else build.bundle


def recursive_x_n(tower, n):
    """X_n as a matrix by the recursion X_{m+1} = (X (x) id^m)(id (x) X_m):
    X_{n-1} on the last n slots, then X on the first two."""
    if n == 1:
        return tower.X
    w, h = tower.letters
    terms = chain_terms(
        slot_terms(1, recursive_x_n(tower, n - 1), tower.power(n), tower.mixed_space(w + h * (n - 1))),
        slot_terms(0, tower.X, tower.power(2), tower.hopf_space(1)))
    return term_map(tower.power(n + 1), tower.mixed_space(w + h * n), terms)


@pytest.mark.parametrize("case, levels", [("classical-s3", (2, 3)), ("calculus-z3", (2,))])
def test_chains_match_the_tower_matrix_and_its_elimination_inverse(case, levels):
    """X_n and X_n^-1 as chains of X and X^-1 on one pair of slots agree, on
    every basis element, with the matrix X_n built by the recursion and with
    its inverse by elimination: on classical-s3's bundle (B_3 and B_4) and on
    calculus-z3's Omega(P) tower (W_3, 2,106 dims)."""
    tower = case_tower(case)
    one = tower.field.one
    for n in levels:
        xn = recursive_x_n(tower, n)
        assert tower.x_n(n) == xn
        xinv = xn.inverse()
        forward, back = tower.x_chain(n), tower.x_chain(n, inverse=True)
        assert len(forward) == len(back) == n
        assert xn.domain.dim == xn.codomain.dim > 100
        assert all(apply_chain(forward, {j: one}) == col for j, col in enumerate(xn.cols))
        assert all(apply_chain(back, {j: one}) == col for j, col in enumerate(xinv.cols))


def test_the_check_holds_no_tower_matrix_above_level_one():
    """After the whole calculus-z3 check, the Omega(P) tower carries its
    products along the chains of X_2 and X_2^-1 and holds no matrix of X_2
    or of its inverse."""
    build = BuildResult(load_file(str(CASES / "calculus-z3.json")))
    assert run_suites(build, ["all"]).ok
    tc = build.total_calculus()
    ops = tc._ops
    assert ("chain", 2, False) in ops and ("chain", 2, True) in ops
    assert ("X", 2) not in ops and ("Xinv", 2) not in ops
    w, h = tc.letters
    w3, whh = tc.power(3).space, tc.mixed_space(w + h * 2).space
    assert not [key for key, m in ops.items() if isinstance(m, LinearMap)
                and {id(m.domain), id(m.codomain)} == {id(w3), id(whh)}]


def by_lead_mult(tower, n):
    """Reference transported product on W_n: the right operand's terms
    indexed by their leading factor, and each candidate pair kept only when
    every later factor lies in the left term's support row, then multiplied
    factor by factor with its Koszul sign.  The operands are carried by the
    matrix X_{n-1}, built by the recursion, and back by its elimination
    inverse."""
    xn = recursive_x_n(tower, n - 1)
    xinv = xn.inverse()
    w, h = tower.letters
    target = tower.mixed_space(w + h * (n - 1))
    tuples, budget = target.tuples, tower.budget
    algs = (tower.algebra,) + (tower.hopf,) * (n - 1)
    supports = [alg.support for alg in algs]
    fdegs = (tower.factor.degrees,) + (tower.hopf_factor.degrees,) * (n - 1)
    degs, before = {}, {}
    for f, t in enumerate(tuples):
        ds = [d[i] for d, i in zip(fdegs, t)]
        if any(ds):
            degs[f], before[f] = ds, list(accumulate(ds[:-1], initial=0))

    def mul(u, v):
        tu_terms = target.lift(xn.apply(u))
        tv_terms = target.lift(xn.apply(v))
        if budget is not None and tu_terms and tv_terms and \
                max(sum(degs.get(f, ())) for f in tu_terms) \
                + max(sum(degs.get(f, ())) for f in tv_terms) > budget:
            raise DegreeBudget(f"product exceeds the degree budget in {w}_{n}")
        by_lead = {}
        for fv, cv in tv_terms.items():
            tv = tuples[fv]
            by_lead.setdefault(tv[0], []).append((tv, cv, before.get(fv)))
        out = {}
        for fu, cu in tu_terms.items():
            tu = tuples[fu]
            rows = [sup[i] for sup, i in zip(supports, tu)]
            du = degs.get(fu)
            for lead in rows[0]:
                for tv, cv, bv in by_lead.get(lead, ()):
                    if not all(j in row for j, row in zip(tv[1:], rows[1:])):
                        continue
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

    return mul


def random_sum(rng, field, indices, terms):
    """A sum of ``terms`` distinct basis vectors drawn from ``indices`` with
    nonzero rational coefficients."""
    return {i: field.rational(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            for i in rng.sample(indices, terms)}


def test_transported_mult_matches_by_lead_on_classical_phi_m_products():
    """The 36 products of classical.phiM-star-hom on classical-s3: j_LL4 of
    the phi_M columns, multi-term operands in B_4 over C(S3), where every
    support row is a singleton."""
    gc = BuildResult(load_file(str(CASES / "classical-s3.json"))).gauge
    bh = classical_braided_hopf(gc)
    tower = gc.bundle
    assert all(len(row) == 1 for row in tower.hopf.support)
    ops = [bh.j_ll4.apply(col) for col in gc.phi_m.cols]
    assert len(ops) == 6 and min(map(len, ops)) > 1
    fast, ref = tower.transported_mult(4), by_lead_mult(tower, 4)
    for i, u in enumerate(ops):
        for j, v in enumerate(ops):
            assert fast(u, v) == ref(u, v), (i, j)


def test_transported_mult_matches_by_lead_with_full_support_rows():
    """B_3 of the point bundle over C[S3]: every factor product is nonzero,
    so the trie walk visits every node."""
    tower = make_point("S3", "group_algebra")
    dim = tower.hopf.dim
    assert all(len(row) == dim for row in tower.hopf.support)
    assert all(len(row) == tower.algebra.dim for row in tower.algebra.support)
    fast, ref = tower.transported_mult(3), by_lead_mult(tower, 3)
    indices = list(range(tower.power(3).dim))
    rng = random.Random(3)
    for _ in range(30):
        u = random_sum(rng, tower.field, indices, rng.randint(2, 6))
        v = random_sum(rng, tower.field, indices, rng.randint(2, 6))
        assert fast(u, v) == ref(u, v)


@pytest.mark.parametrize("n", [2, 3])
def test_transported_mult_matches_by_lead_on_graded_sums(n):
    """W_n of the point calculus over C(Z2) with the universal FODC: sums of
    basis vectors of mixed degree, so odd factors pass each other and the
    Koszul sign matters; operands past the budget raise DegreeBudget on both
    sides."""
    h = hopf_preset("Z2", "function_algebra")
    point = trivial_base_calculus(functions_on_points(1, h.field))
    tc = build_total_calculus(build_fodc(h, universal_ideal(h)), point)
    fast, ref = tc.transported_mult(n), by_lead_mult(tc, n)
    degs = tc.power(n).degrees()
    # basis indices of degree at most d, for each d within the budget
    upto = [[i for i, di in enumerate(degs) if di <= d] for d in range(BUDGET + 1)]
    rng = random.Random(n)
    within = past = 0
    for _ in range(150):
        u, v = (random_sum(rng, tc.field, pool, rng.randint(1, 4))
                for pool in (rng.choice(upto), rng.choice(upto)))
        try:
            want = ref(u, v)
        except DegreeBudget:
            with pytest.raises(DegreeBudget):
                fast(u, v)
            past += 1
            continue
        assert fast(u, v) == want
        within += 1
    assert within > 20 and past > 20


def point_calculus_z2():
    h = hopf_preset("Z2", "function_algebra")
    return build_total_calculus(build_fodc(h, universal_ideal(h)),
                                trivial_base_calculus(functions_on_points(1, h.field)))


@pytest.mark.parametrize("make", [lambda: make_point("Z2", "group_algebra"),
                                  point_calculus_z2], ids=["bundle", "calculus"])
def test_varsigma_unit(make):
    """The sigma-cochain of the degree-zero tower (C[Z2] over a point) and of
    the graded one (the universal calculus of C(Z2) over a point): on the
    unit of A it is 1 (x) 1 (x) 1, and multiplying its last two slots leaves
    tau(kappa^-1(a)) for every basis element a."""
    tower = make()
    w3, unit = tower.power(3), tower.algebra.unit
    acc = {}
    for i, ci in unit.items():
        for j, cj in unit.items():
            for k, ck in unit.items():
                viadd_term(acc, w3.flat_index((i, j, k)), ci * cj * ck)
    total = {}
    for a, ca in tower.group.unit.items():
        for k, c in tower.varsigma(a).items():
            viadd_term(total, k, ca * c)
    assert total == w3.project(acc)
    for a in range(tower.group.dim):
        assert tower.mu_at(3, 1).apply(tower.varsigma(a)) == \
            tower.tau.apply(tower.kappa_inv.cols[a])
