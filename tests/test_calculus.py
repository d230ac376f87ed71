import hashlib
import json
from pathlib import Path

import pytest

from qpb.bundle import build_bundle
from qpb.calculus import (
    OmegaP, TotalCalculus, build_total_calculus, differential_suite,
    trivial_base_calculus, universal_base_calculus,
)
from qpb.cyclotomic import CycloField
from qpb.errors import DegreeBudget, ValidationFailed
from qpb.formats import BuildResult, load_file
from qpb.fodc import (
    GammaEnvelope, build_envelope2, build_fodc, universal_ideal, zero_ideal,
)
from qpb.hopf import BUDGET, graded_tensor_mul
from qpb.linalg import LinearMap, viadd_term
from qpb.presets import (
    functions_on_points, generate_example, hopf_preset, serialize_example, trivial_bundle,
)
from qpb.tensor import Factor, TProd, embed


def point_calculus(group, kind="function_algebra", ideal="universal"):
    h = hopf_preset(group, kind)
    point = trivial_base_calculus(functions_on_points(1, h.field))
    ib = universal_ideal(h) if ideal == "universal" else zero_ideal(h)
    return build_total_calculus(build_fodc(h, ib), point)


def two_point_calculus(group, kind="function_algebra"):
    h = hopf_preset(group, kind)
    base = universal_base_calculus(2, h.field)
    return build_total_calculus(build_fodc(h, universal_ideal(h)), base)


def degree0_bundle(h, points=1):
    """The product bundle C(X) (x) A: its B is Omega^0(P), basis for basis."""
    total, f_legs = trivial_bundle(h, points)
    return build_bundle(total, h, f_legs)


def test_universal_base_calculus_two_points():
    F = CycloField(1)
    m = universal_base_calculus(2, F)
    # dims n(n-1)^k: 2, 2, 2
    from collections import Counter
    assert Counter(m.degrees) == {0: 2, 1: 2, 2: 2}


def test_point_base_cz2_dims():
    tc = point_calculus("Z2")
    # Omega(P) = Gamma^: dims (2, 2, 2)
    from collections import Counter
    assert Counter(tc.omega.degrees) == {0: 2, 1: 2, 2: 2}
    # the F^-fixed forms are Omega(M) = C(pt)
    assert len(tc.omega_m_fixed()) == 1
    # hor(P) = B over a point with the trivial base calculus
    assert len(tc.filtration_basis(0)) == 2


def test_differential_suite_point_cz2():
    tc = point_calculus("Z2")
    rep = differential_suite(tc)
    assert rep.ok, rep.to_text()


def test_differential_suite_point_cz3():
    tc = point_calculus("Z3")
    rep = differential_suite(tc)
    assert rep.ok, rep.to_text()


def test_differential_suite_two_point_cz2():
    tc = two_point_calculus("Z2")
    rep = differential_suite(tc)
    assert rep.ok, rep.to_text()


def test_differential_suite_zero_calculus():
    tc = point_calculus("Z2", ideal="zero")
    rep = differential_suite(tc)
    assert rep.ok, rep.to_text()
    assert any(r.status == "vacuous" for r in rep.records)


def test_lhat_deg0_matches_gauge_coalgebra():
    tc = point_calculus("Z2")
    from qpb.gauge import build_gauge_coalgebra
    gc = build_gauge_coalgebra(degree0_bundle(tc.group))
    rep = differential_suite(tc, gauge_coalgebra=gc)
    assert rep.ok, rep.to_text()
    recs = {r.identity_id for r in rep.records}
    assert "diff.Lhat-deg0" in recs


@pytest.mark.parametrize("group, kind, points", [
    ("Z2", "function_algebra", 1),
    ("Z3", "function_algebra", 2),
    ("S3", "group_algebra", 1),
])
def test_zero_calculus_lhat_is_l(group, kind, points):
    """With the zero FODC and the trivial base calculus every degree is zero,
    so L^ must be L exactly: the same basis and the same Delta, phi_M and
    eps_M columns."""
    from qpb.gauge import build_gauge_coalgebra
    h = hopf_preset(group, kind)
    base = trivial_base_calculus(functions_on_points(points, h.field))
    tc = build_total_calculus(build_fodc(h, zero_ideal(h)), base)
    gc = build_gauge_coalgebra(degree0_bundle(h, points))
    lhat = tc.lhat
    assert lhat.l_basis == gc.l_basis
    assert lhat.delta.cols == gc.delta.cols
    assert lhat.phi_m.cols == gc.phi_m.cols
    assert lhat.eps_m.cols == gc.eps_m.cols


@pytest.mark.parametrize("group, kind, points", [
    ("Z2", "function_algebra", 1),
    ("Z3", "function_algebra", 2),
    ("S3", "group_algebra", 1),
])
def test_zero_calculus_tower_is_bundle_tower(group, kind, points):
    """With the zero FODC and the trivial base calculus every degree is zero,
    so the graded tower of Omega(P) must be the bundle's tower column for
    column: X, tau, sigma^+-1, sigma on both slot pairs of W_3, mu, the flip
    star, F_2 and X_2, and the transported product on W_3."""
    h = hopf_preset(group, kind)
    base = trivial_base_calculus(functions_on_points(points, h.field))
    tc = build_total_calculus(build_fodc(h, zero_ideal(h)), base)
    b = degree0_bundle(h, points)
    for graded, degree0 in (
            (tc.X, b.X), (tc.tau, b.tau), (tc.sigma, b.sigma),
            (tc.sigma_inv, b.sigma_inv), (tc.sigma_at(3, 0), b.sigma_at(3, 0)),
            (tc.sigma_at(3, 1), b.sigma_at(3, 1)), (tc.mu_at(2, 0), b.mu_at(2, 0)),
            (tc.flipstar(2), b.flipstar(2)), (tc.f2, b.f2), (tc.x_n(2), b.x_n(2))):
        assert graded.cols == degree0.cols
    assert tc.tau_legs == b.tau_legs
    one = h.field.one
    dim = tc.w3.dim
    assert dim == b.power(3).dim
    # every pair on the small towers, a stride through the 216^2 pairs of S3
    pairs = [(i, j) for i in range(dim) for j in range(dim)][::max(1, dim * dim // 1500)]
    graded, degree0 = tc.transported_mult(3), b.transported_mult(3)
    for i, j in pairs:
        assert graded({i: one}, {j: one}) == degree0({i: one}, {j: one}), (i, j)


def _old_ogg(tc):
    """Omega(P) (x) Gamma^ (x) Gamma^ as a free graded product of its own."""
    om, gamma = tc.omega, tc.gamma
    return TProd(tc.field, (Factor(om.space, om.degrees), gamma.factor, gamma.factor),
                 budget=BUDGET)


def _old_x2(tc, ogg):
    """Oracle: X^_2(x (x) y (x) z) = (X^ (x) id)(x (x) X^(y (x) z)), written out."""
    og, w2, w3, one = tc.omega.og, tc.w2, tc.w3, tc.field.one
    cols = []
    for b in range(w3.dim):
        out = {}
        for fi, c in w3.lift({b: one}).items():
            x, y, z = w3.tuples[fi]
            for fj, c2 in og.lift(tc.X.apply(w2.project_tuple((y, z)))).items():
                u, th2 = og.tuples[fj]
                for fk, c3 in og.lift(tc.X.apply(w2.project_tuple((x, u)))).items():
                    p, th1 = og.tuples[fk]
                    viadd_term(out, ogg.flat_index((p, th1, th2)), c * c2 * c3)
        cols.append(ogg.project(out))
    return LinearMap(w3.space, ogg.space, cols, tc.field)


def _old_w2_mult(tc, u, v):
    """Oracle: the W_2 product carried along X^ to Omega(P) (x) Gamma^."""
    om = tc.omega
    return tc.X_inv.apply(graded_tensor_mul(om.og, om, tc.gamma, tc.X.apply(u),
                                            tc.X.apply(v)))


def _old_w3_mult(tc, ogg, x2, x2inv, u, v):
    """Oracle: the W_3 product carried along X^_2, with the Koszul sign
    (-1)^{(|g1| + |h1|)|q| + |h1||g2|} of (p g1 h1)(q g2 h2) written out."""
    om, gamma, one = tc.omega, tc.gamma, tc.field.one
    out = {}
    for fi, c1 in ogg.lift(x2.apply(u)).items():
        p, g1, h1 = ogg.tuples[fi]
        d_g1, d_h1 = gamma.degree(g1), gamma.degree(h1)
        for fj, c2 in ogg.lift(x2.apply(v)).items():
            q, g2, h2 = ogg.tuples[fj]
            sgn = ((d_g1 + d_h1) * om.degree(q) + d_h1 * gamma.degree(g2)) % 2
            c0 = c1 * c2 * (-one if sgn else one)
            for m, cm in om.mul_basis(p, q).items():
                for gg, cg in gamma.mul_basis(g1, g2).items():
                    for hh, ch in gamma.mul_basis(h1, h2).items():
                        viadd_term(out, ogg.flat_index((m, gg, hh)), c0 * cm * cg * ch)
    return x2inv.apply(ogg.project(out))


@pytest.mark.parametrize("make", [lambda: point_calculus("Z2"),
                                  lambda: two_point_calculus("Z2")],
                         ids=["z2-point", "z2-two-point"])
def test_transported_mult_matches_explicit_formulas(make):
    """The tower's X_2 and transported products on W_2 and W_3 equal the
    graded formulas written out, on every basis pair within the budget."""
    tc = make()
    one = tc.field.one
    ogg = _old_ogg(tc)
    x2 = _old_x2(tc, ogg)
    assert tc.x_n(2).cols == x2.cols
    x2inv = x2.inverse()
    pairs = 0
    for n, old in ((2, lambda u, v: _old_w2_mult(tc, u, v)),
                   (3, lambda u, v: _old_w3_mult(tc, ogg, x2, x2inv, u, v))):
        mult, degs = tc.transported_mult(n), tc.power(n).degrees()
        for i in range(len(degs)):
            for j in range(len(degs)):
                if degs[i] + degs[j] <= BUDGET:
                    assert mult({i: one}, {j: one}) == old({i: one}, {j: one}), (n, i, j)
                    pairs += 1
    assert pairs > 1000
    # X^ carries tau^ of a top-degree form to 1 (x) that form: its square pairs
    # two top-degree factors, which the support skips, so only the degree
    # check can raise
    top = tc.tau.cols[tc.gamma.degrees.index(BUDGET)]
    with pytest.raises(DegreeBudget):
        tc.transported_mult(2)(top, top)


def test_differential_suite_reports_lhat_not_closed_under_star():
    """A conjugation that leaves L^ is recorded as failing diff.Lhat-star and
    diff.epsM-star; the suite still returns its report."""
    from qpb.linalg import LinearMap, Echelon
    tc = point_calculus("Z2")
    one = tc.field.one
    lhat_span = Echelon()
    for lb in tc.lhat.l_basis:
        lhat_span.add(lb)
    outside = next(k for k in range(tc.w2.dim) if not lhat_span.contains({k: one}))
    tc.w2_star = LinearMap(tc.w2.space, tc.w2.space, [{outside: one}] * tc.w2.dim,
                           tc.field, antilinear=True)
    rep = differential_suite(tc)
    recs = {r.identity_id: r for r in rep.records}
    assert recs["diff.Lhat-star"].status == "fail"
    assert recs["diff.epsM-star"].status == "fail"
    assert recs["diff.epsM-star"].witness == {"basis_index": 0}


def test_tau_hat_restricted_to_degree_zero_is_tau():
    tc = point_calculus("Z2")
    b = degree0_bundle(tc.group)
    # group basis elements sit in degree 0 of Gamma^, with their own indices
    for a in range(tc.group.dim):
        v = tc.tau.cols[a]
        # translate to b2 coordinates
        acc = {}
        from qpb.linalg import viadd
        one = tc.field.one
        deg0 = tc._deg0
        pos = {i: k for k, i in enumerate(deg0)}
        for fi, c in tc.w2.lift(v).items():
            i, j = tc.w2.tuples[fi]
            viadd(acc, c, {b.b2.flat_index((pos[i], pos[j])): one})
        assert b.b2.project(acc) == b.tau.cols[a]


# -- the shared graded *-algebra core ------------------------------------------------


def _index_of_degree(alg, degree):
    return next(i for i in range(alg.dim) if alg.degree(i) == degree)


def test_check_axioms_rejects_broken_leibniz():
    F = CycloField(1)
    m = universal_base_calculus(2, F)
    m.check_axioms()
    x0 = m.space.index("x0")
    # 2 d still squares to zero but is no longer a derivation: d(x0 e) != d(x0) e + x0 d(e)
    m.d_cols[x0] = {k: c + c for k, c in m.d_cols[x0].items()}
    with pytest.raises(ValidationFailed, match=r"Omega\(M\)\[universal\]: Leibniz fails"):
        m.check_axioms()


def test_check_axioms_rejects_non_involutive_star():
    F = CycloField(1)
    m = universal_base_calculus(2, F)
    e01 = m.space.index("x0|x1")
    m.star.cols[e01] = {k: c + c for k, c in m.star.cols[e01].items()}
    with pytest.raises(ValidationFailed, match=r"Omega\(M\)\[universal\]: star not involutive"):
        m.check_axioms()


def test_over_budget_product_raises_degree_budget():
    F = CycloField(1)
    m = universal_base_calculus(2, F)
    one = F.one
    top, mid = _index_of_degree(m, 2), _index_of_degree(m, 1)
    assert m.mul({top: one}, m.unit) == {top: one}
    with pytest.raises(DegreeBudget):
        m.mul({top: one}, {mid: one})
    # also where the product of paths x0|x1 . x0|x1|x0 would be empty
    with pytest.raises(DegreeBudget):
        m.mul({mid: one}, {top: one, mid: one})
    h = hopf_preset("Z2", "function_algebra")
    ge = GammaEnvelope(build_envelope2(build_fodc(h, universal_ideal(h))))
    g_one = h.field.one
    with pytest.raises(DegreeBudget):
        ge.mul({_index_of_degree(ge, 1): g_one}, {_index_of_degree(ge, 2): g_one})


def _old_omega_mul_basis(om, i, j):
    """Oracle: the Omega(P) basis product written out from its formula."""
    one = om.field.one
    m1, g1 = om.tp.tuples[i]
    m2, g2 = om.tp.tuples[j]
    sign = -one if (om.gamma.degree(g1) * om.base.degree(m2)) % 2 else one
    out = {}
    for m, cm in om.base.mul_basis(m1, m2).items():
        for g, cg in om.gamma.mul_basis(g1, g2).items():
            out.update(embed(om.tp, {m: sign * cm * cg}, {g: one}))
    return out


def _old_pair_mul(tp, left, right, u, v):
    """Oracle: the product of a two-factor graded tensor product (Gamma^'s
    square, Omega(P) (x) Gamma^) written out from its formula."""
    one = tp.field.one
    out = {}
    for iu, cu in tp.lift(u).items():
        x, y = tp.tuples[iu]
        for iv, cv in tp.lift(v).items():
            p, q = tp.tuples[iv]
            sign = -one if (right.degree(y) * left.degree(p)) % 2 else one
            c0 = cu * cv * sign
            for xp, cx in left.mul_basis(x, p).items():
                for yq, cy in right.mul_basis(y, q).items():
                    viadd_term(out, tp.flat_index((xp, yq)), c0 * cx * cy)
    return tp.project(out)


@pytest.mark.parametrize("points", [1, 2])
def test_graded_tensor_product_matches_explicit_formulas(points):
    h = hopf_preset("Z2", "function_algebra")
    one = h.field.one
    base = (trivial_base_calculus(functions_on_points(1, h.field)) if points == 1
            else universal_base_calculus(2, h.field))
    gamma = GammaEnvelope(build_envelope2(build_fodc(h, universal_ideal(h))))
    om = OmegaP(base, gamma)
    pairs = 0
    for i in range(om.dim):
        for j in range(om.dim):
            if om.degree(i) + om.degree(j) <= 2:
                want = _old_omega_mul_basis(om, i, j)
                assert om.mul_basis(i, j) == want
                assert graded_tensor_mul(om.tp, base, gamma, {i: one}, {j: one}) == want
                pairs += 1
    for tp, left, right in ((gamma.square, gamma, gamma), (om.og, om, gamma)):
        degs = tp.degrees()
        for s in range(tp.dim):
            for t in range(tp.dim):
                if degs[s] + degs[t] <= 2:
                    u, v = {s: one}, {t: one}
                    assert graded_tensor_mul(tp, left, right, u, v) == \
                        _old_pair_mul(tp, left, right, u, v)
                    pairs += 1
    assert pairs > 100


# -- basis labels, degrees and order -------------------------------------------------

CASES = Path(__file__).resolve().parents[1] / "bench" / "cases"

# sha256 of the JSON of [labels, degrees], taken before Gamma^'s degree-1 and
# degree-2 blocks became TProds
BASIS_SHA256 = {
    "calculus-z3": {
        "Gamma^": "432a3cb582f0e6698fb5ef80d9730f8fa9d5145c79075a3eb8721a1640c095c1",
        "Omega(P)": "57c0ac793c05145fb31c450163fdf8449b5d56decc78dba71ba120070867d636",
        "W_2": "fa84cd84ca3c79233d76e2b45ad2387474674c319f1f498d2692e1722ede8752",
    },
    "s3-transpositions": {
        "Gamma^": "40cd79fec611e117da9cb88a1adeb21391a4351d40674b0490afa1b61c773f90",
        "Omega(P)": "d44753cfa7a62303c0abef84a50783849b0b6dbf67bb1c385e96bfc59f36948b",
        "W_2": "4b9bf41eadbbe815e22a0b7c2522366966de435f0dede47e4e3f05e8e7ec2172",
    },
}


def _basis_digest(labels, degrees) -> str:
    return hashlib.sha256(json.dumps([list(labels), list(degrees)]).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(BASIS_SHA256))
def test_basis_labels_degrees_and_order_are_pinned(case, tmp_path):
    """Gamma^, Omega(P) and W_2 keep their basis labels, degrees and order, on
    calculus-z3 and on the transposition calculus of C(S3) over a point.  A
    passing report renders no label, so a reordered basis shows only here."""
    path = CASES / "calculus-z3.json"
    if case == "s3-transpositions":
        doc = generate_example("point-bundle", group="S3")
        doc["fodc"] = {"ideal_basis": [[[4, "1"]], [[5, "1"]]]}
        path = tmp_path / "s3-transpositions.json"
        path.write_text(serialize_example(doc), encoding="utf-8")
    tc = BuildResult(load_file(str(path))).total_calculus()
    got = {"Gamma^": _basis_digest(tc.gamma.space.labels, tc.gamma.degrees),
           "Omega(P)": _basis_digest(tc.omega.space.labels, tc.omega.degrees),
           "W_2": _basis_digest(tc.w2.space.labels, tc.w2.degrees())}
    assert got == BASIS_SHA256[case]
