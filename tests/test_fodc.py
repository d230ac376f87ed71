import pytest

from qpb.errors import NotAdInvariant, NotIdeal
from qpb.fodc import (
    GammaEnvelope, build_envelope2, build_fodc, universal_ideal, zero_ideal,
)
from qpb.linalg import viadd
from qpb.presets import hopf_preset
from qpb.report import ValidationReport, first_difference, vacuous
from qpb.tensor import TProd, embed, flat_legs, from_legs, slot_terms, term_map


def braid_equation_report(f):
    """The braid equation of the canonical braid sigma on Gamma_inv^(x)3
    (Woronowicz): sigma_12 sigma_23 sigma_12 = sigma_23 sigma_12 sigma_23,
    vacuous for the zero calculus."""
    rep = ValidationReport()
    if f.dim == 0:
        rep.add(vacuous("fodc.braid", "sigma braid equation", note="zero calculus"))
        return rep
    # the free cube of Gamma_inv, with sigma on slots (0, 1) and (1, 2)
    sq = f.inv_sq
    cube = TProd(f.field, sq.factors[:1] * 3, name="Gamma_inv^(x)3")
    s12, s23 = (term_map(cube, cube, slot_terms(p, f.sigma, sq, sq)) for p in (0, 1))
    diff = first_difference((s12, s23, s12), (s23, s12, s23))
    rep.check(("fodc.braid", "sigma braid equation"),
              [] if diff is None else [{"first_difference": diff[0]}])
    return rep


def universal(group, kind="function_algebra"):
    h = hopf_preset(group, kind)
    return h, build_fodc(h, universal_ideal(h))


def test_universal_cz2():
    h, f = universal("Z2")
    assert f.dim == 1
    one = h.field.one
    # pi(d_e) = -eta, pi(d_g) = eta with eta the class of d_g
    assert f.pi.cols[1] == {0: one}
    assert f.pi.cols[0] == {0: -one}
    # varpi(eta) = eta (x) 1: abelian adjoint is trivial
    assert f.varpi.cols[0] == embed(f.inv_a, {0: one}, h.unit)
    # sigma = id on the 1-dim square
    from qpb.linalg import LinearMap
    assert f.sigma == LinearMap.identity(f.inv_sq.space, h.field)
    assert braid_equation_report(f).ok


def test_universal_cz3():
    h, f = universal("Z3")
    assert f.dim == 2
    rep = braid_equation_report(f)
    assert rep.ok, rep.to_text()


def test_universal_s3_function_algebra():
    h, f = universal("S3")
    assert f.dim == 5
    rep = braid_equation_report(f)
    assert rep.ok, rep.to_text()


def test_zero_calculus():
    h = hopf_preset("Z2", "function_algebra")
    f = build_fodc(h, zero_ideal(h))
    assert f.dim == 0
    rep = braid_equation_report(f)
    assert any(r.status == "vacuous" for r in rep.records)


def test_bad_ideals_rejected():
    h = hopf_preset("Z2", "function_algebra")
    one = h.field.one
    with pytest.raises(NotIdeal):
        build_fodc(h, [dict(h.unit)])  # eps(1) != 0
    # C(S3): a right ideal that is not ad-invariant: span{d_s - d_sr}
    # (single delta differences are right ideals in a commutative algebra
    # iff they are spanned by basis deltas; use a genuinely broken one)
    hs = hopf_preset("S3", "function_algebra")
    v = {1: hs.field.one, 2: -hs.field.one}  # d_s - d_sr, in ker eps
    with pytest.raises((NotIdeal, NotAdInvariant)):
        build_fodc(hs, [v])


def test_ad_invariant_but_proper_ideal_s3():
    # span of d_g for g in the 3-cycle class is a two-sided, ad-invariant,
    # star-compatible ideal inside ker eps for C(S3)
    hs = hopf_preset("S3", "function_algebra")
    one = hs.field.one
    ideal = [{4: one}, {5: one}]  # d_r, d_r2 (the 3-cycles)
    f = build_fodc(hs, ideal)
    assert f.dim == 3
    assert braid_equation_report(f).ok
    # S^2 != 0: circ, star, phi^ and kappa^ descend to Lambda^2
    env = build_envelope2(f)
    assert env.report.ok, env.report.to_text()
    assert len(env.s2_basis) == 2
    assert env.lambda2.dim == 7
    ge = GammaEnvelope(env)  # checks the antipode axiom on every basis element
    assert (ge.d1, ge.d2) == (3, 7)


def test_envelope_universal_cz2():
    h, f = universal("Z2")
    env = build_envelope2(f)
    assert env.report.ok, env.report.to_text()
    assert len(env.s2_basis) == 0
    assert env.lambda2.dim == 1
    one = h.field.one
    # delta(eta) = 2 eta (x) eta
    assert env.delta.cols[0] == {0: one + one}


def test_envelope_universal_cz3():
    h, f = universal("Z3")
    env = build_envelope2(f)
    assert env.report.ok, env.report.to_text()
    ids = {r.identity_id for r in env.report.records}
    assert "envelope.sigma-delta" in ids


def test_envelope_zero_calculus():
    h = hopf_preset("Z2", "function_algebra")
    f = build_fodc(h, zero_ideal(h))
    env = build_envelope2(f)
    assert all(r.status == "vacuous" for r in env.report.records)


def test_gamma_envelope_cz2():
    h, f = universal("Z2")
    env = build_envelope2(f)
    ge = GammaEnvelope(env)  # self-checks run at build
    assert ge.dim == 2 + 2 * 1 + 2 * 1
    assert ge.degrees == (0, 0, 1, 1, 2, 2)
    # d(d_g) = d_e (x) eta brute force: d(a) = a^(1) pi(a^(2))
    one = h.field.one
    # phi(d_g) = d_e (x) d_g + d_g (x) d_e, pi(d_g) = eta, pi(d_e) = -eta
    at = ge.part_index
    assert ge.d_cols[1] == {at[1, 0, 0]: one, at[1, 1, 0]: -one}


def test_gamma_envelope_cz3():
    h, f = universal("Z3")
    env = build_envelope2(f)
    ge = GammaEnvelope(env)
    assert ge.d1 == 2
    # ad_hat restricted to degree 0 equals the classical adjoint action
    ad = ge.ad_hat()
    from qpb.hopf import adjoint_action
    cls = adjoint_action(h)
    for a in range(h.dim):
        # A's basis is the degree-0 block of Gamma^, with A's own indices
        assert ad.cols[a] == from_legs(ge.square, flat_legs(h.square, cls.cols[a]))


def test_gamma_envelope_group_algebra():
    h = hopf_preset("Z2", "group_algebra")
    f = build_fodc(h, universal_ideal(h))
    env = build_envelope2(f)
    ge = GammaEnvelope(env)
    assert ge.d1 == 1


# -- slot order on Gamma_inv (x) Gamma_inv ------------------------------------------


def flipped(sq, v):
    """v with the two slots of Gamma_inv (x) Gamma_inv exchanged."""
    return from_legs(sq, [((t2, t1), c) for (t1, t2), c in flat_legs(sq, v)])


def test_bracket_of_the_identity_is_delta():
    """<id, id>(theta_t) taken with the product theta (x) eta of
    Gamma_inv^(x)2 is delta(theta_t) itself.  On the universal calculus of
    the non-abelian C(S3), delta is not symmetric under the flip of its
    slots, so the bracket's two operands cannot be exchanged."""
    h, f = universal("S3")
    env = build_envelope2(f)
    sq, one = f.inv_sq, h.field.one
    assert any(flipped(sq, col) != col for col in env.delta.cols)
    for t in range(f.dim):
        assert env.bracket(t, lambda i: {i: one}, lambda u, v: embed(sq, u, v)) \
            == env.delta.cols[t]


def test_varpi2_is_the_product_of_the_two_coactions():
    """varpi_2(theta_i (x) theta_j) = sum theta_k (x) theta_l (x) c_k d_l for
    varpi(theta_i) = sum theta_k (x) c_k and varpi(theta_j) = sum theta_l (x) d_l,
    by A-component.  On C(S3) modulo d_r, d_r2, varpi is not trivial and some
    theta_i (x) theta_j has components that the flip of the slots moves."""
    h = hopf_preset("S3", "function_algebra")
    one = h.field.one
    f = build_fodc(h, [{4: one}, {5: one}])
    sq, moved = f.inv_sq, False
    for i in range(f.dim):
        for j in range(f.dim):
            expect = {}
            for (k, ck), c1 in flat_legs(f.inv_a, f.varpi.cols[i]):
                for (m, dm), c2 in flat_legs(f.inv_a, f.varpi.cols[j]):
                    for a, ca in h.mul({ck: c1}, {dm: c2}).items():
                        viadd(expect.setdefault(a, {}), ca, embed(sq, {k: one}, {m: one}))
            got = f.varpi2_components(embed(sq, {i: one}, {j: one}))
            assert {a: w for a, w in got.items() if w} == \
                {a: w for a, w in expect.items() if w}
            moved |= any(flipped(sq, w) != w for w in got.values())
    assert moved
