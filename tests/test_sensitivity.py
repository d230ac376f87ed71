"""Every structure check fails exactly where it should.

``GradedStarAlgebra.add_axiom_records`` checks the *-algebra axioms of A, B,
Omega(M) and Gamma^, and ``add_coaction_records`` checks phi on A, F on B,
phi^ on Gamma^, F^ on Omega(P), the adjoint action and varpi on Gamma_inv;
``add_antipode_record`` checks kappa^ on Gamma^;
``BalancedTower.add_translation_records`` checks tau on P and on Omega(P).
For every site and identity one targeted mutation breaks that identity.  A
site that records then fails exactly that record among the checker's
records, with a witness; a site that rejects its input raises at that
identity.

The gauge-transformation laws compare a left side with one of the right
sides ``BalancedTower.coact_side``, ``tau_side`` and ``varsigma_side``.  A
datum there is read by several laws, so a mutation fails exactly the laws
that read it, the targeted one with its witness.
"""

import copy

import pytest

import qpb.cli as cli_mod
import qpb.connection as connection_mod
import qpb.fodc as fodc_mod
import qpb.formats as formats_mod
import qpb.gauge as gauge_mod
import qpb.hopf as hopf_mod
from qpb.braiding import braided_structure, sigma_m, verify_braiding_suite
from qpb.bundle import BalancedTower, build_bundle, translation_identities
from qpb.calculus import (
    build_total_calculus, differential_suite, trivial_base_calculus,
    universal_base_calculus,
)
from qpb.connection import Connection, maurer_cartan, perturbed_connection, verify_transformations
from qpb.cyclotomic import CycloField
from qpb.errors import NotCoaction, NotCovariant, SpecFileError, ValidationFailed
from qpb.fodc import GammaEnvelope, build_envelope2, build_fodc, universal_ideal
from qpb.formats import BuildResult, parse_spec, run_suites
from qpb.gauge import build_gauge_coalgebra, classical_braided_hopf, enumerate_gauge
from qpb.hopf import HopfStarAlgebra, StarAlgebra, adjoint_action, validate_hopf
from qpb.linalg import LinearMap, viadd
from qpb.presets import (
    functions_on_points, generate_example, hopf_preset, point_bundle_data, serialize_example,
    trivial_bundle,
)
from qpb.report import ValidationReport


def doubled(v):
    return {k: c + c for k, c in v.items()}


def negated(v):
    return {k: -c for k, c in v.items()}


def with_col(m: LinearMap, i: int, col) -> LinearMap:
    """A copy of m with column i replaced."""
    cols = [dict(c) for c in m.cols]
    cols[i] = col
    return LinearMap(m.domain, m.codomain, cols, m.field, m.antilinear)


def rebuilt(h, mult=None, unit=None, star=None, coproduct=None, counit=None):
    """h with some of its structure replaced; ``coproduct`` lists the
    Sweedler legs (j, k, c) of each basis element."""
    a = h.algebra
    alg = StarAlgebra(a.name, a.field, a.space, mult or a.mult,
                      a.unit if unit is None else unit, star or a.star)
    return HopfStarAlgebra(alg, coproduct or [h.sweedler(i) for i in range(h.dim)],
                           counit or h.counit, h.antipode)


def magma_coproduct(h):
    """The coproduct of C(X) from the unital, non-associative product on the
    points of Z3 with x y = e for x, y != e: multiplicative, hermitian and
    counital, but not coassociative."""
    n, one = h.dim, h.field.one
    legs = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            legs[x if y == 0 else y if x == 0 else 0].append(((x, y), one))
    return legs


def right_unit_coproduct(h):
    """a -> a (x) 1: multiplicative, hermitian, coassociative and right
    counital, but not left counital."""
    return [[((i, k), c) for k, c in h.unit.items()] for i in range(h.dim)]


def is_basis_witness(witness, space, i):
    return witness == {"basis_index": i, "basis_label": space.labels[i]}


# -- phi on A and the axioms of A: validate_hopf records --------------------------

ALGEBRA_IDS = {"hopf.algebra.assoc", "hopf.algebra.unit", "hopf.algebra.star-invol",
               "hopf.algebra.star-antimult"}
COACTION_IDS = {"hopf.phi-hom", "hopf.phi-star", "hopf.coassoc", "hopf.counit-law"}


def cz2():
    return hopf_preset("Z2", "function_algebra")


def cz3():
    return hopf_preset("Z3", "function_algebra")


def group_z3_non_assoc():
    """C[Z3] with r r = r^2 r^2 = e: unital and star-compatible, not associative."""
    h = hopf_preset("Z3", "group_algebra")
    mult = [list(row) for row in h.algebra.mult]
    mult[1][1] = mult[2][2] = {0: h.field.one}
    return rebuilt(h, mult=mult)


def cz3_star_cycle():
    """C(Z3) with the star e_i -> e_{i+1}: antimultiplicative, not involutive."""
    h = cz3()
    star = LinearMap(h.space, h.space, [{(i + 1) % 3: h.field.one} for i in range(3)],
                     h.field, antilinear=True)
    return rebuilt(h, star=star)


def cz2_product_dropped():
    """C(Z2) with e_0 e_0 = 0: phi(e_0 e_0) != phi(e_0) phi(e_0)."""
    h = cz2()
    mult = [list(row) for row in h.algebra.mult]
    mult[0][0] = {}
    return rebuilt(h, mult=mult)


@pytest.mark.parametrize("make, ids, expected, witness", [
    (group_z3_non_assoc, ALGEBRA_IDS, "hopf.algebra.assoc", "basis_triple"),
    (lambda: rebuilt(cz2(), unit=doubled(cz2().unit)), ALGEBRA_IDS,
     "hopf.algebra.unit", "basis_index"),
    (cz3_star_cycle, ALGEBRA_IDS, "hopf.algebra.star-invol", "basis_index"),
    (lambda: rebuilt(cz2(), star=LinearMap(cz2().space, cz2().space,
                                           [negated(c) for c in cz2().algebra.star.cols],
                                           cz2().field, antilinear=True)),
     ALGEBRA_IDS, "hopf.algebra.star-antimult", "basis_pair"),
    (cz2_product_dropped, COACTION_IDS, "hopf.phi-hom", {"basis_pair": [0, 0]}),
    (lambda: rebuilt(cz2(), unit=doubled(cz2().unit)), COACTION_IDS,
     "hopf.phi-hom", {"reason": "phi(1) != 1(x)1"}),
    (lambda: rebuilt(cz2(), star=with_col(cz2().algebra.star, 0,
                                          negated(cz2().algebra.star.cols[0]))),
     COACTION_IDS, "hopf.phi-star", "basis_index"),
    (lambda: rebuilt(cz3(), coproduct=magma_coproduct(cz3())), COACTION_IDS,
     "hopf.coassoc", "basis_index"),
    (lambda: rebuilt(cz2(), counit=with_col(cz2().counit, 0, doubled(cz2().counit.cols[0]))),
     COACTION_IDS, "hopf.counit-law", "basis_index"),
    (lambda: rebuilt(cz2(), coproduct=right_unit_coproduct(cz2())), COACTION_IDS,
     "hopf.counit-law", "basis_index"),
], ids=["assoc", "unit", "star-invol", "star-antimult", "phi-hom", "phi-hom-unit",
        "phi-star", "coassoc", "counit-law", "counit-law-left"])
def test_validate_hopf_fails_exactly_the_broken_identity(make, ids, expected, witness):
    """``witness`` is the whole witness, or the key that names its kind."""
    h = make()
    failures = {r.identity_id: r.witness for r in validate_hopf(h).failures}
    assert set(failures) & ids == {expected}
    got = failures[expected]
    if isinstance(witness, dict):
        assert got == witness
    elif witness == "basis_index":
        assert is_basis_witness(got, h.space, got["basis_index"])
    else:
        assert witness in got


# -- the adjoint action rejects a broken coproduct or counit -------------------------


def patch_coaction_check(monkeypatch, module, mutate):
    """Make ``module`` call the coaction checker on mutated arguments:
    ``mutate(w, f, wh, h, phi, hh, eps_basis)`` returns the arguments to use."""
    real = hopf_mod.add_coaction_records

    def patched(rep, ids, name, *args):
        real(rep, ids, name, *mutate(*args))

    monkeypatch.setattr(module, "add_coaction_records", patched)


@pytest.mark.parametrize("mutate, message", [
    (lambda w, f, wh, h, phi, hh, eps: (w, f, wh, h, with_col(phi, 1, doubled(phi.cols[1])),
                                        hh, eps),
     r"adjoint action: \(ad \(x\) id\)ad != \(id \(x\) phi\)ad at basis_index="),
    (lambda w, f, wh, h, phi, hh, eps: (w, f, wh, h, phi, hh, lambda a: eps(a) + eps(a)),
     r"adjoint action: \(id \(x\) eps\)ad != id at basis_index=0"),
], ids=["comodule", "counit"])
def test_adjoint_action_rejects(monkeypatch, mutate, message):
    h = hopf_preset("S3", "function_algebra")
    patch_coaction_check(monkeypatch, hopf_mod, mutate)
    with pytest.raises(ValidationFailed, match=message):
        adjoint_action(h)


@pytest.mark.parametrize("mutate, message", [
    (lambda w, f, wh, h, phi, hh, eps: (w, f, wh, h, with_col(phi, 1, doubled(phi.cols[1])),
                                        hh, eps),
     r"^varpi is not a coaction at basis_index=\d+, basis_label=w\["),
    (lambda w, f, wh, h, phi, hh, eps: (w, f, wh, h, phi, hh, lambda a: eps(a) + eps(a)),
     r"^varpi fails the counit law at basis_index=0, basis_label=w\["),
], ids=["comodule", "counit"])
def test_fodc_rejects_a_varpi_that_is_no_coaction(monkeypatch, mutate, message):
    """varpi's laws go through the coaction checker, with Gamma_inv as a
    plain space, and reject at the first basis element that breaks them."""
    h = hopf_preset("S3", "function_algebra")
    patch_coaction_check(monkeypatch, fodc_mod, mutate)
    with pytest.raises(ValidationFailed, match=message):
        build_fodc(h, universal_ideal(h))


# -- F on B: build_bundle rejects at bundle.coaction --------------------------------


def bundle_data(group="Z2"):
    h = hopf_preset(group, "function_algebra")
    total, f_legs = trivial_bundle(h, 2)
    return total, h, f_legs


def bundle_with_broken_star():
    total, h, f_legs = bundle_data()
    star = with_col(total.star, 1, negated(total.star.cols[1]))
    total = StarAlgebra(total.name, total.field, total.space, total.mult, total.unit, star)
    return total, h, f_legs


def bundle_with_magma_group():
    total, h, f_legs = bundle_data("Z3")
    return total, rebuilt(h, coproduct=magma_coproduct(h)), f_legs


def bundle_with_broken_counit():
    total, h, f_legs = bundle_data()
    return total, rebuilt(h, counit=with_col(h.counit, 0, doubled(h.counit.cols[0]))), f_legs


def bundle_with_doubled_column():
    total, h, f_legs = bundle_data()
    f_legs[1] = [(jk, c + c) for jk, c in f_legs[1]]
    return total, h, f_legs


@pytest.mark.parametrize("make, message", [
    (bundle_with_doubled_column,
     r"F is not unital and multiplicative at reason=F\(1\) != 1\(x\)1"),
    (bundle_with_broken_star, r"F is not hermitian at basis_index=0, basis_label=x0.dr0"),
    (bundle_with_magma_group, r"\(F \(x\) id\)F != \(id \(x\) phi\)F at basis_index=0"),
    (bundle_with_broken_counit, r"\(id \(x\) eps\)F != id at basis_index=0"),
], ids=["mult", "star", "comodule", "counit"])
def test_build_bundle_rejects_at_the_broken_identity(make, message):
    with pytest.raises(NotCoaction, match=message) as err:
        build_bundle(*make())
    assert err.value.where == "bundle.coaction"


# -- the axioms of B: a spec file is rejected at bundle ------------------------------


def explicit_bundle_doc(name="c-group", group="Z2", mult=None, star=None):
    """A point bundle written out as an explicit bundle section, with the
    product or star of B replaced."""
    doc = generate_example(name, group=group)
    hopf = doc["hopf"]
    doc["bundle"] = {"basis": hopf["basis"], "mult": mult or hopf["mult"],
                     "star": star or hopf["star"], "coaction": hopf["coproduct"]}
    return doc


@pytest.mark.parametrize("doc, message", [
    # C[Z3] with r r = r^2 r^2 = e keeps its unit and breaks associativity
    (explicit_bundle_doc("group-algebra", "Z3",
                         mult=[[i, j, 0 if i == j != 0 else (i + j) % 3, "1"]
                               for i in range(3) for j in range(3)]),
     r"bundle algebra validation failed: associativity at basis_triple"),
    (explicit_bundle_doc(star=[[0, 1, "1"], [1, 1, "1"]]),
     r"bundle algebra validation failed: star involutive at basis_index=0"),
    (explicit_bundle_doc(star=[[0, 0, "-1"], [1, 1, "-1"]]),
     r"bundle algebra validation failed: \(ab\)\* = b\*a\* at basis_pair=\[0, 0\]"),
], ids=["assoc", "star-invol", "star-antimult"])
def test_bundle_algebra_rejected_at_bundle(doc, message):
    with pytest.raises(SpecFileError, match=message) as err:
        BuildResult(parse_spec(serialize_example(doc)))
    assert err.value.where == "bundle"


# -- Omega(M) and Gamma^: the graded axioms raise at the broken one -----------------


def d_times_i(alg):
    """Scale d by i = zeta_4 (both algebras below are over Q(zeta_4)): still a
    derivation with d^2 = 0, no longer hermitian."""
    i = alg.field.zeta()
    alg.d_cols = [None if col is None else {k: i * c for k, c in col.items()}
                  for col in alg.d_cols]


def break_product(alg):
    alg._products[0, 0] = {}


def double_unit(alg):
    alg.unit = doubled(alg.unit)


def double_star(alg):
    alg.star.cols[0] = doubled(alg.star.cols[0])


def negate_star(alg):
    alg.star.cols[0] = negated(alg.star.cols[0])


def double_d_in_degree(degree):
    def mutate(alg):
        i = alg.degrees.index(degree)
        alg.d_cols[i] = doubled(alg.d_cols[i])
    return mutate


GRADED_AXIOMS = [
    (break_product, "product not associative at basis_triple"),
    (double_unit, "unit fails at basis_index=0"),
    (double_star, "star not involutive at basis_index=0"),
    (negate_star, "star not graded-antimultiplicative at basis_pair"),
    (double_d_in_degree(1), r"d\^2 != 0 at basis_index=0"),
    (double_d_in_degree(0), "Leibniz fails at basis_pair"),
    (d_times_i, "d not hermitian at basis_index=0"),
]
GRADED_IDS = ["assoc", "unit", "star-invol", "star-antimult", "d-square", "leibniz",
              "d-star"]


def gamma_z2():
    h = hopf_preset("Z2", "function_algebra", conductor=4)
    return GammaEnvelope(build_envelope2(build_fodc(h, universal_ideal(h))))


@pytest.mark.parametrize("mutate, message", GRADED_AXIOMS, ids=GRADED_IDS)
@pytest.mark.parametrize("make, name", [
    (lambda: universal_base_calculus(2, CycloField(4)), r"Omega\(M\)\[universal\]"),
    (gamma_z2, r"Gamma\^"),
], ids=["Omega(M)", "Gamma^"])
def test_graded_axioms_raise_at_the_broken_one(make, name, mutate, message):
    alg = make()
    alg.check_axioms()
    mutate(alg)
    with pytest.raises(ValidationFailed, match=f"{name}: {message}"):
        alg.check_axioms()


# -- phi^ on Gamma^: GammaEnvelope rejects -----------------------------------------


def gamma_double_phi(w, f, wh, h, phi, hh, eps):
    f.cols[2] = doubled(f.cols[2])  # f is phi: both change
    return w, f, wh, h, phi, hh, eps


def gamma_negate_star(w, f, wh, h, phi, hh, eps):
    w.star.cols[2] = negated(w.star.cols[2])
    return w, f, wh, h, phi, hh, eps


def gamma_double_d(w, f, wh, h, phi, hh, eps):
    w.d_cols[2] = doubled(w.d_cols[2])
    return w, f, wh, h, phi, hh, eps


def gamma_other_phi(w, f, wh, h, phi, hh, eps):
    return w, f, wh, h, with_col(phi, 2, doubled(phi.cols[2])), hh, eps


def gamma_double_eps(w, f, wh, h, phi, hh, eps):
    return w, f, wh, h, phi, hh, lambda a: eps(a) + eps(a)


@pytest.mark.parametrize("mutate, message", [
    (gamma_double_phi, r"coproduct is not multiplicative at basis_pair"),
    (gamma_negate_star, r"coproduct is not hermitian at basis_index=2"),
    (gamma_double_d, r"coproduct does not intertwine d at basis_index="),
    (gamma_other_phi, r"coproduct is not coassociative at basis_index=2"),
    (gamma_double_eps, r"counit law fails at basis_index=0"),
], ids=["mult", "star", "d", "comodule", "counit"])
def test_gamma_envelope_rejects_a_broken_coproduct(monkeypatch, mutate, message):
    h = hopf_preset("Z2", "function_algebra")
    env = build_envelope2(build_fodc(h, universal_ideal(h)))
    patch_coaction_check(monkeypatch, fodc_mod, mutate)
    with pytest.raises(ValidationFailed, match=r"Gamma\^: " + message):
        GammaEnvelope(env)


# -- F^ on Omega(P): differential_suite records ---------------------------------------

FHAT_IDS = {"diff.Fhat-mult", "diff.Fhat-star", "diff.Fhat-d", "diff.Fhat-coassoc"}


def point_calculus():
    h = hopf_preset("Z2", "function_algebra")
    point = trivial_base_calculus(functions_on_points(1, h.field))
    return build_total_calculus(build_fodc(h, universal_ideal(h)), point)


def fhat_product_dropped(tc):
    tc.omega._products[0, 0] = {}


def fhat_star_negated(tc):
    tc.omega.star.cols[2] = negated(tc.omega.star.cols[2])


def fhat_d_doubled(tc):
    tc.omega.d_cols[0] = doubled(tc.omega.d_cols[0])


def fhat_phi_doubled(tc):
    phi = tc.gamma.phi_hat
    tc.gamma.phi_hat = with_col(phi, 2, doubled(phi.cols[2]))


@pytest.mark.parametrize("mutate, expected, witness", [
    (fhat_product_dropped, "diff.Fhat-mult", {"basis_pair": [0, 0]}),
    (fhat_star_negated, "diff.Fhat-star", 2),
    (fhat_d_doubled, "diff.Fhat-d", 0),
    (fhat_phi_doubled, "diff.Fhat-coassoc", 2),
], ids=["mult", "star", "d", "comodule"])
def test_differential_suite_fails_exactly_the_broken_fhat_identity(mutate, expected, witness):
    tc = point_calculus()
    mutate(tc)
    failures = {r.identity_id: r.witness for r in differential_suite(tc).failures}
    assert set(failures) & FHAT_IDS == {expected}
    if isinstance(witness, int):
        assert is_basis_witness(failures[expected], tc.omega.space, witness)
    else:
        assert failures[expected] == witness


# -- kappa^ on Gamma^: GammaEnvelope rejects a wrong antipode -------------------------


def transposition_envelope():
    """C(S3) modulo d_r, d_r2: non-abelian, so varpi is not trivial, and S^2 != 0."""
    h = hopf_preset("S3", "function_algebra")
    one = h.field.one
    return build_envelope2(build_fodc(h, [{4: one}, {5: one}]))


def kappa_inv_without_kappa(self, t):
    """-sum_k theta_k c_k, with c_k where kappa(c_k) belongs.  On an abelian
    A, varpi(theta) = theta (x) 1 and the two agree."""
    acc = {}
    for (th, a), c in self.fodc.varpi_legs[t]:
        viadd(acc, -c, self.mul(self.inv1_vec(th), {a: self.field.one}))
    return acc


def test_gamma_envelope_rejects_a_wrong_antipode_on_gamma_inv(monkeypatch):
    env = transposition_envelope()
    GammaEnvelope(env)
    monkeypatch.setattr(GammaEnvelope, "kappa_inv", kappa_inv_without_kappa)
    with pytest.raises(ValidationFailed, match=r"Gamma\^: antipode axiom fails at "
                       r"basis_index=6, basis_label=de\.w\[ds\], m\(kappa\(x\)id\)phi="):
        GammaEnvelope(env)


def test_gamma_envelope_rejects_a_wrong_antipode_in_degree_two(monkeypatch):
    real = fodc_mod._descend

    def negated_kappa2(f, reps, relations, what, *args, **kwargs):
        out = real(f, reps, relations, what, *args, **kwargs)
        return [negated(v) for v in out] if what == "degree-2 antipode" else out

    monkeypatch.setattr(fodc_mod, "_descend", negated_kappa2)
    first_degree_two = 2 + 2 * 1  # after degrees 0 and 1 of Gamma^ over C(Z2)
    with pytest.raises(ValidationFailed, match=r"Gamma\^: antipode axiom fails at "
                       rf"basis_index={first_degree_two}, "):
        gamma_z2()


def test_descend_returns_f_on_the_representatives_once_every_relation_is_killed():
    one = CycloField(4).one

    def drop_first(v):  # kills exactly the multiples of e_0
        return {k: c for k, c in v.items() if k}

    reps = [{1: one}, {0: one, 2: one}]
    assert fodc_mod._descend(drop_first, reps, [{0: one}, {0: one + one}], "m") == \
        [{1: one}, {2: one}]
    with pytest.raises(ValidationFailed,
                       match="m is not well defined: it does not kill relation 1"):
        fodc_mod._descend(drop_first, reps, [{0: one}, {0: one, 1: one}], "m")


# -- a witness over a balanced tensor product keeps its "|"-joined labels --------------


def test_braid_record_witness_names_tensor_basis_elements_by_their_tuples():
    """Doubling column 7 of sigma on the two-point trivial bundle over C(Z3)
    breaks both product compatibilities on W_3.  The failing records name
    the W_3 basis element by the "|"-joined labels of its kept tuple and
    render both sides over W_2, although a passing check builds no TProd
    labels."""
    h = hopf_preset("Z3", "function_algebra")
    total, f_legs = trivial_bundle(h, 2)
    b = build_bundle(total, h, f_legs)
    sigma = b.sigma
    b.sigma = with_col(sigma, 7, doubled(sigma.cols[7]))
    rep = ValidationReport()
    b.add_braid_records(rep, [(f"t.{k}", k) for k in ("braid", "prod1", "prod2", "comm")])
    failures = {r.identity_id: r.witness for r in rep.failures}
    assert failures == {
        "t.prod1": {"basis_index": 25, "basis_label": "x0.dr2|x0.dr2|x0.dr1",
                    "lhs": "2*x0.dr1|x0.dr2", "rhs": "4*x0.dr1|x0.dr2"},
        "t.prod2": {"basis_index": 22, "basis_label": "x0.dr2|x0.dr1|x0.dr1",
                    "lhs": "2*x0.dr1|x0.dr2", "rhs": "4*x0.dr1|x0.dr2"},
    }


def with_sigma_col_negated(b, i):
    """b with its braid checked, then column i of sigma negated before
    anything is derived from sigma: all that is derived later reads the
    negated column."""
    sigma_m(b)
    b.sigma = with_col(b.sigma, i, negated(b.sigma.cols[i]))
    return b


def test_braided_b2_products_are_formed_from_the_sigma_in_force():
    """The braid is the bundle's, so braided B_2, the braided star and sigma
    on slots of B_3 all read one sigma.  On the C(S3) point bundle, whose
    sigma is the flip, the records pass.  With column 7 of sigma, at ds|ds,
    negated, the B_2 records fail at ds|ds, the star side first where a
    record checks both, and so does aP-funct on B_3."""
    b = build_bundle(*point_bundle_data("S3"))
    assert braided_structure(b, 2)[2].ok
    assert verify_braiding_suite(b).ok
    b = with_sigma_col_negated(build_bundle(*point_bundle_data("S3")), 7)
    failures = {r.identity_id: r.witness for r in braided_structure(b, 2)[2].failures}
    assert failures == {"braided2.unit": {"basis_index": 7},
                        "braided2.star-antimult": {"basis_pair": [7, 7]},
                        "braided2.X-mult": {"basis_pair": [7, 7]},
                        "braided2.X-star": {"basis_index": 7, "basis_label": "ds|ds",
                                            "lhs": "-1*ds|de", "rhs": "1*ds|de"}}
    failures = {r.identity_id: r.witness for r in verify_braiding_suite(b).failures}
    assert failures["braiding.mu-star-hom"] == {"basis_index": 7}
    assert failures["braiding.tau-star-hom"] == {"group_basis": "de", "side": "star"}
    assert "braiding.aP-funct" in failures


# -- records that name the first basis element where an identity breaks -----------------


def test_pl_idem_names_the_first_column_where_p_l_squared_differs():
    """Doubling the Haar functional of C[S3] doubles p_L, which keeps its
    image but is no longer idempotent."""
    b = build_bundle(*point_bundle_data("S3", "group_algebra"))
    h = b.group
    h.haar = LinearMap(h.haar.domain, h.haar.codomain, [doubled(c) for c in h.haar.cols],
                       h.field)
    failures = {r.identity_id: r.witness for r in build_gauge_coalgebra(b).report.failures}
    assert failures == {"gauge.pL-idem": {"basis_index": 0, "basis_label": "e|e",
                                          "lhs": "4*e|e", "rhs": "2*e|e"}}


def zero_map(m: LinearMap) -> LinearMap:
    return LinearMap(m.domain, m.codomain, [{} for _ in m.cols], m.field, m.antilinear)


@pytest.mark.parametrize("mutate, witness", [
    (lambda m: with_col(m, 5, negated(m.cols[5])), {"direction": "LB_to_BL", "source_index": 3}),
    (zero_map, {"direction": "LB_to_BL", "target_index": 0}),
], ids=["leaves", "misses"])
def test_covariance_names_the_first_vector_outside_the_target(mutate, witness):
    """On the C(Z2) point bundle, with (sigma (x) id)(id (x) sigma) on B_3
    replaced after the structure is built: a negated column carries an
    L (x) B basis vector out of B (x) L, and the zero map misses B (x) L."""
    gc = build_gauge_coalgebra(build_bundle(*point_bundle_data("Z2")))
    assert classical_braided_hopf(gc).report.ok
    gc.move_lb = mutate(gc.move_lb)
    failures = {r.identity_id: r.witness for r in classical_braided_hopf(gc).report.failures}
    assert failures == {"classical.covariance": witness}


def double_sigma_inv_col(i):
    def mutate(tc):
        tc.sigma_inv = with_col(tc.sigma_inv, i, doubled(tc.sigma_inv.cols[i]))
    return mutate


def negate_w2_star_col_0(tc):
    tc.w2_star = with_col(tc.w2_star, 0, negated(tc.w2_star.cols[0]))


def double_w2_d_col_0(tc):
    tc.w2_d_cols[0] = doubled(tc.w2_d_cols[0])


@pytest.mark.parametrize("mutate, expected, witness", [
    (double_sigma_inv_col(0), "diff.g-inv", {"product": "sigma^ sigma^-1", "basis_index": 0}),
    (double_sigma_inv_col(2), "diff.g-inv", {"product": "sigma^ sigma^-1", "basis_index": 2}),
    (negate_w2_star_col_0, "diff.Lhat-star", {"basis_index": 0}),
    (double_w2_d_col_0, "diff.Lhat-d", {"basis_index": 0}),
], ids=["g-inv-0", "g-inv-2", "Lhat-star", "Lhat-d"])
def test_differential_suite_names_where_sigma_hat_or_l_hat_breaks(mutate, expected, witness):
    """On the universal calculus of C(Z2) over a point: sigma^-1 with a
    doubled column no longer inverts sigma^ there, and a broken star or d of
    W_2 carries the first L^ basis vector out of L^."""
    tc = point_calculus()
    mutate(tc)
    failures = {r.identity_id: r.witness for r in differential_suite(tc).failures}
    assert failures[expected] == witness


def test_run_suites_skips_the_gauge_group_when_the_braided_hopf_laws_fail(monkeypatch):
    """With column 0 of sigma negated after the build of C[Z2] over a point,
    classical.phiM-star-hom fails, and the character split behind the
    gauge-group enumeration would run on without end; run_suites records the
    enumeration as vacuous and never starts it."""
    build = BuildResult(parse_spec(serialize_example(
        generate_example("group-algebra", group="Z2"))))
    with_sigma_col_negated(build.bundle, 0)

    def unreachable(bh):
        raise AssertionError("enumerate_gauge ran on a failing braided Hopf structure")

    monkeypatch.setattr(formats_mod, "enumerate_gauge", unreachable)
    report = run_suites(build, ["all"])
    assert "classical.phiM-star-hom" in {r.identity_id for r in report.failures}
    rec = {r.identity_id: r for r in report.records}["gauge-group.enumeration"]
    assert (rec.status, rec.note) == ("vacuous",
                                      "skipped: the braided Hopf structure of L fails")


def sigma_col_0_negated(build):
    """The build with column 0 of sigma negated, after it is built."""
    with_sigma_col_negated(build.bundle, 0)
    return build


@pytest.mark.parametrize("command", [["enumerate"], ["act", "--gamma", "0", "--element", "e"]],
                         ids=["enumerate", "act"])
def test_gauge_commands_exit_1_when_the_braided_hopf_laws_fail(monkeypatch, tmp_path, capsys,
                                                               command):
    """The same broken C[Z2] as above: qpb gauge enumerate and qpb gauge act
    print the braided Hopf report and exit 1 without starting the
    enumeration."""
    path = tmp_path / "z2.json"
    path.write_text(serialize_example(generate_example("group-algebra", group="Z2")))

    def unreachable(bh):
        raise AssertionError("enumerate_gauge ran on a failing braided Hopf structure")

    monkeypatch.setattr(cli_mod, "BuildResult", lambda sf: sigma_col_0_negated(BuildResult(sf)))
    monkeypatch.setattr(cli_mod, "enumerate_gauge", unreachable)
    assert cli_mod.main(["gauge", command[0], str(path)] + command[1:]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] classical.phiM-star-hom" in out
    assert out.endswith("gauge group not enumerated: the braided Hopf structure of L fails\n")


# -- the translation-map identities of BalancedTower, for P and Omega(P) -----------------

TRANSLATION_KEYS = ("star", "eps", "coaction", "left-coaction", "mult", "centrality")
TRANSLATION_IDS = {
    "bundle": dict(zip(TRANSLATION_KEYS, (
        "translation.star", "translation.eps", "translation.coaction",
        "translation.left-coaction", "translation.mult", "translation.centrality"))),
    "calculus": dict(zip(TRANSLATION_KEYS, (
        "diff.tau-star", "diff.tau-eps", "diff.tau-coact", "diff.tau-left-coact",
        "diff.tau-mult", "diff.tau-central"))),
}


def translation_caller(caller):
    """(tower, its suite, the H basis element the mutations touch): the
    C(Z2) point bundle at dr1, or the universal calculus of C(Z2) over a
    point at its first element of degree 1."""
    if caller == "bundle":
        return build_bundle(*point_bundle_data("Z2")), translation_identities, 1
    return point_calculus(), differential_suite, 2


def with_hopf(tower, **attrs):
    """The tower with a copy of H whose named attributes are replaced."""
    h = copy.copy(tower.hopf)
    for name, value in attrs.items():
        setattr(h, name, value)
    tower.hopf = h


def star_negated(tower, i):
    with_hopf(tower, star=with_col(tower.hopf.star, i, negated(tower.hopf.star.cols[i])))


def counit_plus_one(tower, i):
    eps = tower.eps_basis
    tower.eps_basis = lambda h: eps(h) + tower.field.one if h == i else eps(h)


def coproduct_doubled(tower, i):
    legs = tower.sweedler
    tower.sweedler = lambda h: [(ab, c + c) for ab, c in legs(h)] if h == i else legs(h)


def antipode_doubled(tower, i):
    tower.kappa = with_col(tower.kappa, i, doubled(tower.kappa.cols[i]))


def product_plus_unit(tower, i):
    """e_i e_0 gains the term e_0."""
    mul, one = tower.hopf.mul_basis, tower.field.one
    with_hopf(tower, mul_basis=lambda h, g: {**mul(h, g), 0: one} if (h, g) == (i, 0)
              else mul(h, g))


def left_action_doubled(tower, i):
    lact = tower.factor.lact
    tower.factor.lact = [LinearMap(lact[0].domain, lact[0].codomain,
                                   [doubled(c) for c in lact[0].cols], tower.field)] + lact[1:]


@pytest.mark.parametrize("caller", ["bundle", "calculus"])
@pytest.mark.parametrize("mutate, record, also, at", [
    (star_negated, "star", set(), {"bundle": 1, "calculus": 3}),
    (counit_plus_one, "eps", set(), None),
    (coproduct_doubled, "coaction", {"left-coaction"}, None),
    (antipode_doubled, "left-coaction", {"star"}, {"bundle": 0, "calculus": 2}),
    (product_plus_unit, "mult", set(), None),
    (left_action_doubled, "centrality", set(), None),
], ids=["star", "eps", "coaction", "left-coaction", "mult", "centrality"])
def test_translation_records_fail_at_the_broken_datum(caller, mutate, record, also, at):
    """One datum of H or of the coefficient action is changed after the
    suite has passed once.  Its identity fails with a positioned witness,
    and no record fails that does not read that datum.  A mutation touches
    H at element i; the witness names i unless ``at`` says otherwise: the
    star record reads the star at kappa(h), and the left coaction of dr0
    reads the antipode of dr1."""
    tower, suite, i = translation_caller(caller)
    assert suite(tower).ok
    mutate(tower, i)
    ids = TRANSLATION_IDS[caller]
    failures = {r.identity_id: r.witness for r in suite(tower).failures}
    assert set(failures) == {ids[k] for k in {record} | also}
    labels = tower.hopf_factor.space.labels
    got = failures[ids[record]]
    if record == "mult":
        assert got["basis_pair"] == [labels[i], labels[0]]
        assert got["lhs"] != got["rhs"]
    elif record == "centrality":
        assert (got["base_index"], got["group_basis"]) == (0, labels[0])
        assert got["f.tau(a)"] != got["tau(a).f"]
    else:
        j = i if at is None else at[caller]
        assert (got["basis_index"], got["basis_label"]) == (j, labels[j])
        assert got["lhs"] != got["rhs"]


@pytest.mark.parametrize("caller", ["bundle", "calculus"])
def test_each_suite_records_the_translation_identities_once(monkeypatch, caller):
    tower, suite, _ = translation_caller(caller)
    calls = []
    real = BalancedTower.add_translation_records

    def counted(self, rep, ids):
        calls.append([ident for ident, _ in ids])
        real(self, rep, ids)

    monkeypatch.setattr(BalancedTower, "add_translation_records", counted)
    rep = suite(tower)
    assert calls == [list(TRANSLATION_IDS[caller].values())]
    assert set(calls[0]) <= {r.identity_id for r in rep.records}


# -- the gauge-transformation laws: the three right sides of BalancedTower -------------


def curving_calculus():
    """The universal calculus of C(Z2) over two points at conductor 4, and
    lambda(eta) = i (e_{x0 x1} - e_{x1 x0}), which perturbs Maurer-Cartan to
    a connection with nonzero curvature."""
    h = hopf_preset("Z2", "function_algebra", conductor=4)
    tc = build_total_calculus(build_fodc(h, universal_ideal(h)),
                              universal_base_calculus(2, h.field))
    base, z = tc.base_calc, tc.field.zeta(tc.field.n // 4)
    return tc, [{base.space.index("x0|x1"): z, base.space.index("x1|x0"): -z}]


def curving_connection():
    """The perturbed connection, built afresh: the tower keeps what it has
    carried along X_2."""
    tc, lam = curving_calculus()
    return tc, perturbed_connection(tc, lam)


def index_of(tc, label):
    return tc.omega.space.index(label)


def delta3_doubled_at(label):
    def mutate(tc, conn):
        i = index_of(tc, label)
        tc.lhat.delta3 = with_col(tc.lhat.delta3, i, doubled(tc.lhat.delta3.cols[i]))
    return mutate


def fhat_doubled_at_curvature(tc, conn):
    i = index_of(tc, "x0|x1|x0|dr0")
    tc.omega.f_hat = with_col(tc.omega.f_hat, i, doubled(tc.omega.f_hat.cols[i]))


def curvature_at_dr0(tc, conn):
    """R(eta) keeps only its terms over the point dr0 of Z2: no longer
    F^-covariant."""
    dr0 = {i for i, lab in enumerate(tc.omega.space.labels) if lab.endswith("|dr0")}
    col = conn.curvature.cols[0]
    conn.curvature = with_col(conn.curvature, 0, {i: c for i, c in col.items() if i in dr0})


def kappa_inv_doubled(tc, conn):
    tc.kappa_inv = with_col(tc.kappa_inv, 1, doubled(tc.kappa_inv.cols[1]))


def derivative_at_dr0(tc, conn):
    """D keeps only its terms over the point dr0 of Z2."""
    real = conn.covariant_derivative
    dr0 = {i for i, lab in enumerate(tc.omega.space.labels) if lab.endswith("|dr0")}
    conn.covariant_derivative = lambda v: {i: c for i, c in real(v).items() if i in dr0}


CONN_IDS = {"conn.d-aP", "conn.gP-inv", "conn.braiding-connection", "conn.tr-conn",
            "conn.R-covariant", "conn.tr-R2", "conn.tr-R1", "conn.D-horizontal",
            "conn.tr-D2", "conn.tr-D1"}


@pytest.mark.parametrize("mutate, record, failing", [
    (delta3_doubled_at("x0|dr0.w[dr1]"), "conn.tr-conn", {"conn.tr-conn"}),
    (fhat_doubled_at_curvature, "conn.R-covariant", {"conn.R-covariant"}),
    (curvature_at_dr0, "conn.tr-R2", {"conn.R-covariant", "conn.tr-R2", "conn.tr-R1"}),
    (kappa_inv_doubled, "conn.tr-R1", {"conn.tr-R1", "conn.tr-D1"}),
    (derivative_at_dr0, "conn.tr-D2", {"conn.tr-D2", "conn.tr-D1"}),
    (delta3_doubled_at("x0|x1|x0|dr0"), "conn.tr-D1",
     {"conn.tr-R2", "conn.tr-R1", "conn.tr-D2", "conn.tr-D1"}),
], ids=["tr-conn", "R-covariant", "tr-R2", "tr-R1", "tr-D2", "tr-D1"])
def test_gauge_laws_fail_at_the_broken_datum(mutate, record, failing):
    """One datum is changed after the connection is built: a column of
    Delta^ = delta_3 or of F^ (the left sides), the curvature or D (both
    sides of their laws), or kappa^-1 (the sigma-cochain of tr-R1 and tr-D1).
    Exactly the laws that read it fail, each over Gamma_inv with its
    theta_index or over hor(P) with its form."""
    tc, conn = curving_connection()
    mutate(tc, conn)
    failures = {r.identity_id: r.witness for r in verify_transformations(conn).failures}
    assert set(failures) & CONN_IDS == failing
    if record.startswith("conn.tr-D"):
        assert set(failures[record]) == {"form"}
    else:
        assert failures[record] == {"theta_index": 0}


def test_non_covariant_connection_and_perturbation_are_rejected():
    """omega = 2 (1 (x) theta) misses the 1 (x) theta term of its coaction.
    Over the transposition calculus of C(S3), whose varpi mixes Gamma_inv,
    lambda(eta_0) = e_{x0 x1} + e_{x1 x0} alone is hermitian but not
    ad-covariant, while the same value on every eta is both."""
    tc, _ = curving_connection()
    twice = [doubled(c) for c in maurer_cartan(tc).omega_map.cols]
    with pytest.raises(NotCovariant, match="omega violates the connection transformation law"):
        Connection(tc, twice)
    h = hopf_preset("S3", "function_algebra")
    one = h.field.one
    tc = build_total_calculus(build_fodc(h, [{4: one}, {5: one}]),
                              universal_base_calculus(2, h.field))
    base = tc.base_calc
    value = {base.space.index("x0|x1"): one, base.space.index("x1|x0"): one}
    perturbed_connection(tc, [value] * tc.fodc.dim)
    with pytest.raises(NotCovariant, match="perturbation is not ad-covariant"):
        perturbed_connection(tc, [value] + [{}] * (tc.fodc.dim - 1))


def swapped_identity_action(monkeypatch):
    """The identity gauge transformation acts by the *-automorphism that swaps
    the first and third points of B, which is not F-equivariant."""
    real = gauge_mod.GaugeTransformation.__init__

    def init(self, gc, functional):
        real(self, gc, functional)
        act, one = self.action, gc.field.one
        if act == LinearMap.identity(act.domain, gc.field):
            self.action = with_col(with_col(act, 0, {2: one}), 2, {0: one})

    monkeypatch.setattr(gauge_mod.GaugeTransformation, "__init__", init)


def test_f_equivariance_fails_at_the_transformation_whose_action_breaks(monkeypatch):
    """On the trivial C(Z2) bundle over two points the gauge group has four
    elements; with the identity's action replaced by a swap of two points,
    F-equivariance fails there, and so does the composition law."""
    bh = classical_braided_hopf(build_gauge_coalgebra(build_bundle(*bundle_data())))
    swapped_identity_action(monkeypatch)
    gammas, _, rep = enumerate_gauge(bh)
    failures = {r.identity_id: r.witness for r in rep.failures}
    one = bh.gc.field.one
    swapped = next(i for i, g in enumerate(gammas) if g.action.cols[0] == {2: one})
    assert set(failures) == {"gauge-group.action-compat", "gauge-group.F-equivariance"}
    assert failures["gauge-group.F-equivariance"] == {"gamma_index": swapped}


SIDE_NAMES = ("coact_side", "tau_side", "varsigma_side")


def test_each_gauge_law_reads_the_tower_sides(monkeypatch):
    """The nine sites of the gauge-transformation laws call the tower's three
    right sides: the connection condition and the ad-covariance of lambda
    when they are built, the six conn.* laws, and F-equivariance of the
    gauge group on the bundle."""
    tc, lam = curving_calculus()
    bh = classical_braided_hopf(build_gauge_coalgebra(build_bundle(*bundle_data())))
    calls, site = set(), [None]

    def within(site_of, fn):
        """fn, under which a side is called at the site site_of(its arguments)."""
        def wrapped(*args, **kwargs):
            outer, site[0] = site[0], site_of(*args)
            try:
                return fn(*args, **kwargs)
            finally:
                site[0] = outer
        return wrapped

    for side in SIDE_NAMES:
        real = getattr(BalancedTower, side)
        monkeypatch.setattr(BalancedTower, side, lambda self, legs, phi, real=real, side=side:
                            calls.add((site[0], side)) or real(self, legs, phi))
    monkeypatch.setattr(ValidationReport, "check", within(
        lambda self, ident, *rest: ident and ident[0], ValidationReport.check))
    monkeypatch.setattr(connection_mod.Connection, "__init__", within(
        lambda *args: "connection", connection_mod.Connection.__init__))
    monkeypatch.setattr(connection_mod, "perturbed_connection", within(
        lambda *args: "perturbation", connection_mod.perturbed_connection))
    conn = connection_mod.perturbed_connection(tc, lam)
    assert verify_transformations(conn).ok
    assert enumerate_gauge(bh)[2].ok
    assert calls == {
        ("connection", "coact_side"), ("perturbation", "coact_side"),
        ("conn.R-covariant", "coact_side"), ("conn.tr-conn", "tau_side"),
        ("conn.tr-R2", "tau_side"), ("conn.tr-R1", "varsigma_side"),
        ("conn.tr-D2", "tau_side"), ("conn.tr-D1", "varsigma_side"),
        ("gauge-group.F-equivariance", "coact_side")}
