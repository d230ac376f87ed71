"""Every structure check fails exactly where it should.

``GradedStarAlgebra.add_axiom_records`` checks the *-algebra axioms of A, B,
Omega(M) and Gamma^, and ``add_coaction_records`` checks phi on A, F on B,
phi^ on Gamma^, F^ on Omega(P) and the adjoint action.  For every site and
identity one targeted mutation breaks that identity.  A site that records
then fails exactly that record among the checker's records, with a witness;
a site that rejects its input raises at that identity.
"""

import pytest

import qpb.fodc as fodc_mod
import qpb.hopf as hopf_mod
from qpb.bundle import build_bundle
from qpb.calculus import (
    build_total_calculus, differential_suite, trivial_base_calculus,
    universal_base_calculus,
)
from qpb.cyclotomic import CycloField
from qpb.errors import NotCoaction, SpecFileError, ValidationFailed
from qpb.fodc import GammaEnvelope, build_envelope2, build_fodc, universal_ideal
from qpb.formats import BuildResult, parse_spec
from qpb.hopf import HopfStarAlgebra, StarAlgebra, adjoint_action, validate_hopf
from qpb.linalg import LinearMap
from qpb.presets import (
    functions_on_points, generate_example, hopf_preset, serialize_example, trivial_bundle,
)


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
    """h with some of its structure replaced."""
    a = h.algebra
    alg = StarAlgebra(a.name, a.field, a.space, mult or a.mult,
                      a.unit if unit is None else unit, star or a.star)
    return HopfStarAlgebra(alg, coproduct or h.coproduct, counit or h.counit,
                           h.antipode, h.haar)


def magma_coproduct(h):
    """The coproduct of C(X) from the unital, non-associative product on the
    points of Z3 with x y = e for x, y != e: multiplicative, hermitian and
    counital, but not coassociative."""
    n, one = h.dim, h.field.one
    cols = [{} for _ in range(n)]
    for x in range(n):
        for y in range(n):
            cols[x if y == 0 else y if x == 0 else 0][x * n + y] = one
    return LinearMap(h.space, h.coproduct.codomain, cols, h.field)


def right_unit_coproduct(h):
    """a -> a (x) 1: multiplicative, hermitian, coassociative and right
    counital, but not left counital."""
    n = h.dim
    cols = [{i * n + k: c for k, c in h.unit.items()} for i in range(n)]
    return LinearMap(h.space, h.coproduct.codomain, cols, h.field)


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


# -- F on B: build_bundle rejects at bundle.coaction --------------------------------


def bundle_data(group="Z2"):
    h = hopf_preset(group, "function_algebra")
    total, coaction = trivial_bundle(h, 2)
    return total, h, coaction


def bundle_with_broken_star():
    total, h, coaction = bundle_data()
    star = with_col(total.star, 1, negated(total.star.cols[1]))
    total = StarAlgebra(total.name, total.field, total.space, total.mult, total.unit, star)
    return total, h, coaction


def bundle_with_magma_group():
    total, h, coaction = bundle_data("Z3")
    return total, rebuilt(h, coproduct=magma_coproduct(h)), coaction


def bundle_with_broken_counit():
    total, h, coaction = bundle_data()
    return total, rebuilt(h, counit=with_col(h.counit, 0, doubled(h.counit.cols[0]))), coaction


def bundle_with_doubled_column():
    total, h, coaction = bundle_data()
    return total, h, with_col(coaction, 1, doubled(coaction.cols[1]))


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
    """Scale d by i: still a derivation with d^2 = 0, no longer hermitian."""
    i = alg.field.root_of_unity(4)
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
