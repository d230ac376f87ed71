import pytest

from qpb.bundle import build_bundle
from qpb.braiding import (
    braided_structure, classicality_report, sigma_m, verify_braiding_suite,
)
from qpb.linalg import viadd
from qpb.presets import point_bundle_data, trivial_bundle_data


def make_point(group, kind="function_algebra"):
    return build_bundle(*point_bundle_data(group, kind))


def make_trivial(group, points):
    return build_bundle(*trivial_bundle_data(group, points))


def test_sigma_on_units():
    b = make_point("Z2", "group_algebra")
    braid = sigma_m(b)
    # sigma(1 (x) q) = q (x) 1 for every q
    one = b.field.one
    for q in range(b.total.dim):
        v = b.b2.project_tuple((0, q))  # basis 0 is the unit e of C[Z2]
        got = braid.forward.apply(v)
        assert got == b.b2.project_tuple((q, 0))


def test_sigma_z2_group_algebra_values():
    b = make_point("Z2", "group_algebra")
    braid = sigma_m(b)
    # sigma(g (x) h) = ghg^-1 (x) g; for Z2: sigma(g (x) e) = e (x) g etc.
    assert braid.forward.apply(b.b2.project_tuple((1, 0))) == b.b2.project_tuple((0, 1))
    assert braid.forward.apply(b.b2.project_tuple((1, 1))) == b.b2.project_tuple((1, 1))


def test_sigma_function_algebra_is_flip_over_point():
    b = make_point("S3")
    braid = sigma_m(b)
    for i in range(3):
        for j in range(3):
            assert braid.forward.apply(b.b2.project_tuple((i, j))) == \
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


@pytest.mark.parametrize("mk, ns", [
    (lambda: make_point("Z2"), (3, 4)),                   # classical: pairs pruned
    (lambda: make_point("S3", "group_algebra"), (3,)),   # every factor product nonzero
    (lambda: make_trivial("Z2", 3), (3, 4)),             # V != C: balanced B_n
], ids=["z2-point", "s3-group-algebra", "z2-trivial-3pt"])
def test_mult_n_matches_all_pairs_product(mk, ns):
    b = mk()
    braid = sigma_m(b)
    one = b.field.one
    for n in ns:
        bn = b.b_space(n)
        fast, ref = braid.mult_n(n), all_pairs_mult_n(braid, n)
        assert braid.mult_n(n) is fast
        for i in range(bn.dim):
            for j in range(bn.dim):
                assert fast({i: one}, {j: one}) == ref({i: one}, {j: one}), (n, i, j)
