import pytest

from qpb.calculus import (
    build_total_calculus, trivial_base_calculus, universal_base_calculus,
)
from qpb.connection import (
    maurer_cartan, perturbed_connection, verify_transformations,
)
from qpb.errors import NotCovariant
from qpb.fodc import build_fodc, universal_ideal
from qpb.presets import functions_on_points, hopf_preset
from qpb.tensor import embed


def point_calculus(group):
    h = hopf_preset(group, "function_algebra")
    return build_total_calculus(build_fodc(h, universal_ideal(h)),
                                trivial_base_calculus(functions_on_points(1, h.field)))


def two_point_calculus(group, conductor=None):
    h = hopf_preset(group, "function_algebra", conductor)
    return build_total_calculus(build_fodc(h, universal_ideal(h)),
                                universal_base_calculus(2, h.field))


def lam_for(tc):
    """A curving perturbation for C(Z2) over 2 points at conductor 4:
    lambda(eta) = i (e_{x0 x1} - e_{x1 x0}).  It is anti-hermitian (matching
    eta* = -eta), ad-covariant (abelian group), has d lambda = 0, and its
    square is e_{x0 x1 x0} + e_{x1 x0 x1}, so the curvature is nonzero."""
    base = tc.base_calc
    i01 = base.space.index("x0|x1")
    i10 = base.space.index("x1|x0")
    z = tc.field.zeta(tc.field.n // 4)
    return [{i01: z, i10: -z}]


def test_maurer_cartan_point_flat():
    tc = point_calculus("Z2")
    conn = maurer_cartan(tc)
    for t in range(tc.fodc.dim):
        assert conn.curvature.cols[t] == {}
    # D = 0 on hor(P) = B over a point
    for v in tc.filtration_basis(0):
        if tc.omega.degree(min(v)) < 2:
            assert conn.covariant_derivative(v) == {}


def test_maurer_cartan_point_z3_flat():
    tc = point_calculus("Z3")
    conn = maurer_cartan(tc)
    for t in range(tc.fodc.dim):
        assert conn.curvature.cols[t] == {}


def test_transformations_point_z2():
    tc = point_calculus("Z2")
    rep = verify_transformations(maurer_cartan(tc))
    assert rep.ok, rep.to_text()


def test_transformations_point_z3():
    tc = point_calculus("Z3")
    rep = verify_transformations(maurer_cartan(tc))
    assert rep.ok, rep.to_text()


def test_transformations_two_point_mc():
    tc = two_point_calculus("Z2")
    rep = verify_transformations(maurer_cartan(tc))
    assert rep.ok, rep.to_text()


def test_perturbed_connection_two_point():
    tc = two_point_calculus("Z2", conductor=4)
    conn = perturbed_connection(tc, lam_for(tc))
    # frozen fixture: R(eta) = -2 (e_{x0 x1 x0} + e_{x1 x0 x1}) (x) 1, from
    # R = d lambda - <omega + lambda, omega + lambda> + d omega expanded by
    # hand: the cross terms cancel, d lambda = 0 and lambda^2 is the sum of
    # the two round trips
    om = tc.omega
    base = tc.base_calc
    two = tc.field.rational(2)
    expect = {}
    for lab in ("x0|x1|x0", "x1|x0|x1"):
        m = base.space.index(lab)
        for a, ca in tc.group.unit.items():
            expect.update(embed(om.tp, {m: -(two * ca)}, {a: tc.field.one}))
    assert conn.curvature.cols[0] == expect
    rep = verify_transformations(conn)
    assert rep.ok, rep.to_text()


def test_perturbation_zero_is_mc():
    tc = two_point_calculus("Z2")
    mc = maurer_cartan(tc)
    z = perturbed_connection(tc, [{} for _ in range(tc.fodc.dim)])
    assert z.omega_map == mc.omega_map


def test_bad_perturbation_rejected():
    tc = two_point_calculus("Z2")
    base = tc.base_calc
    # degree-0 values are not 1-forms
    with pytest.raises(NotCovariant):
        perturbed_connection(tc, [{0: tc.field.one}])
    # non-hermitian: lambda(eta) = e_{x0 x1} alone fails since eta* = -eta
    i01 = base.space.index("x0|x1")
    with pytest.raises(NotCovariant):
        perturbed_connection(tc, [{i01: tc.field.one}])
