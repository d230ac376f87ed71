from fractions import Fraction

import pytest

from qpb.cyclotomic import CycloField
from qpb.errors import InputError, NoHaar, NonUnique
from qpb.hopf import (
    HopfStarAlgebra, adjoint_action, compute_haar, cyclic_group,
    gen_from_group_table, named_group, symmetric_group_3, trivial_group,
    validate_hopf,
)
from qpb.linalg import LinearMap
from qpb.tensor import embed, from_legs


def make(kind, group, n_field=3):
    t = named_group(group)
    return gen_from_group_table(t, kind, CycloField(n_field))


def group_average_haar(h, t):
    """Independent oracle for C(G): the uniform average over the group."""
    return [Fraction(1, t.order)] * t.order


def test_presets_pass_validator():
    for kind in ("function_algebra", "group_algebra"):
        for g in ("Z2", "Z3", "S3", "trivial"):
            h = make(kind, g)
            rep = validate_hopf(h)
            assert rep.ok, (kind, g, rep.to_text())


def test_group_algebra_s3_noncommutative_with_witness():
    h = make("group_algebra", "S3")
    wit = h.is_commutative()
    assert wit is not None
    i, j = wit
    # witness pair multiplies differently in both orders
    assert h.algebra.mult[i][j] != h.algebra.mult[j][i]
    assert make("function_algebra", "S3").is_commutative() is None


def test_trivial_group_both_kinds_one_dimensional():
    for kind in ("function_algebra", "group_algebra"):
        h = make(kind, "trivial", n_field=1)
        assert h.dim == 1
        assert validate_hopf(h).ok


def test_broken_antipode_fails_with_witness():
    h = make("function_algebra", "Z2", n_field=1)
    zero = LinearMap.zero(h.space, h.space, h.field)
    broken = HopfStarAlgebra(h.algebra, [h.sweedler(i) for i in range(h.dim)], h.counit,
                             LinearMap.identity(h.space, h.field), h.haar)
    broken.antipode = zero  # keep invertible antipode_inverse from identity
    rep = validate_hopf(broken)
    bad = [r for r in rep.records if r.status == "fail"]
    assert any(r.identity_id == "hopf.antipode" for r in bad)
    wit = next(r for r in bad if r.identity_id == "hopf.antipode").witness
    assert wit["basis_label"] == h.space.labels[wit["basis_index"]]


def haar_values(h):
    return [h.haar_of({i: h.field.one}) for i in range(h.dim)]


def test_haar_function_algebra_matches_group_average():
    for g, order in (("Z2", 2), ("Z3", 3), ("S3", 6)):
        h = make("function_algebra", g)
        t = named_group(g)
        computed = compute_haar(h)
        expected = group_average_haar(h, t)
        for i in range(h.dim):
            v = computed.apply({i: h.field.one}).get(0, h.field.zero)
            assert v == h.field.rational(expected[i])
        # preset haar coincides with the solved one
        assert computed == h.haar


def test_haar_group_algebra_picks_identity_coefficient():
    for g in ("Z2", "S3"):
        h = make("group_algebra", g)
        t = named_group(g)
        computed = compute_haar(h)
        for i in range(h.dim):
            v = computed.apply({i: h.field.one}).get(0, h.field.zero)
            want = h.field.one if i == t.identity else h.field.zero
            assert v == want


def test_haar_no_solution_for_diagonal_coproduct():
    # phi(e_i) = e_i (x) e_i on C(Z2) is not a coproduct; invariance forces 0
    F = CycloField(1)
    h = make("function_algebra", "Z2", n_field=1)
    diag = [[((i, i), F.one)] for i in range(2)]
    fake = HopfStarAlgebra(h.algebra, diag, h.counit, h.antipode)
    with pytest.raises(NoHaar):
        compute_haar(fake)


def test_haar_nonunique_branch_on_degenerate_input():
    # with a nonzero unit the invariance system always pins the solution line,
    # so the dim > 1 branch is exercised with a deliberately broken unit
    F = CycloField(1)
    h = make("function_algebra", "Z2", n_field=1)
    from qpb.hopf import StarAlgebra
    broken_alg = StarAlgebra("broken", F, h.space, h.algebra.mult, {}, h.algebra.star)
    fake = HopfStarAlgebra(broken_alg, [[] for _ in range(h.dim)], h.counit, h.antipode)
    with pytest.raises(NonUnique):
        compute_haar(fake)


def test_adjoint_action_abelian_is_trivial():
    h = make("function_algebra", "Z2", n_field=1)
    ad = adjoint_action(h)
    # ad(d_g) = d_g (x) 1 for abelian groups
    for i in range(h.dim):
        assert ad.cols[i] == embed(h.square, {i: h.field.one}, h.unit)


def test_adjoint_action_group_algebra_trivial_by_cocommutativity():
    h = make("group_algebra", "S3")
    ad = adjoint_action(h)
    for i in range(h.dim):
        expect = embed(h.square, {i: h.field.one}, {named_group("S3").identity: h.field.one})
        assert ad.cols[i] == expect


def test_adjoint_action_function_s3_encodes_conjugation():
    h = make("function_algebra", "S3")
    t = symmetric_group_3()
    ad = adjoint_action(h)  # ad(d_g) = sum_x d_{x^-1 g x} (x) d_{x^-1}
    n = t.order
    for g in range(n):
        expect = from_legs(h.square, [((t.mult[t.mult[t.inverse[x]][g]][x], t.inverse[x]),
                                       h.field.one) for x in range(n)])
        assert ad.cols[g] == expect


def test_adjoint_of_unit():
    for kind in ("function_algebra", "group_algebra"):
        h = make(kind, "S3")
        ad = adjoint_action(h)
        assert ad.apply(h.unit) == embed(h.square, h.unit, h.unit)


def test_antipode_squared_is_identity_on_presets():
    for kind in ("function_algebra", "group_algebra"):
        for g in ("Z3", "S3"):
            h = make(kind, g)
            sq = h.antipode.compose(h.antipode)
            assert sq == LinearMap.identity(h.space, h.field)


def test_group_table_validation():
    with pytest.raises(InputError):
        # broken associativity / identity
        from qpb.hopf import GroupTable
        GroupTable.build("bad", [[0, 1], [1, 1]])
    assert cyclic_group(3).order == 3
    assert trivial_group().order == 1
