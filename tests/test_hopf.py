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


# -- derived corepresentations against character tables ------------------------------

def derived(h):
    """The derived (functional, dim) pairs of A, as a set."""
    return {(tuple(c.functional), c.dim) for c in h.corepresentations}


def from_characters(h, table):
    """e_alpha(d_g) = (d_alpha/|G|) conj(chi_alpha(g)) for C(G): one pair
    per character chi_alpha, given by its values in the basis order, the
    first at the identity, where chi_alpha(e) = d_alpha."""
    out = set()
    for chi in table:
        d = chi[0].rational_value()
        scale = h.field.rational(d / h.dim)
        out.add((tuple(scale * x.conj() for x in chi), d))
    return out


def test_c_s3_corepresentations_match_the_character_table():
    h = make("function_algebra", "S3")
    assert h.space.labels == ("de", "ds", "dsr", "dsr2", "dr", "dr2")
    table = [(1, 1, 1, 1, 1, 1), (1, -1, -1, -1, 1, 1), (2, 0, 0, 0, -1, -1)]
    table = [[h.field.rational(x) for x in chi] for chi in table]
    assert derived(h) == from_characters(h, table)
    assert sorted(c.dim for c in h.corepresentations) == [1, 1, 2]


@pytest.mark.parametrize("n, conductor", [(2, 4), (3, 3), (4, 4)])
def test_c_zn_corepresentations_match_the_characters(n, conductor):
    h = make("function_algebra", f"Z{n}", n_field=conductor)
    powers = [h.field.one]
    for _ in range(n - 1):
        powers.append(powers[-1] * h.field.zeta(conductor // n))
    # chi_j(r_k) = zeta^(jk)
    table = [[powers[j * k % n] for k in range(n)] for j in range(n)]
    assert derived(h) == from_characters(h, table)


@pytest.mark.parametrize("group", ["trivial", "Z2", "Z3", "S3"])
def test_group_algebra_corepresentations_are_the_group_elements(group):
    h = make("group_algebra", group)
    field = h.field
    want = {(tuple(field.one if x == g else field.zero for x in range(h.dim)), 1)
            for g in range(h.dim)}
    assert derived(h) == want


@pytest.mark.parametrize("kind", ["function_algebra", "group_algebra"])
@pytest.mark.parametrize("group", ["trivial", "Z2", "Z3", "S3"])
def test_sum_of_squared_corepresentation_dims_is_dim_a(kind, group):
    h = make(kind, group)
    coreps = h.corepresentations
    assert sum(c.dim ** 2 for c in coreps) == h.dim
    assert [c.name for c in coreps] == [f"alpha{i}" for i in range(len(coreps))]


def test_centre_not_split_over_the_field_gives_none():
    """Over Q, C[Z3] = Q (+) Q(zeta_3): the centre of the dual of C(Z3) keeps
    a piece of local dimension 2."""
    assert make("function_algebra", "Z3", n_field=1).corepresentations is None
