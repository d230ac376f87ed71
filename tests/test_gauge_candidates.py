from qpb.bundle import build_bundle
from qpb.gauge import build_gauge_coalgebra, verify_gauge_candidate
from qpb.linalg import LinearMap
from qpb.presets import point_bundle_data
from qpb.tensor import slot_apply


def test_counit_is_a_gauge_candidate_noncommutative():
    """On C[S3] over a point the gauge group is not enumerable (L is
    noncommutative as a coalgebra dual), but single candidates can still be
    verified; the counit always qualifies."""
    b = build_bundle(*point_bundle_data("S3", "group_algebra"))
    gc = build_gauge_coalgebra(b)
    eps = LinearMap(gc.l_space, b.base.space, gc.eps_m.cols, b.field)
    flags = verify_gauge_candidate(gc, eps)
    assert flags["unital"] is True
    assert flags["v_linear"] is True
    assert flags["compatibility"] is True
    # multiplicativity/star are evaluated whenever L closes, else None
    assert flags["multiplicative"] in (True, None)
    assert flags["star"] in (True, None)


def test_broken_candidate_flagged():
    b = build_bundle(*point_bundle_data("Z2", "function_algebra"))
    gc = build_gauge_coalgebra(b)
    zero = LinearMap.zero(gc.l_space, b.base.space, b.field)
    flags = verify_gauge_candidate(gc, zero)
    assert flags["unital"] is False


def test_x_is_a_bimodule_map():
    b = build_bundle(*point_bundle_data("Z3", "function_algebra"))
    # X(f.x) = (f (x) 1) X(x) and X(x.f) = X(x) (f (x) 1) for f in V
    ba = b.mixed_space("BA")
    one = b.field.one
    for fvec, lf, rf in zip(b.base_vectors, b.b_factor.lact, b.b_factor.ract):
        for i in range(b.b2.dim):
            lhs = b.X.apply(slot_apply(b.b2, {i: one}, 0, lf))
            rhs = {}
            from qpb.linalg import viadd
            for fj, c in ba.lift(b.X.apply({i: one})).items():
                u, a = ba.tuples[fj]
                for k, ck in b.total.mul(fvec, {u: one}).items():
                    viadd(rhs, c * ck, {ba.flat_index((k, a)): one})
            assert lhs == ba.project(rhs)
            lhs = b.X.apply(slot_apply(b.b2, {i: one}, 1, rf))
            rhs = {}
            for fj, c in ba.lift(b.X.apply({i: one})).items():
                u, a = ba.tuples[fj]
                for k, ck in b.total.mul({u: one}, fvec).items():
                    viadd(rhs, c * ck, {ba.flat_index((k, a)): one})
            assert lhs == ba.project(rhs)


def test_debug_solve_substitution():
    import qpb.linalg as linalg
    old = linalg.DEBUG_SOLVE
    linalg.DEBUG_SOLVE = True
    try:
        b = build_bundle(*point_bundle_data("Z2", "function_algebra"))
        assert b.tau.cols  # construction exercised solve with checking on
    finally:
        linalg.DEBUG_SOLVE = old
