import pytest

from qpb.bundle import build_bundle
from qpb.errors import NotClassical, NotCommutative
from qpb.gauge import (
    build_gauge_coalgebra, classical_braided_hopf, enumerate_gauge,
    gauge_group_table, isotypic_decompose,
)
from qpb.presets import point_bundle_data, trivial_bundle_data


def make_point(group, kind="function_algebra"):
    return build_bundle(*point_bundle_data(group, kind))


def make_trivial(group, points):
    return build_bundle(*trivial_bundle_data(group, points))


def test_gauge_coalgebra_cz2_point():
    b = make_point("Z2")
    gc = build_gauge_coalgebra(b)
    assert gc.report.ok, gc.report.to_text()
    assert len(gc.l_basis) == 2  # dim L = dim A over a point


def test_gauge_coalgebra_group_algebra_s3():
    b = make_point("S3", "group_algebra")
    gc = build_gauge_coalgebra(b)
    assert gc.report.ok, gc.report.to_text()
    assert len(gc.l_basis) == 6


def test_gauge_coalgebra_trivial_bundle():
    b = make_trivial("Z2", 2)
    gc = build_gauge_coalgebra(b)
    assert gc.report.ok, gc.report.to_text()
    assert len(gc.l_basis) == 4  # V (x) A worth of invariants


def test_classical_braided_hopf_cz2():
    b = make_point("Z2")
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    assert bh.report.ok, bh.report.to_text()


def test_classical_braided_hopf_cz3():
    b = make_point("Z3")
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    assert bh.report.ok, bh.report.to_text()


def test_classical_braided_hopf_trivial_bundle():
    b = make_trivial("Z2", 2)
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    assert bh.report.ok, bh.report.to_text()


def test_classical_refuses_noncommutative():
    b = make_point("S3", "group_algebra")
    gc = build_gauge_coalgebra(b)
    with pytest.raises(NotClassical):
        classical_braided_hopf(gc)


def test_enumerate_gauge_trivial_z2_two_points():
    b = make_trivial("Z2", 2)
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    gammas, _, rep = enumerate_gauge(bh)
    assert rep.ok, rep.to_text()
    assert len(gammas) == 4  # |G|^|X| = 2^2
    # Klein four group: every action squares to the identity
    from qpb.linalg import LinearMap
    ident = LinearMap.identity(b.total.space, b.field)
    for g in gammas:
        assert g.action.compose(g.action) == ident


def test_enumerate_gauge_point_z3():
    b = make_point("Z3")
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    gammas, table, rep = enumerate_gauge(bh)
    assert rep.ok, rep.to_text()
    assert len(gammas) == 3
    # cyclic of order 3: a non-identity element has order 3
    from qpb.linalg import LinearMap
    ident = LinearMap.identity(b.total.space, b.field)
    nontriv = [g for g in gammas if g.action != ident]
    assert len(nontriv) == 2
    g = nontriv[0]
    assert g.action.compose(g.action) != ident
    assert g.action.compose(g.action).compose(g.action) == ident
    # the returned group table is a Latin square with the counit eps_M as its unit
    assert table == gauge_group_table(gammas)
    assert all(sorted(row) == [0, 1, 2] for row in table)
    assert all(sorted(col) == [0, 1, 2] for col in zip(*table))
    e = next(i for i, g in enumerate(gammas) if g.action == ident)
    assert table[e] == [0, 1, 2] and [row[e] for row in table] == [0, 1, 2]


def test_enumeration_oracle_set_maps():
    """Brute-force oracle: gauge transformations of a trivial bundle are the
    set maps X -> G acting fiberwise; compare the action matrices."""
    b = make_trivial("Z2", 2)
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    gammas, _, _ = enumerate_gauge(bh)
    got = set()
    for g in gammas:
        got.add(tuple(tuple(sorted((k, c.literal()) for k, c in col.items()))
                      for col in g.action.cols))
    # oracle: u_phi(delta_x (x) delta_g) = delta_x (x) delta_{g phi(x)^-1}-like
    # translations; enumerate all 4 set maps and both left/right conventions,
    # one of which must reproduce the enumerated actions exactly
    from itertools import product as iproduct
    from qpb.hopf import named_group
    t = named_group("Z2")
    da = t.order
    conventions = []
    for phi in iproduct(range(da), repeat=2):
        cols_l = []
        cols_r = []
        for p in range(2):
            for a in range(da):
                cols_l.append({p * da + t.mult[phi[p]][a]: b.field.one})
                cols_r.append({p * da + t.mult[a][t.inverse[phi[p]]]: b.field.one})
        conventions.append((tuple(phi), cols_l, cols_r))
    oracle_l = set()
    oracle_r = set()
    for phi, cols_l, cols_r in conventions:
        oracle_l.add(tuple(tuple(sorted((k, c.literal()) for k, c in col.items()))
                           for col in cols_l))
        oracle_r.add(tuple(tuple(sorted((k, c.literal()) for k, c in col.items()))
                           for col in cols_r))
    assert got == oracle_l or got == oracle_r


def test_enumerate_gauge_rejects_noncommutative_L():
    b = make_point("Z2")
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    # sanity: this one enumerates fine (2 transformations)
    gammas, _, rep = enumerate_gauge(bh)
    assert len(gammas) == 2


def test_isotypic_cs3_point():
    b = make_point("S3")
    gc = build_gauge_coalgebra(b)
    dec = isotypic_decompose(b, gc)
    assert dec.report.ok, dec.report.to_text()
    dims = sorted((name, d, len(basis), m) for name, d, basis, m in dec.components)
    # C(S3): components of dims d_alpha * m_alpha = 1, 1, 4
    assert sorted(len(basis) for _, _, basis, _ in dec.components) == [1, 1, 4]
    assert sum((m or 0) ** 2 for _, _, _, m in dec.components) == 6


def test_isotypic_cz2_point():
    b = make_point("Z2")
    gc = build_gauge_coalgebra(b)
    dec = isotypic_decompose(b, gc)
    assert dec.report.ok, dec.report.to_text()
    assert sorted(len(basis) for _, _, basis, _ in dec.components) == [1, 1]


def test_isotypic_group_algebra():
    b = make_point("S3", "group_algebra")
    gc = build_gauge_coalgebra(b)
    dec = isotypic_decompose(b, gc)
    assert dec.report.ok, dec.report.to_text()
    assert len(dec.components) == 6
    assert all(len(basis) == 1 for _, _, basis, _ in dec.components)


def test_isotypic_unavailable():
    from qpb.hopf import HopfStarAlgebra
    b = make_point("Z2")
    b.group.corepresentations = None
    dec = isotypic_decompose(b)
    assert dec.components is None
    assert any(r.status == "vacuous" for r in dec.report.records)


def test_trivial_group_single_component():
    b = make_point("trivial", "group_algebra")
    gc = build_gauge_coalgebra(b)
    dec = isotypic_decompose(b, gc)
    assert dec.report.ok
    assert len(dec.components) == 1
    assert len(dec.components[0][2]) == b.total.dim


def test_classical_suite_runs_classicality_once(monkeypatch):
    """The classical suite runs the four-way dichotomy once; BraidedHopf reads
    classicality off the structure group (Prop 4.1 (i)) instead of re-running
    it."""
    from pathlib import Path

    import qpb.braiding
    import qpb.formats
    from qpb.formats import BuildResult, load_file, run_suites

    case = Path(__file__).resolve().parents[1] / "bench" / "cases" / "z2-point-bundle.json"
    build = BuildResult(load_file(str(case)))
    calls = []
    original = qpb.braiding.classicality_report

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qpb.braiding, qpb.formats):
        monkeypatch.setattr(module, "classicality_report", counted)
    rep = run_suites(build, ["classical"])
    assert rep.ok, rep.to_text()
    assert len(calls) == 1


def doubled_product(real):
    def compose(g1, g2):
        return real(g1, g2).scale(g1.gc.field.rational(2))
    return compose


def doubled_action(real):
    def init(self, gc, functional):
        real(self, gc, functional)
        self.action = self.action.scale(gc.field.rational(2))
    return init


@pytest.mark.parametrize("target, attr, breaking, broken", [
    ("module", "compose_gammas", doubled_product,
     {"gauge-group.closed", "gauge-group.inverse", "gauge-group.action-compat"}),
    ("class", "__init__", doubled_action,
     {"gauge-group.automorphisms", "gauge-group.action-compat"}),
], ids=["compose_gammas", "action"])
def test_gauge_group_records_fail_under_their_own_label_with_a_witness(
        monkeypatch, target, attr, breaking, broken):
    """Doubling the group product or every action on the classical C(Z2)
    point bundle fails the gauge-group laws it breaks; each failing record
    keeps its passing label and names the first offending transformation
    (gamma_index) or pair (gamma_pair)."""
    import qpb.gauge as gauge_mod

    bh = classical_braided_hopf(build_gauge_coalgebra(make_point("Z2")))
    _, _, rep = enumerate_gauge(bh)
    assert rep.ok, rep.to_text()
    labels = {r.identity_id: r.paper_label for r in rep.records}
    owner = gauge_mod if target == "module" else gauge_mod.GaugeTransformation
    monkeypatch.setattr(owner, attr, breaking(getattr(owner, attr)))
    _, _, rep = enumerate_gauge(bh)
    failures = {r.identity_id: r for r in rep.failures}
    assert set(failures) == broken
    assert [r.identity_id for r in rep.records] == list(labels)
    for ident, rec in failures.items():
        assert rec.paper_label == labels[ident]
        assert rec.witness and set(rec.witness) <= {"gamma_index", "gamma_pair"}
