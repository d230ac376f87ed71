"""Acceptance suite: one criterion per test, exact (tolerance-zero)
arithmetic throughout, one pass/fail line printed per criterion."""

import json
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from qpb.braiding import classicality_report, verify_braiding_suite
from qpb.bundle import build_bundle, translation_identities
from qpb.calculus import (
    build_total_calculus, differential_suite, trivial_base_calculus,
    universal_base_calculus,
)
from qpb.connection import maurer_cartan, perturbed_connection, verify_transformations
from qpb.fodc import build_fodc, universal_ideal
from qpb.formats import BuildResult, parse_spec, run_suites
from qpb.gauge import (
    build_gauge_coalgebra, classical_braided_hopf, enumerate_gauge,
    isotypic_decompose,
)
from qpb.hopf import compute_haar, named_group
from qpb.linalg import LinearMap
from qpb.presets import (
    functions_on_points, generate_example, hopf_preset, point_bundle_data,
    serialize_example, trivial_bundle_data,
)

_LINES = []


def verdict(num, name, ok):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bundles():
    cache = {}

    def get(kind, group, points=1):
        key = (kind, group, points)
        if key not in cache:
            if kind == "point":
                data = point_bundle_data(group[0], group[1])
            else:
                data = trivial_bundle_data(group[0], points, group[1])
            cache[key] = build_bundle(*data)
        return cache[key]

    return get


def _calculus(group, base, conductor=None):
    h = hopf_preset(group, "function_algebra", conductor)
    if base == "point":
        bc = trivial_base_calculus(functions_on_points(1, h.field))
    else:
        bc = universal_base_calculus(2, h.field)
    return build_total_calculus(build_fodc(h, universal_ideal(h)), bc)


def test_criterion_01_braid_axioms(bundles):
    """Prop 2.1 on C(Z3)-point, C[S3]-point and the trivial Z2 bundle over
    two points, each within ten seconds."""
    ok = True
    for kind, group, pts in (("point", ("Z3", "function_algebra"), 1),
                             ("point", ("S3", "group_algebra"), 1),
                             ("trivial", ("Z2", "function_algebra"), 2)):
        b = bundles(kind, group, pts)
        t0 = time.monotonic()
        rep = verify_braiding_suite(b)
        elapsed = time.monotonic() - t0
        need = {"braiding.braid", "braiding.prod-sM1", "braiding.prod-sM2",
                "braiding.comm", "braiding.inv"}
        got = {r.identity_id for r in rep.records if r.status == "pass"}
        ok = ok and rep.ok and need <= got and elapsed < 10.0
    verdict(1, "braid-axioms", ok)


def test_criterion_02_classicality_dichotomy(bundles):
    ok = True
    for group in ("Z2", "Z3", "S3"):
        classical, rep = classicality_report(bundles("point", (group, "function_algebra")))
        ok = ok and classical and rep.ok
    classical, rep = classicality_report(bundles("point", ("S3", "group_algebra")))
    recs = {r.identity_id: r for r in rep.records}
    wit = recs["classicality.iv"].witness
    ok = (ok and not classical and rep.ok
          and wit is not None and "sigma^2" in wit and "basis_label" in wit)
    verdict(2, "prop-4.1-dichotomy", ok)


def test_criterion_03_translation_suite(bundles):
    ok = True
    point_presets = [("Z2", "function_algebra"), ("Z3", "function_algebra"),
                     ("S3", "function_algebra"), ("Z2", "group_algebra"),
                     ("S3", "group_algebra")]
    for group in point_presets:
        b = bundles("point", group)
        rep = translation_identities(b)
        ids = {r.identity_id for r in rep.records}
        ok = ok and rep.ok and "translation.point-oracle" in ids
    for pts in (1, 2, 3):
        b = bundles("trivial", ("Z2", "function_algebra"), pts)
        rep = translation_identities(b)
        ids = {r.identity_id for r in rep.records if r.status == "pass"}
        ok = ok and rep.ok and "translation.centrality" in ids
    verdict(3, "translation-suite", ok)


def test_criterion_04_haar_oracles():
    ok = True
    for group, kind in (("Z2", "function_algebra"), ("Z3", "function_algebra"),
                        ("S3", "function_algebra"), ("Z2", "group_algebra"),
                        ("S3", "group_algebra")):
        h = hopf_preset(group, kind)
        t = named_group(group)
        computed = compute_haar(h)  # raises unless the solution space is 1-dim
        for i in range(h.dim):
            got = computed.apply({i: h.field.one}).get(0, h.field.zero)
            if kind == "function_algebra":
                want = h.field.rational(Fraction(1, t.order))
            else:
                want = h.field.one if i == t.identity else h.field.zero
            ok = ok and got == want
    verdict(4, "haar-oracles", ok)


def test_criterion_05_gauge_coalgebra(bundles):
    ok = True
    need = {"gauge.pL-idem", "gauge.pL-image", "gauge.f3-incl", "gauge.muL",
            "gauge.counit-left", "gauge.counit-right", "gauge.e-fgau",
            "gauge.coact", "gauge.coasso", "gauge.fgau-F",
            "gauge.antipode-1", "gauge.antipode-2"}
    for group, kind in (("Z2", "function_algebra"), ("S3", "group_algebra")):
        b = bundles("point", (group, kind))
        gc = build_gauge_coalgebra(b)
        got = {r.identity_id for r in gc.report.records if r.status == "pass"}
        # over a point, dim L = dim A, confirmed by two independent
        # computations (rank of p_L and the F_2 fixed-point space)
        ok = (ok and gc.report.ok and need <= got
              and len(gc.l_basis) == b.group.dim)
    b = bundles("point", ("S3", "function_algebra"))
    gc = build_gauge_coalgebra(b)
    dec = isotypic_decompose(b, gc)
    mults = sorted((m or 0) for _, _, _, m in dec.components)
    ok = (ok and dec.report.ok and mults == [1, 1, 2]
          and sum(m * m for m in mults) == 6 == len(gc.l_basis))
    verdict(5, "gauge-coalgebra", ok)


def test_criterion_06_classical_braided_hopf(bundles):
    ok = True
    need = {"classical.tw", "classical.Sigma-involutive", "classical.Sigma-star",
            "classical.Sigma-phi-1", "classical.Sigma-phi-2",
            "classical.phiM-star-hom", "classical.antipode-left",
            "classical.antipode-right"}
    for group in ("Z2", "Z3"):
        b = bundles("point", (group, "function_algebra"))
        gc = build_gauge_coalgebra(b)
        bh = classical_braided_hopf(gc)
        got = {r.identity_id for r in bh.report.records if r.status == "pass"}
        lemma = {r.identity_id for r in gc.report.records
                 if r.status == "pass" and r.identity_id.startswith("gauge.antipode")}
        ok = ok and bh.report.ok and need - {"classical.antipode-left",
                                             "classical.antipode-right"} <= got \
            and {"gauge.antipode-1", "gauge.antipode-2"} <= lemma \
            and {"classical.antipode-left", "classical.antipode-right"} <= got
    verdict(6, "classical-braided-hopf", ok)


def test_criterion_07_gauge_group(bundles):
    b = bundles("trivial", ("Z2", "function_algebra"), 2)
    gc = build_gauge_coalgebra(b)
    bh = classical_braided_hopf(gc)
    gammas, _, rep = enumerate_gauge(bh)
    ok = rep.ok and len(gammas) == 4
    need = {"gauge-group.action-compat", "gauge-group.F-equivariance",
            "gauge-group.automorphisms", "gauge-group.closed",
            "gauge-group.inverse"}
    got = {r.identity_id for r in rep.records if r.status == "pass"}
    ok = ok and need <= got
    # Klein four group: all four actions square to the identity
    ident = LinearMap.identity(b.total.space, b.field)
    ok = ok and all(g.action.compose(g.action) == ident for g in gammas)
    # brute-force oracle: the actions are exactly the set-map translations
    t = named_group("Z2")
    da = t.order
    enumerated = set()
    for g in gammas:
        enumerated.add(tuple(tuple(sorted((k, c.literal()) for k, c in col.items()))
                             for col in g.action.cols))
    left, right = set(), set()
    for phi in iproduct(range(da), repeat=2):
        cols_l, cols_r = [], []
        for p in range(2):
            for a in range(da):
                cols_l.append({p * da + t.mult[phi[p]][a]: b.field.one})
                cols_r.append({p * da + t.mult[a][t.inverse[phi[p]]]: b.field.one})
        left.add(tuple(tuple(sorted((k, c.literal()) for k, c in col.items()))
                       for col in cols_l))
        right.add(tuple(tuple(sorted((k, c.literal()) for k, c in col.items()))
                        for col in cols_r))
    ok = ok and (enumerated == left or enumerated == right)
    verdict(7, "gauge-group", ok)


def test_criterion_08_differential_suite(bundles):
    ok = True
    need = {"diff.g-inv", "diff.gsM-filt-0", "diff.gsM-filt-1", "diff.gsM-filt-2",
            "diff.g-braid", "diff.g-d", "diff.g-comm", "diff.g-star",
            "diff.tau-mult", "envelope.sigma-delta",
            "diff.Lhat-counit-left", "diff.Lhat-counit-right",
            "diff.Lhat-e-fgau", "diff.Lhat-coact", "diff.Lhat-coasso"}
    for group in ("Z2", "Z3"):
        for base in ("point", "two-point"):
            tc = _calculus(group, base)
            # the product bundle whose B is Omega^0(P)
            points = 1 if base == "point" else 2
            gc = build_gauge_coalgebra(bundles("trivial", (group, "function_algebra"), points))
            rep = differential_suite(tc, gauge_coalgebra=gc)
            got = {r.identity_id for r in rep.records if r.status == "pass"}
            ok = ok and rep.ok and need <= got
            # tau^ from X^-inversion also satisfies gP-inv independently
            conn_rep = verify_transformations(maurer_cartan(tc))
            got2 = {r.identity_id for r in conn_rep.records if r.status == "pass"}
            ok = ok and conn_rep.ok and {"conn.gP-inv", "conn.d-aP"} <= got2
    verdict(8, "differential-suite", ok)


def test_criterion_09_connections():
    ok = True
    # flat Maurer-Cartan over a point
    for group in ("Z2", "Z3"):
        tc = _calculus(group, "point")
        conn = maurer_cartan(tc)
        ok = ok and all(not conn.curvature.cols[t] for t in range(tc.fodc.dim))
        for v in tc.filtration_basis(0):
            if tc.omega.degree(min(v)) < 2:
                ok = ok and conn.covariant_derivative(v) == {}
    # perturbed connection over the 2-point universal base
    tc = _calculus("Z2", "two-point", conductor=4)
    base = tc.base_calc
    z = tc.field.zeta(tc.field.n // 4)
    lam = [{base.space.index("x0|x1"): z, base.space.index("x1|x0"): -z}]
    conn = perturbed_connection(tc, lam)
    ok = ok and any(conn.curvature.cols[t] for t in range(tc.fodc.dim))
    rep = verify_transformations(conn)
    need = {"conn.tr-conn", "conn.tr-R2", "conn.tr-D2"}
    got = {r.identity_id for r in rep.records if r.status == "pass"}
    ok = ok and rep.ok and need <= got
    # tr-R1 / tr-D1 hold under the flagged W_3-product interpretation
    recs = {r.identity_id: r for r in rep.records}
    for ident in ("conn.tr-R1", "conn.tr-D1"):
        r = recs[ident]
        ok = ok and r.status == "pass" and r.note and "W_3" in r.note
    verdict(9, "connections", ok)


def test_criterion_10_cli_contract(tmp_path):
    from qpb.cli import main
    ok = True
    presets = [
        ("c-group", {"group": "Z2", "fodc": "universal"}),
        ("c-group", {"group": "Z3", "fodc": "universal",
                     "base_calculus": "trivial"}),
        ("c-group", {"group": "S3"}),
        ("group-algebra", {"group": "Z2"}),
        ("group-algebra", {"group": "S3"}),
        ("point-bundle", {"group": "Z2"}),
        ("trivial-bundle", {"group": "Z2", "base_points": 2,
                            "fodc": "universal", "base_calculus": "universal"}),
    ]
    for name, kw in presets:
        doc = generate_example(name, **kw)
        path = tmp_path / f"{name}-{kw.get('group')}.json"
        path.write_text(serialize_example(doc), encoding="utf-8")
        code = main(["check", str(path), "--suite", "all", "--report", "json"])
        ok = ok and code == 0
    # byte-identical JSON across two runs
    doc = generate_example("c-group", group="Z3", fodc="universal")
    sf1 = parse_spec(serialize_example(doc))
    rep1 = run_suites(BuildResult(sf1), ["all"]).to_json({"suites": ["all"]})
    sf2 = parse_spec(serialize_example(doc))
    rep2 = run_suites(BuildResult(sf2), ["all"]).to_json({"suites": ["all"]})
    ok = ok and rep1 == rep2
    # three deliberately broken fixtures exit 2 with positioned diagnostics
    import io
    import contextlib
    broken = []
    d1 = generate_example("c-group", group="Z2")
    d1["hopf"]["antipode"] = [[0, 0, "1"], [1, 1, "0"]]
    broken.append(("hopf", d1))
    d2 = generate_example("c-group", group="Z2")
    dim = len(d2["hopf"]["basis"])
    d2["bundle"] = {"basis": list(d2["hopf"]["basis"]),
                    "mult": list(d2["hopf"]["mult"]),
                    "star": list(d2["hopf"]["star"]),
                    "coaction": [[i, i, k, "1"] for i in range(dim)
                                 for k in range(dim)]}
    broken.append(("bundle.coaction", d2))
    d3 = generate_example("c-group", group="S3")
    d3["fodc"] = {"ideal_basis": [[[1, "1"], [2, "-1"]]]}
    broken.append(("fodc.ideal_basis", d3))
    import sys
    for n, (where, doc_b) in enumerate(broken):
        path = tmp_path / f"broken{n}.json"
        path.write_text(serialize_example(doc_b), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["check", str(path), "--suite", "all"])
        ok = ok and code == 2 and where in err.getvalue()
    verdict(10, "cli-contract", ok)


def test_zz_summary():
    print()
    for line in _LINES:
        print(line)
    assert len(_LINES) == 10
