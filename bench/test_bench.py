"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
CASE = "z2-c-group-universal"   # small, and reaches every layer incl. fodc


def test_traced_and_untraced_reports_are_identical():
    full = run.run_child(CASE, "full", timeout=120)
    traced = [run.run_child(CASE, "traced", timeout=120) for _ in range(2)]
    assert run.matches(full, EXPECTED[CASE])
    for res in traced:
        assert res.code == full.code and res.sha256 == full.sha256
        assert run.matches(res, EXPECTED[CASE])
    # counters repeat exactly across traced runs
    assert traced[0].record["counts"] == traced[1].record["counts"]
    assert traced[0].record["counts"]["formats.run_suites.count"] == 1
    assert traced[0].record["counts"]["cyclotomic.mul.count"] > 0
    assert traced[0].record["import_self_s"]["fodc.own_import_s"] > 0


def test_corrupted_golden_hash_counts_as_failed():
    bad = dict(EXPECTED[CASE], sha256="0" * 64)
    r = run.Run([CASE], {CASE: bad})
    r.one_pass("full")
    assert (r.attempted, r.failed) == (1, 1)


def test_broken_fixture_that_exits_0_counts_as_failed():
    # a fixture that should be rejected with exit 2, but whose file now passes
    r = run.Run(["z2-group-algebra"], {"z2-group-algebra": EXPECTED["broken-hopf-antipode"]})
    r.one_pass("full")
    assert (r.attempted, r.failed) == (1, 1)
    r.one_pass("setup")
    assert (r.attempted, r.failed) == (2, 2)


def test_rejections_match_their_where():
    for case in ("broken-hopf-antipode", "broken-bundle-coaction", "broken-fodc-ideal"):
        res = run.run_child(case, "full", timeout=120)
        assert res.code == 2 and res.where == EXPECTED[case]["where"]
        assert run.matches(res, EXPECTED[case])


def _bindings():
    """Every attribute of every loaded qpb module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qpb" or name.startswith("qpb.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_every_wrapped_function_is_restored():
    import qpb.cli  # noqa: F401  (binds run_suites and others by name)
    from qpb import formats
    before = _bindings()
    tracer = spans.Tracer("restore").install()
    try:
        assert formats.run_suites is not before[("qpb.formats", "run_suites")]
        assert sys.modules["qpb.cli"].run_suites is formats.run_suites
        build = formats.BuildResult(formats.load_file(str(run.CASES / f"{CASE}.json")))
        formats.run_suites(build, ["all"]).to_json(None)
    finally:
        tracer.restore()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed
    assert tracer.counts["formats.build.count"] == 1
    assert tracer.counts["cyclotomic.mul.count"] > 0


def test_self_time_subtracts_direct_children():
    t = spans.Tracer("synthetic")
    t.spans = [("a", 0.0, 10.0, -1, "c"), ("b", 1.0, 4.0, 0, "c"),
               ("c", 2.0, 3.0, 1, "c"), ("b", 5.0, 6.0, 0, "c")]
    assert t.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == [(name, unit) for name, unit, _ in run.PER_LAYER])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
