import json
import subprocess
import sys
from pathlib import Path

import pytest

import qpb.fodc as fodc_mod
from qpb import formats
from qpb.cli import main
from qpb.errors import SpecFileError
from qpb.formats import (
    BASE_CALCULUS_PRESETS, FODC_PRESETS, BuildResult, load_file, parse_spec, run_suites,
)
from qpb.presets import generate_example, serialize_example


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(serialize_example(doc) if isinstance(doc, dict) else doc,
                 encoding="utf-8")
    return str(p)


def test_gen_validate_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "z2.json")
    assert main(["gen", "c-group", "--group", "Z2", "-o", path]) == 0
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "dim B_2 = 4" in out
    for fodc in FODC_PRESETS:
        for base in BASE_CALCULUS_PRESETS:
            path = str(tmp_path / f"triv-{fodc}-{base}.json")
            assert main(["gen", "trivial-bundle", "--fodc", fodc, "--base-calculus", base,
                         "-o", path]) == 0
            assert main(["validate", path]) == 0, (fodc, base)


def test_check_exit_zero_and_deterministic_json(tmp_path, capsys):
    path = str(tmp_path / "z3.json")
    assert main(["gen", "c-group", "--group", "Z3", "--fodc", "universal",
                 "-o", path]) == 0
    assert main(["check", path, "--suite", "all", "--report", "json"]) == 0
    out1 = capsys.readouterr().out
    assert main(["check", path, "--suite", "all", "--report", "json"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["ok"] is True and doc["fail_count"] == 0
    ids = [r["identity_id"] for r in doc["records"]]
    assert ids == sorted(ids)


def test_check_classical_suite_noncommutative_is_pass(tmp_path, capsys):
    path = str(tmp_path / "cs3.json")
    assert main(["gen", "group-algebra", "--group", "S3", "-o", path]) == 0
    assert main(["check", path, "--suite", "classical"]) == 0
    out = capsys.readouterr().out
    assert "NotClassical" in out


def test_check_trivial_bundle_all(tmp_path):
    path = str(tmp_path / "triv.json")
    assert main(["gen", "trivial-bundle", "--group", "Z2", "--base-points", "2",
                 "--fodc", "universal", "--base-calculus", "universal",
                 "-o", path]) == 0
    assert main(["check", path, "--suite", "translation", "--suite", "braiding"]) == 0


@pytest.mark.parametrize("args, where, message", [
    (["--base-points", "0"], "bundle.base_points", "base_points must be a positive integer"),
    (["--base-points", "-2"], "bundle.base_points", "base_points must be a positive integer"),
    (["--base-points", "4", "--base-calculus", "universal"], "base_calculus.preset",
     "universal base calculus supports at most 3 points"),
], ids=["zero-points", "negative-points", "universal-4-points"])
def test_gen_rejects_what_check_rejects(tmp_path, capsys, args, where, message):
    """gen writes no spec file that check would reject: it exits 2 with the
    diagnostic that check gives for the same file written by hand."""
    path = tmp_path / "gen.json"
    assert main(["gen", "trivial-bundle", *args, "-o", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"
    assert not path.exists()
    doc = generate_example("trivial-bundle")
    doc["bundle"]["base_points"] = int(args[1])
    if "--base-calculus" in args:
        doc["base_calculus"] = {"preset": "universal"}
    assert main(["check", write(tmp_path, "by-hand.json", doc), "--suite", "differential"]) == 2
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


@pytest.mark.parametrize("conductor", ["0", "-3"])
def test_gen_rejects_a_conductor_that_check_rejects(tmp_path, capsys, conductor):
    """A conductor below one exits 2 at ``conductor`` in gen, with the
    diagnostic that check gives for the same conductor written by hand."""
    path = tmp_path / "gen.json"
    message = "error: conductor: conductor must be a positive integer\n"
    assert main(["gen", "point-bundle", "--conductor", conductor, "-o", str(path)]) == 2
    assert capsys.readouterr().err == message
    assert not path.exists()
    doc = generate_example("point-bundle")
    doc["conductor"] = int(conductor)
    assert main(["check", write(tmp_path, "by-hand.json", doc)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("group, conductor, least", [("Z3", "1", 3), ("S3", "4", 3)])
def test_gen_rejects_a_conductor_without_the_groups_roots(tmp_path, capsys, group,
                                                         conductor, least):
    """A field too small for the group's characters exits 2 at ``conductor``,
    naming the conductors that would do."""
    path = tmp_path / "gen.json"
    assert main(["gen", "point-bundle", "--group", group, "--conductor", conductor,
                 "-o", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: conductor: Q(zeta_{conductor}) lacks the roots of unity of {group}: "
        f"the conductor must be a multiple of {least}\n")
    assert not path.exists()
    assert main(["gen", "point-bundle", "--group", group, "--conductor", str(2 * least),
                 "-o", str(path)]) == 0


def test_haar_and_classicality_commands(tmp_path, capsys):
    path = str(tmp_path / "z2.json")
    main(["gen", "c-group", "--group", "Z2", "-o", path])
    assert main(["haar", path]) == 0
    out = capsys.readouterr().out
    assert "h(dr0) = 1/2" in out
    assert main(["classicality", path]) == 0
    out = capsys.readouterr().out
    assert "classical: True" in out


def test_gauge_enumerate_and_act(tmp_path, capsys):
    path = str(tmp_path / "triv.json")
    main(["gen", "trivial-bundle", "--group", "Z2", "--base-points", "2",
          "-o", path])
    assert main(["gauge", "enumerate", path]) == 0
    out = capsys.readouterr().out
    assert "4 gauge transformations" in out
    assert main(["gauge", "act", path, "--gamma", "1",
                 "--element", "x0.dr0+1/2*x1.dr1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out  # a rendered element


def test_broken_antipode_exits_two(tmp_path, capsys):
    doc = generate_example("c-group", group="Z2")
    doc["hopf"]["antipode"] = [[0, 0, "1"], [1, 1, "0"]]  # kill kappa(d_g)
    path = write(tmp_path, "broken.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "hopf" in err


def test_non_principal_coaction_exits_two(tmp_path, capsys):
    doc = generate_example("c-group", group="Z2")
    dim = len(doc["hopf"]["basis"])
    # explicit bundle with the trivial (non-principal) coaction b -> b (x) 1
    doc["bundle"] = {
        "basis": list(doc["hopf"]["basis"]),
        "mult": list(doc["hopf"]["mult"]),
        "star": list(doc["hopf"]["star"]),
        "coaction": [[i, i, k, "1"] for i in range(dim) for k in range(dim)],
    }
    path = write(tmp_path, "nonprincipal.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "bundle.coaction" in err


def test_non_ad_invariant_ideal_exits_two(tmp_path, capsys):
    doc = generate_example("c-group", group="S3")
    # d_s - d_sr is in ker eps but not a right ideal / ad-invariant
    doc["fodc"] = {"ideal_basis": [[[1, "1"], [2, "-1"]]]}
    path = write(tmp_path, "badideal.json", doc)
    assert main(["check", path, "--suite", "differential"]) == 2
    err = capsys.readouterr().err
    assert "fodc.ideal_basis" in err


@pytest.mark.parametrize("ideal", [
    [[[4, "1"]], [[5, "1"]]],  # d_r, d_r2: the transposition calculus, S^2 != 0
    [[[1, "1"]], [[2, "1"]], [[3, "1"]]],  # d_s, d_sr, d_sr2: the 3-cycle calculus
], ids=["transpositions", "3-cycles"])
def test_proper_calculus_on_s3_passes(tmp_path, capsys, ideal):
    """A FODC smaller than the universal one on the non-abelian C(S3): its
    envelope descends to Lambda^2 and kappa^ satisfies the antipode axiom."""
    doc = generate_example("point-bundle", group="S3")
    doc["fodc"] = {"ideal_basis": ideal}
    path = write(tmp_path, "s3-calculus.json", doc)
    assert main(["check", path, "--suite", "all", "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["records"]) == 116
    assert report["fail_count"] == 0


def test_bad_scalar_literal_positioned(tmp_path, capsys):
    doc = generate_example("c-group", group="Z2")
    doc["hopf"]["mult"][0][3] = "1/0"
    path = write(tmp_path, "badscalar.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "hopf.mult[0]" in err


def _set(*path_and_value):
    """A doc mutation that sets doc[path...] = value."""
    *path, key, value = path_and_value

    def mutate(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value
    return mutate


@pytest.mark.parametrize("mutate, where", [
    (_set("conductor", True), "conductor"),
    (_set("bundle", {"preset": "trivial", "base_points": True}), "bundle.base_points"),
    (_set("hopf", "mult", 0, 0, True), "hopf.mult[0]"),
    (_set("hopf", "antipode", 1, 1, True), "hopf.antipode[1]"),
    (_set("hopf", "counit", 0, 0, False), "hopf.counit[0]"),
    (_set("corepresentations", 0, "dim", True), "corepresentations[0].dim"),
    (_set("expect", {"base_dim": True}), "expect.base_dim"),
], ids=["conductor", "base_points", "entries3", "entries2", "functional",
        "corep-dim", "expect"])
def test_boolean_conductor_rejected(tmp_path, capsys, mutate, where):
    """A JSON boolean where the spec asks for an integer exits 2 at its
    position: bool is an int subclass, so true must not read as 1."""
    doc = generate_example("c-group", group="Z2")
    mutate(doc)
    path = write(tmp_path, "boolint.json", doc)
    with pytest.raises(SpecFileError) as exc:
        BuildResult(load_file(path))
    assert exc.value.where == where
    assert main(["validate", path]) == 2
    assert where in capsys.readouterr().err


def _explicit_bundle(basis, mult=([0, 0, 0, "1"], [1, 1, 1, "1"])):
    """A doc mutation that adds the bundle of bench/cases/broken-bundle-coaction.json
    with the given bundle basis and product."""
    def mutate(doc):
        doc["bundle"] = {
            "basis": basis,
            "mult": list(mult),
            "star": [[0, 0, "1"], [1, 1, "1"]],
            "coaction": [[0, 0, 0, "1"], [0, 0, 1, "1"], [1, 1, 0, "1"], [1, 1, 1, "1"]],
        }
    return mutate


@pytest.mark.parametrize("mutate, where", [
    (_explicit_bundle([1, 2]), "bundle.basis"),
    (_explicit_bundle(["b", "b"]), "bundle.basis"),
    (_set("hopf", "basis", ["dr0", "dr0"]), "hopf.basis"),
    (_explicit_bundle(["b0", "b1"], mult=()), "bundle.mult"),
    (_set("hopf", "basis", ["x", "x|x"]), "hopf.basis[1]"),
    (_explicit_bundle(["b(x)c", "b"]), "bundle.basis[0]"),
], ids=["bundle-non-string", "bundle-duplicate", "hopf-duplicate", "bundle-no-unit",
        "hopf-separator", "bundle-separator"])
def test_bad_basis_or_unit_positioned(tmp_path, capsys, mutate, where):
    """Basis labels must be distinct strings free of the tensor label
    separators "|" and "(x)", and the bundle algebra needs a unit; anything
    else exits 2 at its position, never with a traceback."""
    doc = generate_example("c-group", group="Z2")
    mutate(doc)
    path = write(tmp_path, "badbasis.json", doc)
    with pytest.raises(SpecFileError) as exc:
        BuildResult(load_file(path))
    assert exc.value.where == where
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def test_index_out_of_range_positioned(tmp_path, capsys):
    doc = generate_example("c-group", group="Z2")
    doc["hopf"]["mult"][0][2] = 99
    path = write(tmp_path, "badindex.json", doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "out of range" in err and "hopf.mult" in err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = generate_example("c-group", group="Z2")
    doc["surprise"] = 1
    path = write(tmp_path, "unknown.json", doc)
    assert main(["validate", path]) == 2
    assert "unknown key" in capsys.readouterr().err


_Z2_EXPLICIT = {"basis": ["b0", "b1"], "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
                "star": [[0, 0, "1"], [1, 1, "1"]],
                "coaction": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}


@pytest.mark.parametrize("section, spec, where", [
    ("bundle", {"preset": "point", "base_points": 5, "mult": [[0, 0, 0, "1"]],
                "coaction": "garbage"}, "bundle.base_points"),
    ("bundle", {"preset": "trivial", "base_points": 2, **_Z2_EXPLICIT}, "bundle.basis"),
    ("bundle", {**_Z2_EXPLICIT, "base_points": 2}, "bundle.base_points"),
    ("fodc", {"preset": "zero", "ideal_basis": []}, "fodc.ideal_basis"),
], ids=["point-with-data", "trivial-with-data", "data-with-base-points", "fodc-with-ideal"])
def test_a_preset_mixed_with_explicit_data_exits_two(tmp_path, capsys, section, spec, where):
    """A bundle or fodc section is either a preset, with the options that
    preset takes, or explicit data: the first key of the other form exits 2
    at its position."""
    doc = generate_example("c-group", group="Z2")
    doc[section] = spec
    path = write(tmp_path, "mixed.json", doc)
    with pytest.raises(SpecFileError) as exc:
        load_file(path)
    assert exc.value.where == where
    assert main(["check", path, "--suite", "all"]) == 2
    assert where in capsys.readouterr().err


def test_expect_block_enforced(tmp_path, capsys):
    doc = generate_example("c-group", group="Z2")
    doc["expect"] = {"base_dim": 7}
    path = write(tmp_path, "expect.json", doc)
    assert main(["validate", path]) == 2
    assert "expect.base_dim" in capsys.readouterr().err


def test_expect_block_passes(tmp_path):
    doc = generate_example("c-group", group="Z2", fodc="universal")
    doc["expect"] = {"base_dim": 1, "b2_dim": 4, "gauge_dim": 2,
                     "classical": True, "gamma_inv_dim": 1}
    path = write(tmp_path, "expect_ok.json", doc)
    assert main(["validate", path]) == 0


def test_the_fodc_is_built_once_per_build(tmp_path, monkeypatch):
    """The expect block's gamma_inv_dim and the differential suite read one
    FODC."""
    doc = generate_example("c-group", group="Z2", fodc="universal")
    doc["expect"] = {"gamma_inv_dim": 1}
    made = []
    init = fodc_mod.Fodc.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fodc_mod.Fodc, "__init__", counted)
    build = BuildResult(load_file(write(tmp_path, "expect_fodc.json", doc)))
    assert run_suites(build, ["all"]).ok
    assert made == [build.fodc]


@pytest.mark.parametrize("sections, message", [
    ({"bundle": {"preset": "bogus"}}, "bundle.preset: unknown bundle preset 'bogus'"),
    ({"fodc": {"preset": "bogus"}}, "fodc.preset: unknown fodc preset 'bogus'"),
    ({"fodc": {"preset": ["universal"]}},
     "fodc.preset: unknown fodc preset ['universal']"),
    ({"base_calculus": {"preset": "bogus"}},
     "base_calculus.preset: unknown base calculus preset 'bogus'"),
    ({"fodc": {"ideal_basis": "x"}}, "fodc.ideal_basis: ideal_basis must be a list"),
    ({"fodc": {"ideal_basis": [[[99, "1"]]]}}, "fodc.ideal_basis[0][0]: index 99 out of range"),
    ({"bundle": {"preset": "trivial", "base_points": 5},
      "base_calculus": {"preset": "universal"}},
     "base_calculus.preset: universal base calculus supports at most 3 points"),
    ({"bundle": {"preset": "trivial", "base_points": "x"},
      "base_calculus": {"preset": "universal"}},
     "bundle.base_points: base_points must be a positive integer"),
], ids=["bundle-preset", "fodc-preset", "fodc-preset-unhashable", "base-preset",
        "ideal-not-list", "ideal-index", "universal-5-points", "base-points-not-int"])
def test_what_the_file_alone_shows_is_rejected_by_every_command(tmp_path, capsys,
                                                                sections, message):
    """An error that the file alone shows exits 2 when the file is parsed,
    whichever suites run: validate and the braiding suite, which build no
    calculus, reject it with the diagnostic that the full check gives."""
    doc = generate_example("c-group", group="Z2")
    doc.update(sections)
    path = write(tmp_path, "bad.json", doc)
    for argv in (["validate", path], ["check", path, "--suite", "braiding"],
                 ["check", path, "--suite", "all"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_classicality_runs_once_per_build(tmp_path, monkeypatch):
    """The expect block's classical flag and the classical suite read one
    classicality report."""
    doc = generate_example("c-group", group="S3")
    doc["expect"] = {"classical": True}
    calls = []
    report = formats.classicality_report

    def counted(bundle):
        calls.append(bundle)
        return report(bundle)

    monkeypatch.setattr(formats, "classicality_report", counted)
    build = BuildResult(load_file(write(tmp_path, "s3.json", doc)))
    assert run_suites(build, ["all"]).ok
    assert calls == [build.bundle]


def test_roundtrip_report_matches_direct_build():
    doc = generate_example("c-group", group="Z3", fodc="universal")
    text = serialize_example(doc)
    sf = parse_spec(text)
    build = BuildResult(sf)
    rep1 = run_suites(build, ["translation", "braiding"])
    sf2 = parse_spec(text)
    rep2 = run_suites(BuildResult(sf2), ["translation", "braiding"])
    assert rep1.to_json() == rep2.to_json()


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qpb.cli", "gen", "c-group",
                           "--group", "Z2"], capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)


Z2_C_GROUP_GAUGE_TABLE = """\
2 gauge transformations
gamma[0]: 0 | 1*v0
gamma[1]: 1*v0 | 0
table:
  1 0
  0 1
[pass] gauge-group.F-equivariance (F(gamma.b) = sum (gamma.b_k) (x) c_k)
[pass] gauge-group.action-compat ((gamma gamma').b = gamma'.(gamma.b))
[pass] gauge-group.automorphisms (gamma acts by *-automorphisms)
[pass] gauge-group.closed (gamma gamma' = (gamma (x) gamma')phi_M stays in the set)
[pass] gauge-group.count (enumeration)
       note: 2 transformations
[pass] gauge-group.inverse (gamma^-1 = gamma kappa_M^-1, unit = eps_M)
6 checks, 0 failures
"""


def test_gauge_enumerate_table_z2_c_group(tmp_path, capsys):
    path = str(tmp_path / "z2.json")
    assert main(["gen", "c-group", "--group", "Z2", "-o", path]) == 0
    capsys.readouterr()
    assert main(["gauge", "enumerate", path]) == 0
    assert capsys.readouterr().out == Z2_C_GROUP_GAUGE_TABLE


def test_check_rejects_degree_before_loading(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["check", missing, "--degree", "3"]) == 2
    assert capsys.readouterr().err == "error: degree: only --degree 2 is supported\n"


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return str(tmp_path / "missing.json")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    return str(path)


@pytest.mark.parametrize("command", ["check", "validate"])
@pytest.mark.parametrize("kind", ["missing", "directory", "utf16"])
def test_unreadable_spec_file_exits_two(tmp_path, capsys, command, kind):
    assert main([command, _unreadable(tmp_path, kind)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: file: ")
    assert "Traceback" not in err


# Runs `qpb check` in a fresh interpreter, counting calls of the root finder,
# and reports whether sympy was ever imported.  On C(Z2) the root finder
# runs twice: once to split the centre of A* into the dual central
# idempotents, once to split L for the gauge-group enumeration.
SYMPY_FREE_RUN = """
import contextlib, io, json, sys
import qpb.charsplit as charsplit
from qpb.cli import main
calls = []
factor = charsplit.factor_over_field
charsplit.factor_over_field = lambda *a: calls.append(a) or factor(*a)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", sys.argv[1]])
print(json.dumps({"code": code, "calls": len(calls), "sympy": "sympy" in sys.modules}))
"""


def test_check_runs_without_sympy():
    spec = Path(__file__).resolve().parents[1] / "bench" / "cases" / "z2-point-bundle.json"
    proc = subprocess.run([sys.executable, "-c", SYMPY_FREE_RUN, str(spec)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "calls": 2, "sympy": False}


def test_importing_the_cli_leaves_dataclasses_unloaded():
    """Every `qpb` run pays for what `import qpb.cli` loads.  ``dataclasses``
    brings in ``inspect``, ``ast`` and ``dis``, about 1 MB of peak RSS, so
    no module of the package may import it."""
    code = ("import sys, qpb.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- the declared corepresentations section is checked against the derived one ----

def _perturb_functional(doc):
    doc["corepresentations"][1]["functional"][0] = "1/2"


def _double_dim(doc):
    doc["corepresentations"][2]["dim"] = 4


def _drop_entry(doc):
    del doc["corepresentations"][0]


@pytest.mark.parametrize("mutate, where", [
    (_perturb_functional, "corepresentations[1]"),
    (_double_dim, "corepresentations[2]"),
    (_drop_entry, "corepresentations"),
], ids=["functional", "dim", "dropped"])
def test_declared_corepresentations_must_match_the_derived(tmp_path, capsys, mutate, where):
    doc = generate_example("c-group", group="S3")
    assert [c["dim"] for c in doc["corepresentations"]] == [1, 1, 2]
    mutate(doc)
    path = write(tmp_path, "s3.json", doc)
    with pytest.raises(SpecFileError) as exc:
        BuildResult(load_file(path))
    assert exc.value.where == where
    assert main(["check", path]) == 2
    assert f"error: {where}: " in capsys.readouterr().err


def test_declared_corepresentations_are_matched_in_any_order_under_any_name(tmp_path):
    doc = generate_example("c-group", group="S3")
    section = doc["corepresentations"]
    doc["corepresentations"] = [dict(c, name=f"irrep{i}") for i, c in enumerate(section)][::-1]
    assert main(["check", write(tmp_path, "s3.json", doc)]) == 0


def _c_z3_over_q():
    """C(Z3) with its rational structure constants over Q = Q(zeta_1), where
    the centre of its dual C[Z3] = Q (+) Q(zeta_3) does not split."""
    doc = generate_example("c-group", group="Z3")
    doc["conductor"] = 1
    del doc["corepresentations"]
    return doc


def test_unsplit_centre_leaves_the_isotypic_suite_vacuous(tmp_path, capsys):
    path = write(tmp_path, "cz3-q.json", _c_z3_over_q())
    assert main(["check", path, "--suite", "all", "--report", "json"]) == 0
    records = {r["identity_id"]: r for r in json.loads(capsys.readouterr().out)["records"]}
    available = records["isotypic.available"]
    assert available["status"] == "vacuous"
    assert "does not split over Q(zeta_1)" in available["note"]
    assert not any(ident.startswith("isotypic.") and ident != "isotypic.available"
                   for ident in records)


def test_unsplit_centre_refuses_a_declared_section(tmp_path):
    doc = _c_z3_over_q()
    doc["corepresentations"] = [{"name": "triv", "dim": 1,
                                 "functional": ["1/3", "1/3", "1/3"]}]
    with pytest.raises(SpecFileError) as exc:
        BuildResult(load_file(write(tmp_path, "cz3-q.json", doc)))
    assert exc.value.where == "corepresentations"
