import json
import subprocess
import sys
from pathlib import Path

import pytest

from qpb.cli import main
from qpb.errors import SpecFileError
from qpb.formats import BuildResult, load_file, parse_spec, run_suites
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
], ids=["bundle-non-string", "bundle-duplicate", "hopf-duplicate", "bundle-no-unit"])
def test_bad_basis_or_unit_positioned(tmp_path, capsys, mutate, where):
    """Basis labels must be distinct strings, and the bundle algebra needs a
    unit; anything else exits 2 at its section, never with a traceback."""
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
# and reports whether sympy was ever imported.
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
    assert json.loads(proc.stdout) == {"code": 0, "calls": 1, "sympy": False}
