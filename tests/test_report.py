"""ValidationReport.check: the one place where a checked identity becomes a
passing or failing record, and the guard that keeps it the only one.

``check(ident, witnesses, note)`` fails the record ``ident`` = (id, label)
with the first witness that is not None and passes it when there is none.
No module but report.py builds a failing record itself: the AST scan below
finds every call of ``failing`` under src/qpb.
"""

import ast
from pathlib import Path

import pytest

from qpb.cyclotomic import CycloField
from qpb.errors import ValidationFailed
from qpb.linalg import BasedSpace, LinearMap
from qpb.report import RaisingReport, ValidationReport, map_equality_record

ROOT = Path(__file__).resolve().parents[1]
IDENT = ("suite.law", "the law")


def only_record(rep: ValidationReport):
    (rec,) = rep.records
    return rec


def test_an_empty_witness_fails():
    rep = ValidationReport()
    assert rep.check(IDENT, [{}]) == {}
    rec = only_record(rep)
    assert (rec.identity_id, rec.paper_label, rec.status, rec.witness) == \
        ("suite.law", "the law", "fail", {})


@pytest.mark.parametrize("witnesses", [[None], (), iter([None, None])],
                         ids=["none", "empty", "all-none"])
def test_no_witness_passes(witnesses):
    rep = ValidationReport()
    assert rep.check(IDENT, witnesses) is None
    rec = only_record(rep)
    assert (rec.status, rec.witness) == ("pass", None)
    assert rep.ok


def test_the_first_witness_that_is_not_none_fails_and_the_rest_is_not_read():
    seen = []

    def witnesses():
        for w in (None, {"basis_index": 3}, {"basis_index": 4}):
            seen.append(w)
            yield w

    rep = ValidationReport()
    rep.check(IDENT, witnesses())
    assert only_record(rep).witness == {"basis_index": 3}
    assert seen == [None, {"basis_index": 3}]


def test_no_identity_starts_no_generator():
    started = []

    def witnesses():
        started.append(True)
        yield {"basis_index": 0}

    rep = ValidationReport()
    assert rep.check(None, witnesses()) is None
    assert not started and not rep.records


@pytest.mark.parametrize("witness, status", [(None, "pass"), ({"k": 1}, "fail")])
def test_the_note_reaches_both_outcomes(witness, status):
    rep = ValidationReport()
    rep.check(IDENT, [witness], note="how it was computed")
    rec = only_record(rep)
    assert (rec.status, rec.note) == (status, "how it was computed")
    assert rec.as_json_obj()["note"] == "how it was computed"


def test_a_raising_report_raises_at_the_first_witness_with_the_label():
    read = []

    def witnesses():
        for i in range(3):
            read.append(i)
            yield {"basis_pair": [i, i]}

    rep = RaisingReport(ValidationFailed, "algebra: ", where="bundle")
    rep.check(("suite.ok", "holds"), [None])
    with pytest.raises(ValidationFailed,
                       match=r"^bundle: algebra: the law at basis_pair=\[0, 0\]$") as err:
        rep.check(IDENT, witnesses())
    assert err.value.where == "bundle"
    assert read == [0]
    assert [r.identity_id for r in rep.records] == ["suite.ok"]


# -- identities of maps, compared column by column -------------------------------------


class ReadCols(list):
    """A column list that records which columns are read by index."""

    def __init__(self, cols):
        super().__init__(cols)
        self.read = []

    def __getitem__(self, j):
        self.read.append(j)
        return super().__getitem__(j)


def small_maps():
    """Three maps on Q^4, each column two entries, and their composition."""
    field = CycloField(1)
    space = BasedSpace(tuple(f"e{i}" for i in range(4)))

    def shift(k, c):
        return LinearMap(space, space, [{(j + k) % 4: field.one, j: field.rational(c)}
                                        for j in range(4)], field)

    maps = [shift(1, 2), shift(2, -1), shift(3, 3)]
    return field, space, maps, maps[0].compose(maps[1]).compose(maps[2])


def test_a_composition_gives_the_materialized_witness_and_stops_there():
    """A planted difference in column 2 gives the witness of the materialized
    composition, and the map acting first has no column after it read."""
    field, space, (a, b, c), abc = small_maps()
    planted = [dict(col) for col in abc.cols]
    planted[2][0] = planted[2].get(0, field.zero) + field.one
    rhs = LinearMap(space, space, planted, field)
    want = map_equality_record("t.comp", "comp", abc, rhs, witness_space=space)
    watched = LinearMap(space, space, ReadCols(c.cols), field)
    got = map_equality_record("t.comp", "comp", (a, b, watched), rhs, witness_space=space)
    assert got.status == "fail" and got.witness["basis_index"] == 2
    assert got.as_json_obj() == want.as_json_obj()
    assert watched.cols.read == [0, 1, 2]


def test_a_composition_passes_and_its_parts_set_its_antilinearity():
    field, space, (a, b, c), abc = small_maps()
    assert map_equality_record("t.comp", "comp", [a, b, c], abc).status == "pass"
    # over Q conjugation fixes every coefficient, so only the flags differ
    conj_a, conj_c = (LinearMap(space, space, m.cols, field, antilinear=True) for m in (a, c))
    mixed = map_equality_record("t.comp", "comp", (a, b, conj_c), abc)
    assert (mixed.status, mixed.witness) == ("fail", {"reason": "antilinearity mismatch"})
    assert map_equality_record("t.comp", "comp", (conj_a, b, conj_c), abc).status == "pass"


# -- no module but report.py calls ``failing`` -----------------------------------------


def failing_calls(source: str, filename: str) -> list:
    """Line numbers of the calls of ``failing``, by name or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "failing":
                out.append(node.lineno)
    return out


def test_only_report_builds_failing_records():
    found = {}
    for path in sorted((ROOT / "src" / "qpb").glob("*.py")):
        if path.name != "report.py":
            lines = failing_calls(path.read_text(encoding="utf-8"), str(path))
            if lines:
                found[path.name] = lines
    assert not found


def test_a_failing_call_is_found():
    source = ("from qpb import report\nfrom qpb.report import failing\n\n\n"
              "def f(rep, bad):\n    rep.add(failing('x', 'y', bad))\n"
              "    rep.add(report.failing('x', 'y', bad))\n")
    assert failing_calls(source, "example.py") == [6, 7]
