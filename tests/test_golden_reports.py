"""The JSON report of every frozen benchmark spec file is byte-stable.

For each file under bench/cases that `qpb check FILE --suite all --report
json` accepts, the sha256 of that report equals the hash stored in
bench/cases/expected.json; for each rejected file the same QpbError
location is raised.  Set-up (parsing and ``BuildResult``) fails or passes
as ``setup_exit`` and ``setup_where`` say, as the benchmark checks it.  The
files are read, never written.  The runs are made with ``linalg.DEBUG_SOLVE``
on, so every solution on the way is checked by substitution, every "not in
the image" answer by an independent elimination of the columns, and every
inverse by composition.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qpb import linalg
from qpb.errors import QpbError
from qpb.formats import BuildResult, load_file, run_suites

CASES = Path(__file__).resolve().parents[1] / "bench" / "cases"
EXPECTED = json.loads((CASES / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_matches_stored_hash(name, monkeypatch):
    monkeypatch.setattr(linalg, "DEBUG_SOLVE", True)
    want = EXPECTED[name]
    path = str(CASES / f"{name}.json")
    if want["exit"] == 2:
        with pytest.raises(QpbError) as err:
            run_suites(BuildResult(load_file(path)), ["all"])
        assert err.value.where == want["where"]
        return
    assert want["exit"] == 0
    report = run_suites(BuildResult(load_file(path)), ["all"])
    text = report.to_json({"suites": ["all"], "format": "qpb-report/1"}) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want["sha256"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_setup_exit_matches_the_benchmark(name):
    """A file with ``setup_exit`` 0 builds, and its faults show in the
    suites; one with ``setup_exit`` 2 fails in set-up at ``setup_where``."""
    want = EXPECTED[name]
    path = str(CASES / f"{name}.json")
    if want["setup_exit"] == 2:
        with pytest.raises(QpbError) as err:
            BuildResult(load_file(path))
        assert err.value.where == want["setup_where"]
        return
    assert want["setup_exit"] == 0
    BuildResult(load_file(path))
