"""Regenerate the frozen benchmark inputs and their expected outcomes.

    PYTHONPATH=src python3 bench/make_cases.py

Writes one spec file per case to ``bench/cases/`` from ``qpb.presets`` and
records, for each, the exit code, the diagnostic's ``where`` and the sha256
of the report that ``bench/child.py`` produces, both for the full check and
for the set-up-only run.  ``run.py`` never calls ``qpb.presets``: the files
here are the workloads, so a change to the presets cannot change them.
Rerun this only to redefine the benchmark, never to make a failing case pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from qpb.presets import generate_example, serialize_example

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def _broken_cases() -> dict:
    """The rejection fixtures of acceptance criterion 10.  The fodc one uses
    the Z3 c-group instead of S3: on S3 the classical suite (the whole of
    ``classical-s3``) runs before the fodc section is read."""
    d1 = generate_example("c-group", group="Z2")
    d1["hopf"]["antipode"] = [[0, 0, "1"], [1, 1, "0"]]
    d2 = generate_example("c-group", group="Z2")
    dim = len(d2["hopf"]["basis"])
    d2["bundle"] = {"basis": list(d2["hopf"]["basis"]),
                    "mult": list(d2["hopf"]["mult"]),
                    "star": list(d2["hopf"]["star"]),
                    "coaction": [[i, i, k, "1"] for i in range(dim)
                                 for k in range(dim)]}
    d3 = generate_example("c-group", group="Z3")
    d3["fodc"] = {"ideal_basis": [[[1, "1"], [2, "-1"]]]}
    return {"broken-hopf-antipode": d1, "broken-bundle-coaction": d2,
            "broken-fodc-ideal": d3}


def documents() -> dict:
    docs = {
        "classical-s3": generate_example("c-group", group="S3"),
        "calculus-z3": generate_example("trivial-bundle", group="Z3", base_points=2,
                                        fodc="universal", base_calculus="universal"),
        "z2-group-algebra": generate_example("group-algebra", group="Z2"),
        "z2-point-bundle": generate_example("point-bundle", group="Z2"),
        "z2-c-group-universal": generate_example("c-group", group="Z2",
                                                 fodc="universal"),
        "s3-group-algebra": generate_example("group-algebra", group="S3"),
        "z2-trivial-3pt": generate_example("trivial-bundle", group="Z2",
                                           base_points=3),
        "z3-trivial-2pt": generate_example("trivial-bundle", group="Z3",
                                           base_points=2),
    }
    docs.update(_broken_cases())
    return docs


def main() -> int:
    docs = documents()
    wanted = {c for cases in run.WORKLOADS.values() for c in cases}
    if set(docs) != wanted:
        raise SystemExit(f"case list differs from run.WORKLOADS: {sorted(set(docs) ^ wanted)}")
    run.CASES.mkdir(exist_ok=True)
    expected = {}
    for name, doc in sorted(docs.items()):
        (run.CASES / f"{name}.json").write_text(serialize_example(doc), encoding="utf-8")
        full = run.run_child(name, "full", timeout=600)
        setup = run.run_child(name, "setup", timeout=600)
        if full.record is None or setup.record is None:
            raise SystemExit(f"{name}: child crashed:\n{full.stderr}{setup.stderr}")
        expected[name] = {"exit": full.code, "where": full.where, "sha256": full.sha256,
                          "setup_exit": setup.code, "setup_where": setup.where}
        print(name, expected[name], f"{full.wall_s:.2f} s", flush=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
