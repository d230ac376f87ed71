"""The qpb benchmark: time to a verdict of ``qpb check FILE --suite all``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One closed-loop client runs the workload's
cases one at a time, each in a fresh interpreter (``bench/child.py``) that
imports ``qpb`` from ``src/``; the seed fixes the order of cases in a pass.
Every child's exit code, diagnostic ``where`` and report sha256 are checked
against ``bench/cases/expected.json``; a case that differs or times out
counts as failed.

Untraced (``--trace 0``) a run does set-up passes (each case stops after
``BuildResult``), at least ``SETUP_PASSES`` and for ``SETUP_SECONDS``, then
full passes until ``--seconds`` have gone since the start, at least one.  The end-to-end metrics are medians over passes of the sum
(``peak_rss_mb``: the maximum) over the pass's cases:

* ``verdict_s``: wall time from child launch to child exit, the user's wait.
* ``setup_s``: the same for a set-up pass: interpreter start, ``import qpb``,
  parsing, Hopf validation, Haar and the bundle build.
* ``check_s``: time in ``run_suites`` plus ``to_json``, taken in the child.
* ``cpu_s``: the child's user+sys CPU time, taken in the child at exit.
* ``peak_rss_mb``: the child's peak RSS, taken in the child at exit.

``failed`` / ``attempted`` in the result line is the failed fraction.

Traced (``--trace 1``) a run does traced passes (spans and counters of
``bench/spans.py``) until ``--seconds`` have gone, at least one, and reports
per-layer medians over them.  ``PER_LAYER`` lists the per-layer metrics and
the end-to-end metric and workload each should move.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CASES = BENCH / "cases"
EXPECTED = CASES / "expected.json"

sys.path.insert(0, str(BENCH))
from child import MARK  # noqa: E402
from spans import CHECK_SPAN, LEAVES, SPANS  # noqa: E402

# Why each workload: see BENCHMARK.json.  Spec files are frozen in cases/.
WORKLOADS = {
    "classical-s3": ["classical-s3"],
    "calculus-z3": ["calculus-z3"],
    "small-specs": [
        "z2-group-algebra", "z2-point-bundle", "z2-c-group-universal",
        "s3-group-algebra", "z2-trivial-3pt", "z3-trivial-2pt",
        "broken-hopf-antipode", "broken-bundle-coaction", "broken-fodc-ideal",
    ],
}

# Set-up passes are short (0.2 s for one case), so a run repeats them for at
# least SETUP_SECONDS and reports their median.
SETUP_PASSES = 3
SETUP_SECONDS = 3.0
RUN_LIMIT_S = 170.0   # a run must end within 180 s, whatever the cases do

END_TO_END = (
    ("verdict_s", "s"), ("setup_s", "s"), ("check_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, what it should move).  Self times are span durations minus
# their direct children, summed over a pass's cases.  ``<module>.layer_s`` is
# the module's own import time plus its spans' self times; it stands in for
# the fodc, calculus and connection spans, which classical-s3 never enters.
# The table printed by a traced run has every span, import time and counter.
PER_LAYER = (
    ("cyclotomic.mul.count", "count", "check_s, cpu_s on classical-s3 and calculus-z3"),
    ("cyclotomic.mul.unit_share", "ratio", "check_s, cpu_s on classical-s3 and calculus-z3"),
    ("cyclotomic.inverse.count", "count", "check_s, cpu_s on classical-s3 and calculus-z3"),
    ("linalg.echelon_add.count", "count", "check_s on calculus-z3"),
    ("linalg.echelon_add.self_s", "s", "check_s on calculus-z3"),
    ("linalg.echelon_add.enlarged_share", "ratio", "check_s on calculus-z3"),
    ("linalg.prepared_solve.count", "count", "check_s on calculus-z3"),
    ("linalg.prepared_solve.self_s", "s", "check_s on calculus-z3"),
    ("braiding.sigma_m.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("braiding.verify_braiding_suite.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("braiding.braided_structure.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("braiding.classicality_report.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("braiding.mult2.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("braiding.mult_n.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("braiding.star_n.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("gauge.build_gauge_coalgebra.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("gauge.classical_braided_hopf.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("gauge.enumerate_gauge.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("gauge.isotypic_decompose.self_s", "s", "check_s, peak_rss_mb on classical-s3"),
    ("tensor.tprod.count", "count", "check_s on calculus-z3, setup_s on small-specs"),
    ("tensor.tprod.self_s", "s", "check_s on calculus-z3, setup_s on small-specs"),
    ("tensor.tprod.flat_dim_sum", "count", "check_s on calculus-z3, setup_s on small-specs"),
    ("tensor.tprod.dim_sum", "count", "check_s on calculus-z3, setup_s on small-specs"),
    ("tensor.term_map.count", "count", "check_s on calculus-z3, setup_s on small-specs"),
    ("tensor.term_map.self_s", "s", "check_s on calculus-z3, setup_s on small-specs"),
    ("fodc.layer_s", "s", "check_s on calculus-z3 only"),
    ("calculus.layer_s", "s", "check_s on calculus-z3 only"),
    ("connection.layer_s", "s", "check_s on calculus-z3 only"),
    ("charsplit.factor_over_field.self_s", "s", "verdict_s on small-specs"),
    ("charsplit.field_characters.self_s", "s", "verdict_s on small-specs"),
    ("charsplit.primitive_idempotents.self_s", "s", "verdict_s on small-specs"),
    ("cli.import_s", "s", "verdict_s on small-specs"),
    ("formats.parse_spec.self_s", "s", "setup_s on small-specs"),
    ("formats.build.self_s", "s", "setup_s on small-specs"),
    ("hopf.validate_hopf.self_s", "s", "setup_s on small-specs"),
    ("hopf.compute_haar.self_s", "s", "setup_s on small-specs"),
    ("bundle.build_bundle.self_s", "s", "setup_s on small-specs"),
    ("bundle.translation_identities.self_s", "s", "setup_s on small-specs"),
    ("bundle.galois_tower.self_s", "s", "setup_s on small-specs"),
    ("formats.run_suites.self_s", "s", "check_s on every workload"),
    ("trace.overhead_s", "s", "none: span bookkeeping, estimated from a no-op"),
    ("trace.count_overhead_s", "s", "none: leaf counter cost, estimated from a no-op"),
    ("trace.coverage", "ratio", "none: share of check_s under a span below run_suites"),
)


@dataclass
class ChildResult:
    mode: str
    code: int | None
    wall_s: float
    sha256: str
    where: str | None
    stderr: str
    record: dict | None


IMPORT_TIME = "import time:"


def _where(stderr: str) -> str | None:
    """The ``where`` of a CLI diagnostic ``error: WHERE: message``."""
    for line in stderr.splitlines():
        if line.startswith("error: "):
            parts = line.split(": ", 2)
            return parts[1] if len(parts) == 3 else None
    return None


def run_child(case: str, mode: str, timeout: float) -> ChildResult:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # a traced child also reports each qpb module's own import time
    xopt = ["-X", "importtime"] if mode == "traced" else []
    cmd = [sys.executable, *xopt, str(BENCH / "child.py"), str(CASES / f"{case}.json"),
           mode, case]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    wall = time.perf_counter() - t0
    record = None
    imports = {}
    kept = []
    for line in err.decode("utf-8", "replace").splitlines(keepends=True):
        if line.startswith(MARK):
            record = json.loads(line[len(MARK):])
        elif line.startswith(IMPORT_TIME):
            own, _, module = line[len(IMPORT_TIME):].split("|")
            module = module.strip()
            if module.startswith("qpb."):
                imports[module[4:] + ".own_import_s"] = int(own) * 1e-6
        else:
            kept.append(line)
    stderr = "".join(kept)
    if record is not None and imports:
        record["import_self_s"] = imports
    return ChildResult(mode, code, wall, hashlib.sha256(out).hexdigest(),
                       _where(stderr), stderr, record)


def matches(result: ChildResult, expected: dict) -> bool:
    """Does a child's outcome equal the frozen expectation for its case?"""
    if result.record is None:
        return False
    if result.mode == "setup":
        return (result.code, result.where) == (expected["setup_exit"],
                                               expected["setup_where"])
    return (result.code, result.where, result.sha256) == (
        expected["exit"], expected["where"], expected["sha256"])


class Run:
    """One benchmark run: passes over a workload's cases, every outcome checked."""

    def __init__(self, cases: list[str], expected: dict):
        self.cases = cases
        self.expected = expected
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.aborted = False

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def one_pass(self, mode: str) -> list[ChildResult] | None:
        """Run every case once; None if the run's time limit cut the pass."""
        results = []
        for case in self.cases:
            remaining = RUN_LIMIT_S - self.elapsed()
            if remaining <= 0:
                self.aborted = True
                return None
            res = run_child(case, mode, timeout=remaining)
            self.attempted += 1
            if not matches(res, self.expected[case]):
                self.failed += 1
                self.failures.append(f"{case} ({mode}): exit {res.code}, "
                                     f"where {res.where}, sha256 {res.sha256[:12]}"
                                     + (f"\n{res.stderr.strip()}" if res.stderr.strip() else ""))
            if res.code is None:
                self.aborted = True
                return None
            results.append(res)
        return results

    def passes(self, mode: str, seconds: float, at_least: int = 1) -> list[list[ChildResult]]:
        """Passes of ``mode`` until ``seconds`` from the run's start, at least ``at_least``."""
        done = []
        while len(done) < at_least or self.elapsed() < seconds:
            p = self.one_pass(mode)
            if p is None:
                break
            done.append(p)
        return done


def end_to_end(run: Run, seconds: float) -> dict:
    setups = run.passes("setup", SETUP_SECONDS, at_least=SETUP_PASSES)
    fulls = [] if run.aborted else run.passes("full", seconds)
    per_pass = {
        "verdict_s": [sum(r.wall_s for r in p) for p in fulls],
        "setup_s": [sum(r.wall_s for r in p) for p in setups],
        "check_s": [sum(r.record["check_s"] for r in p) for p in fulls],
        "cpu_s": [sum(r.record["cpu_s"] for r in p) for p in fulls],
        "peak_rss_mb": [max(r.record["peak_rss_mb"] for r in p) for p in fulls],
    }
    return {name: {"value": statistics.median(per_pass[name]), "unit": unit}
            for name, unit in END_TO_END if per_pass[name]}


def _sum_records(passes: list[ChildResult], key: str) -> dict:
    out: dict = {}
    for r in passes:
        for k, v in r.record.get(key, {}).items():
            out[k] = out.get(k, 0) + v
    return out


def layer_values(passes: list[ChildResult]) -> dict:
    """Every per-layer value of one traced pass."""
    self_s = _sum_records(passes, "self_s")
    counts = _sum_records(passes, "counts")
    imports = _sum_records(passes, "import_self_s")
    check_s = sum(r.record["check_s"] for r in passes)
    values = {f"{name}.self_s": self_s.get(name, 0.0) for _, _, name in SPANS}
    values.update(imports)
    for key, secs in imports.items():
        module = key[: -len(".own_import_s")]
        values[f"{module}.layer_s"] = secs + sum(
            v for name, v in self_s.items() if name.startswith(module + "."))
    values.update(counts)
    values["cyclotomic.mul.unit_share"] = (counts.get("cyclotomic.mul.unit", 0)
                                           / max(1, counts.get("cyclotomic.mul.count", 0)))
    values["linalg.echelon_add.enlarged_share"] = (
        counts.get("linalg.echelon_add.enlarged", 0)
        / max(1, counts.get("linalg.echelon_add.count", 0)))
    values["cli.import_s"] = sum(r.record["import_s"] for r in passes)
    values["trace.overhead_s"] = sum(r.record["span_cost_s"] * r.record["spans"]
                                     for r in passes)
    values["trace.count_overhead_s"] = sum(
        r.record["leaf_cost_s"] * sum(r.record["counts"].get(f"{leaf}.count", 0)
                                      for _, _, leaf in LEAVES)
        for r in passes)
    values["trace.coverage"] = (1.0 - self_s.get(CHECK_SPAN, 0.0) / check_s
                                if check_s else 0.0)
    return values


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    each = [layer_values(p) for p in run.passes("traced", seconds)]
    if not each:
        return {}, {}
    keys = sorted(set().union(*each))
    table = {k: statistics.median(v.get(k, 0) for v in each) for k in keys}
    metrics = {name: {"value": table.get(name, 0), "unit": unit}
               for name, unit, _ in PER_LAYER}
    return metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qpb" / "__init__.py").is_file():
        print(f"error: no qpb package under {SRC}", file=sys.stderr)
        return 2
    cases = list(WORKLOADS[args.workload])
    missing = [c for c in cases if not (CASES / f"{c}.json").is_file()]
    if missing or not EXPECTED.is_file():
        print(f"error: missing frozen cases {missing or [EXPECTED.name]}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    random.Random(args.seed).shuffle(cases)
    run = Run(cases, expected)
    print(f"workload {args.workload}, seed {args.seed}, case order: {' '.join(cases)}")

    if args.trace:
        metrics, table = per_layer(run, args.seconds)
        width = max((len(k) for k in table), default=0)
        for k in sorted(table):
            print(f"  {k:<{width}}  {table[k]:.6g}")
    else:
        metrics = end_to_end(run, args.seconds)
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    for f in run.failures:
        print(f"FAILED {f}", file=sys.stderr)
    failed_frac = run.failed / max(1, run.attempted)
    print(f"  failed_frac  {failed_frac:.6g} ({run.failed} of {run.attempted} children)"
          f", {run.elapsed():.1f} s")
    print(json.dumps({"correct": run.failed == 0 and not run.aborted,
                      "attempted": max(1, run.attempted), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
