"""One benchmark case in a fresh interpreter.

    python3 bench/child.py SPEC MODE CASE

MODE is ``full`` (what ``qpb check SPEC --suite all --report json`` does),
``setup`` (stop after ``BuildResult``) or ``traced`` (full, with the spans and
counters of ``spans.py``).  The report goes to stdout and a diagnostic to
stderr exactly as the CLI writes them, with the same exit code.  The child's
own measurements go to stderr as one last line, prefixed by ``MARK``: import
and check seconds, CPU seconds and peak RSS taken at exit, and when traced
the span self times, counters and the per-call cost of the wrappers.
"""

from __future__ import annotations

import json
import resource
import sys
import time

MARK = "qpb-bench-record: "
META = {"suites": ["all"], "format": "qpb-report/1"}


def run_case(path: str, setup_only: bool, record: dict) -> int:
    """The steps of ``qpb check PATH --suite all --report json``, looked up
    through the module namespaces at call time so installed spans apply."""
    from qpb import errors, formats

    try:
        sf = formats.load_file(path)
        build = formats.BuildResult(sf)
        if setup_only:
            return 0
        t0 = time.perf_counter()
        report = formats.run_suites(build, ["all"], degree=2, fail_fast=False)
        text = report.to_json(META)
        record["check_s"] = time.perf_counter() - t0
    except errors.QpbError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 0 if report.ok else 1


def main(argv: list[str]) -> int:
    path, mode, case = argv
    record: dict = {"check_s": 0.0}
    t0 = time.perf_counter()
    import qpb.cli  # noqa: F401  (the import cost a `qpb` invocation pays)
    record["import_s"] = time.perf_counter() - t0

    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer(case).install()
    try:
        code = run_case(path, mode == "setup", record)
    finally:
        if tracer is not None:
            tracer.restore()
    sys.stdout.flush()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        record["counts"] = tracer.counts
        record["self_s"] = tracer.self_times()
        record["spans"] = len(tracer.spans)
        record["span_cost_s"], record["leaf_cost_s"] = spans.per_call_costs()
    sys.stderr.write(MARK + json.dumps(record, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
