"""Command line interface.

Exit codes: 0 = all identities hold (vacuous records do not fail),
1 = at least one identity failed (witnesses in the report),
2 = the input could not be parsed or built (positioned diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, QpbError
from .formats import (
    BASE_CALCULUS_PRESETS, FODC_PRESETS, SUITES, BuildResult, load_file, parse_spec,
    require_degree, run_suites,
)
from .gauge import classical_braided_hopf, enumerate_gauge
from .presets import GEN_PRESETS, GROUPS, generate_example, serialize_example


def _fail(e: QpbError) -> int:
    print(f"error: {e}", file=sys.stderr)
    return 2


def cmd_gen(args) -> int:
    try:
        doc = generate_example(
            args.preset, group=args.group, base_points=args.base_points,
            kind=args.kind.replace("-", "_"), fodc=args.fodc,
            base_calculus=args.base_calculus, conductor=args.conductor)
        text = serialize_example(doc)
        parse_spec(text)  # gen writes no file that parsing would reject
    except QpbError as e:
        return _fail(e)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    try:
        sf = load_file(args.file)
        build = BuildResult(sf)
    except QpbError as e:
        return _fail(e)
    b = build.bundle
    print(f"ok: dim A = {build.hopf.dim}, dim B = {b.total.dim}, "
          f"dim V = {b.base_dim}, dim B_2 = {b.b2.dim}")
    return 0


def cmd_check(args) -> int:
    try:
        require_degree(args.degree)
        sf = load_file(args.file)
        build = BuildResult(sf)
        report = run_suites(build, args.suite, degree=args.degree,
                            fail_fast=args.fail_fast)
    except QpbError as e:
        return _fail(e)
    if args.report == "json":
        meta = {"suites": sorted(set(args.suite)), "format": "qpb-report/1"}
        sys.stdout.write(report.to_json(meta) + "\n")
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def cmd_haar(args) -> int:
    try:
        sf = load_file(args.file)
        build = BuildResult(sf)
    except QpbError as e:
        return _fail(e)
    h = build.hopf
    for i, lab in enumerate(h.space.labels):
        val = h.haar.apply({i: h.field.one}).get(0, h.field.zero)
        print(f"h({lab}) = {val.literal()}")
    return 0


def cmd_classicality(args) -> int:
    try:
        sf = load_file(args.file)
        build = BuildResult(sf)
        classical, rep = build.classicality
    except QpbError as e:
        return _fail(e)
    print(f"classical: {classical}")
    print(rep.to_text())
    return 0


def _gauge_group(build: BuildResult):
    """enumerate_gauge on the build, or None after printing the braided Hopf
    report when the enumeration is blocked."""
    bh = classical_braided_hopf(build.gauge)
    blocked = bh.enumeration_blocked
    if blocked:
        print(bh.report.to_text())
        print(f"gauge group not enumerated: {blocked}")
        return None
    return enumerate_gauge(bh)


def cmd_gauge_enumerate(args) -> int:
    try:
        sf = load_file(args.file)
        build = BuildResult(sf)
        group = _gauge_group(build)
    except QpbError as e:
        return _fail(e)
    if group is None:
        return 1
    gammas, table, rep = group
    print(f"{len(gammas)} gauge transformations")
    base_labels = build.bundle.base.space.labels
    l_dim = len(build.gauge.l_basis)
    for k, g in enumerate(gammas):
        cols = []
        for li in range(l_dim):
            col = g.functional.cols[li]
            cols.append("+".join(f"{c.literal()}*{base_labels[v]}"
                                 for v, c in sorted(col.items())) or "0")
        print(f"gamma[{k}]: " + " | ".join(cols))
    print("table:")
    for row in table:
        print("  " + " ".join("?" if idx is None else str(idx) for idx in row))
    print(rep.to_text())
    return 0


def _parse_element(expr: str, space, field):
    vec = {}
    for term in expr.replace(" ", "").split("+"):
        if not term:
            raise InputError(f"empty term in element expression {expr!r}")
        if "*" in term:
            coeff_text, label = term.split("*", 1)
            coeff = field.parse(coeff_text)
        else:
            coeff, label = field.one, term
        try:
            idx = space.index(label)
        except KeyError:
            raise InputError(f"unknown basis label {label!r}") from None
        prev = vec.get(idx)
        vec[idx] = coeff if prev is None else prev + coeff
        if not vec[idx]:
            del vec[idx]
    return vec


def cmd_gauge_act(args) -> int:
    try:
        sf = load_file(args.file)
        build = BuildResult(sf)
        group = _gauge_group(build)
        if group is None:
            return 1
        gammas = group[0]
        if not 0 <= args.gamma < len(gammas):
            raise InputError(
                f"--gamma must be in [0, {len(gammas)}), got {args.gamma}")
        vec = _parse_element(args.element, build.bundle.total.space, build.field)
        out = gammas[args.gamma].action.apply(vec)
    except QpbError as e:
        return _fail(e)
    print(build.bundle.total.space.render(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpb",
        description="Exact verification of quantum principal bundle identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a preset specification file")
    p.add_argument("preset", choices=GEN_PRESETS)
    p.add_argument("--group", default="Z2", choices=GROUPS)
    p.add_argument("--base-points", type=int, default=2)
    p.add_argument("--kind", default="function-algebra",
                   choices=["function-algebra", "group-algebra"])
    p.add_argument("--fodc", choices=tuple(FODC_PRESETS))
    p.add_argument("--base-calculus", choices=tuple(BASE_CALCULUS_PRESETS))
    p.add_argument("--conductor", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="parse and build a specification file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("file")
    p.add_argument("--suite", action="append", choices=SUITES, default=None)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("haar", help="print the Haar integral")
    p.add_argument("file")
    p.set_defaults(fn=cmd_haar)

    p = sub.add_parser("classicality", help="run the classicality dichotomy")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classicality)

    p = sub.add_parser("gauge", help="gauge group commands")
    gsub = p.add_subparsers(dest="gauge_command", required=True)
    pe = gsub.add_parser("enumerate", help="enumerate gauge transformations")
    pe.add_argument("file")
    pe.set_defaults(fn=cmd_gauge_enumerate)
    pa = gsub.add_parser("act", help="apply a gauge transformation")
    pa.add_argument("file")
    pa.add_argument("--gamma", type=int, required=True)
    pa.add_argument("--element", required=True)
    pa.set_defaults(fn=cmd_gauge_act)

    args = parser.parse_args(argv)
    if args.command == "check" and not args.suite:
        args.suite = ["all"]
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
