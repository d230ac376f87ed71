"""Spans and counters around qpb's public functions, installed from outside
the package.

A ``Tracer`` replaces each traced function or method by a wrapper.  A module
function is replaced in every ``qpb.*`` namespace that bound it, because
modules import each other's functions by name (``formats`` and ``cli`` bind
``build_bundle``, ``run_suites`` and others).  Spans are kept in memory as
``(name, start, end, parent, case)``; a span's self time is its duration
minus the durations of its direct children.  ``restore()`` puts every
original back.

Besides the spans, counters are taken at the same boundaries (calls,
enlarging ``Echelon.add`` calls, ``TProd`` dims), and leaf counters on
``Scalar.__mul__`` and ``Scalar.inverse``.  The leaf counters wrap millions
of calls, so they are kept lean; ``per_call_costs`` measures what each kind
of wrapper adds to a call, from which the benchmark reports the overhead.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute path, span name).  A dotted attribute path is a method.
SPANS = (
    ("qpb.formats", "parse_spec", "formats.parse_spec"),
    ("qpb.formats", "BuildResult.__init__", "formats.build"),
    ("qpb.formats", "run_suites", "formats.run_suites"),
    ("qpb.report", "ValidationReport.to_json", "report.to_json"),
    ("qpb.hopf", "validate_hopf", "hopf.validate_hopf"),
    ("qpb.hopf", "compute_haar", "hopf.compute_haar"),
    ("qpb.bundle", "build_bundle", "bundle.build_bundle"),
    ("qpb.bundle", "translation_identities", "bundle.translation_identities"),
    ("qpb.bundle", "galois_tower", "bundle.galois_tower"),
    ("qpb.braiding", "sigma_m", "braiding.sigma_m"),
    ("qpb.braiding", "verify_braiding_suite", "braiding.verify_braiding_suite"),
    ("qpb.braiding", "braided_structure", "braiding.braided_structure"),
    ("qpb.braiding", "classicality_report", "braiding.classicality_report"),
    ("qpb.braiding", "BraidOperator.at", "braiding.braid_at"),
    ("qpb.braiding", "BraidOperator.mu_at", "braiding.mu_at"),
    ("qpb.braiding", "BraidOperator.mult2", "braiding.mult2"),
    ("qpb.braiding", "BraidOperator.mult_n", "braiding.mult_n"),
    ("qpb.braiding", "BraidOperator.star_n", "braiding.star_n"),
    ("qpb.gauge", "build_gauge_coalgebra", "gauge.build_gauge_coalgebra"),
    ("qpb.gauge", "classical_braided_hopf", "gauge.classical_braided_hopf"),
    ("qpb.gauge", "enumerate_gauge", "gauge.enumerate_gauge"),
    ("qpb.gauge", "isotypic_decompose", "gauge.isotypic_decompose"),
    ("qpb.charsplit", "factor_over_field", "charsplit.factor_over_field"),
    ("qpb.charsplit", "field_characters", "charsplit.field_characters"),
    ("qpb.charsplit", "primitive_idempotents", "charsplit.primitive_idempotents"),
    ("qpb.fodc", "build_fodc", "fodc.build_fodc"),
    ("qpb.fodc", "build_envelope2", "fodc.build_envelope2"),
    ("qpb.fodc", "GammaEnvelope.__init__", "fodc.gamma_envelope"),
    ("qpb.calculus", "trivial_base_calculus", "calculus.trivial_base_calculus"),
    ("qpb.calculus", "universal_base_calculus", "calculus.universal_base_calculus"),
    ("qpb.calculus", "OmegaP.__init__", "calculus.omega_p"),
    ("qpb.calculus", "TotalCalculus.__init__", "calculus.total_calculus"),
    ("qpb.calculus", "differential_suite", "calculus.differential_suite"),
    ("qpb.connection", "maurer_cartan", "connection.maurer_cartan"),
    ("qpb.connection", "perturbed_connection", "connection.perturbed_connection"),
    ("qpb.connection", "verify_transformations", "connection.verify_transformations"),
    ("qpb.linalg", "Echelon.add", "linalg.echelon_add"),
    ("qpb.linalg", "PreparedSolve.__init__", "linalg.prepared_solve"),
    ("qpb.tensor", "TProd.__init__", "tensor.tprod"),
    ("qpb.tensor", "term_map", "tensor.term_map"),
)

# The span under which the whole check runs; its self time is the part of
# check time that no named span covers.
CHECK_SPAN = "formats.run_suites"

# Leaf counters: (module, attribute path, counter name).
LEAVES = (
    ("qpb.cyclotomic", "Scalar.__mul__", "cyclotomic.mul"),
    ("qpb.cyclotomic", "Scalar.inverse", "cyclotomic.inverse"),
)


def _resolve(module: str, path: str):
    """(owner, attribute name, original) for a module function or method."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Wraps qpb functions and methods in spans or counters; ``restore()`` undoes it."""

    def __init__(self, case: str = ""):
        self.case = case
        self.spans: list[tuple] = []   # (name, start, end, parent index, case)
        self._span_counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._cells: dict[str, list[int]] = {}  # leaf counters, read by ``counts``

    # -- installation ----------------------------------------------------------

    def _install(self, module: str, path: str, wrapper_for) -> None:
        owner, attr, orig = _resolve(module, path)
        wrapper = wrapper_for(orig)
        if "." in path:
            self._patch(owner, attr, orig, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qpb" or mod_name.startswith("qpb.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, name, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for module, path, name in SPANS:
            self._install(module, path, lambda orig, name=name: self.wrap(name, orig))
        for module, path, name in LEAVES:
            self._install(module, path, lambda orig, name=name: self._leaf(name, orig))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` and a call counter."""
        spans, stack, counts, case = self.spans, self._stack, self._span_counts, self.case
        clock = time.perf_counter
        count_key = name + ".count"
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, case)
                counts[count_key] = counts.get(count_key, 0) + 1
            if observe is not None:
                observe(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _leaf(self, name: str, fn):
        """``fn`` with a call counter; for ``cyclotomic.mul`` also a counter of
        calls with an operand equal to one.  Kept as lean as possible: these
        wrap millions of calls."""
        cell = self._cells.setdefault(name + ".count", [0])
        if name == "cyclotomic.mul":
            unit = self._cells.setdefault(name + ".unit", [0])

            def counted(a, b):
                cell[0] += 1
                one = a.field.one
                if a is one or b is one or a.coeffs == one.coeffs or b.coeffs == one.coeffs:
                    unit[0] += 1
                return fn(a, b)
        else:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- results -----------------------------------------------------------------

    @property
    def counts(self) -> dict[str, int]:
        out = dict(self._span_counts)
        out.update((k, v[0]) for k, v in self._cells.items())
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out


def _observe_echelon_add(counts, args, enlarged):
    if enlarged:
        counts["linalg.echelon_add.enlarged"] = counts.get("linalg.echelon_add.enlarged", 0) + 1


def _observe_tprod(counts, args, _):
    tp = args[0]
    counts["tensor.tprod.dim_sum"] = counts.get("tensor.tprod.dim_sum", 0) + tp.dim
    counts["tensor.tprod.flat_dim_sum"] = (counts.get("tensor.tprod.flat_dim_sum", 0)
                                           + len(tp.tuples))


_OBSERVERS = {
    "linalg.echelon_add": _observe_echelon_add,
    "tensor.tprod": _observe_tprod,
}


def per_call_costs() -> tuple[float, float]:
    """Seconds a span wrapper and a ``cyclotomic.mul`` leaf counter add to one
    call, measured on a no-op so the traced program's own cost is excluded."""
    def noop(a=None, b=None):
        return None

    class Probe:
        __slots__ = ("field", "coeffs")

    class Field:
        one = Probe()

    # a non-unit operand: the leaf counter's slowest path
    probe = Probe()
    probe.field, probe.coeffs = Field, (2,)
    Field.one.coeffs = (1,)
    tracer = Tracer()
    return tuple(_cost(wrapped, noop, probe) for wrapped in
                 (tracer.wrap("probe", noop), tracer._leaf("cyclotomic.mul", noop)))


def _cost(wrapped, bare, arg, calls: int = 20000) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare(arg, arg)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(arg, arg)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
