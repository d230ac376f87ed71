"""The specification file format and the suite runner.

Files are JSON with sparse structure-constant entries [i, j, k, "scalar"]
over a per-file cyclotomic conductor.  Each section with presets has one
table of them.  Parsing rejects unknown presets and every other error that
the file alone shows, with a dotted path for every diagnostic; building only
looks the presets up, and does what needs built objects (the Hopf, coaction,
principality and ideal checks, and the optional expect block).  Reports serialize byte-stably
(sorted records, sorted keys, no timings in the JSON form).
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Callable, NamedTuple

from .braiding import braided_structure, classicality_report, verify_braiding_suite
from .bundle import Bundle, build_bundle, galois_tower, translation_identities
from .calculus import (
    TotalCalculus, build_total_calculus, trivial_base_calculus, universal_base_calculus,
)
from .connection import maurer_cartan, perturbed_connection, verify_transformations
from .cyclotomic import CycloField
from .errors import NotCommutative, NotProductBundle, SpecFileError, UnknownPreset
from .fodc import build_fodc, universal_ideal, zero_ideal
from .gauge import (
    build_gauge_coalgebra, classical_braided_hopf, enumerate_gauge,
    isotypic_decompose,
)
from .hopf import (
    Corepresentation, HopfStarAlgebra, StarAlgebra, algebra_ids, compute_haar,
    validate_hopf,
)
from .linalg import LABEL_SEPARATORS, BasedSpace, LinearMap, Vec, viadd_term
from .presets import (
    functions_on_points, point_bundle, require_base_points, require_conductor,
    trivial_bundle,
)
from .report import CheckRecord, RaisingReport, ValidationReport

FORMAT_TAG = "qpb-spec/1"

_TOP_KEYS = {"format", "conductor", "hopf", "bundle", "fodc", "base_calculus",
             "connection", "corepresentations", "expect"}
_HOPF_KEYS = {"basis", "mult", "coproduct", "counit", "antipode", "star"}
_BUNDLE_KEYS = {"basis", "mult", "star", "coaction"}
_CONN_KEYS = {"perturbation"}
_EXPECT_KEYS = {"base_dim", "b2_dim", "gauge_dim", "gamma_inv_dim", "classical"}


class Preset(NamedTuple):
    """A preset of a spec section: the options it takes, with their
    defaults, and the builder it calls with them."""
    options: dict
    build: Callable


BUNDLE_PRESETS = {  # build(A, **options) -> (total, f_legs)
    "point": Preset({}, point_bundle),
    "trivial": Preset({"base_points": 2}, trivial_bundle),
}
FODC_PRESETS = {  # build(A) -> a basis of the ideal
    "universal": Preset({}, universal_ideal),
    "zero": Preset({}, zero_ideal),
}
# The base calculus rows are lambdas, which look their builders up here when
# called: bench/spans.py wraps those names in this module's namespace.
BASE_CALCULUS_PRESETS = {  # build(points, field) -> the base calculus
    "trivial": Preset({}, lambda points, field: trivial_base_calculus(
        functions_on_points(points, field))),
    "universal": Preset({}, lambda points, field: universal_base_calculus(points, field)),
}


class SpecFile:
    """A parsed spec file.  Each section with presets is held as the
    (name, options) of its preset, or None for explicit data, which is held
    parsed: the bundle's (total, f_legs) and the fodc's ideal basis."""

    def __init__(self, conductor: int, hopf: HopfStarAlgebra, corepresentations,
                 bundle_preset, bundle_data, fodc_preset, fodc_ideal, base_calc_preset,
                 connection_spec: dict | None, differential: bool, expect: dict):
        self.conductor = conductor
        self.field = CycloField(conductor)
        self.hopf = hopf
        self.corepresentations = corepresentations  # the declared section, or None
        self.bundle_preset = bundle_preset
        self.bundle_data = bundle_data
        self.fodc_preset = fodc_preset
        self.fodc_ideal = fodc_ideal
        self.base_calc_preset = base_calc_preset
        self.connection_spec = connection_spec
        self.differential = differential  # a fodc, base_calculus or connection section
        self.expect = expect


def _require(cond, msg, where):
    if not cond:
        raise SpecFileError(msg, where=where)


def _is_int(v) -> bool:
    """A JSON integer; bool is an int subclass, so true must not read as 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_keys(obj, allowed, where):
    for k in obj:
        if k not in allowed:
            raise SpecFileError(f"unknown key {k!r}", where=where)


def _optional_section(doc, key, absent=None):
    """The object at ``key``, or ``absent`` when the file has no such section
    or it is null."""
    spec = doc.get(key)
    if spec is None:
        return absent
    _require(isinstance(spec, dict), f"{key} must be an object", key)
    return spec


def _check_one_form(spec, presets, explicit_keys, where, default=None):
    """A section is either a preset of its table ``presets``, with the
    options that preset takes, or explicit data (``explicit_keys``); with
    neither named, it is the ``default`` preset, if any.  An unknown preset
    or key, or a key of the other form, is rejected at its position.
    Returns the preset's (name, options), defaults filled in, or None."""
    _check_keys(spec, {"preset", *explicit_keys}.union(
        *(p.options for p in presets.values())), where)
    name = spec.get("preset", default)
    if "preset" not in spec and (name is None or explicit_keys & spec.keys()):
        for k in spec:
            _require(k in explicit_keys, f"{k!r} is an option of a preset, and the "
                     "section names none", f"{where}.{k}")
        return None
    if not (isinstance(name, str) and name in presets):
        raise UnknownPreset(f"unknown {where.replace('_', ' ')} preset {name!r}",
                            where=f"{where}.preset")
    defaults = presets[name].options
    for k in spec:
        _require(k == "preset" or k in defaults,
                 f"{k!r} cannot be combined with preset {name!r}", f"{where}.{k}")
    return name, {**defaults, **{k: v for k, v in spec.items() if k != "preset"}}


def _parse_basis(basis, where) -> BasedSpace:
    _require(isinstance(basis, list) and basis
             and all(isinstance(b, str) for b in basis),
             f"{where} must be a nonempty list of labels", where)
    for i, b in enumerate(basis):
        _require(not any(sep in b for sep in LABEL_SEPARATORS),
                 f"basis label {b!r} contains '|' or '(x)', which join tensor labels",
                 f"{where}[{i}]")
    _require(len(set(basis)) == len(basis), "basis labels must be unique", where)
    return BasedSpace(tuple(basis))


def _parse_scalar(field, text, where):
    if not isinstance(text, str):
        raise SpecFileError(f"scalar literal must be a string, got {text!r}",
                            where=where)
    try:
        return field.parse(text)
    except SpecFileError as e:
        raise SpecFileError(str(e), where=where) from None


def _parse_entries3(field, entries, dim_i, dim_j, dim_k, where):
    """Sparse [i, j, k, scalar] entries to a dict (i, j) -> Vec over k."""
    out: dict = {}
    _require(isinstance(entries, list), "expected a list of entries", where)
    for n, e in enumerate(entries):
        w = f"{where}[{n}]"
        _require(isinstance(e, list) and len(e) == 4, "entry must be [i, j, k, scalar]", w)
        i, j, k = e[0], e[1], e[2]
        for name, v, d in (("i", i, dim_i), ("j", j, dim_j), ("k", k, dim_k)):
            _require(_is_int(v) and 0 <= v < d,
                     f"index {name}={v!r} out of range [0, {d})", w)
        viadd_term(out.setdefault((i, j), {}), k, _parse_scalar(field, e[3], w))
    return out


def _legs(entries, dim) -> list:
    """Entries (i, j) -> Vec over k, as from ``_parse_entries3``, to the legs
    ((j, k), c) of each of the dim basis elements i."""
    legs = [[] for _ in range(dim)]
    for (i, j), vec in entries.items():
        legs[i] += [((j, k), c) for k, c in vec.items()]
    return legs


def _parse_entries2(field, entries, dim_i, dim_j, where):
    out: dict = {}
    _require(isinstance(entries, list), "expected a list of entries", where)
    for n, e in enumerate(entries):
        w = f"{where}[{n}]"
        _require(isinstance(e, list) and len(e) == 3, "entry must be [i, j, scalar]", w)
        i, j = e[0], e[1]
        for name, v, d in (("i", i, dim_i), ("j", j, dim_j)):
            _require(_is_int(v) and 0 <= v < d,
                     f"index {name}={v!r} out of range [0, {d})", w)
        viadd_term(out.setdefault(i, {}), j, _parse_scalar(field, e[2], w))
    return out


def _parse_functional(field, entries, dim, where):
    out: Vec = {}
    _require(isinstance(entries, list), "expected a list of entries", where)
    for n, e in enumerate(entries):
        w = f"{where}[{n}]"
        _require(isinstance(e, list) and len(e) == 2, "entry must be [i, scalar]", w)
        i = e[0]
        _require(_is_int(i) and 0 <= i < dim, f"index {i!r} out of range", w)
        viadd_term(out, i, _parse_scalar(field, e[1], w))
    return out


def parse_spec(text: str) -> SpecFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFileError(f"JSON syntax error at line {e.lineno}, column {e.colno}: "
                            f"{e.msg}", where="file") from None
    _require(isinstance(doc, dict), "top level must be an object", "file")
    _check_keys(doc, _TOP_KEYS, "file")
    _require(doc.get("format") == FORMAT_TAG,
             f"format must be {FORMAT_TAG!r}", "format")
    conductor = doc.get("conductor")
    require_conductor(conductor)
    field = CycloField(conductor)

    hopf_doc = doc.get("hopf")
    _require(isinstance(hopf_doc, dict), "missing hopf section", "hopf")
    _check_keys(hopf_doc, _HOPF_KEYS, "hopf")
    algebra = _parse_star_algebra("A", field, hopf_doc, "hopf")
    space, dim = algebra.space, algebra.dim
    # coproduct entries are [i, j, k, c] meaning phi(e_i) += c e_j (x) e_k
    sweedler = _legs(_parse_entries3(field, hopf_doc.get("coproduct", []),
                                     dim, dim, dim, "hopf.coproduct"), dim)
    counit_vec = _parse_functional(field, hopf_doc.get("counit", []), dim,
                                   "hopf.counit")
    antipode = _parse_entries2(field, hopf_doc.get("antipode", []), dim, dim,
                               "hopf.antipode")
    counit = LinearMap(space, BasedSpace(("1",)),
                       [{0: counit_vec[i]} if i in counit_vec else {}
                        for i in range(dim)], field)
    antipode_map = LinearMap(space, space, [antipode.get(i, {}) for i in range(dim)],
                             field)
    coreps = None
    if "corepresentations" in doc:
        coreps = []
        cr = doc["corepresentations"]
        _require(isinstance(cr, list), "corepresentations must be a list",
                 "corepresentations")
        for n, item in enumerate(cr):
            w = f"corepresentations[{n}]"
            _require(isinstance(item, dict), "entry must be an object", w)
            _check_keys(item, {"name", "dim", "functional"}, w)
            name = item.get("name")
            d = item.get("dim")
            _require(isinstance(name, str), "name must be a string", f"{w}.name")
            _require(_is_int(d) and d >= 1, "dim must be a positive integer",
                     f"{w}.dim")
            func = item.get("functional")
            _require(isinstance(func, list) and len(func) == dim,
                     "functional must list one scalar per hopf basis element",
                     f"{w}.functional")
            coreps.append(Corepresentation(
                name, d, [_parse_scalar(field, s, f"{w}.functional[{k}]")
                          for k, s in enumerate(func)]))
    try:
        hopf = HopfStarAlgebra(algebra, sweedler, counit, antipode_map)
    except Exception as e:
        raise SpecFileError(f"hopf data is not well formed: {e}", where="hopf") from None

    bundle_spec = _optional_section(doc, "bundle", {"preset": "point"})
    bundle_preset = _check_one_form(bundle_spec, BUNDLE_PRESETS, _BUNDLE_KEYS, "bundle")
    points = bundle_data = None  # a preset bundle's base points; an explicit one's data
    if bundle_preset is not None:
        points = bundle_preset[1].get("base_points", 1)
        require_base_points(points)
    else:
        total = _parse_star_algebra("B", field, bundle_spec, "bundle")
        bundle_data = total, _legs(_parse_entries3(
            field, bundle_spec.get("coaction", []), total.dim, total.dim, dim,
            "bundle.coaction"), total.dim)
    fodc_spec = _optional_section(doc, "fodc")
    fodc_preset = _check_one_form(fodc_spec or {}, FODC_PRESETS, {"ideal_basis"}, "fodc",
                                  "universal")
    fodc_ideal = None
    if fodc_preset is None:
        ib = fodc_spec["ideal_basis"]
        _require(isinstance(ib, list), "ideal_basis must be a list", "fodc.ideal_basis")
        fodc_ideal = [_parse_functional(field, entries, dim, f"fodc.ideal_basis[{n}]")
                      for n, entries in enumerate(ib)]
    base_spec = _optional_section(doc, "base_calculus")
    base_preset = _check_one_form(base_spec or {}, BASE_CALCULUS_PRESETS, set(),
                                  "base_calculus", "trivial")
    _require(base_preset[0] != "universal" or points is None or points <= 3,
             "universal base calculus supports at most 3 points", "base_calculus.preset")
    conn_spec = _optional_section(doc, "connection")
    _check_keys(conn_spec or {}, _CONN_KEYS, "connection")
    expect = _optional_section(doc, "expect", {})
    _check_keys(expect, _EXPECT_KEYS, "expect")
    for key in ("base_dim", "b2_dim", "gauge_dim", "gamma_inv_dim"):
        if key in expect:
            _require(_is_int(expect[key]) and expect[key] >= 0,
                     f"{key} must be a non-negative integer", f"expect.{key}")
    _require(isinstance(expect.get("classical", False), bool),
             "classical must be true or false", "expect.classical")
    differential = any(x is not None for x in (fodc_spec, base_spec, conn_spec))
    return SpecFile(conductor, hopf, coreps, bundle_preset, bundle_data, fodc_preset,
                    fodc_ideal, base_preset, conn_spec, differential, expect)


def _parse_star_algebra(name, field, spec, where) -> StarAlgebra:
    """The *-algebra of a section's basis, mult and star entries, with its
    unit solved from the product."""
    space = _parse_basis(spec.get("basis"), f"{where}.basis")
    dim = space.dim
    entries = _parse_entries3(field, spec.get("mult", []), dim, dim, dim, f"{where}.mult")
    mult = [[entries.get((i, j), {}) for j in range(dim)] for i in range(dim)]
    star = _parse_entries2(field, spec.get("star", []), dim, dim, f"{where}.star")
    star_map = LinearMap(space, space, [star.get(i, {}) for i in range(dim)], field,
                         antilinear=True)
    return StarAlgebra(name, field, space, mult,
                       _find_unit(field, space, mult, f"{where}.mult"), star_map)


def _find_unit(field, space, mult, where) -> Vec:
    """The two-sided unit, solved from e . x = x for all basis x: one
    equation (e . x)_k = [x = k] per pair (x, k), numbered as met."""
    from .linalg import PreparedSolve
    dim = space.dim
    eq: dict = {}
    cols = [{eq.setdefault((x, k), len(eq)): c
             for x in range(dim) for k, c in mult[i][x].items()} for i in range(dim)]
    target: Vec = {eq.setdefault((x, x), len(eq)): field.one for x in range(dim)}
    sol = PreparedSolve(cols, len(eq), field).solve(target)
    if sol is None:
        raise SpecFileError("algebra has no unit", where=where)
    return sol


# -- building ----------------------------------------------------------------------

def _check_corepresentations(declared, derived) -> None:
    """A declared corepresentations section lists the derived dual central
    idempotents, in any order and under any names: each entry's (functional,
    dim) is a derived one not matched before, and no derived one is left
    out.  With the centre of A* not split over K, no section is accepted."""
    _require(derived is not None, "the centre of the dual of A does not split over "
             "the field, so A has no corepresentations to declare", "corepresentations")
    left = [(c.functional, c.dim) for c in derived]
    for n, c in enumerate(declared):
        _require((c.functional, c.dim) in left, "no dual central idempotent of A has this "
                 "functional and dim", f"corepresentations[{n}]")
        left.remove((c.functional, c.dim))
    _require(not left, f"the section leaves out {len(left)} of the {len(derived)} "
             "dual central idempotents of A", "corepresentations")


class BuildResult:
    def __init__(self, sf: SpecFile):
        self.sf = sf
        self.field = sf.field
        hopf_report = validate_hopf(sf.hopf)
        if not hopf_report.ok:
            first = hopf_report.failures[0]
            raise SpecFileError(
                f"hopf validation failed: {first.identity_id} with witness {first.witness}",
                where="hopf")
        sf.hopf.haar = compute_haar(sf.hopf)
        if sf.corepresentations is not None:
            _check_corepresentations(sf.corepresentations, sf.hopf.corepresentations)
        self.hopf = sf.hopf
        self.bundle = self._build_bundle()
        self._calc = None
        self._check_expect()

    def _build_bundle(self) -> Bundle:
        sf = self.sf
        if sf.bundle_preset is not None:
            name, options = sf.bundle_preset
            total, f_legs = BUNDLE_PRESETS[name].build(sf.hopf, **options)
        else:
            total, f_legs = sf.bundle_data
            total.add_axiom_records(
                RaisingReport(SpecFileError, "bundle algebra validation failed: ",
                              where="bundle"),
                algebra_ids("bundle.algebra"))
        return build_bundle(total, sf.hopf, f_legs)

    def _check_expect(self):
        """Each figure of the expect block against the computed one, in order."""
        computed = {"base_dim": ("base dimension ", lambda: self.bundle.base_dim),
                    "b2_dim": ("dim B_2 = ", lambda: self.bundle.b2.dim),
                    "classical": ("classical = ", lambda: self.classicality[0]),
                    "gauge_dim": ("dim L = ", lambda: len(self.gauge.l_basis)),
                    "gamma_inv_dim": ("dim Gamma_inv = ", lambda: self.fodc.dim)}
        for key, (what, compute) in computed.items():
            if key in self.sf.expect:
                want, got = self.sf.expect[key], compute()
                _require(got == want, f"expected {what}{want}, computed {got}",
                         f"expect.{key}")

    @cached_property
    def gauge(self):
        return build_gauge_coalgebra(self.bundle)

    @cached_property
    def classicality(self):
        """(classical, report) of the classicality dichotomy on the bundle."""
        return classicality_report(self.bundle)

    @cached_property
    def fodc(self):
        sf = self.sf
        ideal = sf.fodc_ideal
        if sf.fodc_preset is not None:
            name, options = sf.fodc_preset
            ideal = FODC_PRESETS[name].build(self.hopf, **options)
        return build_fodc(self.hopf, ideal)

    def total_calculus(self) -> TotalCalculus:
        if self._calc is None:
            if self.sf.bundle_preset is None:
                raise NotProductBundle(
                    "differential calculus needs a preset product bundle",
                    where="bundle")
            name, options = self.sf.base_calc_preset
            base = BASE_CALCULUS_PRESETS[name].build(self.bundle.base_dim, self.field,
                                                     **options)
            self._calc = build_total_calculus(self.fodc, base)
        return self._calc

    def connection(self, tc: TotalCalculus):
        spec = self.sf.connection_spec
        if spec is None or not spec.get("perturbation"):
            return maurer_cartan(tc)
        pert = spec["perturbation"]
        _require(isinstance(pert, list) and len(pert) == tc.fodc.dim,
                 f"perturbation must list one row per Gamma_inv basis element "
                 f"({tc.fodc.dim})", "connection.perturbation")
        lam_cols = []
        for n, entries in enumerate(pert):
            lam_cols.append(_parse_functional(self.field, entries,
                                              tc.base_calc.dim,
                                              f"connection.perturbation[{n}]"))
        return perturbed_connection(tc, lam_cols)


# -- suite runner --------------------------------------------------------------------

SUITES = ("translation", "braiding", "gauge", "classical", "differential", "all")


def require_degree(degree: int) -> None:
    """Reject every calculus degree but 2, the only one the suites build."""
    if degree != 2:
        raise SpecFileError("only --degree 2 is supported", where="degree")


def run_suites(build: BuildResult, suites, degree: int = 2,
               fail_fast: bool = False) -> ValidationReport:
    require_degree(degree)
    chosen = set(suites)
    if "all" in chosen:
        chosen = {"translation", "braiding", "gauge", "classical", "differential"}
    report = ValidationReport()

    def merge(rep: ValidationReport) -> bool:
        report.extend(rep)
        return fail_fast and not report.ok

    if "translation" in chosen:
        if merge(translation_identities(build.bundle)):
            return report
        if merge(galois_tower(build.bundle, 2)[2]):
            return report
    if "braiding" in chosen:
        if merge(verify_braiding_suite(build.bundle)):
            return report
        _, _, rep2 = braided_structure(build.bundle, 2)
        if merge(rep2):
            return report
    if "gauge" in chosen:
        if merge(build.gauge.report):
            return report
        dec = isotypic_decompose(build.bundle, build.gauge)
        if merge(dec.report):
            return report
    if "classical" in chosen:
        classical, dich_rep = build.classicality
        if merge(dich_rep):
            return report
        if classical:
            bh = classical_braided_hopf(build.gauge)
            if merge(bh.report):
                return report
            blocked = bh.enumeration_blocked
            if blocked:
                report.add(CheckRecord("gauge-group.enumeration", "enumeration",
                                       "vacuous", note=f"skipped: {blocked}"))
            else:
                try:
                    _, _, gr = enumerate_gauge(bh)
                    if merge(gr):
                        return report
                except NotCommutative as e:
                    report.add(CheckRecord("gauge-group.enumeration", "enumeration",
                                           "vacuous", note=f"unsupported: {e}"))
        else:
            report.add(CheckRecord("classical.status", "classical structure group",
                                   "vacuous",
                                   note="NotClassical: the structure group "
                                        "algebra is noncommutative"))
    if "differential" in chosen:
        if not build.sf.differential:
            report.add(CheckRecord(
                "diff.available", "differential sections", "vacuous",
                note="file has no fodc / base_calculus / connection sections"))
        else:
            from .calculus import differential_suite
            tc = build.total_calculus()
            if merge(differential_suite(tc, gauge_coalgebra=build.gauge)):
                return report
            conn = build.connection(tc)
            if merge(verify_transformations(conn)):
                return report
    return report


def load_file(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise SpecFileError(f"cannot read {path!r}: {e.strerror or e}",
                            where="file") from None
    except UnicodeDecodeError as e:
        raise SpecFileError(f"{path!r} is not UTF-8 text: {e.reason} at byte {e.start}",
                            where="file") from None
    return parse_spec(text)
