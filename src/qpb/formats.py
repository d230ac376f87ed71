"""The specification file format and the suite runner.

Files are JSON with sparse structure-constant entries [i, j, k, "scalar"]
over a per-file cyclotomic conductor.  Parsing rejects unknown keys and
reports a dotted path for every diagnostic; building validates everything
and asserts the optional expect block.  Reports serialize byte-stably
(sorted records, sorted keys, no timings in the JSON form).
"""

from __future__ import annotations

import json
from functools import cached_property

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
from .linalg import LABEL_SEPARATORS, BasedSpace, LinearMap, Vec
from .presets import (
    functions_on_points, point_bundle, require_conductor, require_universal_points,
    trivial_bundle,
)
from .report import CheckRecord, RaisingReport, ValidationReport

FORMAT_TAG = "qpb-spec/1"

_TOP_KEYS = {"format", "conductor", "hopf", "bundle", "fodc", "base_calculus",
             "connection", "corepresentations", "expect"}
_HOPF_KEYS = {"basis", "mult", "coproduct", "counit", "antipode", "star"}
_BASE_KEYS = {"preset"}
_CONN_KEYS = {"perturbation"}
_EXPECT_KEYS = {"base_dim", "b2_dim", "gauge_dim", "gamma_inv_dim", "classical"}


class SpecFile:
    def __init__(self, conductor: int, hopf: HopfStarAlgebra, corepresentations,
                 bundle_spec: dict, fodc_spec: dict | None, base_calc_spec: dict | None,
                 connection_spec: dict | None, expect: dict):
        self.conductor = conductor
        self.field = CycloField(conductor)
        self.hopf = hopf
        self.corepresentations = corepresentations  # the declared section, or None
        self.bundle_spec = bundle_spec
        self.fodc_spec = fodc_spec
        self.base_calc_spec = base_calc_spec
        self.connection_spec = connection_spec
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


def _check_one_form(spec, preset_options, explicit_keys, where):
    """A section is either a preset, with the options that preset takes
    (``preset_options``), or explicit data (``explicit_keys``): an unknown
    key, or a key of the other form, is rejected at its position."""
    _check_keys(spec, {"preset", *explicit_keys}.union(*preset_options.values()), where)
    if "preset" in spec:
        preset = spec["preset"]
        own = {"preset"}.union(*(opts for p, opts in preset_options.items() if p == preset))
        conflict = f"cannot be combined with preset {preset!r}"
    else:
        own, conflict = explicit_keys, "is an option of a preset, and the section names none"
    for k in spec:
        _require(k in own, f"{k!r} {conflict}", f"{where}.{k}")


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
        c = _parse_scalar(field, e[3], w)
        vec = out.setdefault((i, j), {})
        prev = vec.get(k)
        vec[k] = c if prev is None else prev + c
        if not vec[k]:
            del vec[k]
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
        c = _parse_scalar(field, e[2], w)
        vec = out.setdefault(i, {})
        prev = vec.get(j)
        vec[j] = c if prev is None else prev + c
        if not vec[j]:
            del vec[j]
    return out


def _parse_functional(field, entries, dim, where):
    out: Vec = {}
    _require(isinstance(entries, list), "expected a list of entries", where)
    for n, e in enumerate(entries):
        w = f"{where}[{n}]"
        _require(isinstance(e, list) and len(e) == 2, "entry must be [i, scalar]", w)
        i = e[0]
        _require(_is_int(i) and 0 <= i < dim, f"index {i!r} out of range", w)
        c = _parse_scalar(field, e[1], w)
        prev = out.get(i)
        out[i] = c if prev is None else prev + c
        if not out[i]:
            del out[i]
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
    space = _parse_basis(hopf_doc.get("basis"), "hopf.basis")
    dim = space.dim
    mult_entries = _parse_entries3(field, hopf_doc.get("mult", []),
                                   dim, dim, dim, "hopf.mult")
    mult = [[mult_entries.get((i, j), {}) for j in range(dim)] for i in range(dim)]
    # coproduct entries are [i, j, k, c] meaning phi(e_i) += c e_j (x) e_k
    sweedler = _legs(_parse_entries3(field, hopf_doc.get("coproduct", []),
                                     dim, dim, dim, "hopf.coproduct"), dim)
    counit_vec = _parse_functional(field, hopf_doc.get("counit", []), dim,
                                   "hopf.counit")
    antipode = _parse_entries2(field, hopf_doc.get("antipode", []), dim, dim,
                               "hopf.antipode")
    star = _parse_entries2(field, hopf_doc.get("star", []), dim, dim, "hopf.star")
    counit = LinearMap(space, BasedSpace(("1",)),
                       [{0: counit_vec[i]} if i in counit_vec else {}
                        for i in range(dim)], field)
    star_map = LinearMap(space, space, [star.get(i, {}) for i in range(dim)],
                         field, antilinear=True)
    antipode_map = LinearMap(space, space, [antipode.get(i, {}) for i in range(dim)],
                             field)
    # the unit is solved from the counit law after validation; for building we
    # find it as the unique two-sided unit of the algebra
    unit = _find_unit(field, space, mult, "hopf.mult")
    algebra = StarAlgebra("A", field, space, mult, unit, star_map)
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

    bundle_spec = doc.get("bundle", {"preset": "point"})
    _require(isinstance(bundle_spec, dict), "bundle must be an object", "bundle")
    _check_one_form(bundle_spec, {"trivial": {"base_points"}},
                    {"basis", "mult", "star", "coaction"}, "bundle")
    fodc_spec = doc.get("fodc")
    if fodc_spec is not None:
        _require(isinstance(fodc_spec, dict), "fodc must be an object", "fodc")
        _check_one_form(fodc_spec, {}, {"ideal_basis"}, "fodc")
    base_spec = doc.get("base_calculus")
    if base_spec is not None:
        _require(isinstance(base_spec, dict), "base_calculus must be an object",
                 "base_calculus")
        _check_keys(base_spec, _BASE_KEYS, "base_calculus")
    conn_spec = doc.get("connection")
    if conn_spec is not None:
        _require(isinstance(conn_spec, dict), "connection must be an object",
                 "connection")
        _check_keys(conn_spec, _CONN_KEYS, "connection")
    expect = doc.get("expect", {})
    _require(isinstance(expect, dict), "expect must be an object", "expect")
    _check_keys(expect, _EXPECT_KEYS, "expect")
    for key in ("base_dim", "b2_dim", "gauge_dim", "gamma_inv_dim"):
        if key in expect:
            _require(_is_int(expect[key]) and expect[key] >= 0,
                     f"{key} must be a non-negative integer", f"expect.{key}")
    _require(isinstance(expect.get("classical", False), bool),
             "classical must be true or false", "expect.classical")
    return SpecFile(conductor, hopf, coreps, bundle_spec, fodc_spec, base_spec,
                    conn_spec, expect)


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
        h = sf.hopf
        spec = sf.bundle_spec
        if "preset" in spec:
            preset = spec["preset"]
            if preset == "point":
                total, f_legs = point_bundle(h)
            elif preset == "trivial":
                total, f_legs = trivial_bundle(h, spec.get("base_points", 2))
            else:
                raise UnknownPreset(f"unknown bundle preset {preset!r}",
                                    where="bundle.preset")
            return build_bundle(total, h, f_legs)
        space = _parse_basis(spec.get("basis"), "bundle.basis")
        dim = space.dim
        field = sf.field
        mult_entries = _parse_entries3(field, spec.get("mult", []), dim, dim, dim,
                                       "bundle.mult")
        mult = [[mult_entries.get((i, j), {}) for j in range(dim)]
                for i in range(dim)]
        star = _parse_entries2(field, spec.get("star", []), dim, dim, "bundle.star")
        star_map = LinearMap(space, space, [star.get(i, {}) for i in range(dim)],
                             field, antilinear=True)
        unit = _find_unit(field, space, mult, "bundle.mult")
        total = StarAlgebra("B", field, space, mult, unit, star_map)
        total.add_axiom_records(
            RaisingReport(SpecFileError, "bundle algebra validation failed: ",
                          where="bundle"),
            algebra_ids("bundle.algebra"))
        f_legs = _legs(_parse_entries3(field, spec.get("coaction", []),
                                       dim, dim, h.dim, "bundle.coaction"), dim)
        return build_bundle(total, h, f_legs)

    def _check_expect(self):
        exp = self.sf.expect
        if "base_dim" in exp and self.bundle.base_dim != exp["base_dim"]:
            raise SpecFileError(
                f"expected base dimension {exp['base_dim']}, computed "
                f"{self.bundle.base_dim}", where="expect.base_dim")
        if "b2_dim" in exp and self.bundle.b2.dim != exp["b2_dim"]:
            raise SpecFileError(
                f"expected dim B_2 = {exp['b2_dim']}, computed {self.bundle.b2.dim}",
                where="expect.b2_dim")
        if "classical" in exp:
            classical, _ = classicality_report(self.bundle)
            if classical != bool(exp["classical"]):
                raise SpecFileError(
                    f"expected classical = {exp['classical']}, computed {classical}",
                    where="expect.classical")
        if "gauge_dim" in exp:
            gc = self.gauge
            if len(gc.l_basis) != exp["gauge_dim"]:
                raise SpecFileError(
                    f"expected dim L = {exp['gauge_dim']}, computed {len(gc.l_basis)}",
                    where="expect.gauge_dim")
        if "gamma_inv_dim" in exp:
            if self.fodc.dim != exp["gamma_inv_dim"]:
                raise SpecFileError(
                    f"expected dim Gamma_inv = {exp['gamma_inv_dim']}, computed "
                    f"{self.fodc.dim}", where="expect.gamma_inv_dim")

    @cached_property
    def gauge(self):
        return build_gauge_coalgebra(self.bundle)

    @cached_property
    def fodc(self):
        spec = self.sf.fodc_spec or {"preset": "universal"}
        if "ideal_basis" in spec:
            vecs = []
            ib = spec["ideal_basis"]
            _require(isinstance(ib, list), "ideal_basis must be a list",
                     "fodc.ideal_basis")
            for n, entries in enumerate(ib):
                vecs.append(_parse_functional(self.field, entries, self.hopf.dim,
                                              f"fodc.ideal_basis[{n}]"))
            return build_fodc(self.hopf, vecs)
        preset = spec.get("preset", "universal")
        if preset == "universal":
            return build_fodc(self.hopf, universal_ideal(self.hopf))
        if preset == "zero":
            return build_fodc(self.hopf, zero_ideal(self.hopf))
        raise UnknownPreset(f"unknown fodc preset {preset!r}", where="fodc.preset")

    def total_calculus(self) -> TotalCalculus:
        if self._calc is None:
            spec = self.sf.bundle_spec
            if "preset" not in spec:
                raise NotProductBundle(
                    "differential calculus needs a preset product bundle",
                    where="bundle")
            base_spec = self.sf.base_calc_spec or {"preset": "trivial"}
            preset = base_spec.get("preset", "trivial")
            points = self.bundle.base_dim
            if preset == "trivial":
                base = trivial_base_calculus(functions_on_points(points, self.field))
            elif preset == "universal":
                require_universal_points(points)
                base = universal_base_calculus(points, self.field)
            else:
                raise UnknownPreset(f"unknown base calculus preset {preset!r}",
                                    where="base_calculus.preset")
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
        classical, dich_rep = classicality_report(build.bundle)
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
        sf = build.sf
        if sf.fodc_spec is None and sf.base_calc_spec is None \
                and sf.connection_spec is None:
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
