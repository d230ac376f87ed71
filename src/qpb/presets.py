"""Preset Hopf algebras and bundles.

Point bundles take B = A with the coproduct as coaction (base = scalars);
trivial bundles take B = C(X) (x) A with F = id (x) phi (base = C(X) with
|X| points).  These cover the commutative/noncommutative and trivial-base /
nontrivial-base combinations used across the verification suites.
"""

from __future__ import annotations

from .cyclotomic import CycloField
from .errors import SpecFileError, UnknownPreset
from .hopf import (
    HopfStarAlgebra, StarAlgebra, gen_from_group_table, group_conductor,
    named_group,
)
from .linalg import BasedSpace, LinearMap, Vec

GROUPS = ("Z2", "Z3", "S3", "trivial")
KINDS = ("function_algebra", "group_algebra")


def hopf_preset(group: str, kind: str, conductor: int | None = None) -> HopfStarAlgebra:
    """The preset over Q(zeta_n) for the given conductor n, by default the
    least one whose field holds the group's characters."""
    t = named_group(group)
    n = group_conductor(t)
    if conductor is not None:
        require_conductor(conductor)
        # group_conductor is never 2 mod 4, so mu_n lies in Q(zeta_conductor)
        # exactly when n divides the conductor
        if conductor % n:
            raise SpecFileError(f"Q(zeta_{conductor}) lacks the roots of unity of {group}: "
                                f"the conductor must be a multiple of {n}", where="conductor")
        n = conductor
    return gen_from_group_table(t, kind, CycloField(n))


def point_bundle(h: HopfStarAlgebra):
    """(total, f_legs) for B = A, F = phi over a point: f_legs[i] lists the
    legs ((j, k), c) of F(e_i) = sum c e_j (x) e_k."""
    return h.algebra, [h.sweedler(i) for i in range(h.dim)]


def point_bundle_data(group: str, kind: str = "function_algebra",
                      conductor: int | None = None):
    """(total, group_hopf, f_legs) for the point-base bundle B = A."""
    h = hopf_preset(group, kind, conductor)
    total, f_legs = point_bundle(h)
    return total, h, f_legs


def require_conductor(n) -> None:
    """A spec's conductor is a positive whole number."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecFileError("conductor must be a positive integer", where="conductor")


def require_base_points(points) -> None:
    """A trivial bundle's base is a positive whole number of points."""
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise SpecFileError("base_points must be a positive integer",
                            where="bundle.base_points")


def require_universal_points(points: int) -> None:
    """The universal base calculus is offered on at most 3 points."""
    if points > 3:
        raise UnknownPreset("universal base calculus supports at most 3 points",
                            where="base_calculus.preset")


def functions_on_points(points: int, field: CycloField) -> StarAlgebra:
    """C(X) for a set X of ``points`` points: delta functions x0, x1, ... with
    the pointwise product and the trivial star; points = 1 gives C(pt)."""
    space = BasedSpace(tuple(f"x{i}" for i in range(points)))
    one = field.one
    mult = [[({i: one} if i == j else {}) for j in range(points)]
            for i in range(points)]
    star = LinearMap(space, space, [{i: one} for i in range(points)], field,
                     antilinear=True)
    return StarAlgebra(f"C(X{points})", field, space, mult,
                       {i: one for i in range(points)}, star)


def trivial_bundle(h: HopfStarAlgebra, points: int):
    """(total, f_legs) for B = C(X) (x) A, F = id (x) phi, over |X| = points:
    B's basis is the pairs (p, a) of a point and a basis element of A, and
    f_legs[i] lists the legs ((j, k), c) of F(e_i) = sum c e_j (x) e_k."""
    require_base_points(points)
    field = h.field
    one = field.one
    pairs = [(p, a) for p in range(points) for a in range(h.dim)]
    index = {pa: i for i, pa in enumerate(pairs)}
    space = BasedSpace(tuple(f"x{p}.{h.space.labels[a]}" for p, a in pairs))
    mult = [[{index[p, k]: c for k, c in h.algebra.mul_basis(a, b_).items()}
             if p == q else {} for q, b_ in pairs] for p, a in pairs]
    unit: Vec = {index[p, a]: c for p in range(points) for a, c in h.unit.items()}
    star = LinearMap(space, space, [{index[p, k]: c for k, c in h.star_vec({a: one}).items()}
                                    for p, a in pairs], field, antilinear=True)
    total = StarAlgebra(f"C(X{points})(x){h.algebra.name}", field, space, mult, unit,
                        star)
    f_legs = [[((index[p, a1], a2), c) for (a1, a2), c in h.sweedler(a)] for p, a in pairs]
    return total, f_legs


def trivial_bundle_data(group: str, base_points: int, kind: str = "function_algebra",
                        conductor: int | None = None):
    """(total, group_hopf, f_legs) for B = C(X) (x) A, F = id (x) phi."""
    h = hopf_preset(group, kind, conductor)
    total, f_legs = trivial_bundle(h, base_points)
    return total, h, f_legs


# -- example generation: presets as complete spec files ----------------------------

GEN_PRESETS = ("c-group", "group-algebra", "point-bundle", "trivial-bundle")


def _hopf_sections(h: HopfStarAlgebra) -> dict:
    dim = h.dim
    mult = []
    for i in range(dim):
        for j in range(dim):
            for k in sorted(h.algebra.mult[i][j]):
                mult.append([i, j, k, h.algebra.mult[i][j][k].literal()])
    cop = [[i, j, k, c.literal()] for i in range(dim) for (j, k), c in h.sweedler(i)]
    counit = []
    for i in range(dim):
        c = h.eps_basis(i)
        if c:
            counit.append([i, c.literal()])
    antipode = []
    for i in range(dim):
        for j in sorted(h.antipode.cols[i]):
            antipode.append([i, j, h.antipode.cols[i][j].literal()])
    star = []
    for i in range(dim):
        for j in sorted(h.algebra.star.cols[i]):
            star.append([i, j, h.algebra.star.cols[i][j].literal()])
    return {
        "basis": list(h.space.labels),
        "mult": mult,
        "coproduct": cop,
        "counit": counit,
        "antipode": antipode,
        "star": star,
    }


def generate_example(name: str, group: str = "Z2", base_points: int = 2,
                     kind: str = "function_algebra", fodc: str | None = None,
                     base_calculus: str | None = None,
                     conductor: int | None = None) -> dict:
    """A complete spec-file document (as a JSON-ready dict) for a preset."""
    if name not in GEN_PRESETS:
        raise UnknownPreset(f"unknown example preset {name!r}")
    if name == "c-group":
        kind = "function_algebra"
        bundle = {"preset": "point"}
    elif name == "group-algebra":
        kind = "group_algebra"
        bundle = {"preset": "point"}
    elif name == "point-bundle":
        bundle = {"preset": "point"}
    else:
        require_base_points(base_points)
        bundle = {"preset": "trivial", "base_points": base_points}
    if base_calculus == "universal":
        require_universal_points(bundle.get("base_points", 1))
    h = hopf_preset(group, kind, conductor)
    doc = {
        "format": "qpb-spec/1",
        "conductor": h.field.n,
        "hopf": _hopf_sections(h),
        "bundle": bundle,
    }
    if h.corepresentations:
        doc["corepresentations"] = [
            {"name": c.name, "dim": c.dim,
             "functional": [s.literal() for s in c.functional]}
            for c in h.corepresentations
        ]
    if fodc:
        doc["fodc"] = {"preset": fodc}
    if base_calculus:
        doc["base_calculus"] = {"preset": base_calculus}
    return doc


def serialize_example(doc: dict) -> str:
    import json
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
