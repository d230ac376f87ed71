"""A count-based guard on the hash-consed scalar arithmetic.

The check of the two-point trivial bundle over C(Z3) with universal
calculi (the calculus-z3 benchmark case) makes about 103k scalar products
over a few dozen distinct values.  Each field interns one object per value
and memoizes products on those objects, so the field stays small and almost
every product is a memo hit.  The counts come from wrappers in a fresh
interpreter, so no earlier test has interned or memoized anything and the
numbers do not depend on timing.
"""

import json
import subprocess
import sys

from qpb.presets import generate_example, serialize_example

COUNTED_RUN = """
import json, sys
from qpb.cyclotomic import CycloField, Scalar
from qpb.formats import BuildResult, load_file, run_suites

calls = {"products": 0, "computed": 0}
times, product = Scalar.__mul__, Scalar._product

def counted_times(a, b):
    calls["products"] += 1
    return times(a, b)

def counted_product(a, b):
    calls["computed"] += 1
    return product(a, b)

Scalar.__mul__, Scalar._product = counted_times, counted_product
report = run_suites(BuildResult(load_file(sys.argv[1])), ["all"])
interned = {n: len(f._interned) for n, f in CycloField._instances.items()}
print(json.dumps({"ok": report.ok, "interned": interned, **calls}))
"""


def test_calculus_z3_interns_few_scalars_and_computes_few_products(tmp_path):
    spec = tmp_path / "calculus-z3.json"
    spec.write_text(serialize_example(generate_example(
        "trivial-bundle", group="Z3", base_points=2, fodc="universal",
        base_calculus="universal")), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", COUNTED_RUN, str(spec)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["ok"]
    assert got["interned"]["3"] <= 200, got
    # the floor keeps the memo ratio below meaningful; the tower formulas
    # skip the legs whose products are zero, the transported and graded
    # tensor products skip the products by one, and products of equal
    # content share one quotient, so 103,442 products are made
    assert got["products"] > 102_600, got
    assert got["computed"] < got["products"] // 100, got
