"""Every function defined in src/qpb is used somewhere in src/qpb, and every
name imported into a module of src/qpb is read in that module.

A ``def`` counts as used when its name is read anywhere in the package, as
a name (``f``, also as a decorator) or as an attribute (``obj.f``); the
``def`` statement itself reads nothing.  The check goes by name, so a
function whose name is read for something else also counts as used.
Dunder methods are called by Python itself.  The names below are kept with no caller in the package, each for
the reason given.

An import counts as read when the name it binds is read as a name anywhere
in its module, type annotations included; ``from __future__`` imports are
directives, not names.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpb"

KEPT = {
    "point_bundle_data": "presets: the (B, A, F) of a point bundle in one call, "
                         "which the tests build their bundles from",
    "trivial_bundle_data": "presets: the same for a trivial bundle C(X) (x) A",
    "verify": "linalg.QuotientSpace.verify: the reference check of a quotient "
              "that the tests run against the sparse construction",
}


def defs_and_reads(sources):
    """(defined function names with their file and line, Counter of the
    names read as names or attributes) over the given {file: source}."""
    defined, reads = [], Counter()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((node.name, name, node.lineno))
            elif isinstance(node, ast.Name):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute):
                reads[node.attr] += 1
    return defined, reads


def unused(sources) -> list:
    defined, reads = defs_and_reads(sources)
    return [(fn, f"{name}:{line}") for fn, name, line in defined
            if not reads[fn] and fn not in KEPT
            and not (fn.startswith("__") and fn.endswith("__"))]


def package_sources() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_every_function_in_the_package_has_a_caller():
    assert unused(package_sources()) == []


def test_every_kept_name_is_still_defined():
    defined, _ = defs_and_reads(package_sources())
    assert set(KEPT) <= {fn for fn, _, _ in defined}


def test_a_function_read_only_in_its_own_definition_is_found():
    source = ("def used():\n    return 1\n\n\ndef orphan():\n    return used()\n\n\n"
              "class C:\n    def __init__(self):\n        self.m()\n\n"
              "    def m(self):\n        return 0\n")
    assert unused({"example.py": source}) == [("orphan", "example.py:5")]


def unused_imports(name, source) -> list:
    """(bound name, "file:line") for each name imported into the module and
    never read there."""
    tree = ast.parse(source, name)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
    reads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(n, f"{name}:{line}") for n, line in bound if n not in reads]


def test_every_import_in_the_package_is_read():
    assert [u for name, source in package_sources().items()
            for u in unused_imports(name, source)] == []


def test_an_import_read_only_as_an_attribute_name_is_found():
    source = ("from __future__ import annotations\n\nimport os.path\n"
              "from .braiding import BraidOperator, sigma_m\n\n\n"
              "def f(gc):\n    return os.path.join(gc.braid.sigma_m)\n")
    assert unused_imports("example.py", source) == [("BraidOperator", "example.py:4"),
                                                    ("sigma_m", "example.py:4")]
