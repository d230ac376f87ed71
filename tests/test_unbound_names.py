"""No function reads a name that is bound nowhere.

A name read inside a function must be local, bound in an enclosing
function, bound at module level or a builtin; otherwise the function raises
NameError only when that line runs, which a passing example may never reach.
The scopes come from the standard library's ``symtable``.
"""

import builtins
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRS = ["src/qpb", "tests", "bench"]


def unbound_names(source: str, filename: str) -> list:
    """(scope name, name) for every name that a function reads and that
    resolves to a global which neither the module, its import nor builtins
    binds."""
    top = symtable.symtable(source, filename, "exec")
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported() or s.is_namespace()}
    bound |= set(dir(builtins)) | {"__file__"}  # the import system sets __file__
    out = []

    def walk(table, inside_function):
        if inside_function:
            for s in table.get_symbols():
                if s.is_referenced() and s.is_global() and s.get_name() not in bound:
                    out.append((table.get_name(), s.get_name()))
        for child in table.get_children():
            walk(child, inside_function or child.get_type() == "function")

    walk(top, False)
    return out


@pytest.mark.parametrize("directory", DIRS)
def test_every_name_read_in_a_function_is_bound(directory):
    found = {}
    for path in sorted((ROOT / directory).glob("*.py")):
        names = unbound_names(path.read_text(encoding="utf-8"), str(path))
        if names:
            found[path.name] = names
    assert not found


def test_an_unbound_name_is_found():
    source = ("import os\n\nX = 1\n\n\nclass C:\n    def f(self, a):\n"
              "        def g():\n            return a + X + len(os.sep)\n"
              "        return g() + missing\n")
    assert unbound_names(source, "example.py") == [("f", "missing")]
