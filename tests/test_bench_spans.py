"""Every name the traced benchmark wraps still resolves.

``bench/spans.py`` looks a traced method up in its class's own ``__dict__``,
so moving a method into a base class (or renaming a function) breaks
``bench/run.py --trace 1`` with a KeyError.  The module is imported read-only
from ``bench/``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


@pytest.mark.parametrize("module, path, name", spans.SPANS + spans.LEAVES,
                         ids=[name for _, _, name in spans.SPANS + spans.LEAVES])
def test_traced_name_resolves(module, path, name):
    owner, attr, original = spans._resolve(module, path)
    assert callable(original)
    assert getattr(owner, attr) is original
