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


def test_tprod_observer_reads_a_real_product():
    """``bench/run.py --trace 1`` reads ``tuples`` and ``dim`` of every TProd
    it sees.  A product of three factors lists its support tuples only; on
    calculus-z3's W_3 a multi-term relation still leaves fewer classes than
    support tuples."""
    from qpb.formats import BuildResult, load_file

    case = Path(__file__).resolve().parents[1] / "bench" / "cases" / "calculus-z3.json"
    tp = BuildResult(load_file(str(case))).total_calculus().w3
    counts = {}
    spans._observe_tprod(counts, (tp,), None)
    spans._observe_tprod(counts, (tp,), None)
    assert counts == {"tensor.tprod.dim_sum": 2 * tp.dim,
                      "tensor.tprod.flat_dim_sum": 2 * len(tp.tuples)}
    assert 0 < tp.dim < len(tp.tuples)
