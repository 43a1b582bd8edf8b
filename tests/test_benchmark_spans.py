"""The benchmark in perfbench/ times package functions by name (SPANS in
perfbench/tracing.py) and skips a name the package no longer defines, so
a renamed or privatised function would make its metric read zero without
any error.  This keeps the names of every traced module defined.  The
lists still name functions deleted on purpose, and only those are
skipped: the two gfnum sweep evaluators that the sweep kernel replaced,
linalg.invert, whose one caller now reads the inverse's product from one
rref, constructions.quadrics_through, which no package code called, and
MultiPoly.divide_exact: the septic determinant check now proves its
factorization on an integer grid, and k3-444's q_cubic / w lowers the
exponent of w.
"""
import importlib.util
from pathlib import Path

from triplepoints import (bounds, constructions, families, gfnum, linalg,
                          poly, singular, surfaces)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
DELETED = {"gfnum": {"eval_poly_batch", "eval_poly_batch_ext"},
           "linalg": {"invert"}, "constructions": {"quadrics_through"},
           "poly": {"MultiPoly.divide_exact"}}


def _defined(module, name):
    """Whether the tracer finds name: a callable of the module, or for
    "Class.method" a method in the class's own namespace."""
    if "." not in name:
        return callable(getattr(module, name, None))
    cls_name, method = name.split(".")
    cls = getattr(module, cls_name, None)
    return isinstance(cls, type) and method in vars(cls)


def test_benchmark_span_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in (poly, linalg, gfnum, singular, constructions, families,
                   bounds, surfaces):
        short = module.__name__.rsplit(".", 1)[1]
        names = [n for n in tracing.SPANS[short]
                 if n not in DELETED.get(short, ())]
        assert names
        assert [n for n in names if not _defined(module, n)] == [], \
            module.__name__
