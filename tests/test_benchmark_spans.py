"""The benchmark in perfbench/ times package functions by name (SPANS in
perfbench/tracing.py) and skips a name the package no longer defines, so
a renamed or privatised function would make its metric read zero without
any error.  This keeps the names of every traced module defined except
gfnum, whose list still names the sweep evaluators that the sweep kernel
replaced.
"""
import importlib.util
from pathlib import Path

from triplepoints import (bounds, constructions, families, linalg, poly,
                          singular, surfaces)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    for module in (poly, linalg, singular, constructions, families, bounds,
                   surfaces):
        names = tracing.SPANS[module.__name__.rsplit(".", 1)[1]]
        assert names
        assert [n for n in names if not _defined(module, n)] == [], \
            module.__name__
