"""The benchmark in perfbench/ times package functions by name (SPANS in
perfbench/tracing.py) and skips a name the package no longer defines, so
a renamed or privatised function would make its metric read zero without
any error.  This keeps the local-analysis and construction names defined.
"""
import importlib.util
from pathlib import Path

from triplepoints import constructions, singular

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_span_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in (singular, constructions):
        names = tracing.SPANS[module.__name__.rsplit(".", 1)[1]]
        assert names
        assert [n for n in names if not callable(getattr(module, n, None))
                ] == []
