"""Spans and counters around the package's layer boundaries.

The wrappers live here, in the benchmark, not in the package: install()
replaces each listed function or method by a timing wrapper and rebinds
every module-level name that refers to the original, so a
`from .singular import local_jet` in families or constructions is
traced as well.  Names the package no longer defines are skipped; the
self-check reports the counters that then read zero.

Self time of a span is its duration minus the durations of the spans it
called directly.  FieldElement arithmetic is only counted, not timed:
its time stays in the self time of the calling span.
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# modules whose outermost spans make up "the library call" of a CLI
# command; everything else an operation spends is I/O and parsing
LIBRARY_MODULES = ("families", "singular", "constructions", "bounds")

FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inverse")

# module -> names to span; "Class.method" names a method
SPANS = {
    "poly": ["MultiPoly.__mul__", "MultiPoly.__rmul__",
             "MultiPoly.divide_exact", "MultiPoly.substitute",
             "MultiPoly.parse", "poly_determinant"],
    "linalg": ["rank", "rref", "kernel_basis", "invert"],
    "gfnum": ["rank_mod_p", "rref_mod_p", "eval_poly_batch",
              "eval_poly_batch_ext"],
    "singular": ["local_jet", "multiplicity",
                 "certify_ordinary_triple_point", "common_projective_zeros",
                 "enumerate_singular_points", "_hilbert_value",
                 "jacobian_hilbert", "singular_scheme_degree",
                 "equisingular_tangent_dimension", "certify"],
    "constructions": ["forms_with_multiplicity", "quadrics_through",
                      "reciprocal_transform", "dianode_surface"],
    "families": ["quintic_with_triple_points", "sextic_k3_444",
                 "sextic_k3_228", "reciprocal_family", "sextic_k3_246",
                 "sextic_elliptic_224", "sextic_elliptic_222",
                 "sextic_ten_gf31", "septic_s4",
                 "septic_determinant_factorization", "_member_search",
                 "_ensure_certified"],
    "bounds": ["combined_bound", "polar_bound", "miyaoka_bound",
               "spectrum_bound", "brieskorn_spectrum",
               "homogeneous_surface_spectrum"],
    "surfaces": ["Surface.load", "Surface.from_json", "Surface.to_json"],
}

SELF_MODULES = tuple(SPANS)


class Tracer:
    """Span and counter state for one process; reset() between passes."""

    def __init__(self):
        self.stack = []          # child-time accumulators of open spans
        self.depth = Counter()   # open spans per function (recursion)
        self.mod_depth = Counter()
        self.lib_depth = 0
        self.paused = False
        self.field_ops = 0
        self.reset()

    def reset(self):
        self.fn_self = defaultdict(float)
        self.fn_total = defaultdict(float)   # outermost spans per function
        self.fn_calls = Counter()
        self.mod_total = defaultdict(float)  # outermost spans per module
        self.lib_time = 0.0
        self.count = Counter()
        self.field_ops = 0
        self.hilbert_k_max = 0
        self.sweep_in_families = 0.0
        self.begin_op()

    def begin_op(self):
        """Start the size record of one operation."""
        self.op_sweeps = []
        self.op_hilbert = []
        self.op_shapes = Counter()

    def op_sizes(self):
        return {
            "sweeps": [{"field_order": q, "points": n, "found": k, "s": s}
                       for q, n, k, s in self.op_sweeps],
            "hilbert": [{"k": k, "value": v, "s": s}
                        for k, v, s in self.op_hilbert],
            "rank_shapes": {f"{kind} {r}x{c}": n for (kind, r, c), n
                            in sorted(self.op_shapes.items())},
        }


# -- size hooks: hook(tracer, outermost_in_module, args, result, ok, secs) -

def _shape(t, kind, rows, cols):
    t.op_shapes[(kind, rows, cols)] += 1


def _mul(t, outer, args, result, ok, dt):
    a, b = args
    if hasattr(b, "terms"):
        t.count["poly.mul_term_pairs"] += len(a.terms) * len(b.terms)


def _linalg(t, outer, args, result, ok, dt):
    m = args[0]
    if not outer or not hasattr(m, "nrows"):
        return
    kind = "QQ" if m.field.kind == "QQ" else "GF"
    if kind == "GF":
        t.count["linalg.gf_cells"] += m.nrows * m.ncols
    _shape(t, f"linalg-{kind}", m.nrows, m.ncols)


def _gf_rank(t, outer, args, result, ok, dt):
    rows, cols = args[0].shape
    t.count["gfnum.rank_cells"] += rows * cols
    _shape(t, "gfnum", rows, cols)


def _eval(t, outer, args, result, ok, dt):
    t.count["gfnum.eval_points"] += args[1].shape[0]


def _cert_point(t, outer, args, result, ok, dt):
    t.count["singular.points_certified" if ok
            else "singular.point_cert_failed"] += 1


def _sweep(t, outer, args, result, ok, dt):
    q = args[1].order
    size = q ** 3 + q ** 2 + q + 1
    found = len(result) if ok else 0
    t.count["singular.sweep_points"] += size
    t.count["singular.sweep_found"] += found
    t.op_sweeps.append((q, size, found, dt))


def _hilbert(t, outer, args, result, ok, dt):
    k = args[3]
    t.hilbert_k_max = max(t.hilbert_k_max, k)
    if ok:
        t.op_hilbert.append((k, result, dt))


def _candidate(t, outer, args, result, ok, dt):
    if t.depth["families._member_search"]:
        t.count["families.search_candidates"] += 1


def _search(t, outer, args, result, ok, dt):
    if ok:
        t.count["families.search_members"] += 1


def _enumerate(t, outer, args, result, ok, dt):
    if t.depth["families._member_search"]:
        t.count["families.search_sweeps"] += 1


HOOKS = {
    "poly.MultiPoly.__mul__": _mul,
    "poly.MultiPoly.__rmul__": _mul,
    "linalg.rank": _linalg,
    "linalg.rref": _linalg,
    "linalg.kernel_basis": _linalg,
    "linalg.invert": _linalg,
    "gfnum.rank_mod_p": _gf_rank,
    "gfnum.eval_poly_batch": _eval,
    "gfnum.eval_poly_batch_ext": _eval,
    "singular.certify_ordinary_triple_point": _cert_point,
    "singular.common_projective_zeros": _sweep,
    "singular.enumerate_singular_points": _enumerate,
    "singular._hilbert_value": _hilbert,
    "families._ensure_certified": _candidate,
    "families._member_search": _search,
}


def _span(t, module, key, fn, hook):
    library = module in LIBRARY_MODULES
    is_sweep = key == "singular.common_projective_zeros"

    def wrapper(*args, **kwargs):
        if t.paused:
            return fn(*args, **kwargs)
        outer_fn = t.depth[key] == 0
        outer_mod = t.mod_depth[module] == 0
        outer_lib = library and t.lib_depth == 0
        t.depth[key] += 1
        t.mod_depth[module] += 1
        if library:
            t.lib_depth += 1
        t.stack.append(0.0)
        result, ok = None, False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            dt = perf_counter() - t0
            child = t.stack.pop()
            if t.stack:
                t.stack[-1] += dt
            t.depth[key] -= 1
            t.mod_depth[module] -= 1
            if library:
                t.lib_depth -= 1
            t.fn_calls[key] += 1
            t.fn_self[key] += dt - child
            if outer_fn:
                t.fn_total[key] += dt
            if outer_mod:
                t.mod_total[module] += dt
            if outer_lib:
                t.lib_time += dt
            if is_sweep and outer_fn and t.mod_depth["families"]:
                t.sweep_in_families += dt
            if hook is not None:
                try:
                    hook(t, outer_mod, args, result, ok, dt)
                except (IndexError, AttributeError, TypeError, ValueError):
                    t.count["trace.hook_errors"] += 1

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", key)
    return wrapper


def _counting(t, fn):
    def wrapper(*args):
        t.field_ops += 1
        return fn(*args)
    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(package, original, replacement):
    """Point every module-level binding of original at replacement."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or
                               name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(package="triplepoints"):
    """Wrap the layer boundaries of an imported package; returns
    (tracer, list of names that could not be found)."""
    t = Tracer()
    missing = []
    for module in SPANS:
        try:
            mod = importlib.import_module(f"{package}.{module}")
        except ImportError:
            missing.extend(f"{module}.{n}" for n in SPANS[module])
            continue
        for name in SPANS[module]:
            key = f"{module}.{name}"
            hook = HOOKS.get(key)
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    missing.append(key)
                    continue
                if isinstance(raw, classmethod):
                    setattr(cls, meth,
                            classmethod(_span(t, module, key, raw.__func__,
                                              hook)))
                else:
                    setattr(cls, meth, _span(t, module, key, raw, hook))
                continue
            fn = getattr(mod, name, None)
            if not callable(fn):
                missing.append(key)
                continue
            _rebind(package, fn, _span(t, module, key, fn, hook))
    fields = importlib.import_module(f"{package}.fields")
    element = fields.FieldElement
    for name in FIELD_OPS:
        raw = element.__dict__.get(name)
        if raw is None:
            missing.append(f"fields.FieldElement.{name}")
            continue
        setattr(element, name, _counting(t, raw))
    return t, missing


# -- per-layer metrics ----------------------------------------------------

def layer_metrics(t, cli_io_s, cli_json_bytes):
    """The per-layer metrics of one traced pass, by name."""
    total = t.fn_total
    calls = t.fn_calls
    c = t.count
    candidates = c["families.search_candidates"]
    construct_s = t.mod_total["families"]
    m = {
        "fields.ops": t.field_ops,
        "poly.mul_s": total["poly.MultiPoly.__mul__"]
        + total["poly.MultiPoly.__rmul__"],
        "poly.mul_calls": calls["poly.MultiPoly.__mul__"]
        + calls["poly.MultiPoly.__rmul__"],
        "poly.mul_term_pairs": c["poly.mul_term_pairs"],
        "poly.divide_exact_s": total["poly.MultiPoly.divide_exact"],
        "poly.substitute_s": total["poly.MultiPoly.substitute"],
        "poly.parse_s": total["poly.MultiPoly.parse"],
        "linalg.rank_s": total["linalg.rank"],
        "linalg.rank_calls": calls["linalg.rank"],
        "linalg.kernel_s": total["linalg.kernel_basis"],
        "linalg.rref_s": total["linalg.rref"],
        "linalg.gf_cells": c["linalg.gf_cells"],
        "gfnum.rank_s": total["gfnum.rank_mod_p"],
        "gfnum.rank_calls": calls["gfnum.rank_mod_p"],
        "gfnum.rank_cells": c["gfnum.rank_cells"],
        "gfnum.eval_s": total["gfnum.eval_poly_batch"],
        "gfnum.eval_ext_s": total["gfnum.eval_poly_batch_ext"],
        "gfnum.eval_points": c["gfnum.eval_points"],
        "singular.jet_s": total["singular.local_jet"],
        "singular.jet_calls": calls["singular.local_jet"],
        "singular.point_cert_s":
            total["singular.certify_ordinary_triple_point"],
        "singular.points_certified": c["singular.points_certified"],
        "singular.point_cert_failed": c["singular.point_cert_failed"],
        "singular.sweep_s": total["singular.common_projective_zeros"],
        "singular.sweep_calls": calls["singular.common_projective_zeros"],
        "singular.sweep_points": c["singular.sweep_points"],
        "singular.sweep_found": c["singular.sweep_found"],
        "singular.scheme_s": total["singular.singular_scheme_degree"]
        + total["singular.jacobian_hilbert"],
        "singular.hilbert_values": calls["singular._hilbert_value"],
        "singular.hilbert_k_max": t.hilbert_k_max,
        "singular.tangent_s":
            total["singular.equisingular_tangent_dimension"],
        "constructions.reciprocal_s":
            total["constructions.reciprocal_transform"],
        "families.construct_s": construct_s,
        "families.search_candidates": candidates,
        "families.search_yield": (c["families.search_members"] / candidates
                                  if candidates else 0.0),
        "families.search_sweeps": c["families.search_sweeps"],
        "families.sweep_share": (t.sweep_in_families / construct_s
                                 if construct_s else 0.0),
        "bounds.table_s": t.mod_total["bounds"],
        "cli.io_s": cli_io_s,
        "cli.json_bytes": cli_json_bytes,
    }
    for module in SELF_MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in t.fn_self.items()
                                    if k.startswith(module + "."))
    return m


def function_self_times(t):
    """Self time, inclusive time and calls of every traced function."""
    return {k: {"self_s": t.fn_self[k], "total_s": t.fn_total[k],
                "calls": t.fn_calls[k]}
            for k in sorted(t.fn_calls)}
