"""Where each per-layer metric of BENCHMARK.json should show.

MOVES: per-layer metric -> the (workload, end-to-end metric) pairs a
change in its layer should move; the layer is the module named before
the dot.  BENCHMARK.json holds the metrics' units and directions;
construct_s and analyse_s are in the detail line of a run.  A
workload named here is one where the table predicts work, so
selfcheck.py requires the metric to read nonzero after its tiny
operations.
"""

_GF_RANK = [("gf-small", "certify_s"), ("sweep-large", "certify_s")]
_EVAL = [("sweep-large", "certify_s"), ("sweep-large", "peak_rss_mb"),
         ("gf-small", "construct_s")]
_JET = [("gf-small", "construct_s"), ("sweep-large", "construct_s")]
_SEARCH = [("gf-small", "construct_s")]
_ANALYSE = [("gf-small", "analyse_s")]
_CLI = [("gf-small", "pass_s")]


def _rows(module, moves, *names):
    return {f"{module}.{n}": moves for n in names}


MOVES = {
    **_rows("fields", [("gf-small", "construct_s"), ("gf-small", "certify_s")],
            "ops"),
    **_rows("poly", _SEARCH, "mul_s", "mul_calls", "mul_term_pairs",
            "divide_exact_s", "self_s"),
    **_rows("poly", [("gf-small", "construct_s"), ("gf-small", "pass_s")],
            "substitute_s", "parse_s"),
    **_rows("linalg", _ANALYSE, "rank_s", "rank_calls", "kernel_s", "rref_s",
            "gf_cells", "self_s"),
    **_rows("gfnum", _GF_RANK, "rank_s", "rank_calls", "rank_cells"),
    **_rows("gfnum", _EVAL, "eval_s", "eval_points", "self_s"),
    **_rows("gfnum",
            [("sweep-large", "analyse_s"), ("sweep-large", "peak_rss_mb")],
            "eval_ext_s"),
    **_rows("singular", _JET, "jet_s", "jet_calls", "point_cert_s",
            "points_certified", "self_s"),
    **_rows("singular", _SEARCH, "point_cert_failed"),
    **_rows("singular", _EVAL, "sweep_s", "sweep_calls", "sweep_points",
            "sweep_found"),
    **_rows("singular", _GF_RANK, "scheme_s", "hilbert_values",
            "hilbert_k_max"),
    **_rows("singular", _ANALYSE, "tangent_s"),
    **_rows("constructions",
            [("gf-small", "construct_s"), ("gf-small", "analyse_s")],
            "reciprocal_s", "self_s"),
    **_rows("families", _SEARCH, "construct_s", "search_candidates",
            "search_sweeps", "search_yield", "sweep_share", "self_s"),
    **_rows("bounds", _ANALYSE, "table_s", "self_s"),
    **_rows("cli", _CLI, "io_s", "json_bytes"),
    **_rows("surfaces", _CLI, "self_s"),
    # traced pass_s minus untraced pass_s, on the same run
    **_rows("trace", [], "overhead_s"),
}
