"""Self-check of the benchmark's tracing.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout; it takes seconds.  It runs one
tiny operation per layer under the spans of tracing.py and fails if any
per-layer metric that the table in layers.py predicts work for reads
zero: that catches a wrapper that misses a `from .x import name`
binding, or a renamed function.  Exit code 1 on any finding.
"""
from __future__ import annotations

import sys

import run  # sets the thread caps before numpy is imported
import layers
import tracing
import workloads


def tiny_ops(env):
    """One small operation per layer; names follow the layer they feed."""
    tp = env.tp
    QQ, F5 = tp.fields.Field.QQ(), tp.fields.Field.GF(5)
    parse = tp.poly.MultiPoly.parse
    Surface = tp.surfaces.Surface
    ell = env.path("ell.json")

    def poly_ops():
        x, y, z, w = (tp.poly.MultiPoly.variable(QQ, i) for i in range(4))
        (x * y).divide_exact(x).substitute([y, x, w, z])

    def septic_gf7():
        try:
            env.cli("construct", "--family", "septic-s4", "--field", "GF:7",
                    "--params", "mu=1,nu=3")
        except tp.singular.CertificationFailure:
            pass  # the point certification failure is what is counted

    return [
        lambda: env.cli("construct", "--family", "ell-222", "--field",
                        "GF:7", "--params", workloads.ELL_222,
                        output="ell.json"),
        lambda: env.cli("certify", "-i", ell),
        lambda: env.cli("tangent-dim", "-i", ell),
        lambda: env.cli("cremona", "-i", ell),
        lambda: env.cli("bounds", "--degree", "5"),
        septic_gf7,
        lambda: tp.singular.enumerate_singular_points(
            Surface(parse("x^3+y^3+z^3+w^3", F5)), e=2),
        poly_ops,
    ]


def main():
    if not (run.SRC / "triplepoints" / "__init__.py").is_file():
        sys.stderr.write(f"selfcheck.py: no package source at {run.SRC}\n")
        return 2
    sys.path.insert(0, str(run.SRC))
    tp, env, _, _ = run.setup("gf-small", 0)
    try:
        tracer, unwrapped = tracing.install()
        findings = [f"not wrapped: {name}" for name in unwrapped]
        ops = [workloads.Op(f"tiny {i}", "analyse", fn, lambda r: None)
               for i, fn in enumerate(tiny_ops(env))]
        rec = run.run_pass(tp, ops, tracer)
        metrics = tracing.layer_metrics(tracer, rec["io_s"],
                                        rec["json_bytes"])
        findings += [f"{e['op']}: {e['why']}" for e in rec["ops"]
                     if e["outcome"] != "ok"]
        findings += [f"zero {name}" for name, moves in layers.MOVES.items()
                     if moves and not metrics.get(name)]
    finally:
        run.cleanup(env)
    for f in findings:
        print(f"selfcheck: {f}")
    print("selfcheck: " + ("FAILED" if findings else "ok"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
