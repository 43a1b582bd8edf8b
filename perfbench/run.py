"""Benchmark of the triplepoints package: one closed-loop client.

    python3 perfbench/run.py --workload gf-small --seed 1 --seconds 60 \
        --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process runs the workload's operations one at a time, in
passes, until the next pass would end after --seconds.  Every output is
checked against an exact expected value (see workloads.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
first runs untraced passes for half the time, then installs the spans of
tracing.py and reports the per-layer metrics of the traced passes, with
the tracing overhead.  Earlier lines of standard output hold a detail
record (environment, samples, per-operation sizes and self times); the
last line is the result.
"""
from __future__ import annotations

import os
import sys
import time

# one client on a small machine: keep numpy's thread pools at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench-tmp"
SETUP_REPEATS = 9
MODULES = ("fields", "poly", "linalg", "gfnum", "surfaces", "singular",
           "constructions", "families", "bounds", "invariants", "cli")
KINDS = ("construct", "certify", "analyse")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


class Package:
    """The imported triplepoints modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"triplepoints.{name}"))


def setup(workload, seed):
    """Imports plus input generation; returns (package, env, plan, secs)."""
    t0 = time.perf_counter()
    tp = Package()
    TMP_PARENT.mkdir(exist_ok=True)
    env = workloads.Env(tp, tempfile.mkdtemp(dir=TMP_PARENT))
    plan = workloads.Plan(env, workload, seed)
    return tp, env, plan, time.perf_counter() - t0


def cleanup(env):
    shutil.rmtree(env.tmpdir, ignore_errors=True)
    try:
        TMP_PARENT.rmdir()
    except OSError:
        pass


def fresh_setup(args):
    """The set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- one pass --------------------------------------------------------------

def surface_terms(tp, result):
    """Term count of the surface an operation produced or read."""
    if isinstance(result, workloads.CliResult):
        doc = result.document()
        text = doc.get("polynomial") or doc.get("surface")
        if text is None:
            return None
        field = tp.fields.Field.parse_tag(doc["field"])
        return len(tp.poly.MultiPoly.parse(text, field).terms)
    for attr in ("surface", "f"):
        result = getattr(result, attr, result)
    terms = getattr(result, "terms", None)
    return len(terms) if isinstance(terms, dict) else None


def judge(op, result, exc):
    """'ok', 'failed' (no answer, or the error contract broken) or
    'wrong' (an answer that differs from the expected one)."""
    if exc is not None:
        return "failed", f"{type(exc).__name__}: {exc}"
    if isinstance(result, workloads.CliResult) and result.code != 0 \
            and not op.expect_error:
        return "failed", f"exit code {result.code}: {result.stdout[:200]}"
    try:
        op.check(result)
    except (workloads.Mismatch, KeyError, TypeError, ValueError) as err:
        return "wrong", f"{type(err).__name__}: {err}"
    return "ok", None


def run_pass(tp, ops, tracer=None):
    rec = {"ops": [], "kinds": dict.fromkeys(KINDS, 0.0), "io_s": 0.0,
           "json_bytes": 0, "cpu_s": 0.0}
    if tracer is not None:
        tracer.reset()
    for op in ops:
        if tracer is not None:
            tracer.begin_op()
            lib0 = tracer.lib_time
        result, exc = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as err:  # an operation failure is a measurement
            exc = err
        dt = time.perf_counter() - t0
        rec["cpu_s"] += time.process_time() - c0
        if tracer is not None:
            tracer.paused = True
            field_ops = tracer.field_ops
        outcome, why = judge(op, result, exc)
        entry = {"op": op.name, "kind": op.kind, "s": dt,
                 "outcome": outcome}
        if why:
            entry["why"] = why
        if isinstance(result, workloads.CliResult):
            rec["json_bytes"] += result.json_bytes()
            if tracer is not None:
                rec["io_s"] += dt - (tracer.lib_time - lib0)
        if tracer is not None:
            entry["sizes"] = tracer.op_sizes()
            try:
                entry["sizes"]["surface_terms"] = surface_terms(tp, result)
            except (workloads.Mismatch, KeyError, ValueError):
                entry["sizes"]["surface_terms"] = None
            tracer.field_ops = field_ops
            tracer.paused = False
        rec["kinds"][op.kind] += dt
        rec["ops"].append(entry)
    # the operations' own time: the oracle's checks are left out
    rec["pass_s"] = sum(rec["kinds"].values())
    return rec


def run_passes(tp, plan, seconds, passes, tracer=None, after_pass=None):
    """Append passes while the next one is expected to end in time;
    after_pass, if given, is called with the share of seconds used."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        rec = run_pass(tp, plan.pass_ops(), tracer)
        if tracer is not None:
            rec["layers"] = tracing.layer_metrics(tracer, rec["io_s"],
                                                  rec["json_bytes"])
            rec["functions"] = tracing.function_self_times(tracer)
        passes.append(rec)
        out.append(rec)
        if after_pass is not None:
            after_pass((time.perf_counter() - start) / seconds)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return out


# -- reporting -------------------------------------------------------------

def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 2),
            "value": sorted(samples)[n - 11]}


def environment():
    import numpy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")\
            .read_text().strip()
    except OSError:
        info["l3"] = None
    return info


def op_summary(passes):
    by_name = {}
    for rec in passes:
        for e in rec["ops"]:
            by_name.setdefault(e["op"], []).append(e["s"])
    return {name: {"median_s": statistics.median(v), "n": len(v)}
            for name, v in by_name.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "triplepoints" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no package source at {SRC}; run from "
                         "the root of a triplepoints checkout\n")
        return 2
    if args.seconds < 0:
        sys.stderr.write("run.py: --seconds must not be negative\n")
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tp, env, plan, setup_s = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return measure(args, tp, plan, setup_s)
    finally:
        cleanup(env)


def measure(args, tp, plan, setup_s):
    passes = []
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        untraced = run_passes(tp, plan, args.seconds / 2, passes)
        tracer, missing = tracing.install()
        traced = run_passes(tp, plan, args.seconds / 2, passes, tracer)
        detail["untraced_pass_s"] = [r["pass_s"] for r in untraced]
        detail["traced_pass_s"] = [r["pass_s"] for r in traced]
        detail["untraced_wrapped"] = missing
        detail["operations"] = [{k: e[k] for k in ("op", "kind", "s",
                                                   "sizes")}
                                for e in traced[0]["ops"]]
        detail["functions"] = {
            k: {f: statistics.mean(r["functions"].get(k, {}).get(f, 0)
                                   for r in traced)
                for f in ("self_s", "total_s", "calls")}
            for k in traced[-1]["functions"]}
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(detail["traced_pass_s"])
            - statistics.median(detail["untraced_pass_s"]))
    else:
        setups = [setup_s]

        def sample_setups(share):
            # spread over the run: the machine's speed changes within
            # seconds, and set-ups taken back to back share one speed
            while len(setups) < min(SETUP_REPEATS,
                                    1 + int(share * SETUP_REPEATS)):
                setups.append(fresh_setup(args))

        run_passes(tp, plan, args.seconds, passes, after_pass=sample_setups)
        sample_setups(1.0)
        pass_s = [r["pass_s"] for r in passes]
        detail["setup_s"] = setups
        detail["pass_s"] = {"samples": pass_s, "n": len(pass_s),
                            "cpu_samples": [r["cpu_s"] for r in passes],
                            "median": statistics.median(pass_s),
                            "tail": tail_percentile(pass_s)}
        metrics = {"pass_s": statistics.median(pass_s)}
        for kind in KINDS:
            metrics[f"{kind}_s"] = statistics.median(
                r["kinds"][kind] for r in passes)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    entries = [e for r in passes for e in r["ops"]]
    attempted = len(entries)
    failed = sum(e["outcome"] != "ok" for e in entries)
    wrong = sum(e["outcome"] == "wrong" for e in entries)
    if not args.trace:
        metrics["ok_frac"] = 1 - failed / attempted
        metrics["setup_s"] = statistics.median(detail["setup_s"])
    detail["operations_median"] = op_summary(passes)
    detail["failures"] = sorted({(e["op"], e["outcome"], e.get("why", ""))
                                 for e in entries if e["outcome"] != "ok"})
    detail["fail_frac"] = failed / attempted
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reported = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    # construct_s and analyse_s: too unsteady to bound, see README.md
    detail["unbounded"] = {k: v for k, v in metrics.items()
                           if k not in reported}
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
