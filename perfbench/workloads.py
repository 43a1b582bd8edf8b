"""The benchmark's workloads: operations, their inputs and their oracles.

An operation is one README CLI command, called in-process through
triplepoints.cli.main, or one call of a public library function.  Each
has a kind (construct, certify or analyse: the end-to-end metric its
time is summed into) and a check that compares its output with an exact
expected value.  Expected values come from tests/test_acceptance.py;
the few the tests do not state (marked "pinned") are the package's own
answers at the commit that introduced the benchmark.

A workload is a list of chains.  Operations in a chain depend on the
files written by the earlier ones; the seed shuffles the chains within
each pass.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random


class Mismatch(Exception):
    """An output differs from the expected value."""


class Op:
    __slots__ = ("name", "kind", "run", "check", "expect_error")

    def __init__(self, name, kind, run, check, expect_error=False):
        self.name = name
        self.kind = kind
        self.run = run
        self.check = check
        self.expect_error = expect_error


class CliResult:
    __slots__ = ("code", "stdout", "output_path")

    def __init__(self, code, stdout, output_path):
        self.code = code
        self.stdout = stdout
        self.output_path = output_path

    def document(self):
        """The JSON document the command produced (file or stdout)."""
        if self.code != 0:
            raise Mismatch(f"exit code {self.code}: {self.stdout[:200]}")
        if self.output_path:
            with open(self.output_path) as fh:
                return json.load(fh)
        return json.loads(self.stdout)

    def json_bytes(self):
        n = len(self.stdout.encode())
        if self.output_path and os.path.exists(self.output_path):
            n += os.path.getsize(self.output_path)
        return n


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Env:
    """What operations share: the package modules and a scratch dir."""

    def __init__(self, tp, tmpdir):
        self.tp = tp
        self.tmpdir = tmpdir

    def path(self, name):
        return os.path.join(self.tmpdir, name)

    def cli(self, *argv, output=None):
        argv = list(argv)
        out_path = None
        if output:
            out_path = self.path(output)
            if os.path.exists(out_path):
                os.remove(out_path)
            argv += ["-o", out_path]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tp.cli.main(argv)
        return CliResult(code, buf.getvalue(), out_path)

    def op_cli(self, name, kind, argv, check, output=None):
        return Op(name, kind, lambda: self.cli(*argv, output=output),
                  lambda r: check(r.document()))

    def error_op(self, name, argv):
        """A command whose contract is one {"error": ...} document and
        exit code 1."""
        def check(r):
            expect(r.code == 1, f"exit code {r.code}, expected 1")
            lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
            expect(len(lines) == 1, "expected one JSON document")
            expect("error" in json.loads(lines[0]), "no error key")
        return Op(name, "construct", lambda: self.cli(*argv), check,
                  expect_error=True)


# -- checks ---------------------------------------------------------------

def surface_doc(field, degree, npoints):
    def check(doc):
        expect(doc["field"] == field, f"field {doc['field']}")
        expect(doc["degree"] == degree, f"degree {doc['degree']}")
        expect(len(doc["points"]) == npoints,
               f"{len(doc['points'])} points, expected {npoints}")
    return check


def certified(npoints, verdict, degree=None):
    def check(doc):
        expect(doc["verdict"] == verdict, f"verdict {doc['verdict']}")
        pts = doc["points"]
        expect(len(pts) == npoints, f"{len(pts)} points, expected {npoints}")
        for info in pts:
            expect(info["multiplicity"] == 3 and info["smooth_rank"] == 15
                   and "failure" not in info, f"point {info['coords']}")
        if degree is not None:
            expect(doc["expected_degree"] == degree
                   and doc["hilbert"][-1] == degree,
                   f"singular-scheme degree {doc['hilbert'][-1:]}")
    return check


def tangent(dim, npoints):
    def check(doc):
        expect((doc["dimension"], doc["points"]) == (dim, npoints),
               f"tangent dimension {doc['dimension']} at {doc['points']}")
    return check


BOUNDS_TABLE = {"3": 1, "4": 1, "5": 5, "6": 10, "7": 17, "8": 29, "9": 42,
                "10": 60, "11": 81, "12": 107}

K3_444 = "a1=-1,a2=-1,a3=-1,b1=0,b2=0,b3=0"
ELL_222 = "lambda=1,mu=1,nu=1,b1=1,b2=1,b3=1,b4=1,b5=1,b6=1,alpha=1"

# -- gf-small ------------------------------------------------------------

def gf_small(env, seed):
    c = env.op_cli
    ten = [
        c("construct sextic-ten-gf31", "construct",
          ["construct", "--family", "sextic-ten-gf31"],
          surface_doc("GF:31", 6, 10), output="ten.json"),
        c("certify sextic-ten-gf31", "certify",
          ["certify", "-i", env.path("ten.json")],
          certified(10, "certified-exact", 80)),
        c("tangent-dim sextic-ten-gf31", "analyse",
          ["tangent-dim", "-i", env.path("ten.json")], tangent(18, 10)),
        c("cremona sextic-ten-gf31", "analyse",
          ["cremona", "-i", env.path("ten.json")], _cremona_ten),
    ]
    k3 = [
        c("construct k3-444", "construct",
          ["construct", "--family", "k3-444", "--field", "GF:29",
           "--params", K3_444], surface_doc("GF:29", 6, 9),
          output="k3-444.json"),
        c("certify k3-444", "certify", ["certify", "-i",
                                        env.path("k3-444.json")],
          certified(9, "certified-exact", 72)),
        # pinned
        c("tangent-dim k3-444", "analyse",
          ["tangent-dim", "-i", env.path("k3-444.json")], tangent(22, 9)),
        c("construct k3-246", "construct",
          ["construct", "--family", "k3-246", "--base",
           env.path("k3-444.json"), "--fundamental", "0,1,3,4"],
          surface_doc("GF:29", 6, 9), output="k3-246.json"),
        c("certify k3-246", "certify", ["certify", "-i",
                                        env.path("k3-246.json")],
          certified(9, "certified-exact", 72)),
        c("tangent-dim k3-246", "analyse",
          ["tangent-dim", "-i", env.path("k3-246.json")], tangent(22, 9)),
    ]
    ell = [
        c("construct ell-222", "construct",
          ["construct", "--family", "ell-222", "--field", "GF:7",
           "--params", ELL_222], surface_doc("GF:7", 6, 9),
          output="ell-222.json"),
        c("certify ell-222", "certify", ["certify", "-i",
                                         env.path("ell-222.json")],
          certified(9, "certified-exact", 72)),
        c("tangent-dim ell-222", "analyse",
          ["tangent-dim", "-i", env.path("ell-222.json")], tangent(23, 9)),
        env.error_op("construct ell-224 (error contract)",
                     ["construct", "--family", "ell-224", "--base",
                      env.path("ell-222.json"), "--fundamental", "0,1,2,3"]),
    ]
    k228 = [
        c("construct k3-228", "construct",
          ["construct", "--family", "k3-228", "--field", "GF:31",
           "--params", "lambda=3"], surface_doc("GF:31", 6, 9),
          output="k3-228.json"),
        c("certify k3-228", "certify", ["certify", "-i",
                                        env.path("k3-228.json")],
          certified(9, "certified-exact", 72)),
        # pinned
        c("tangent-dim k3-228", "analyse",
          ["tangent-dim", "-i", env.path("k3-228.json")], tangent(22, 9)),
    ]
    bounds = [c("bounds --table 3..12", "analyse",
                ["bounds", "--table", "3..12"], _bounds_table)]
    septic7 = [env.error_op("construct septic-s4 GF:7 mu=1,nu=3 "
                            "(error contract)",
                            ["construct", "--family", "septic-s4", "--field",
                             "GF:7", "--params", "mu=1,nu=3"])]
    return [ten, k3, ell, k228, bounds, septic7]


def _cremona_ten(doc):
    # pinned: the vertices are off the surface, so the image has degree 18
    expect(doc["vertex_multiplicities"] == [0, 0, 0, 0]
           and doc["degree"] == 18, "reciprocal image of the ten-point sextic")


def _bounds_table(doc):
    expect(doc["table"] == BOUNDS_TABLE, f"bounds table {doc['table']}")


# -- sweep-large ---------------------------------------------------------

def sweep_large(env, seed):
    tp = env.tp
    c = env.op_cli
    state = {}
    F7 = tp.fields.Field.GF(7)

    def ell():
        X = tp.families.sextic_elliptic_222(F7, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                            alpha=1, beta=None, gamma=None)
        state["ell"] = X
        return X

    def check_ell(X):
        expect(len(X.points) == 9, f"{len(X.points)} points, expected 9")

    def sweep():
        return tp.singular.enumerate_singular_points(state["ell"], e=2)

    def check_sweep(pts):
        # pinned: no singular points beyond the nine over GF(7)
        big = F7.extension()
        lifted = {P.lift(big) for P in state["ell"].points}
        expect(set(pts) == lifted and len(pts) == 9,
               f"{len(pts)} singular points over GF(49), expected the 9 "
               "declared ones")

    septic = [
        c("construct septic-s4 GF:101", "construct",
          ["construct", "--family", "septic-s4", "--field", "GF:101",
           "--params", "mu=1,nu=2"], surface_doc("GF:101", 7, 16),
          output="septic-101.json"),
        c("certify septic-s4 GF:101", "certify",
          ["certify", "-i", env.path("septic-101.json")],
          certified(16, "certified-exact", 128)),
    ]
    ext = [Op("sextic_elliptic_222 GF(7)", "construct", ell, check_ell),
           Op("enumerate_singular_points ell-222 GF(7^2)", "analyse", sweep,
              check_sweep)]
    return [septic, ext]


WORKLOADS = {"gf-small": gf_small, "sweep-large": sweep_large}


class Plan:
    """The chains of a workload and the seeded order of each pass."""

    def __init__(self, env, workload, seed):
        self.chains = WORKLOADS[workload](env, seed)
        self.rng = random.Random(seed)

    def pass_ops(self):
        order = list(self.chains)
        self.rng.shuffle(order)
        return [op for chain in order for op in chain]
