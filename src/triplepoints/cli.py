"""Command-line front end.

Every subcommand prints one JSON document.  Exit codes: 0 on success,
1 on a domain error or a file that cannot be read or written (with an
error JSON on stdout), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .fields import Field
from .poly import MultiPoly
from .surfaces import Surface, load_points, SCHEMA_VERSION
from . import bounds as bounds_mod
from . import invariants as inv_mod
from . import constructions, families, singular
from .singular import DomainError


def _emit(data, path=None):
    data = dict(data)
    data.setdefault("schema_version", SCHEMA_VERSION)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(text):
    """lo..hi with integers lo <= hi."""
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m or int(m[1]) > int(m[2]):
        raise DomainError(f"--table takes lo..hi with integers lo <= hi, "
                          f"got {text!r}")
    return range(int(m[1]), int(m[2]) + 1)


def cmd_bounds(args):
    if args.table:
        _emit({"table": {str(d): bounds_mod.combined_bound(d)
                         for d in _parse_range(args.table)}})
        return
    if args.degree is None:
        raise DomainError("--degree or --table is required")
    d = args.degree
    out = {
        "polar": bounds_mod.polar_bound(d) if d >= 5 else None,
        "miyaoka": bounds_mod.miyaoka_bound(d) if d >= 7 else None,
        "spectrum": bounds_mod.spectrum_bound(
            d, bounds_mod.TRIPLE_POINT_SPECTRUM) if d >= 3 else None,
        "combined": bounds_mod.combined_bound(d),
    }
    _emit(out)


def cmd_spectrum(args):
    exponents = [int(v) for v in args.exponents.split(",")]
    spec = bounds_mod.brieskorn_spectrum(exponents)
    out = {"spectrum": [[str(v), m] for v, m in spec],
           "total": spec.total()}
    if args.interval:
        a, b = (Fraction(v) for v in args.interval.split(","))
        out["interval"] = args.interval
        out["count"] = spec.count_open(a, b)
    _emit(out)


def cmd_invariants(args):
    t = inv_mod.resolved_invariants(args.degree, args.nu, args.alpha)
    _emit(t.to_json())


def cmd_classify_sextic(args):
    exc = [int(v) for v in args.exc.split(",")] if args.exc else None
    row = inv_mod.sextic_classify(args.nu, args.pg, args.q, exc)
    _emit(row.to_json())


# family -> (constructor in families, required keys in argument order,
# optional keys in argument order); the constructor is looked up by name
# at call time
_PARAM_FAMILIES = {
    "septic-s4": ("septic_s4", ("mu", "nu"), ()),
    "k3-444": ("sextic_k3_444", ("a1", "a2", "a3", "b1", "b2", "b3"),
               ("alpha", "beta")),
    "k3-228": ("sextic_k3_228", ("lambda",), ("alpha", "beta")),
    "ell-222": ("sextic_elliptic_222",
                ("lambda", "mu", "nu", "b1", "b2", "b3", "b4", "b5", "b6"),
                ("alpha", "beta", "gamma")),
}


def _parse_params(text, field, required, optional=()):
    """key=value pairs: each required key once, optional keys at most
    once, no other key."""
    if field is None:
        raise DomainError("--field is required for this family")
    items = [item.partition("=") for item in text.split(",")] if text else []
    for k, eq, _ in items:
        if not eq:
            raise DomainError(f"bad parameter {k!r}, expected key=value")
    params = {k.strip(): field.parse(v.strip()) for k, _, v in items}
    keys = [k.strip() for k, _, _ in items]
    for what, bad in (
            ("unknown", [k for k in keys if k not in required + optional]),
            ("repeated", sorted({k for k in keys if keys.count(k) > 1})),
            ("missing", [k for k in required if k not in params])):
        if bad:
            raise DomainError(
                f"{what} parameter {', '.join(bad)} (required: "
                f"{', '.join(required)}; optional: "
                f"{', '.join(optional) or 'none'})")
    return params


def _parse_fundamental(text, n):
    """Four comma-separated point indices in 0..n-1."""
    try:
        idx = [int(v) for v in text.split(",")]
    except ValueError:
        idx = []
    if len(idx) != 4 or not all(0 <= i < n for i in idx):
        raise DomainError(f"--fundamental takes four point indices in "
                          f"0..{n - 1}, got {text!r}")
    return idx


# the flags each family reads, besides --family and --output
_FLAGS = {"sextic-ten-gf31": ("field",),
          **dict.fromkeys(_PARAM_FAMILIES, ("params", "field")),
          "k3-246": ("base", "fundamental"), "ell-224": ("base", "fundamental"),
          "quintic-nu": ("points", "field")}


def cmd_construct(args):
    field = Field.parse_tag(args.field) if args.field else None
    fam = args.family
    if fam not in _FLAGS:
        raise DomainError(f"unknown family {fam!r}")
    for flag in ("params", "field", "base", "fundamental", "points"):
        value = getattr(args, flag)
        # sextic-ten-gf31 is defined over GF(31) alone
        if value and (flag not in _FLAGS[fam] or fam == "sextic-ten-gf31"
                      and field != Field.GF(31)):
            raise DomainError(f"family {fam} does not use --{flag} {value}")
    if fam == "sextic-ten-gf31":
        X = families.sextic_ten_gf31()
    elif fam in _PARAM_FAMILIES:
        ctor, required, optional = _PARAM_FAMILIES[fam]
        p = _parse_params(args.params, field, required, optional)
        X = getattr(families, ctor)(field, *(p[k] for k in required),
                                    *(p.get(k) for k in optional))
    elif fam in ("k3-246", "ell-224"):
        if not args.base:
            raise DomainError(f"{fam} requires --base")
        base = Surface.load(args.base)
        fundamental = [base.points[i] for i in
                       _parse_fundamental(args.fundamental, len(base.points))]
        ctor = (families.sextic_k3_246 if fam == "k3-246"
                else families.sextic_elliptic_224)
        X = ctor(base, fundamental)
    else:
        if not args.points:
            raise DomainError("quintic-nu requires --points")
        if field is None:
            raise DomainError("--field is required for this family")
        pts = load_points(args.points, field)
        X = families.quintic_with_triple_points(pts)
    _emit(X.to_json(), args.output)


def cmd_certify(args):
    X = Surface.load(args.input)
    _emit(singular.certify(X), args.output)


def cmd_cremona(args):
    X = Surface.load(args.input)
    image, mults = constructions.reciprocal_transform(X)
    out = image.to_json()
    out["vertex_multiplicities"] = list(mults)
    _emit(out, args.output)


def cmd_tangent_dim(args):
    X = Surface.load(args.input)
    pts = X.points
    if args.points:
        pts = load_points(args.points, X.field)
    if not pts:
        raise DomainError("no points declared or supplied")
    pts = singular.distinct_points(pts)
    dim = singular.equisingular_tangent_dimension(X, pts)
    _emit({"dimension": dim, "points": len(pts)})


def cmd_dianode(args):
    field = Field.parse_tag(args.field)
    g = MultiPoly.parse(args.quartic, field)
    qs = [MultiPoly.parse(t, field) for t in args.quadric]
    if len(qs) != 3:
        raise DomainError("need exactly three --quadric forms")
    delta = constructions.dianode_surface(g, *qs)
    _emit({"polynomial": str(delta), "degree": delta.degree()})


def cmd_steiner(args):
    field = Field.parse_tag(args.field)
    qs = [MultiPoly.parse(t, field) for t in args.quadric]
    if len(qs) != 3:
        raise DomainError("need exactly three --quadric forms")
    minors = constructions.steiner_curve(*qs)
    _emit({"minors": [str(m) for m in minors]})


def cmd_linear_system(args):
    field = Field.parse_tag(args.field)
    pts = load_points(args.points, field)
    basis = constructions.forms_with_multiplicity(
        args.degree, [(P, args.multiplicity) for P in pts])
    _emit({"dimension": len(basis),
           "basis": [str(g) for g in basis]})


@lru_cache(maxsize=None)
def build_parser():
    """The one parser of the process, built on the first call; parsing
    leaves it unchanged, so main() may be called again and again."""
    p = argparse.ArgumentParser(
        prog="triplepoints",
        description="Exact computations on surfaces with ordinary "
                    "triple points.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="triple-point count bounds")
    b.add_argument("--degree", type=int)
    b.add_argument("--table", help="degree range lo..hi")
    b.set_defaults(func=cmd_bounds)

    s = sub.add_parser("spectrum", help="Brieskorn spectra")
    s.add_argument("--exponents", required=True)
    s.add_argument("--interval", help="open interval a,b")
    s.set_defaults(func=cmd_spectrum)

    i = sub.add_parser("invariants", help="resolution invariants")
    i.add_argument("--degree", type=int, required=True)
    i.add_argument("--nu", type=int, default=0)
    i.add_argument("--alpha", type=int, default=0)
    i.set_defaults(func=cmd_invariants)

    c = sub.add_parser("classify-sextic", help="the 18-class table")
    c.add_argument("--nu", type=int, required=True)
    c.add_argument("--pg", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--exc", help="(-1)-curve degrees c1,c2,c3")
    c.set_defaults(func=cmd_classify_sextic)

    co = sub.add_parser("construct", help="build a family member")
    co.add_argument("--family", required=True)
    co.add_argument("--params", default="")
    co.add_argument("--field")
    co.add_argument("--base", help="surface.json of the base member")
    co.add_argument("--fundamental", default="",
                    help="indices of the fundamental points")
    co.add_argument("--points", help="points.json for quintic-nu")
    co.add_argument("-o", "--output")
    co.set_defaults(func=cmd_construct)

    ce = sub.add_parser("certify", help="certify the singular locus")
    ce.add_argument("-i", "--input", required=True)
    ce.add_argument("-o", "--output")
    ce.set_defaults(func=cmd_certify)

    cr = sub.add_parser("cremona", help="reciprocal transformation")
    cr.add_argument("-i", "--input", required=True)
    cr.add_argument("-o", "--output")
    cr.set_defaults(func=cmd_cremona)

    t = sub.add_parser("tangent-dim", help="equisingular tangent dimension")
    t.add_argument("-i", "--input", required=True)
    t.add_argument("--points")
    t.set_defaults(func=cmd_tangent_dim)

    d = sub.add_parser("dianode", help="Cayley dianode surface")
    d.add_argument("--field", required=True)
    d.add_argument("--quartic", required=True)
    d.add_argument("--quadric", action="append", default=[])
    d.set_defaults(func=cmd_dianode)

    st = sub.add_parser("steiner", help="Steiner curve of a net")
    st.add_argument("--field", required=True)
    st.add_argument("--quadric", action="append", default=[])
    st.set_defaults(func=cmd_steiner)

    ls = sub.add_parser("linear-system", help="forms through points")
    ls.add_argument("--field", required=True)
    ls.add_argument("--degree", type=int, required=True)
    ls.add_argument("--points", required=True)
    ls.add_argument("--multiplicity", type=int, default=1)
    ls.set_defaults(func=cmd_linear_system)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DomainError, ValueError, ArithmeticError, KeyError, OSError,
            IndexError) as exc:
        sys.stdout.write(json.dumps(
            {"schema_version": SCHEMA_VERSION,
             "error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
