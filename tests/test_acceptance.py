"""End-to-end acceptance checks.

Each test covers one headline result and prints a single PASS/FAIL line
(written straight to the terminal, bypassing capture) so the whole run
reads as a checklist.  All equality checks are exact.
"""
import random
import sys
import time
from fractions import Fraction

import pytest

from triplepoints.fields import Field
from triplepoints.poly import MultiPoly, exponents_of_degree
from triplepoints.surfaces import ProjPoint, Surface
from triplepoints.bounds import (homogeneous_surface_spectrum, spectrum_bound,
                                 polar_bound, miyaoka_bound, combined_bound,
                                 TRIPLE_POINT_SPECTRUM, NODE_SPECTRUM)
from triplepoints.invariants import (resolved_invariants, geometric_genus)
from triplepoints.singular import (certify, enumerate_singular_points,
                                   singular_scheme_degree,
                                   equisingular_tangent_dimension)
from triplepoints.constructions import (forms_with_multiplicity,
                                        dianode_surface, reciprocal_transform)
from triplepoints import families as fam

from helpers import generic_points, ordinary_triple_points

QQ = Field.QQ()
F7 = Field.GF(7)
F29 = Field.GF(29)
F31 = Field.GF(31)


@pytest.fixture
def report(capsys):
    def _report(n, label, ok, detail, budget, elapsed):
        status = "PASS" if ok else "FAIL"
        line = (f"ACCEPTANCE {n} [{label}]: {status} ({detail}; "
                f"{elapsed:.1f}s / budget {budget:.0f}s)")
        with capsys.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        assert ok, line
        assert elapsed < budget, line
    return _report


def test_acceptance_1_bounds_tables(report):
    t0 = time.time()
    polar = [polar_bound(d) for d in range(5, 13)]
    miyaoka = [miyaoka_bound(d) for d in range(7, 13)]
    spectrum = [spectrum_bound(d, TRIPLE_POINT_SPECTRUM)
                for d in range(5, 13)]
    combined = [combined_bound(d) for d in range(3, 13)]
    ok = (polar == [6, 10, 21, 37, 60, 90, 128, 176]
          and miyaoka == [18, 29, 42, 60, 81, 107]
          and spectrum == [5, 11, 17, 29, 45, 60, 84, 114]
          and combined == [1, 1, 5, 10, 17, 29, 42, 60, 81, 107])
    report(1, "bounds tables", ok, "4 tables exact", 1, time.time() - t0)


def test_acceptance_2_spectrum_facts(report):
    t0 = time.time()
    triple = dict(TRIPLE_POINT_SPECTRUM)
    spectrum_ok = triple == {Fraction(1): 1, Fraction(4, 3): 3,
                             Fraction(5, 3): 3, Fraction(2): 1}
    amb5 = homogeneous_surface_spectrum(5)
    node_ok = (amb5.count_open(Fraction(3, 5), Fraction(8, 5)) == 31
               and spectrum_bound(5, NODE_SPECTRUM) == 31)
    triple_ok = (amb5.count_open(Fraction(4, 5), Fraction(9, 5)) == 40
                 and TRIPLE_POINT_SPECTRUM.count_open(
                     Fraction(4, 5), Fraction(9, 5)) == 7
                 and 40 // 7 == 5
                 and spectrum_bound(5, TRIPLE_POINT_SPECTRUM) == 5)
    ok = spectrum_ok and node_ok and triple_ok
    report(2, "spectrum facts", ok, "multiset, 31, floor(40/7)=5",
            1, time.time() - t0)


def test_acceptance_3_ten_point_sextic(report):
    t0 = time.time()
    X = fam.sextic_ten_gf31()
    pts = enumerate_singular_points(X)
    enum_ok = (len(pts) == 10
               and ProjPoint(F31, [1, 1, 1, 1]) in pts
               and sorted(pts, key=lambda P: P.sort_key())
               == sorted(X.points, key=lambda P: P.sort_key()))
    cert_ok = ordinary_triple_points(X, pts)
    hilb_ok = singular_scheme_degree(X)["degree"] == 80
    tang_ok = equisingular_tangent_dimension(X, X.points) == 18
    ok = enum_ok and cert_ok and hilb_ok and tang_ok
    report(3, "GF(31) ten triple points", ok,
            "10 points, degree 80, tangent 18", 60, time.time() - t0)


def test_acceptance_4_k3_444_and_246(report):
    t0 = time.time()
    X = fam.sextic_k3_444(F29, -1, -1, -1, 0, 0, 0)
    nine_ok = (len(X.points) == 9
               and certify(X)["verdict"] == "certified-exact")
    genus_ok = geometric_genus(X, X.points) == 1
    Y = fam.sextic_k3_246(X, [X.points[i] for i in (0, 1, 3, 4)])
    img_ok = (certify(Y)["verdict"] == "certified-exact"
              and equisingular_tangent_dimension(Y, Y.points) == 22)
    ok = nine_ok and genus_ok and img_ok
    report(4, "K3 (4,4,4) over GF(29)", ok,
            "9 points, p_g 1, (2,4,6) tangent 22", 120, time.time() - t0)


def test_acceptance_5_elliptic_222(report):
    t0 = time.time()
    X = fam.sextic_elliptic_222(F7, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                alpha=1, beta=None, gamma=None)
    ok = (len(X.points) == 9
          and certify(X)["verdict"] == "certified-exact"
          and equisingular_tangent_dimension(X, X.points) == 23)
    report(5, "elliptic (2,2,2) over GF(7)", ok,
            "9 points, tangent 23", 60, time.time() - t0)


def test_acceptance_6_septic_s4(report):
    t0 = time.time()
    X = fam.septic_s4(QQ, 1, 2)
    cert_ok = (len(X.points) == 16
               and ordinary_triple_points(X, X.points))
    inv = resolved_invariants(7, 16)
    inv_ok = ((inv.c1sq, inv.c2, inv.chi) == (15, 45, 5)
              and 12 * inv.chi == inv.c1sq + inv.c2)
    ok = cert_ok and inv_ok
    report(6, "septic S4 (1:2)", ok, "16 points, (15,45,5)",
            120, time.time() - t0)


def test_acceptance_7_septic_determinant(report):
    t0 = time.time()
    result = fam.septic_determinant_factorization()
    ok = (result["constant"] not in ("0", None)
          and result["vanishes_at_lambda_eq_minus_nu"]
          and result["degree"] == 35)
    report(7, "septic determinant", ok,
           f"constant {result['constant']}", 300, time.time() - t0)


def test_acceptance_8_property_suites(report):
    t0 = time.time()
    checks = []
    # Euler relation over GF(31) and QQ
    for field, seed in ((F31, 81), (QQ, 82)):
        rng = random.Random(seed)
        for _ in range(10):
            d = rng.randint(1, 5)
            f = MultiPoly(field, {e: c for e in exponents_of_degree(d)
                                  if (c := field.random_element(rng))})
            acc = MultiPoly.zero(field)
            for i in range(4):
                acc = acc + MultiPoly.variable(field, i) * f.derivative(i)
            checks.append(acc == f.scale(field(d)))
    # Noether identity for every consistent (d, nu, alpha) up to 12
    for d in range(1, 13):
        for nu in range(0, 11):
            for alpha in range(0, 3):
                try:
                    inv = resolved_invariants(d, nu, alpha)
                except ValueError:
                    continue
                checks.append(12 * inv.chi == inv.c1sq + inv.c2)
    # Cremona double application on 50 random sextics
    rng = random.Random(83)
    exps6 = exponents_of_degree(6)
    done = 0
    while done < 50:
        f = MultiPoly(F31, {e: c for e in exps6
                            if rng.random() < 0.3
                            and (c := F31.random_element(rng))})
        if not f:
            continue
        try:
            img, mults = reciprocal_transform(Surface(f))
        except ValueError:
            continue
        back, _ = reciprocal_transform(img)
        e0, c0 = next(iter(f.terms.items()))
        checks.append(back.f == f.scale(back.f.terms[e0] / c0))
        done += 1
    # tangent-cone rank test agrees with the discriminant on the whole
    # Hesse pencil over GF(31): x^3+y^3+z^3+lam*xyz smooth iff lam^3 != -27
    quartic_tail = MultiPoly.parse("x^4+y^4+z^4", F31)
    w = MultiPoly.variable(F31, 3)
    vertex = ProjPoint(F31, [0, 0, 0, 1])
    for lam in range(31):
        cone = MultiPoly.parse(f"x^3+y^3+z^3+{lam}*x*y*z", F31)
        X = Surface(cone * w + quartic_tail)
        smooth = pow(lam, 3, 31) != (-27) % 31
        checks.append(ordinary_triple_points(X, [vertex]) == smooth)
    # linear-system dimensions
    for nu in range(1, 6):
        pts = generic_points(F31, nu, seed=7)
        checks.append(len(forms_with_multiplicity(
            5, [(P, 3) for P in pts])) == 56 - 10 * nu)
    pts7 = generic_points(F31, 7, seed=7)
    checks.append(len(forms_with_multiplicity(
        6, [(P, 3) for P in pts7])) == 14)
    # dianode: seven assigned triple points over the rationals
    ptsq = generic_points(QQ, 7, seed=0)
    cubic = forms_with_multiplicity(
        3, [(P, 2) for P in ptsq[:4]] + [(P, 1) for P in ptsq[4:]])[0]
    plane = forms_with_multiplicity(1, [(P, 1) for P in ptsq[4:]])[0]
    delta = dianode_surface(cubic * plane, *forms_with_multiplicity(
        2, [(P, 1) for P in ptsq]))
    Xd = Surface(delta)
    checks.append(ordinary_triple_points(Xd, ptsq))
    ok = all(checks)
    report(8, "property suites", ok, f"{len(checks)} checks",
            600, time.time() - t0)


def test_acceptance_9_moduli_documented(report):
    # the moduli-dimension narratives are recorded in the README; their
    # only computable shadows are the tangent dimensions of criteria 3-5
    report(9, "moduli statements", True, "documented, not computed",
            1, 0.0)
