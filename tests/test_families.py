import collections
import itertools
import random

import pytest

from triplepoints.fields import Field
from triplepoints.constructions import forms_with_multiplicity
from triplepoints.linalg import _elements, _values, kernel_basis, rank
from triplepoints.poly import MultiPoly
from triplepoints.surfaces import ProjPoint
from triplepoints.singular import (certify, equisingular_tangent_dimension,
                                   singular_scheme_degree)
from triplepoints.invariants import geometric_genus, resolved_invariants
from triplepoints import families as fam, singular

from helpers import generic_points

QQ = Field.QQ()
F7 = Field.GF(7)
F29 = Field.GF(29)
F31 = Field.GF(31)


# -- shared constructed members -----------------------------------------

@pytest.fixture(scope="module")
def k444():
    return fam.sextic_k3_444(F29, -1, -1, -1, 0, 0, 0)


@pytest.fixture(scope="module")
def k246(k444):
    fund = [k444.points[i] for i in (0, 1, 3, 4)]
    return fam.sextic_k3_246(k444, fund)


@pytest.fixture(scope="module")
def k228():
    return fam.sextic_k3_228(F31, 3)


@pytest.fixture(scope="module")
def e222():
    return fam.sextic_elliptic_222(F7, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                   alpha=1, beta=None, gamma=None)


@pytest.fixture(scope="module")
def e222_gf31():
    return fam.sextic_elliptic_222(F31, 7, 4, 25, 7, 29, 26, 15, 12, 17,
                                   alpha=1, beta=None, gamma=None)


@pytest.fixture(scope="module")
def ten():
    return fam.sextic_ten_gf31()


@pytest.fixture(scope="module")
def septic_qq():
    return fam.septic_s4(QQ, 1, 2)


# -- helpers -------------------------------------------------------------

def test_vertex():
    assert fam.vertex(QQ, 2) == ProjPoint(QQ, [0, 0, 1, 0])


# -- quintics ------------------------------------------------------------

def test_quintic_five_points():
    pts = generic_points(F31, 5, seed=0)
    X = fam.quintic_with_triple_points(pts)
    assert X.degree == 5
    assert certify(X)["verdict"] in ("certified-exact",
                                               "certified-rational-only")
    assert geometric_genus(X, X.points) == 0


def test_quintic_three_points_genus_one():
    pts = generic_points(F31, 3, seed=0)
    X = fam.quintic_with_triple_points(pts)
    assert geometric_genus(X, X.points) == 1


def test_quintic_one_point():
    pts = generic_points(F31, 1, seed=0)
    X = fam.quintic_with_triple_points(pts)
    assert geometric_genus(X, X.points) == 3


def test_quintic_member_is_swept():
    # over a finite field the member has no singular points besides the
    # declared ones, and records its coefficients in the system's basis
    pts = generic_points(F31, 3, seed=0)
    X = fam.quintic_with_triple_points(pts)
    assert set(singular.enumerate_singular_points(X)) == set(pts)
    coeffs = X.metadata["params"]["coefficients"]
    assert X.metadata["params"]["nu"] == 3
    assert len(coeffs) == 56 - 10 * 3
    assert "checks" not in X.metadata
    basis = forms_with_multiplicity(5, [(P, 3) for P in pts])
    assert X.f == sum((g.scale(F31.parse(c)) for c, g in zip(coeffs, basis)),
                      MultiPoly.zero(F31))


def test_quintic_guards():
    with pytest.raises(ValueError):
        fam.quintic_with_triple_points([])
    with pytest.raises(ValueError):
        fam.quintic_with_triple_points(generic_points(F31, 6, seed=0))
    collinear = [ProjPoint(F31, c) for c in
                 ([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0])]
    with pytest.raises(ValueError):
        fam.quintic_with_triple_points(collinear)


# -- (4,4,4) -------------------------------------------------------------

def test_k3_444_nine_points(k444):
    X = k444
    assert X.degree == 6
    assert len(X.points) == 9
    # the six non-vertex points are the eta-orbit (eta = 16, order 7)
    for i in range(1, 7):
        P = ProjPoint(F29, [pow(16, 4 * i, 29), pow(16, 2 * i, 29),
                            pow(16, i, 29), 1])
        assert P in X.points
    assert certify(X)["verdict"] == "certified-exact"
    assert geometric_genus(X, X.points) == 1
    assert X.metadata["exc_degrees"] == [4, 4, 4]


def test_k3_444_polynomial_identity(k444):
    # at a = -1, b = 0 the cones are z^2-yw, x^2-zw, y^2-xw and the
    # residual quadric is -(1 + s1 + s2) homogenized
    q1 = MultiPoly.parse("z^2-y*w", F29)
    q2 = MultiPoly.parse("x^2-z*w", F29)
    q3 = MultiPoly.parse("y^2-x*w", F29)
    q = MultiPoly.parse("-1*w^2-x*w-y*w-z*w-x*y-x*z-y*z", F29)
    assert k444.f == q1 * q2 * q3 + q * q * q


def test_k3_444_guards():
    with pytest.raises(ValueError):
        fam.sextic_k3_444(F29, -1, -1, -1, 0, 0, 0, alpha=0)
    with pytest.raises(ValueError):
        fam.sextic_k3_444(F29, -1, -1, -1, 0, 0, 0, beta=0)


def test_k3_444_no_coplanar_five(k444):
    assert fam.detect_minus_one_conics(k444.points) == []


# -- (2,4,6) -------------------------------------------------------------

def test_k3_246(k246):
    Y = k246
    assert Y.degree == 6
    assert len(Y.points) == 9
    assert certify(Y)["verdict"] == "certified-exact"
    assert Y.metadata["exc_degrees"] == [2, 4, 6]
    assert equisingular_tangent_dimension(Y, Y.points) == 22
    # one plane meets the configuration in five points
    assert len(fam.detect_minus_one_conics(Y.points)) == 1


def test_k3_246_double_application_is_linear_change(k444, k246):
    fund = [k444.points[i] for i in (0, 1, 3, 4)]
    verts = [fam.vertex(F29, i) for i in range(4)]
    Z = fam.sextic_k3_246(k246, verts)
    # the double transform returns the start in the moved coordinates
    variables = [MultiPoly.variable(F29, j) for j in range(4)]
    images = []
    for i in range(4):
        g = MultiPoly.zero(F29)
        for j in range(4):
            if fund[j].coords[i]:
                g = g + variables[j].scale(fund[j].coords[i])
        images.append(g)
    f2 = k444.f.substitute(images)
    e0, c0 = next(iter(f2.terms.items()))
    assert Z.f == f2.scale(Z.f.terms[e0] / c0)


def test_k3_246_guards(k444):
    with pytest.raises(ValueError):
        fam.sextic_k3_246(k444, k444.points[:3])
    stranger = ProjPoint(F29, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        fam.sextic_k3_246(k444, k444.points[:3] + [stranger])


# -- (2,2,8) -------------------------------------------------------------

def test_k3_228(k228):
    X = k228
    assert X.degree == 6
    assert len(X.points) == 9
    assert certify(X)["verdict"] == "certified-exact"
    assert ProjPoint(F31, [3, 1, 1, 1]) in X.points
    # two planes each hold five of the points
    assert len(fam.detect_minus_one_conics(X.points)) == 2
    assert equisingular_tangent_dimension(X, X.points) == 22


def test_member_search_over_the_rationals():
    # no sweep over QQ: the first candidate that certifies is the member
    X = fam.sextic_k3_228(QQ, 3)
    assert len(X.points) == 7
    assert "checks" not in X.metadata
    assert X.metadata["params"]["coefficients"] == ["1", "1"]


def test_member_search_records_a_skipped_sweep(k228, monkeypatch):
    assert "checks" not in k228.metadata
    monkeypatch.setattr(singular, "_ENUM_LIMIT", 1000)
    X = fam.sextic_k3_228(F31, 3)
    assert X.f == k228.f
    assert X.metadata["checks"]["sweep"].startswith("skipped: P^3 over "
                                                    "order-31 field")
    assert X.to_json()["metadata"]["checks"] == X.metadata["checks"]


def test_k3_228_quartic_triple_point(k228):
    # the quartic factor has a triple point at the w-vertex: the full
    # member meets it there with multiplicity 3
    from triplepoints.singular import multiplicity
    assert multiplicity(k228, fam.vertex(F31, 3)) == 3


def test_k3_228_degenerate_lambdas():
    for lam in (0, -1, -2, 15):  # 15 = -1/2 mod 31
        with pytest.raises(ValueError):
            fam.sextic_k3_228(F31, lam)


# -- (2,2,2) -------------------------------------------------------------

def test_elliptic_222(e222):
    X = e222
    assert X.degree == 6
    assert len(X.points) == 9
    assert certify(X)["verdict"] == "certified-exact"
    assert X.metadata["params"]["coefficients"] == ["1", "0", "5"]
    assert equisingular_tangent_dimension(X, X.points) == 23
    # three coplanar five-point subsets
    assert len(fam.detect_minus_one_conics(X.points)) == 3


def test_elliptic_222_guards():
    with pytest.raises(ValueError):
        fam.sextic_elliptic_222(F7, 0, 1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        fam.sextic_elliptic_222(F7, 1, 1, 1, 1, 1, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        fam.sextic_elliptic_222(F7, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                alpha=0, beta=1, gamma=0)


# -- (2,2,4) -------------------------------------------------------------

def test_elliptic_224(e222_gf31):
    base = e222_gf31
    assert len(base.points) == 9
    X = fam.sextic_elliptic_224(base, base.points[:4])
    assert X.degree == 6  # 3*6 - 4*3
    assert len(X.points) == 9
    assert certify(X)["verdict"] == "certified-exact"
    assert X.metadata["exc_degrees"] == [2, 2, 4]


def test_elliptic_224_guards(e222_gf31):
    stranger = ProjPoint(F31, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        fam.sextic_elliptic_224(e222_gf31, e222_gf31.points[:3] + [stranger])


# -- ten points in characteristic 31 ------------------------------------

def test_ten_point_conditions():
    r1, r2 = fam.ten_point_conditions(2, 9, -11, field=F31)
    assert not r1 and not r2
    r1, r2 = fam.ten_point_conditions(1, 0, 0, field=QQ)
    assert str(r1) == "0" and str(r2) == "4"


def test_ten_point_conditions_no_rational_solutions():
    # both residues never vanish together on an integer grid
    for lam in range(-6, 7):
        for a in range(-6, 7):
            for b in range(-6, 7):
                r1, r2 = fam.ten_point_conditions(lam, a, b, field=QQ)
                assert r1 or r2


def test_sextic_ten_gf31(ten):
    X = ten
    assert X.degree == 6
    assert len(X.points) == 10
    assert X.metadata["params"]["coefficients"] == ["12", "14", "1"]
    for c in ([1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 20, 1]):
        assert ProjPoint(F31, c) in X.points
    assert certify(X)["verdict"] == "certified-exact"


def test_sextic_ten_gf31_scheme_degree(ten):
    res = singular_scheme_degree(ten)
    assert res["degree"] == 80  # 8 per triple point


def test_sextic_ten_gf31_tangent_and_genus(ten):
    assert equisingular_tangent_dimension(ten, ten.points) == 18
    assert geometric_genus(ten, ten.points) == 0


# -- septics -------------------------------------------------------------

def test_septic_s4(septic_qq):
    X = septic_qq
    assert X.degree == 7
    assert len(X.points) == 16
    assert ProjPoint(QQ, [-2, 1, 2, 2]) in X.points
    assert certify(X)["verdict"] == "certified-exact"


def test_septic_s4_tangent_dimension_gf101():
    X = fam.septic_s4(Field.GF(101), 1, 2)
    assert len(X.points) == 16
    assert equisingular_tangent_dimension(X, X.points) == 16


def test_septic_s4_certifies_over_the_rationals(septic_qq):
    # over QQ there is no sweep, so no checks key; the degree proven mod
    # 32003 is 8 * 16, so the 16 points are all the singular points
    report = certify(septic_qq)
    assert [(p["multiplicity"], p["smooth_rank"])
            for p in report["points"]] == [(3, 15)] * 16
    assert report["verdict"] == "certified-exact"
    assert report["degree_evidence"] == {
        "method": "tjurina", "proven": True, "plane": "x+y+z+w",
        "covered_from": 11, "computed_to": 13, "prime": 32003}
    assert report["hilbert"][-1] == report["expected_degree"] == 128
    assert "checks" not in report


def test_septic_s4_is_symmetric(septic_qq):
    X = septic_qq
    variables = [MultiPoly.variable(QQ, i) for i in range(4)]
    for perm in itertools.permutations(range(4)):
        assert X.f.substitute([variables[perm[i]] for i in range(4)]) == X.f


def test_septic_s4_invariants():
    # d=7, nu=16: c1^2 = 15, c2 = 45, chi = 5
    t = resolved_invariants(7, 16)
    assert (t.c1sq, t.c2, t.chi, t.p_g) == (15, 45, 5, 4)


def test_septic_s4_guards():
    for mu, nu in ((1, 1), (1, -1), (0, 1), (1, 0)):
        with pytest.raises(ValueError):
            fam.septic_s4(QQ, mu, nu)


SEPTIC_TABLE = [("z", 5), ("x-y", 4), ("x-z", 5), ("y-z", 5), ("x+z", 1),
                ("y+z", 1), ("x+y+2*z", 4), ("x*y-z^2", 1),
                ("2*x*y+x*z+y*z", 1), ("x*y+2*x*z+2*y*z+z^2", 3)]


def test_septic_determinant_factorization():
    report = fam.septic_determinant_factorization()
    assert report == {
        "constant": "6048",
        "factors": [{"factor": text, "multiplicity": mult}
                    for text, mult in SEPTIC_TABLE],
        "degree": 35, "vanishes_at_lambda_eq_minus_nu": True}
    assert sum(f["multiplicity"] * MultiPoly.parse(f["factor"], QQ).degree()
               for f in report["factors"]) == 35


@pytest.mark.parametrize("changes", [
    {"z": ("z", 4)}, {"z": ("z", 6)},
    {"x-y": ("x-y", 3)}, {"x*y+2*x*z+2*y*z+z^2": ("x*y+2*x*z+2*y*z+z^2", 4)},
    {"y+z": None},
    {"x+z": ("x+2*z", 1)},
    {"x-y": ("x-y", 5), "x-z": ("x-z", 4)},
    {"z": ("z", 4), "x+z": ("x+z", 2)},
], ids=["z^4", "z^6", "(x-y)^3", "quadric^4", "no-y+z", "x+2z",
        "(x-y)^5-(x-z)^4", "z^4-(x+z)^2"])
def test_septic_determinant_rejects_a_wrong_table(monkeypatch, changes):
    # z^4 and z^6 agree with the determinant at z = 1, so only the degree
    # check rejects them; the last two keep the degree 35 and the factor
    # x+z, so only the grid does
    table = [changes.get(text, (text, mult))
             for text, mult in fam.SEPTIC_FACTORS]
    monkeypatch.setattr(fam, "SEPTIC_FACTORS", [e for e in table if e])
    with pytest.raises(ArithmeticError):
        fam.septic_determinant_factorization()


def test_septic_factors_are_irreducible_and_pairwise_coprime():
    # linear forms are irreducible, and so is a quadric in x, y, z whose
    # Gram matrix (half its Hessian) has rank 3, a smooth conic;
    # irreducible forms that are not proportional are coprime, so the
    # proven identity fixes every multiplicity
    factors = [MultiPoly.parse(text, QQ) for text, _ in fam.SEPTIC_FACTORS]
    exps = sorted({e for g in factors for e in g.terms})
    for f, g in itertools.combinations(factors, 2):
        assert rank(QQ, _values(QQ, [[h.terms.get(e, QQ.zero) for e in exps]
                                     for h in (f, g)])) == 2
    for g in factors:
        assert all(not e[3] for e in g.terms)
        assert g.homogeneous_degree() in (1, 2)
        if g.homogeneous_degree() == 2:
            hessian = [[g.derivative(i).derivative(j).evaluate([0] * 4)
                        for j in range(3)] for i in range(3)]
            assert rank(QQ, _values(QQ, hessian)) == 3


# -- coplanar detection --------------------------------------------------

def test_detect_minus_one_conics_planes_contain_their_points(e222):
    for combo, plane in fam.detect_minus_one_conics(e222.points):
        assert plane.homogeneous_degree() == 1
        for i in combo:
            assert not plane.evaluate(list(e222.points[i].coords))


def test_detect_minus_one_conics_guard():
    with pytest.raises(ValueError):
        fam.detect_minus_one_conics(generic_points(F31, 4, seed=0))


def _subset_oracle(points):
    """The per-subset reference: a kernel of each 5-subset's coordinates
    (the conics, with the str of each plane) and a rank of each triple's
    (whether three points are collinear)."""
    field = points[0].field
    conics = []
    for combo in itertools.combinations(range(len(points)), 5):
        kern = kernel_basis(field, _values(field, [points[i].coords
                                                   for i in combo]))
        if len(kern):
            conics.append((combo, str(fam._combination(
                _elements(field, kern[0]), fam._variables(field)))))
    collinear = any(rank(field, _values(field, [P.coords for P in trio])) < 3
                    for trio in itertools.combinations(points, 3))
    return conics, collinear


def _placed_points(rng, field, n):
    """n distinct points: random ones, and points on the plane or the line
    of earlier ones, so that coplanar quintuples and collinear triples
    occur."""
    def element():
        if field.kind == "QQ":
            return field(rng.randint(-3, 3))
        return field.random_element(rng)
    points = []
    while len(points) < n:
        base = rng.sample(points, min(len(points), rng.choice([2, 3, 3])))
        if len(base) < 2 or rng.random() < 0.3:
            coords = [element() for _ in range(4)]
        else:
            scales = [element() for _ in base]
            coords = [sum((a * P.coords[j] for a, P in zip(scales, base)),
                          field.zero) for j in range(4)]
        if any(coords):
            P = ProjPoint(field, coords)
            if P not in points:
                points.append(P)
    return points


@pytest.mark.parametrize("field", [Field.GF(5), Field.GF(7, 2), QQ, F31],
                         ids=lambda F: F.tag)
def test_stacked_subset_search_matches_the_per_subset_oracle(field):
    # one stacked rank of all the 5-subsets and of all the triples finds
    # the same coplanar quintuples, in the same order with the same
    # planes, and the same collinearity answer, as one kernel per subset
    rng = random.Random(31 + field.order if field.kind != "QQ" else 0)
    seen = collections.Counter()
    for n in [1, 2] + [rng.randint(3, 9) for _ in range(12)]:
        points = _placed_points(rng, field, n)
        conics, collinear = _subset_oracle(points)
        coords = _values(field, [P.coords for P in points])
        assert bool(fam._degenerate_subsets(field, coords, 3)) == collinear
        if n >= 5:
            got = [(combo, str(plane))
                   for combo, plane in fam.detect_minus_one_conics(points)]
            assert got == conics
        seen["sets"] += 1
        seen["conics"] += bool(conics)
        seen["collinear"] += collinear
    assert seen["conics"] and 0 < seen["collinear"] < seen["sets"]
