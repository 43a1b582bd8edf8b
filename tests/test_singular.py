import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplepoints import families as fam, gfnum
from triplepoints.fields import Field
from triplepoints.poly import MultiPoly, exponents_of_degree
from triplepoints.surfaces import ProjPoint, Surface
from triplepoints.singular import (CertificationFailure, local_jet,
                                   multiplicity, certify_ordinary_triple_point,
                                   is_ordinary_triple_point,
                                   common_projective_zeros,
                                   enumerate_singular_points, lift_poly,
                                   jacobian_hilbert, singular_scheme_degree,
                                   equisingular_tangent_dimension, certify)

QQ = Field.QQ()
F7 = Field.GF(7)
F31 = Field.GF(31)


def triple_point_quartic(field):
    """Quartic with an ordinary triple point at (0:0:0:1) (Fermat cone)."""
    f = MultiPoly.parse("x^3*w+y^3*w+z^3*w+x^4+y^4+z^4", field)
    X = Surface(f)
    return X, ProjPoint(field, [0, 0, 0, 1])


def test_local_jet_is_taylor_expansion():
    # summing the homogeneous parts at a displacement v recovers the
    # dehomogenized polynomial at P + v
    rng = random.Random(41)
    f = MultiPoly.parse("x^3+2*x*y*w+z^2*w-5*w^3+y^3", QQ)
    X = Surface(f)
    P = ProjPoint(QQ, [1, 2, -1, 3])
    jet = local_jet(X, P, 3)
    assert jet.chart == 0 and jet.local_indices == (1, 2, 3)
    for _ in range(5):
        v = [QQ(rng.randint(-4, 4)) for _ in range(3)]
        full = [QQ.one] + [P.coords[i + 1] + v[i] for i in range(3)]
        direct = f.evaluate(full)
        vec = [QQ.zero, v[0], v[1], v[2]]
        total = QQ.zero
        for j in range(4):
            total = total + jet.homogeneous_part_poly(j).evaluate(vec)
        assert total == direct


def test_local_jet_truncates():
    f = MultiPoly.parse("x^3+y^3+z^3", QQ)
    jet = local_jet(Surface(f), ProjPoint(QQ, [0, 0, 0, 1]), 2)
    assert jet.min_degree() is None  # all terms have local degree 3


def test_multiplicity():
    X, P = triple_point_quartic(QQ)
    assert multiplicity(X, P) == 3
    assert multiplicity(X, ProjPoint(QQ, [1, 0, 0, 0])) == 0  # off X
    assert multiplicity(X, ProjPoint(QQ, [1, 0, 0, -1])) == 1  # smooth point


def test_certify_ordinary_triple_point():
    for field in (QQ, F31):
        X, P = triple_point_quartic(field)
        cert = certify_ordinary_triple_point(X, P)
        assert cert.multiplicity == 3
        assert cert.smooth_rank == 15
        assert cert.tangent_cone == MultiPoly.parse("x^3+y^3+z^3", field)
        assert is_ordinary_triple_point(X, P)


def test_certify_rejects_wrong_multiplicity():
    X, _ = triple_point_quartic(QQ)
    with pytest.raises(CertificationFailure) as exc:
        certify_ordinary_triple_point(X, ProjPoint(QQ, [0, 1, -1, 0]))
    assert exc.value.reason == "multiplicity"
    assert not is_ordinary_triple_point(X, ProjPoint(QQ, [1, 0, 0, 0]))


def test_certify_rejects_singular_cone():
    # cubic part x^3 at (0:0:0:1) is a triple plane
    X = Surface(MultiPoly.parse("x^3*w+y^4", QQ))
    with pytest.raises(CertificationFailure) as exc:
        certify_ordinary_triple_point(X, ProjPoint(QQ, [0, 0, 0, 1]))
    assert exc.value.reason == "tangent cone singular"


def test_certify_refuses_small_characteristic():
    for p in (2, 3):
        Fp = Field.GF(p)
        X = Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", Fp))
        with pytest.raises(ValueError):
            certify_ordinary_triple_point(X, ProjPoint(Fp, [0, 0, 0, 1]))


def test_enumerate_singular_points_cone():
    X = Surface(MultiPoly.parse("x^2+y^2+z^2", F7))
    assert enumerate_singular_points(X) == [ProjPoint(F7, [0, 0, 0, 1])]
    # over the quadratic extension the vertex is still the only one
    pts = enumerate_singular_points(X, e=2)
    F49 = F7.extension()
    assert pts == [ProjPoint(F49, [0, 0, 0, 1])]


def test_enumerate_smooth_quadric_is_empty():
    X = Surface(MultiPoly.parse("x*y-z*w", F31))
    assert enumerate_singular_points(X) == []


def test_enumerate_hesse_pencil_oracle():
    # the cone over x^3+y^3+z^3+lam*x*y*z is singular away from the vertex
    # exactly when lam^3 = -27, i.e. lam in {16, 18, 28} mod 31
    singular_lams = {v for v in range(31) if pow(v, 3, 31) == (-27) % 31}
    assert singular_lams == {16, 18, 28}
    vertex = ProjPoint(F31, [0, 0, 0, 1])
    for lam in (0, 1, 5, 16, 18, 28, 30):
        f = MultiPoly.parse(f"x^3+y^3+z^3+{lam}*x*y*z", F31)
        pts = enumerate_singular_points(Surface(f))
        if lam in singular_lams:
            assert len(pts) > 1
        else:
            assert pts == [vertex]


def test_enumerate_guards():
    X = Surface(MultiPoly.parse("x^2+y^2+z^2", QQ))
    with pytest.raises(ValueError):
        enumerate_singular_points(X)
    Xg = Surface(MultiPoly.parse("x^2+y^2+z^2", F31))
    with pytest.raises(ValueError):
        enumerate_singular_points(Xg, e=3)
    with pytest.raises(ValueError):
        enumerate_singular_points(Xg, e=2)  # P^3 over GF(961) is too big


# -- the sweep against pointwise evaluation ------------------------------

F5 = Field.GF(5)
F9 = Field.GF(3, 2)


def _all_points(field):
    elems = list(field.elements())
    return [ProjPoint(field, [0] * chart + [1] + list(tail))
            for chart in range(4)
            for tail in itertools.product(elems, repeat=3 - chart)]


ALL_POINTS = {F.tag: _all_points(F) for F in (F5, F9)}


def assert_sweep_matches_pointwise(polys, field):
    expected = sorted((P for P in ALL_POINTS[field.tag]
                       if not any(g.evaluate(P.coords) for g in polys)),
                      key=ProjPoint.sort_key)
    assert common_projective_zeros(polys, field) == expected


@st.composite
def form_lists(draw, field):
    """1-3 homogeneous forms of degrees 0-3, some divisible by x."""
    x = MultiPoly.variable(field, 0)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, 3))
        terms = draw(st.dictionaries(
            st.sampled_from(exponents_of_degree(d)),
            st.sampled_from(list(field.elements())), min_size=1,
            max_size=5))
        g = MultiPoly(field, terms)
        polys.append(g * x if d and draw(st.booleans()) else g)
    return polys


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F5, F9]).flatmap(
    lambda F: st.tuples(st.just(F), form_lists(F))))
def test_sweep_matches_pointwise_evaluation(case):
    field, polys = case
    assert_sweep_matches_pointwise(polys, field)


@pytest.mark.parametrize("field", [F5, F9], ids=lambda F: F.tag)
@pytest.mark.parametrize("texts", [
    ["x", "y^2-z*w"],        # every zero lies at infinity (x = 0)
    ["x*y", "x*z+x*w"],      # vanish identically on the charts x = 0
    ["x^2+y^2", "3"],        # a nonzero constant has no zeros
    ["0"],                   # the zero polynomial vanishes everywhere
])
def test_sweep_edge_cases_match_pointwise(texts, field):
    polys = [MultiPoly.parse(t, field) for t in texts]
    assert_sweep_matches_pointwise(polys, field)


def test_sweep_refuses_int64_overflow():
    # (d+1) * (p-1)^2 >= 2^63 for d = 10^15: refused before any table
    # of d+1 powers is built
    with pytest.raises(ValueError, match="overflow"):
        gfnum.sweep_chart([{(0, 0, 0, 10**15): 1}], 0, 181)


def test_lift_poly():
    f = MultiPoly.parse("x^2+3*y*w", F7)
    F49 = F7.extension()
    g = lift_poly(f, F49)
    assert g.field == F49
    assert g.terms == {e: F49.lift(c) for e, c in f.terms.items()}


def test_jacobian_hilbert_fermat_sextic():
    # R/(x^5, y^5, z^5, w^5): Hilbert series (1+t+t^2+t^3+t^4)^4
    X = Surface(MultiPoly.parse("x^6+y^6+z^6+w^6", F7))
    h = jacobian_hilbert(X, 20)
    block = np.ones(5, dtype=int)
    series = np.convolve(np.convolve(block, block),
                         np.convolve(block, block))
    expected = list(series) + [0] * (21 - len(series))
    assert h == expected


def test_singular_scheme_degree_smooth():
    X = Surface(MultiPoly.parse("x^2+y^2+z^2+w^2", F31))
    res = singular_scheme_degree(X)
    assert res["degree"] == 0


def test_singular_scheme_degree_triple_point():
    X, P = triple_point_quartic(F31)
    res = singular_scheme_degree(X)
    # one ordinary triple point contributes 8 to the Jacobian scheme
    assert res["degree"] == 8


def test_singular_scheme_cubic_cone_plateau():
    # Jacobian ring k[x,y,z,w]/(x^2,y^2,z^2) has constant Hilbert value 8
    X = Surface(MultiPoly.parse("x^3+y^3+z^3", F31))
    res = singular_scheme_degree(X)
    assert res["hilbert"][:6] == [1, 4, 7, 8, 8, 8]
    assert res.get("degree") == 8


@pytest.mark.parametrize("build, hilbert", [
    (fam.sextic_ten_gf31,
     [1, 4, 10, 20, 35, 52, 68, 80, 85, 81, 80, 80, 80]),
    (lambda: fam.septic_s4(Field.GF(101), 1, 2),
     [1, 4, 10, 20, 35, 56, 80, 104, 125, 140, 146, 140, 131, 128, 128, 128]),
], ids=["ten-point-sextic", "septic-s4-gf101"])
def test_singular_scheme_full_hilbert_sequence(build, hilbert):
    # every middle value is a Macaulay rank mod p; a wrong one would not
    # show in the final degree
    res = singular_scheme_degree(build())
    assert res == {"degree": hilbert[-1], "hilbert": hilbert}


def test_singular_scheme_positive_dimensional():
    # singular along the line x = y = 0 with growing Hilbert function
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3", F31))
    res = singular_scheme_degree(X)
    assert res.get("verdict") == "positive-dimensional" or \
        res.get("degree", 0) > 8 * 4


def test_equisingular_tangent_dimension_no_points():
    X = Surface(MultiPoly.parse("x^5+y^5+z^5+w^5", QQ))
    # no conditions: the whole degree-5 system minus the surface itself
    assert equisingular_tangent_dimension(X, []) == 55


def test_equisingular_tangent_dimension_triple_point():
    X, P = triple_point_quartic(F31)
    dim = equisingular_tangent_dimension(X, [P])
    assert 0 < dim < 34
    # the dimension is stable across fields of good characteristic
    XQ, PQ = triple_point_quartic(QQ)
    assert equisingular_tangent_dimension(XQ, [PQ]) == dim


def test_certify_report_finite_field():
    X, P = triple_point_quartic(F31)
    report = certify(X)
    data = report.to_json()
    assert data["schema_version"] == 1
    assert data["verdict"] == "certified-exact"
    assert data["expected_degree"] == 8
    assert len(data["points"]) == 1
    assert data["points"][0]["multiplicity"] == 3


def test_certify_report_rational():
    X, P = triple_point_quartic(QQ)
    report = certify(X, points=[P])
    assert report.to_json()["verdict"] == "certified-rational-only"


def test_certify_report_failure():
    X = Surface(MultiPoly.parse("x^3*w+y^4", F31))
    report = certify(X, points=[ProjPoint(F31, [0, 0, 0, 1])],
                     hilbert=False)
    data = report.to_json()
    assert data["verdict"] == "failed"
    assert data["points"][0]["failure"] == "tangent cone singular"


def test_certify_positive_dimensional_verdict():
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3", F31))
    report = certify(X, points=[])
    assert report.to_json()["verdict"] == "positive-dimensional-singular-locus"
