import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplepoints import families as fam, gfnum, singular
from triplepoints.fields import Field
from triplepoints.linalg import kernel_basis, rank, _rref_generic
from triplepoints.poly import MultiPoly, exponents_of_degree, num_monomials
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


@pytest.mark.parametrize("chart", range(4))
@pytest.mark.parametrize("field", [QQ, F31, Field.GF(2147483647),
                                   Field.GF(5, 2)],
                         ids=["QQ", "GF31", "GF2147483647", "GF25"])
def test_local_jet_is_taylor_expansion(field, chart):
    # the jet of a cubic to order 3 at a displacement v, in the variables
    # other than the chart's, is the dehomogenized polynomial at P + v
    rng = random.Random(41 + chart)
    f = MultiPoly.parse("x^3+2*x*y*w+z^2*w-5*w^3+y^3+3*x*z^2-y*z*w", field)
    P = ProjPoint(field, [0] * chart + [1] + [
        field.random_element(rng) for _ in range(3 - chart)])
    local = [i for i in range(4) if i != chart]
    for X in (Surface(f), f):
        jet = local_jet(X, P, 3)
        assert isinstance(jet, MultiPoly) and jet.field == field
        assert jet and all(e[chart] == 0 for e in jet.terms)
        for _ in range(5):
            vec = [field.zero] * 4
            for i in local:
                vec[i] = field.random_element(rng)
            direct = f.evaluate([c + v for c, v in zip(P.coords, vec)])
            assert jet.evaluate(vec) == direct


def test_local_jet_truncates():
    f = MultiPoly.parse("x^3+y^3+z^3", QQ)
    P = ProjPoint(QQ, [0, 0, 0, 1])
    assert not local_jet(Surface(f), P, 2)  # all terms have local degree 3
    assert local_jet(Surface(f), P, 3) == f
    # at (1:0:0:1) the chart is x; w, translated to 1, is local
    Q = ProjPoint(QQ, [1, 0, 0, 1])
    assert local_jet(MultiPoly.parse("w^3", QQ), Q, 1) == MultiPoly.parse(
        "1+3*w", QQ)


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


def test_multiplicity_four_is_reported():
    # a zero order-3 jet is a point of multiplicity at least 4, not a point
    # off the surface
    X = Surface(MultiPoly.parse("x^4+y^4+z^4", F31))
    P = ProjPoint(F31, [0, 0, 0, 1])
    with pytest.raises(CertificationFailure) as exc:
        certify_ordinary_triple_point(X, P)
    assert exc.value.reason == "multiplicity"
    assert exc.value.info["multiplicity"] == multiplicity(X, P) == 4
    (info,) = certify(X).to_json()["points"]
    assert info["coords"] == P.to_json()
    assert (info["multiplicity"], info["failure"]) == (4, "multiplicity")


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


def fresh_hilbert(X, k_max):
    """h(0..k_max) from a fresh Macaulay rank in each degree: the oracle
    for the incremental pass of jacobian_hilbert and _settle."""
    field, partials = X.field, singular._jacobian(X)
    return [num_monomials(k) - (rank(field, singular._macaulay(
        field, partials, k)) if k >= X.degree - 1 and partials else 0)
        for k in range(k_max + 1)]


def random_surface(rng, field, degree, nterms):
    terms, mons = {}, exponents_of_degree(degree)
    for e in rng.sample(mons, min(nterms, len(mons))):
        terms[e] = field.random_element(rng)
    terms[e] = field.one  # the last term is never zero
    return Surface(MultiPoly(field, terms))


@pytest.mark.parametrize("field", [
    Field.GF(2), Field.GF(3), Field.GF(13), Field.GF(101),
    Field.GF(2147483647), Field.GF(3, 2), Field.GF(5, 2), QQ],
    ids=lambda F: F.tag)
def test_incremental_hilbert_matches_fresh_ranks(field):
    # each degree's echelon form is built from the previous one's; every
    # value must equal a rank computed from scratch
    numeric = field.kind == "GF"
    rng = random.Random(field.order if field.kind != "QQ" else 0)
    for degree in range(2, 7):
        # FieldElement ranks are slow: over QQ and GF(p^2) only sparse
        # surfaces, and the first three degrees that have rows
        nterms = rng.randint(2, 12 if numeric else 6)
        k_max = 10 if numeric else degree + 1
        X = random_surface(rng, field, degree, nterms)
        assert jacobian_hilbert(X, k_max) == fresh_hilbert(X, k_max), (
            str(X.f), field.tag)


def test_incremental_hilbert_goes_degree_by_degree():
    X = Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F31))
    echelon = singular._Echelon(F31)
    partials = singular._jacobian(X)
    assert singular._hilbert_value(F31, partials, 3, 0, echelon) == 1
    with pytest.raises(ValueError, match="degree by degree"):
        singular._hilbert_value(F31, partials, 3, 2, echelon)


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
    evidence = {}
    res = singular_scheme_degree(X, evidence=evidence)
    assert res["hilbert"][:6] == [1, 4, 7, 8, 8, 8]
    assert res.get("degree") == 8
    # h(5) = h(4) and the plane w + x + y + z certifies at degree 4 (not
    # at 3, where xyz survives), so the regularity rule, tried first,
    # proves the degree where the plateau rule would only guess it
    assert res["hilbert"] == [1, 4, 7, 8, 8, 8, 8]
    assert evidence == {"method": "regularity", "proven": True,
                        "plane": "x+y+z+w", "regular_from": 4,
                        "computed_to": 5}


@pytest.mark.parametrize("build, hilbert", [
    (fam.sextic_ten_gf31,
     [1, 4, 10, 20, 35, 52, 68, 80, 85, 81, 80, 80, 80]),
    (lambda: fam.septic_s4(Field.GF(101), 1, 2),
     [1, 4, 10, 20, 35, 56, 80, 104, 125, 140, 146, 140, 131, 128, 128, 128]),
], ids=["ten-point-sextic", "septic-s4-gf101"])
def test_singular_scheme_full_hilbert_sequence(build, hilbert):
    # every middle value is a Macaulay rank mod p; a wrong one would not
    # show in the final degree
    X = build()
    res = singular_scheme_degree(X)
    assert res == {"degree": hilbert[-1], "hilbert": hilbert}
    # the last value is proven, not computed
    assert fresh_hilbert(X, len(hilbert) - 2) == hilbert[:-1]


def test_regularity_certificate_is_sound():
    # whenever the plane check fires at K, the Hilbert function computed
    # directly is constant from K-1 on and matches the returned list, its
    # proven last value included
    rng = random.Random(20261018)
    fired = 0
    for _ in range(60):
        F = Field.GF(rng.choice([5, 7, 11, 13]))
        mons = exponents_of_degree(rng.randint(3, 5))
        terms = {e: F(rng.randrange(1, F.p))
                 for e in rng.sample(mons, rng.randint(2, 8))}
        X = Surface(MultiPoly(F, terms))
        how = {}
        res = singular_scheme_degree(X, k_max=6, evidence=how)
        if how["method"] != "regularity":
            continue
        fired += 1
        K = how["computed_to"]
        assert how["regular_from"] == K - 1
        h = fresh_hilbert(X, K + 3)
        assert h[K - 1:] == [h[K]] * 5, (str(X.f), F.tag)
        assert res["hilbert"] == h[:K + 2]
    assert fired >= 15


@pytest.mark.parametrize("field", [F31, QQ, Field.GF(5, 2)],
                         ids=lambda F: F.tag)
def test_macaulay_matrix_rows_are_monomial_multiples(field):
    f = MultiPoly.parse("3*x^4*w-x*y*z*w^2+2*y^2*w^3+z^5-x^2*y^3+7*w^5",
                        field)
    for k in (4, 6):
        mac = singular._macaulay(field, singular._jacobian(Surface(f)), k)
        expected = [[(m * g).terms.get(e, field.zero)
                     for e in exponents_of_degree(k)]
                    for g in f.gradient() if g
                    for m in (MultiPoly(field, {e: field.one})
                              for e in exponents_of_degree(k - 4))]
        assert [[field(int(v)) if field == F31 else v for v in row]
                for row in mac.tolist()] == expected


@pytest.mark.parametrize("field", [F31, QQ, Field.GF(5, 2)],
                         ids=lambda F: F.tag)
def test_plane_restriction_matches_substitution(field):
    f = MultiPoly.parse("3*x^4*w-x*y*z*w^2+2*y^2*w^3+z^5-x^2*y^3+7*w^5",
                        field)
    x, y, z, w = (MultiPoly(field, {e: field.one}) for e in
                  ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def poly(g):
        # (exps, vals) in 3 or 4 variables as a MultiPoly in x, y, z, w
        return MultiPoly(field, {
            tuple(map(int, e)) + (0,) * (4 - len(e)):
            v if isinstance(v, type(field.one)) else field(int(v))
            for e, v in zip(*g)})
    partials = singular._jacobian(Surface(f))
    assert [poly(g) for g in partials] == [g for g in f.gradient() if g]
    for i in range(1, 5):
        on_plane = [x, y, z, (x * i + y * i**2 + z * i**3) * -1]
        expected = [g.substitute(on_plane) for g in f.gradient()]
        assert ([poly(g) for g in singular._restrict(field, partials, i)]
                == [g for g in expected if g])


def test_regularity_certificate_is_checked_one_degree_below():
    # h(5) = h(4) = 19 and (R/(J + l))_5 = 0 for l = x+y+z+w, yet h(6) = 18:
    # only a zero cokernel at degree K-1 = 4 would prove the plateau
    X = Surface(MultiPoly.parse("7*x^3*z+x*y*z^2+3*x*z^3+10*y*z^3+4*z^4"
                                "+10*z^3*w+10*w^4", Field.GF(11)))
    how = {}
    res = singular_scheme_degree(X, evidence=how)
    assert res == {"degree": 18, "hilbert": [1, 4, 10, 16, 19, 19, 18, 18, 18]}
    assert how["regular_from"] == 6 and how["computed_to"] == 7


def _counted(monkeypatch):
    ks = []
    value = singular._hilbert_value

    def counting(*args):
        ks.append(args[3])
        return value(*args)
    monkeypatch.setattr(singular, "_hilbert_value", counting)
    return ks


@pytest.mark.parametrize("build, k_last, plane", [
    (fam.sextic_ten_gf31, 11, "x+y+z+w"),
    (lambda: fam.septic_s4(Field.GF(101), 1, 2), 14, "x+y+z+w"),
    # the planes for i = 1, 2 meet its singular points
    (lambda: fam.sextic_k3_228(F31, F31(3)), 12, "3*x+9*y+27*z+w"),
], ids=["ten-point-sextic", "septic-s4-gf101", "k3-228-gf31"])
def test_regularity_certificate_skips_the_last_rank(monkeypatch, build,
                                                    k_last, plane):
    X = build()
    ks = _counted(monkeypatch)
    how = {}
    res = singular_scheme_degree(X, evidence=how)
    assert ks == list(range(k_last + 1))
    assert how == {"method": "regularity", "proven": True, "plane": plane,
                   "regular_from": k_last - 1, "computed_to": k_last}
    assert len(res["hilbert"]) == k_last + 2
    assert res["hilbert"][-1] == res["hilbert"][-2] == res["degree"]


def test_no_certificate_on_a_positive_dimensional_locus(monkeypatch):
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3", F31))
    ks = _counted(monkeypatch)
    how = {}
    res = singular_scheme_degree(X, evidence=how)
    assert res == {"verdict": "positive-dimensional", "hilbert":
                   [1, 4, 8, 13, 19, 26, 34, 43, 53, 64, 76, 89, 103]}
    assert ks == list(range(13))
    assert how == {"method": "growth", "proven": False, "computed_to": 12}


def test_regularity_certificate_over_the_rationals(monkeypatch):
    # the same dict as the plateau rule, without the Fraction rank at k = 9
    X, _ = triple_point_quartic(QQ)
    ks = _counted(monkeypatch)
    how = {}
    res = singular_scheme_degree(X, evidence=how)
    assert res == {"degree": 8,
                   "hilbert": [1, 4, 10, 16, 19, 16, 11, 8, 8, 8]}
    assert ks == list(range(9))
    assert how["method"] == "regularity" and how["regular_from"] == 7


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
    # the dimension is stable across fields of good characteristic, on the
    # mod-p annihilator path (GF(p)) and the object path (QQ, GF(p^2))
    for field in (F31, QQ, Field.GF(5, 2), Field.GF(2147483647)):
        X, P = triple_point_quartic(field)
        assert equisingular_tangent_dimension(X, [P]) == 27, field


def test_kernel_mod_p_matches_kernel_basis():
    # the annihilators of the tangent dimension come from rref_mod_p over
    # GF(p); they must be the vectors the generic elimination gives, in
    # its order: 1 at the free column, minus the reduced entries at the
    # pivots
    rng = random.Random(11)
    for field in (F7, F31, Field.GF(2147483647)):
        for _ in range(25):
            shape = (rng.randint(1, 6), rng.randint(1, 12))
            mat = np.array([[rng.randrange(field.p) if rng.random() < 0.5
                             else 0 for _ in range(shape[1])]
                            for _ in range(shape[0])], dtype=np.int64)
            mat[rng.randrange(shape[0])] = 0
            rows = [[field(int(v)) for v in row] for row in mat]
            pivots = _rref_generic(field, rows)
            expect = []
            for j in range(shape[1]):
                if j not in pivots:
                    v = [field.zero] * shape[1]
                    v[j] = field.one
                    for r, c in enumerate(pivots):
                        v[c] = -rows[r][j]
                    expect.append(v)
            got = kernel_basis(field, mat)
            assert got.dtype == np.int64
            assert [[field(int(v)) for v in row] for row in got] == expect


CONE_FIELDS = [F7, F31, Field.GF(2147483647), Field.GF(5, 2), QQ]


@pytest.mark.parametrize("field", CONE_FIELDS,
                         ids=["GF7", "GF31", "GF2147483647", "GF25", "QQ"])
def test_cone_map_matches_macaulay_of_partials(field):
    # the fixed map from a cubic's coefficients gives the degree-4
    # Macaulay matrix of its partials, with zero rows for zero partials
    rng = random.Random(19)
    cubics = exponents_of_degree(3, 3)
    cones = [{(3, 0, 0): field.one}, {(2, 1, 0): field.one},
             {(1, 1, 1): field.one, (3, 0, 0): field.one}]
    cones += [{e: field.random_element(rng)
               for e in rng.sample(cubics, rng.randint(1, 10))}
              for _ in range(30)]
    ranks = []
    for cone in cones:
        cone = {e: c for e, c in cone.items() if c}
        if not cone:
            continue
        partials = singular._partials(field, *singular._arrays(field, cone))
        mac = singular._macaulay(field, partials, 4)
        coeffs = singular._values(field, [cone.get(e, field.zero)
                                          for e in cubics])
        mapped = singular._dot(field, coeffs, singular._CONE_MAP)
        if len(partials) == 3:
            assert (mapped.reshape(18, 15) == mac).all()
        ranks.append(singular._cone_smooth_rank(field, coeffs))
        assert ranks[-1] == rank(field, mac)
    # x^3, x^2*y and xyz + x^3 are singular cones; random ones are smooth
    assert ranks[:3] == [6, 9, 13]
    assert 15 in ranks


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
    assert report.to_json()["degree_evidence"] == {
        "method": "skipped", "proven": False,
        "reason": "rational field; pass --hilbert"}


def test_certify_report_failure():
    X = Surface(MultiPoly.parse("x^3*w+y^4", F31))
    report = certify(X, points=[ProjPoint(F31, [0, 0, 0, 1])],
                     hilbert=False)
    data = report.to_json()
    assert data["verdict"] == "failed"
    assert data["points"][0]["failure"] == "tangent cone singular"
    assert (data["points"][0]["multiplicity"],
            data["points"][0]["smooth_rank"]) == (3, 6)
    assert data["degree_evidence"] == {"method": "skipped", "proven": False,
                                       "reason": "not requested"}


def test_certify_positive_dimensional_verdict():
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3", F31))
    report = certify(X, points=[])
    assert report.to_json()["verdict"] == "positive-dimensional-singular-locus"


@pytest.mark.parametrize("field,f", [
    (Field.GF(3), "x^4+y^4+z^4+w^4"),
    (Field.GF(2), "x^3+y^3+z^3+w^3"),
])
def test_no_points_need_no_point_certificate_in_char_2_3(field, f):
    # the Hilbert evidence works for p < 5; only a point's cone test does not
    X = Surface(MultiPoly.parse(f, field))
    for points in (None, []):
        doc = certify(X, points=points).to_json()
        assert doc["points"] == []
        assert doc["expected_degree"] == 0
        assert doc["verdict"] == "certified-exact"
    n = num_monomials(X.degree, 4)
    assert singular.equisingular_tangent_dimension(X, []) == n - 1
    P = ProjPoint(field, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="not a declared triple point"):
        fam.reciprocal_family(X, [P] * 4, [2, 2, 2], "none")


# -- the batched point pass against a per-point oracle ------------------

def _linear_through(rng, field, P):
    """A random linear form vanishing at P (P's chart coordinate is 1)."""
    c = [field.random_element(rng) for _ in range(4)]
    c[P.chart] = c[P.chart] - sum((a * b for a, b in zip(c, P.coords)),
                                  field.zero)
    return MultiPoly(field, {tuple(int(i == j) for j in range(4)): a
                             for i, a in enumerate(c)})


def _random_form(rng, field, k):
    return MultiPoly(field, {e: field.random_element(rng)
                             for e in exponents_of_degree(k)})


def _designed_surface(rng, field, P, kind, d=4):
    """A degree-d surface with multiplicity kind (0..4) at P, or with a
    singular tangent cone l1^2 * l2 there (kind "cone")."""
    def through(m):
        f = MultiPoly.zero(field)
        for _ in range(3):
            g = _random_form(rng, field, d - m)
            for _ in range(m):
                g = g * _linear_through(rng, field, P)
            f = f + g
        return f
    if kind == "cone":
        l1, l2 = (_linear_through(rng, field, P) for _ in range(2))
        return l1 * l1 * l2 * _random_form(rng, field, d - 3) + through(4)
    return through(kind)


def _random_point(rng, field):
    chart = rng.randrange(4)
    return ProjPoint(field, [0] * chart + [1] + [
        field.random_element(rng) for _ in range(3 - chart)])


def _oracle(X, P):
    """Per-point certification by substitution: ("ok", cone),
    ("multiplicity", m) or ("tangent cone singular", rank)."""
    field = X.field
    images = [MultiPoly.constant(field, c) if i == P.chart else
              MultiPoly.constant(field, c) + MultiPoly.variable(field, i)
              for i, c in enumerate(P.coords)]
    local = X.f.substitute(images)
    m = min(map(sum, local.terms))
    if m != 3:
        return ("multiplicity", m)
    cone = {e: c for e, c in local.terms.items() if sum(e) == 3}
    triples = {e[:P.chart] + e[P.chart + 1:]: c for e, c in cone.items()}
    partials = singular._partials(field, *singular._arrays(field, triples))
    r = rank(field, singular._macaulay(field, partials, 4))
    if r != 15:
        return ("tangent cone singular", r)
    return ("ok", MultiPoly(field, cone))


def _outcome(cert):
    if isinstance(cert, CertificationFailure):
        return (cert.reason, cert.info["rank"] if "rank" in cert.info
                else cert.info["multiplicity"])
    assert (cert.multiplicity, cert.smooth_rank) == (3, 15)
    return ("ok", cert.tangent_cone)


@pytest.mark.parametrize("field", [Field.GF(5), Field.GF(101),
                                   Field.GF(2147483647), Field.GF(5, 2), QQ],
                         ids=["GF5", "GF101", "GF2147483647", "GF25", "QQ"])
def test_certify_points_matches_the_per_point_oracle(field):
    rng = random.Random(field.order if field.char else 0)
    seen = set()
    for kind in (0, 1, 2, 3, 3, 3, 3, 4, "cone"):
        P = _random_point(rng, field)
        X = Surface(_designed_surface(rng, field, P, kind))
        points = [_random_point(rng, field) for _ in range(4)] + [P]
        rng.shuffle(points)
        want = [_oracle(X, Q) for Q in points]
        got = singular._certify_points(X, points, check=False)
        assert [_outcome(c) for c in got] == want
        assert [c.point for c in got] == points
        seen.update(w[1] if w[0] == "multiplicity" else w[0] for w in want)
        # with check, the first failure in list order is raised
        failures = [c for c in got if isinstance(c, CertificationFailure)]
        if failures:
            with pytest.raises(CertificationFailure) as exc:
                singular._certify_points(X, points)
            assert str(exc.value) == str(failures[0])
            assert exc.value.point == failures[0].point
    assert {0, 1, 2, "ok", "tangent cone singular"} <= seen
    assert any(isinstance(m, int) and m >= 4 for m in seen)


def test_certify_points_edge_cases():
    X, P = triple_point_quartic(F31)
    assert singular._certify_points(X, []) == []
    # the one-point case and the batch agree, also with P twice
    one = certify_ordinary_triple_point(X, P)
    a, b = singular._certify_points(X, [P, P])
    assert (a.tangent_cone, b.smooth_rank) == (one.tangent_cone, 15)
    with pytest.raises(ValueError):
        singular._certify_points(Surface(MultiPoly.parse("x^3+y^3+z^3+w^3",
                                                         Field.GF(3, 2))),
                                 [ProjPoint(Field.GF(3, 2), [0, 0, 0, 1])])


def test_jets_in_chunks_match_one_batch(monkeypatch):
    # the points go through _jet_matrix in chunks; one point per chunk
    # must give the same array, and each row is that point's local_jet
    rng = random.Random(5)
    X, P = triple_point_quartic(F31)
    points = [P] + [_random_point(rng, F31) for _ in range(12)]
    f = [singular._arrays(F31, X.f.terms)]
    whole = singular._jets(F31, points, f, 3)
    monkeypatch.setattr(singular, "_BATCH_CELLS", 1)
    assert np.array_equal(singular._jets(F31, points, f, 3), whole)
    for Q, row in zip(points, whole[:, 0].tolist()):
        cols = singular._embed(Q.chart, 3)
        assert local_jet(X, Q, 3) == MultiPoly(
            F31, {e: F31(v) for e, v in zip(cols, row)})
