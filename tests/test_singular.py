import collections
import itertools
from fractions import Fraction
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triplepoints import families as fam, gfnum, singular
from triplepoints.constructions import forms_with_multiplicity
from triplepoints.fields import Field, FieldElement
from triplepoints.linalg import kernel_basis, rank, rref, _elements, _nonzero
from triplepoints.poly import MultiPoly, exponents_of_degree, num_monomials
from triplepoints.surfaces import ProjPoint, Surface
from triplepoints.singular import (CertificationFailure, local_jet,
                                   multiplicity, certify_ordinary_triple_point,
                                   common_projective_zeros,
                                   enumerate_singular_points,
                                   jacobian_hilbert, singular_scheme_degree,
                                   equisingular_tangent_dimension, certify)

from helpers import _rref_generic

QQ = Field.QQ()
F7 = Field.GF(7)
F31 = Field.GF(31)
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


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


def test_certify_rejects_wrong_multiplicity():
    X, _ = triple_point_quartic(QQ)
    with pytest.raises(CertificationFailure) as exc:
        certify_ordinary_triple_point(X, ProjPoint(QQ, [0, 1, -1, 0]))
    assert exc.value.reason == "multiplicity"
    with pytest.raises(CertificationFailure, match="multiplicity"):
        certify_ordinary_triple_point(X, ProjPoint(QQ, [1, 0, 0, 0]))


def test_multiplicity_four_is_reported():
    # a zero order-3 jet is a point of multiplicity at least 4, not a point
    # off the surface
    X = Surface(MultiPoly.parse("x^4+y^4+z^4", F31))
    P = ProjPoint(F31, [0, 0, 0, 1])
    with pytest.raises(CertificationFailure) as exc:
        certify_ordinary_triple_point(X, P)
    assert exc.value.reason == "multiplicity"
    assert exc.value.info["multiplicity"] == multiplicity(X, P) == 4
    (info,) = certify(X)["points"]
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

F2 = Field.GF(2)
F3 = Field.GF(3)
F5 = Field.GF(5)
F9 = Field.GF(3, 2)


def _all_points(field):
    elems = list(field.elements())
    return [ProjPoint(field, [0] * chart + [1] + list(tail))
            for chart in range(4)
            for tail in itertools.product(elems, repeat=3 - chart)]


ALL_POINTS = {F.tag: _all_points(F) for F in (F2, F3, F5, F9)}


def arrays(polys):
    """The sweep's (exps, vals) input for MultiPolys, the zero polynomial
    as the constant 0."""
    return [singular._arrays(g.field, g.terms or {(0, 0, 0, 0): g.field.zero})
            for g in polys]


def assert_sweep_matches_pointwise(polys, field):
    expected = sorted((P for P in ALL_POINTS[field.tag]
                       if not any(g.evaluate(P.coords) for g in polys)),
                      key=ProjPoint.sort_key)
    assert common_projective_zeros(arrays(polys), field) == expected


@st.composite
def form_lists(draw, field, max_degree=3, max_terms=5):
    """1-3 homogeneous forms of degrees 0-max_degree with at most
    max_terms terms, some divisible by x."""
    x = MultiPoly.variable(field, 0)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, max_degree))
        terms = draw(st.dictionaries(
            st.sampled_from(exponents_of_degree(d)),
            st.sampled_from(list(field.elements())), min_size=1,
            max_size=max_terms))
        g = MultiPoly(field, terms)
        polys.append(g * x if d and draw(st.booleans()) else g)
    return polys


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F5, F9]).flatmap(
    lambda F: st.tuples(st.just(F), form_lists(F))))
def test_sweep_matches_pointwise_evaluation(case):
    field, polys = case
    assert_sweep_matches_pointwise(polys, field)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F5, F9]).flatmap(
    lambda F: st.tuples(st.just(F), form_lists(F, 5, 8))))
def test_sweep_matches_pointwise_evaluation_up_to_degree_five(case):
    # exponents up to 5 exceed q - 1 = 4 over F5, and up to 8 terms leave
    # more than one polynomial to evaluate at the survivors
    field, polys = case
    assert_sweep_matches_pointwise(polys, field)


@pytest.mark.parametrize("field", [F2, F3, F5, F9], ids=lambda F: F.tag)
@pytest.mark.parametrize("factors, locus", [
    # in (x, y)^2: f and its partials vanish on the line x = y = 0
    (["x^2*y^3+x^2*z^2*w+3*x*y*z^3+y^2*w^3+x^5+2*y^4*z"], 1),
    # (x - y)^2 times a cubic: singular along the plane x = y, which
    # meets every chart, so many points survive every polynomial
    (["x-y", "x-y", "x^3+y*z*w+2*z^3+w^3"], 2),
])
def test_sweep_keeps_a_singular_locus(factors, locus, field):
    f = MultiPoly.parse(factors[0], field)
    for text in factors[1:]:
        f = f * MultiPoly.parse(text, field)
    polys = [f] + [g for g in f.gradient() if g]
    q = field.order
    found = common_projective_zeros(arrays(polys), field)
    assert len(found) >= sum(q**i for i in range(locus + 1))
    assert_sweep_matches_pointwise(polys, field)


@pytest.mark.parametrize("text", [
    # (x^2+y^2)(z^2+w^2): four planes x = +-iy, z = +-iw (i^2 = -1, in F9
    # only), singular along their six lines, four of them not over F3
    "x^2*z^2+x^2*w^2+y^2*z^2+y^2*w^2",
    "x^3+y^3+z^2*w+x*y*w",        # p divides the degree
    "x^4+2*x^2*y^2+y^4+z^3*w+x*y*z*w",
    "x*y*z*w+x^4+y^4+z^4+w^4",
])
def test_enumerate_over_the_quadratic_extension_matches_pointwise(text):
    X = Surface(MultiPoly.parse(text, F3))
    big = F3.extension()
    assert big == F9
    polys = [MultiPoly(big, {e: big.lift(c) for e, c in g.terms.items()})
             for g in [X.f] + X.f.gradient()]
    expected = sorted((P for P in ALL_POINTS[big.tag]
                       if not any(g.evaluate(P.coords) for g in polys)),
                      key=ProjPoint.sort_key)
    assert enumerate_singular_points(X, e=2) == expected


@pytest.mark.parametrize("field", [F2, F3, F5, F9], ids=lambda F: F.tag)
@pytest.mark.parametrize("texts", [
    ["x", "y^2-z*w"],        # every zero lies at infinity (x = 0)
    ["x*y", "x*z+x*w"],      # vanish identically on the charts x = 0
    ["x^2+y^2", "3"],        # a nonzero constant has no zeros
    ["0"],                   # the zero polynomial vanishes everywhere
])
def test_sweep_edge_cases_match_pointwise(texts, field):
    polys = [MultiPoly.parse(t, field) for t in texts]
    assert_sweep_matches_pointwise(polys, field)


@pytest.mark.parametrize("p", [2, 3, 101, 67108859])
def test_divisibility_without_division_matches_modulo(p):
    # the sweep tests its exact sums, all below 2^53, for p | v; 67108859
    # is the largest p with 2 * (p-1)^2 < 2^53, the sweep's bound at d = 1
    rng = np.random.default_rng(p)
    top = 2**53 // p
    v = np.concatenate([
        rng.integers(0, 2**53, 20000), np.arange(min(5 * p, 20000)),
        p * rng.integers(0, top, 20000), p * (top - np.arange(50)),
        p * (top - np.arange(50)) + 1, 2**53 - 1 - np.arange(200)])
    assert np.array_equal(gfnum._divisible(v, p), v % p == 0)


def test_sweep_chart_matches_evaluation_over_gf101():
    # on the chart (0, 1, z, w) the whole-grid step's sums reach 7 * 100^2;
    # the zeros of f*l1 and f*l2 are the curve f = 0 and the point l1 =
    # l2 = 0
    F101 = Field.GF(101)
    rng = random.Random(101)
    f = MultiPoly(F101, {e: F101.random_element(rng)
                         for e in rng.sample(exponents_of_degree(5), 12)})
    lines = [MultiPoly.parse(t, F101) for t in ("x+y+2*z", "3*x+w")]
    t = np.arange(101)
    powers = [t**0]
    for _ in range(5):
        powers.append(powers[-1] * t % 101)

    def on_chart(g):  # g(0, 1, z, w) on the grid, by plain evaluation
        return sum(int(c) * powers[e[2]][:, None] * powers[e[3]][None, :]
                   for e, c in g.terms.items() if not e[0]) % 101

    zero = (on_chart(f) == 0) | (on_chart(lines[0]) == 0) & (
        on_chart(lines[1]) == 0)
    got = gfnum.sweep_chart(arrays([f * g for g in lines]), 1, 101)
    assert got.tolist() == np.argwhere(zero).tolist()
    assert len(got) > 101


def test_sweep_refuses_int64_overflow():
    # (d+1) * (p-1)^2 >= 2^63 for d = 10^15: refused before any table
    # of d+1 powers is built
    with pytest.raises(ValueError, match="overflow"):
        gfnum.sweep_chart([(np.array([[0, 0, 0, 10**15]]), np.array([1]))],
                          0, 181)


def test_sweep_refuses_sums_beyond_float64_integers():
    # the contractions run in float64: (d+1) * (p-1)^2 * (1+n) must stay
    # below 2^53.  p - 1 = 2^26 + 14 with d = 1, and over GF(p^2) p - 1 =
    # 2^25 + 34 with d = 2 and n = 2, break it (below 2^63): refused
    # before any table is built
    with pytest.raises(ValueError, match="overflow"):
        gfnum.sweep_chart([(np.array([[0, 1, 0, 0]]), np.array([1]))],
                          0, 67108879)
    with pytest.raises(ValueError, match="overflow"):
        gfnum.sweep_chart([(np.array([[0, 0, 2, 0]]), np.array([[1, 0]]))],
                          1, 33554467, nonresidue=2)


def scheme_ideal(X):
    """The generators of J for the oracles, from MultiPoly.gradient: the
    nonzero partials, and f when p divides d, the ideal of the pass."""
    p, f = X.field.char, X.f
    gens = [g for g in f.gradient() if g] + [f] * bool(p and X.degree % p == 0)
    return [singular._arrays(X.field, g.terms) for g in gens]


def fresh_hilbert(X, k_max):
    """h(0..k_max) from a fresh Macaulay rank of J + (f) in each degree
    (scheme_ideal): the oracle for the incremental pass of
    jacobian_hilbert and singular_scheme_degree."""
    field, gens = X.field, scheme_ideal(X)
    return [num_monomials(k) - (rank(field, singular._macaulay(
        field, gens, k)) if k >= X.degree - 1 else 0)
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


@pytest.mark.parametrize("field", [F31, Field.GF(5, 2), QQ],
                         ids=lambda F: F.tag)
def test_echelon_is_the_reduced_form_of_a_fresh_macaulay_matrix(field):
    # after every degree the kept form, its pivots, free columns and
    # block, is the RREF of J's Macaulay matrix built from scratch, its
    # columns in the order [w-free monomials | w * the order of degree
    # k-1]; covered says that every w-free column is a pivot
    numeric = field.kind == "GF"
    rng = random.Random(field.order if field.kind != "QQ" else 0)
    for degree in range(2, 7):
        X = random_surface(rng, field, degree,
                           rng.randint(2, 12 if numeric else 6))
        partials, echelon = singular._jacobian(X), singular._Echelon(field)
        order = np.zeros(0, dtype=np.int64)
        for k in range(10 if numeric else degree + 1):
            singular._hilbert_value(field, partials, degree, k, echelon)
            w = singular._exponents(k)[:, -1]
            lead = np.flatnonzero(w == 0)
            order = np.concatenate([lead, np.flatnonzero(w)[order]])
            n = num_monomials(k)
            red, pivots = (rref(field, singular._macaulay(
                field, partials, k)[:, order])
                           if k >= degree - 1 and partials
                           else (singular._zeros(field, (0, n)), []))
            free = [j for j in range(n) if j not in pivots]
            # the kept rows, in the order of their pivots' columns
            rows = np.argsort(np.argsort(order)[echelon.pivots])
            assert echelon.pivots[rows].tolist() == order[pivots].tolist(), (
                str(X.f), k)
            assert echelon.free.tolist() == order[free].tolist(), (
                str(X.f), k)
            assert np.array_equal(echelon.block[rows],
                                  red[:len(pivots)][:, free]), (str(X.f), k)
            assert echelon.covered == set(range(len(lead))).issubset(
                pivots), (str(X.f), k)


def test_jacobian_hilbert_fermat_sextic():
    # R/(x^5, y^5, z^5, w^5): Hilbert series (1+t+t^2+t^3+t^4)^4
    X = Surface(MultiPoly.parse("x^6+y^6+z^6+w^6", F7))
    h = jacobian_hilbert(X, 20)
    block = np.ones(5, dtype=int)
    series = np.convolve(np.convolve(block, block),
                         np.convolve(block, block))
    expected = list(series) + [0] * (21 - len(series))
    assert h == expected


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_singular_scheme_degree_needs_k_max_at_least_degree(d):
    # below degree d - 1 J has no generators yet: a smaller k_max is
    # refused, not answered with the Hilbert function of R
    X = Surface(MultiPoly.parse("+".join(f"{v}^{d}" for v in "xyzw"), F31))
    with pytest.raises(ValueError, match="k_max must be at least"):
        jacobian_hilbert(X, d - 2)


def test_singular_scheme_degree_computes_past_k_max():
    # h reaches 0 at k = 5; the regularity certificate fires at 6
    X = Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F31))
    res = singular_scheme_degree(X)
    assert res == {
        "degree": 0, "hilbert": [1, 4, 6, 4, 1, 0, 0, 0],
        "evidence": {"method": "regularity", "proven": True,
                     "plane": "x+y+z+w", "regular_from": 5,
                     "computed_to": 6}}


@pytest.mark.parametrize("d", range(2, 8))
def test_lazard_bound_is_attained_by_the_fermat_surfaces(d):
    # J = (x^(d-1), y^(d-1), z^(d-1), w^(d-1)): the last nonzero value of
    # h is at 4(d - 2) = 4d - 8, and h is its degree 0 from 4d - 7 on,
    # the bound the positive-dimensional verdict rests on.  4d is also
    # the default k_max
    X = Surface(MultiPoly.parse("+".join(f"{v}^{d}" for v in "xyzw"), F31))
    h = jacobian_hilbert(X)
    assert len(h) == 4 * d + 1 and h == jacobian_hilbert(X, 4 * d)
    assert h[4 * d - 8] == 1
    assert h[4 * d - 7:] == [0] * 8


def test_singular_scheme_degree_refuses_a_constant():
    with pytest.raises(ValueError, match="degree at least 1"):
        singular_scheme_degree(Surface(MultiPoly.parse("3", F31)))


def test_singular_scheme_degree_smooth():
    X = Surface(MultiPoly.parse("x^2+y^2+z^2+w^2", F31))
    res = singular_scheme_degree(X)
    assert res["degree"] == 0


def test_singular_scheme_degree_fermat_sextic_by_regularity():
    X = Surface(MultiPoly.parse("x^6+y^6+z^6+w^6", F31))
    res = singular_scheme_degree(X)
    assert res["degree"] == 0
    assert res["evidence"] == {"method": "regularity", "proven": True,
                               "plane": "x+y+z+w", "regular_from": 17,
                               "computed_to": 18}


def test_singular_scheme_degree_triple_point():
    X, P = triple_point_quartic(F31)
    res = singular_scheme_degree(X)
    # one ordinary triple point contributes 8 to the Jacobian scheme
    assert res["degree"] == 8


def test_singular_scheme_cubic_cone_by_regularity():
    # Jacobian ring k[x,y,z,w]/(x^2,y^2,z^2) has constant Hilbert value 8
    X = Surface(MultiPoly.parse("x^3+y^3+z^3", F31))
    res = singular_scheme_degree(X)
    assert res["hilbert"][:6] == [1, 4, 7, 8, 8, 8]
    assert res.get("degree") == 8
    # h(5) = h(4) and the plane w + x + y + z certifies at degree 4 (not
    # at 3, where xyz survives): J is 4-regular
    assert res["hilbert"] == [1, 4, 7, 8, 8, 8, 8]
    assert res["evidence"] == {"method": "regularity", "proven": True,
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
    assert (res["degree"], res["hilbert"]) == (hilbert[-1], hilbert)
    # the last value is proven, not computed
    assert fresh_hilbert(X, len(hilbert) - 2) == hilbert[:-1]


def test_regularity_certificate_is_sound():
    # whenever the plane check fires at K, the Hilbert function computed
    # directly is constant from K-1 on, and from 4d - 7 on (Lazard's
    # bound; 4d - 6 when p divides d and f is a generator), and matches
    # the returned list, its proven last value included; a lazard verdict
    # is reached two degrees past that bound with h not constant there
    rng = random.Random(20261018)
    methods = collections.Counter()
    for _ in range(60):
        F = Field.GF(rng.choice([5, 7, 11, 13]))
        d = rng.randint(3, 5)
        mons = exponents_of_degree(d)
        terms = {e: F(rng.randrange(1, F.p))
                 for e in rng.sample(mons, rng.randint(2, 8))}
        X = Surface(MultiPoly(F, terms))
        res = singular_scheme_degree(X)
        how = res["evidence"]
        methods[how["method"]] += 1
        lazard = 4 * d - 7 + (d % F.p == 0)
        if how["method"] == "lazard":
            assert how["computed_to"] == lazard + 2
            assert len(set(res["hilbert"][lazard:])) > 1, str(X.f)
            continue
        K = how["computed_to"]
        assert how["regular_from"] == K - 1
        top = max(K, lazard) + 3
        h = fresh_hilbert(X, top)
        assert h[K - 1:] == [h[K]] * (top - K + 2), (str(X.f), F.tag)
        assert len(set(h[max(0, lazard):])) == 1, (str(X.f), F.tag)
        assert res["hilbert"] == h[:K + 2]
    assert methods == {"regularity": 31, "lazard": 29}


@pytest.mark.parametrize("field", [F31, QQ, Field.GF(5, 2)],
                         ids=lambda F: F.tag)
def test_macaulay_matrix_rows_are_monomial_multiples(field):
    f = MultiPoly.parse("3*x^4*w-x*y*z*w^2+2*y^2*w^3+z^5-x^2*y^3+7*w^5",
                        field)
    # over GF(25) p divides the degree 5: f is a generator too, with no
    # rows in degree 4
    gens = [g for g in f.gradient() if g] + [f] * (field.char == 5)
    for k in (4, 6):
        mac = singular._macaulay(field, singular._jacobian(Surface(f)), k)
        expected = [[(m * g).terms.get(e, field.zero)
                     for e in exponents_of_degree(k)]
                    for g in gens
                    for m in (MultiPoly(field, {e: field.one})
                              for e in exponents_of_degree(k - g.degree()))]
        assert mac.shape[:2] == (len(expected), num_monomials(k))
        assert _elements(field, mac) == [c for row in expected for c in row]


@pytest.mark.parametrize("field, f", [
    (F31, "3*x^4*w-x*y*z*w^2+2*y^2*w^3+z^5-x^2*y^3+7*w^5"),
    (QQ, "3*x^4*w-x*y*z*w^2+2*y^2*w^3+z^5-x^2*y^3+7*w^5"),
    (Field.GF(5, 2), "3*x^4*w-x*y*z*w^2+2*y^2*w^3+z^5-x^2*y^3+7*w^5"),
    # p divides the exponents of x^5 and w^5: their terms must be dropped
    (Field.GF(5), "x^5*w+y^6+2*x*y*z^4+z^6+y*w^5+3*w^6"),
], ids=["GF:31", "QQ", "GF:5:2", "GF:5"])
def test_partials_match_gradient(field, f):
    f = MultiPoly.parse(f, field)

    def poly(g):
        # (exps, vals) as a MultiPoly in x, y, z, w
        exps, vals = g
        return MultiPoly(field, dict(zip(map(tuple, exps.tolist()),
                                         _elements(field, vals))))
    partials = singular._jacobian(Surface(f))
    # f itself follows when p divides the degree (GF:5:2, not GF:5)
    with_f = field.char and f.degree() % field.char == 0
    assert [poly(g) for g in partials] == [
        g for g in f.gradient() if g] + [f] * with_f
    assert all(_nonzero(field, v).all() for _, v in partials)


def first_regular_plane(field, partials, t, planes):
    """The first i in planes with (R/(J + l_i))_t = 0, or None, from a
    rank of the Macaulay matrix of J + l_i in all four variables, J
    generated by partials (scheme_ideal: f too when p divides d): the
    oracle for the pass's covered flag, with no echelon form and no change
    of coordinates."""
    for i in planes:
        plane = (np.eye(4, dtype=np.int64), singular._values(
            field, [field(c) for c in (i, i ** 2, i ** 3, 1)]))
        mac = singular._macaulay(field, partials + [plane], t)
        if rank(field, mac) == num_monomials(t):
            return i
    return None


@pytest.mark.parametrize("field, degrees, top", [
    (Field.GF(2), range(2, 6), 11), (Field.GF(3), range(2, 6), 11),
    (Field.GF(5), range(2, 6), 11), (Field.GF(13), range(2, 6), 11),
    (Field.GF(101), range(2, 6), 11),
    # FieldElement ranks are slow: small degrees
    (Field.GF(5, 2), range(2, 4), 5), (QQ, range(2, 4), 5),
], ids=["GF:2", "GF:3", "GF:5", "GF:13", "GF:101", "GF:5:2", "QQ"])
def test_regular_plane_matches_macaulay_rank(field, degrees, top):
    # at every degree t < top the pass in the coordinates where the first
    # plane l_i of the list is w says covered exactly when J + l_i has a
    # full four-variable Macaulay rank in degree t, never where h rises,
    # and its h is J's
    rng = random.Random(field.order if field.kind != "QQ" else 7)
    cases = [(random_surface(rng, field, d, rng.randint(2, 8)), top)
             for d in degrees for _ in range(2)]
    if field == Field.GF(101):
        # the planes i = 1, 2 meet its singular points; covered from 9
        cases.append((fam.sextic_k3_228(F31, F31(3)), 12))
    found = set()
    for X, top in cases:
        F, partials = X.field, singular._jacobian(X)
        i = (singular._planes(F, partials, X.points) or [F.char])[0]
        _, moved = singular._plane_coordinates(X.f, i)
        echelon, h = singular._Echelon(F), []
        for t in range(top):
            h.append(singular._hilbert_value(F, moved, X.degree, t, echelon))
            assert echelon.covered == (first_regular_plane(
                F, scheme_ideal(X), t, [i]) == i), (str(X.f), t)
            found.add((i, echelon.covered))
            # covered, l maps (R/J)_{t-1} onto (R/J)_t: where h rises no
            # plane is covered, and the pass tries none
            assert not (echelon.covered and t and h[t] > h[t - 1])
        assert h == jacobian_hilbert(X, top - 1), str(X.f)
    assert {c for _, c in found} == {True, False}
    if field == Field.GF(101):
        assert (3, True) in found


def test_regularity_certificate_is_checked_one_degree_below():
    # h(5) = h(4) = 19 and (R/(J + l))_5 = 0 for l = x+y+z+w, yet h(6) = 18:
    # only a zero cokernel at degree K-1 = 4 would prove h constant
    X = Surface(MultiPoly.parse("7*x^3*z+x*y*z^2+3*x*z^3+10*y*z^3+4*z^4"
                                "+10*z^3*w+10*w^4", Field.GF(11)))
    res = singular_scheme_degree(X)
    assert (res["degree"], res["hilbert"]) == (
        18, [1, 4, 10, 16, 19, 19, 18, 18, 18])
    how = res["evidence"]
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
    res = singular_scheme_degree(X)
    assert ks == list(range(k_last + 1))
    assert res["evidence"] == {"method": "regularity", "proven": True, "plane": plane,
                   "regular_from": k_last - 1, "computed_to": k_last}
    assert len(res["hilbert"]) == k_last + 2
    assert res["hilbert"][-1] == res["hilbert"][-2] == res["degree"]


def test_planes_through_a_singular_point_are_never_tried(monkeypatch):
    # l_1, l_2, l_4, l_5 and l_8 meet declared points of the k3-228 member
    # over GF(31), where J vanishes, so they cannot certify: one pass, in
    # the coordinates of l_3, the first of the list
    X = fam.sextic_k3_228(F31, F31(3))
    assert singular._planes(F31, singular._jacobian(X),
                            X.points) == [3, 6, 7, 9]
    ks = _counted(monkeypatch)
    res = singular_scheme_degree(X)
    assert ks == list(range(13))
    assert res["evidence"] == {
        "method": "regularity", "proven": True, "plane": "3*x+9*y+27*z+w",
        "regular_from": 11, "computed_to": 12}
    # with no declared points l_1 runs the pass; at k = 12, its first
    # plateau, it is not covered at 11, so l_2 and then l_3 are run to 11
    # and tried, in the order of the list, and l_3 comes to the same end
    tried = []
    real = singular._plane_coordinates
    monkeypatch.setattr(singular, "_plane_coordinates",
                        lambda f, i: tried.append(i) or real(f, i))
    ks.clear()
    assert singular_scheme_degree(Surface(X.f)) == res
    assert tried == [1, 2, 3]
    assert ks == list(range(13)) + 2 * list(range(12))


def test_a_declared_smooth_point_skips_no_plane():
    # (1:-1:0:0) lies on the Fermat cubic and on l_1 = x+y+z+w, but J
    # does not vanish there: l_1 is still tried, and certifies
    X = Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F31),
                points=[ProjPoint(F31, [1, -1, 0, 0])])
    assert singular._planes(F31, singular._jacobian(X),
                            X.points) == [1, 2, 3, 4]
    assert singular_scheme_degree(X)["evidence"]["plane"] == "x+y+z+w"


def test_the_reduction_mod_p_keeps_the_declared_points(monkeypatch):
    # the cone over the Fermat cubic with vertex P = (1 : -1/2 : -1/2 : 0),
    # on l_1: over QQ the pass runs on the reduction mod 32003, which keeps
    # P (scaled to (2 : -1 : -1 : 0)), so l_1 is never tried
    u, v, w = (MultiPoly.parse(t, QQ) for t in ("x+2*y", "x+2*z", "w"))
    X = Surface(u * u * u + v * v * v + w * w * w,
                points=[ProjPoint(QQ, [2, -1, -1, 0])])
    R = singular._reduction(X)
    assert R.points == [ProjPoint(R.field, [2, -1, -1, 0])]
    assert singular._planes(R.field, singular._jacobian(R),
                            R.points) == [2, 3, 4, 5]
    tried = []
    real = singular._plane_coordinates
    monkeypatch.setattr(singular, "_plane_coordinates",
                        lambda f, i: tried.append(i) or real(f, i))
    report = singular.certify(X)
    assert tried == [2]
    assert report["verdict"] == "certified-exact"
    assert report["degree_evidence"] == {
        "method": "tjurina", "proven": True, "plane": "2*x+4*y+8*z+w",
        "covered_from": 4, "computed_to": 4, "prime": 32003}


def test_planes_miss_every_singular_point_of_k3_228_over_gf49():
    # each of l_1..l_7 but l_6 meets one of its nine points, where J
    # vanishes: the one plane left certifies, and the degree is proven
    F49 = Field.GF(7, 2)
    X = fam.sextic_k3_228(F49, F49(2))
    assert singular._planes(F49, singular._jacobian(X), X.points) == [6]
    res = singular_scheme_degree(X)
    assert res["degree"] == 72 and len(res["hilbert"]) == 14
    assert res["evidence"] == {
        "method": "regularity", "proven": True,
        "plane": "(6)*x+(1)*y+(6)*z+(1)*w", "regular_from": 11,
        "computed_to": 12}


@pytest.mark.parametrize("field, f, hilbert", [
    (Field.GF(2), "x*y*w+y^2*w+z^3", [1, 4, 6, 6, 6, 6, 6, 6]),
    # p divides d = 3: f is a generator of J, and the pass runs to 4d - 4
    (Field.GF(3), "2*x*z^2+2*x*z*w+y^2*w+2*y*w^2+2*z*w^2",
     [1, 4, 6, 4, 4, 4, 4, 4, 4]),
], ids=["GF:2", "GF:3"])
def test_undetermined_when_no_plane_certifies(field, f, hilbert):
    # h is constant on its last three degrees, so Lazard's bound proves
    # nothing, and none of the p planes certifies: no degree and no verdict
    res = singular_scheme_degree(Surface(MultiPoly.parse(f, field)))
    assert res == {"hilbert": hilbert, "evidence": {
        "method": "undetermined", "proven": False,
        "computed_to": len(hilbert) - 1}}


@pytest.mark.parametrize("smooth", [False, True], ids=["one-point", "smooth"])
def test_certify_never_calls_an_unproven_degree_exact(monkeypatch, smooth):
    # h ends at 8n, n the listed points, but an undetermined result is no
    # proof: one certified point gives certified-rational-only, none failed
    X, P = triple_point_quartic(F31)
    if smooth:
        X, P = Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F31)), None
    h = singular_scheme_degree(X)["hilbert"]
    monkeypatch.setattr(singular, "_scheme_degree", lambda X, lower: {
        "hilbert": h, "evidence": {"method": "undetermined", "proven": False,
                                   "computed_to": len(h) - 1}})
    report = certify(Surface(X.f, points=[P] if P else []))
    assert report["hilbert"][-1] == report["expected_degree"]
    assert report["verdict"] == ("failed" if smooth
                                 else "certified-rational-only")


def test_no_certificate_on_a_positive_dimensional_locus(monkeypatch):
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3", F31))
    ks = _counted(monkeypatch)
    res = singular_scheme_degree(X)
    # a finite V(J) would make h constant from 4d - 7 = 5 on (Lazard)
    assert res == {"verdict": "positive-dimensional",
                   "hilbert": [1, 4, 8, 13, 19, 26, 34, 43],
                   "evidence": {"method": "lazard", "proven": True,
                                "computed_to": 7}}
    assert ks == list(range(8))


def test_regularity_certificate_over_the_rationals(monkeypatch):
    # the certificate fires at k = 8, without the Fraction rank at k = 9
    X, _ = triple_point_quartic(QQ)
    ks = _counted(monkeypatch)
    res = singular_scheme_degree(X)
    assert (res["degree"], res["hilbert"]) == (
        8, [1, 4, 10, 16, 19, 16, 11, 8, 8, 8])
    assert ks == list(range(9))
    how = res["evidence"]
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
    # the dimension is stable across fields of good characteristic
    for field in (F31, QQ, Field.GF(5, 2), Field.GF(2147483647)):
        X, P = triple_point_quartic(field)
        assert equisingular_tangent_dimension(X, [P]) == 27, field


def annihilator_tangent_dimension(X, points):
    """T by annihilators, ranked by _rref_generic: at each point the rows
    of [J_P^T | I] that vanish on its J_P^T columns, J_P the 2-jets of the
    nonzero partials, give the a with a J_P^T = 0; n - 1 minus the one
    rank of all the rows a M_P, M_P the 2-jets of the n degree-d
    monomials."""
    field, mons = X.field, singular._exponents(X.degree)
    partials = [g for g in X.f.gradient() if g]
    rows = []
    for P, jets in zip(points, singular._jet_matrix(field, points, mons, 2)):
        cols = singular._embed(P.chart, 2)
        aug = [list(r) + [field(int(i == j)) for j in range(len(cols))]
               for i, r in enumerate(zip(*(
                   [local_jet(g, P, 2).terms.get(e, field.zero) for e in cols]
                   for g in partials)))]
        k = len(partials)
        a = [r[k:] for r, c in zip(aug, _rref_generic(field, aug)) if c >= k]
        rows += [_elements(field, r) for r in singular._dot(
            field, singular._values(field, a), np.swapaxes(jets, 0, 1))]
    return len(mons) - 1 - len(_rref_generic(field, rows))


def surface_with_triple_points(rng, field, m, d=5):
    """A random degree-d form with multiplicity at least 3 at m random
    points (small integer coordinates over QQ), and those of its points
    that certify as ordinary triple points."""
    def element():
        return (field(rng.randint(-3, 3)) if field.kind == "QQ"
                else field.random_element(rng))
    points = []
    while len(points) < m:
        chart = rng.randrange(4)
        P = ProjPoint(field, [0] * chart + [1] + [
            element() for _ in range(3 - chart)])
        if P not in points:
            points.append(P)
    f = MultiPoly.zero(field)
    for g in forms_with_multiplicity(d, [(P, 3) for P in points]):
        f = f + g * MultiPoly.constant(field, element())
    if not f:
        return None, []
    X = Surface(f)
    certs = singular._certify_points(X, points, check=False)
    return X, [c.point for c in certs
               if isinstance(c, singular.TriplePointCertificate)]


@pytest.mark.parametrize("field", [Field.GF(5), Field.GF(101),
                                   Field.GF(2**31 - 1), Field.GF(7, 2), QQ],
                         ids=["GF5", "GF101", "GF2147483647", "GF49", "QQ"])
def test_tangent_dimension_matches_annihilator_oracle(field):
    # the one rank of the points' jets and their cones' partials gives the
    # dimension the annihilators of each point's partial jets give, on
    # random surfaces with one to three certified triple points (general
    # position: their conditions are independent, T = n - 1 - 7m)
    rng = random.Random(field.order if field.kind != "QQ" else 5)
    seen = set()
    while len(seen) < 3:
        X, points = surface_with_triple_points(rng, field, len(seen) + 1)
        if len(points) != len(seen) + 1:
            continue
        seen.add(len(points))
        assert equisingular_tangent_dimension(X, points) == \
            annihilator_tangent_dimension(X, points), (str(X.f), points)


@pytest.mark.parametrize("path", sorted(
    p.name for p in GOLDEN.glob("*-construct*.json") if "error" not in p.name))
def test_tangent_dimension_at_golden_points(path):
    # the premise of the one rank: at each certified point the 2-jets of
    # the four partials have rank 3, and the three partials in the local
    # variables (not the chart's) already span them.  The points of these
    # surfaces impose dependent conditions (T > n - 1 - 7m), where the
    # cone partials' columns count, unlike at points in general position
    X = Surface.load(GOLDEN / path)
    field = X.field
    for P in X.points:
        cols = singular._embed(P.chart, 2)
        jets = [[local_jet(g, P, 2).terms.get(e, field.zero) for e in cols]
                for g in X.f.gradient()]
        local = [j for i, j in enumerate(jets) if i != P.chart]
        assert rank(field, singular._values(field, jets)) == 3, (path, P)
        assert rank(field, singular._values(field, local)) == 3, (path, P)
    T = equisingular_tangent_dimension(X, X.points)
    assert T > num_monomials(X.degree) - 1 - 7 * len(X.points)
    assert T == annihilator_tangent_dimension(X, X.points)


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
        mapped = singular._dot(field, coeffs,
                               singular._ints(field, singular._CONE_MAPS[4]))
        if len(partials) == 3:
            assert (mapped.reshape(mac.shape) == mac).all()
        ranks.append(singular._cone_smooth_rank(field, coeffs))
        assert ranks[-1] == rank(field, mac)
    # x^3, x^2*y and xyz + x^3 are singular cones; random ones are smooth
    assert ranks[:3] == [6, 9, 13]
    assert 15 in ranks


def test_certify_report_finite_field():
    X, P = triple_point_quartic(F31)
    data = certify(X)
    assert data["schema_version"] == 1
    assert data["verdict"] == "certified-exact"
    assert data["expected_degree"] == 8
    assert len(data["points"]) == 1
    assert data["points"][0]["multiplicity"] == 3


def test_certify_report_rational():
    # the degree is proven on the reduction mod 32003 and bounds the
    # degree over QQ, which the certified point makes at least 8: h(7) = 8
    # with J + l covered mod p from 5, so covered over QQ too
    X, P = triple_point_quartic(QQ)
    report = certify(Surface(X.f, points=[P]))
    assert report["verdict"] == "certified-exact"
    assert report["degree_evidence"] == {
        "method": "tjurina", "proven": True, "plane": "x+y+z+w",
        "covered_from": 5, "computed_to": 7, "prime": 32003}
    assert report["hilbert"] == [1, 4, 10, 16, 19, 16, 11, 8]
    assert report["expected_degree"] == 8


@pytest.mark.parametrize("f", [
    "32003*x^3+32003*y^3+32003*z^3+32003*w^3",
    "1/2*x^3+3/4*y^3+z^3-5*w^3",
], ids=["content-p", "fractions"])
def test_certify_rational_scales_before_reducing(f):
    # scaled to coprime integer coefficients: content p would otherwise
    # reduce to the zero polynomial
    report = certify(Surface(MultiPoly.parse(f, QQ)))
    assert report["verdict"] == "certified-exact"
    assert (report["hilbert"][-1], report["degree_evidence"]["proven"],
            report["degree_evidence"]["prime"]) == (0, True, 32003)


def test_certify_rational_bad_reduction_is_not_over_claimed():
    # smooth over QQ, but a cone mod 32003: the proven degree 8 is only an
    # upper bound, which no listed point accounts for, and with no point
    # listed nothing is certified
    X = Surface(MultiPoly.parse("x^3+y^3+z^3+32003*w^3", QQ))
    report = certify(X)
    assert report["verdict"] == "failed"
    assert (report["hilbert"][-1], report["degree_evidence"]["proven"]) \
        == (8, True)


def test_certify_rational_positive_dimensional_mod_p_only():
    # smooth over QQ (t^3 + t + 1 has discriminant -31), singular along
    # x = y = 0 mod 32003: that proves nothing over QQ
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3+32003*z^3+32003*w^3", QQ))
    report = certify(X)
    assert report["verdict"] == "failed"
    assert (report["degree_evidence"]["method"],
            report["degree_evidence"]["prime"]) == ("lazard", 32003)


def test_certify_report_failure():
    # the cone x^3 is singular; the singular scheme is the one point, of
    # degree 2 * 3 * 3, so the Hilbert pass over GF(31) keeps "failed"
    X = Surface(MultiPoly.parse("x^3*w+y^4+z^4", F31))
    data = certify(Surface(X.f, points=[ProjPoint(F31, [0, 0, 0, 1])]))
    assert data["verdict"] == "failed"
    assert data["points"][0]["failure"] == "tangent cone singular"
    assert (data["points"][0]["multiplicity"],
            data["points"][0]["smooth_rank"]) == (3, 6)
    assert (data["hilbert"][-1], data["degree_evidence"]["proven"]) \
        == (18, True)


def test_certify_degree_mismatch_is_rational_only():
    # every declared point certifies and the degree is proven, but it is
    # 128, not 8 * 15: a singular point is missing from the list.  Over QQ
    # nothing is swept (over GF(31) the sweep would find the tenth point
    # of the ten-point sextic), so the verdict reads the declared points
    X = fam.septic_s4(QQ, 1, 2)
    data = certify(Surface(X.f, X.metadata, X.points[:15]))
    assert data["verdict"] == "certified-rational-only"
    assert data["expected_degree"] == 120
    assert data["hilbert"][-1] == 128
    assert data["degree_evidence"]["proven"] is True


def test_certify_positive_dimensional_verdict():
    X = Surface(MultiPoly.parse("x^3+x*y^2+y^3", F31))
    report = certify(X)
    assert report["verdict"] == "positive-dimensional-singular-locus"


def test_certify_positive_dimensional_where_no_partial_is_nonzero():
    # over GF(5), x^5+y^5+z^5+w^5 = (x+y+z+w)^5 has no nonzero partial:
    # f alone generates J, and V(J) = X is proven positive-dimensional
    X = Surface(MultiPoly.parse("x^5+y^5+z^5+w^5", Field.GF(5)))
    report = certify(X)
    assert report["verdict"] == "positive-dimensional-singular-locus"
    assert report["degree_evidence"] == {
        "method": "lazard", "proven": True, "computed_to": 16}


def test_certify_positive_dimensional_jacobian_locus_off_the_surface():
    # p = 5 divides d = 5, so w^5 has no partial and V(partials) is the
    # line x = y = 0; J has f as a generator too, and V(J) is the one
    # point (0:0:1:0), where d/dz = x^4, d/dx = y^4 + ... and f = 4*w^5
    # all vanish: regularity proves its degree 65, and the point, of
    # multiplicity 4, fails
    X = Surface(MultiPoly.parse("x^4*z+2*x^2*y^3+x*y^4+4*w^5", Field.GF(5)))
    report = certify(X)
    assert report["degree_evidence"] == {
        "method": "regularity", "proven": True, "plane": "x+y+z+w",
        "regular_from": 10, "computed_to": 11}
    assert report["hilbert"][-1] == 65
    assert [p["coords"] for p in report["points"]] == [["0", "0", "1", "0"]]
    assert report["verdict"] == "failed"


@pytest.mark.parametrize("field", [Field.GF(7), Field.GF(7, 2)],
                         ids=["GF:7", "GF:7:2"])
def test_septic_s4_is_certified_exact_where_p_divides_the_degree(field):
    # p = d = 7: f is a generator of J, so V(J) is the singular locus, and
    # its 16 certified points prove the degree 8 * 16 by the Tjurina bound
    report = certify(fam.septic_s4(field, 1, 2))
    how = report["degree_evidence"]
    assert (report["verdict"], how["method"], how["proven"],
            report["hilbert"][-1], len(report["points"])) == (
        "certified-exact", "tjurina", True, 128, 16)


@pytest.mark.parametrize("field,f", [
    (Field.GF(3), "x^4+y^4+z^4+w^4"),
    (Field.GF(2), "x^3+y^3+z^3+w^3"),
])
def test_no_points_need_no_point_certificate_in_char_2_3(field, f):
    # the Hilbert evidence works for p < 5; only a point's cone test does not
    X = Surface(MultiPoly.parse(f, field))
    doc = certify(X)
    assert doc["points"] == []
    assert doc["expected_degree"] == 0
    assert doc["verdict"] == "certified-exact"
    n = num_monomials(X.degree, 4)
    assert singular.equisingular_tangent_dimension(X, []) == n - 1
    P = ProjPoint(field, [0, 0, 0, 1])
    with pytest.raises(ValueError, match="not a declared triple point"):
        fam.reciprocal_family(X, [P] * 4, [2, 2, 2], "none")


GOLDEN_GF_P = ["ten-construct", "k3-444-construct", "k3-444-construct-246",
               "ell-222-construct", "k3-228-construct", "septic-101-construct"]


@pytest.mark.parametrize("name", GOLDEN_GF_P)
def test_tjurina_length_is_eight_at_every_golden_point(name):
    # l_P = dim O_P/J_P, J_P the four dehomogenized partials: the order-4
    # jets of their monomial multiples span all but l_P of the 35 local
    # monomials of degree <= 4, and all of degree 4, so m^4 lies in
    # J_P + m^5, hence in J_P (Nakayama), and the count is exact
    X = Surface.load(GOLDEN / f"{name}.json")
    field = X.field
    partials = [g for g in X.f.gradient() if g]
    for P in X.points:
        cols = singular._embed(P.chart, 4)
        at = {e: j for j, e in enumerate(cols)}
        rows = []
        for g in partials:
            jet = [local_jet(g, P, 4).terms.get(e, field.zero)
                   for e in cols]
            for a in cols:
                row = [field.zero] * len(cols)
                for e, c in zip(cols, jet):
                    ae = tuple(u + v for u, v in zip(a, e))
                    if ae in at:
                        row[at[ae]] = c
                rows.append(row)
        quartics = [[field(int(i == j)) for i in range(len(cols))]
                    for j in range(20, 35)]
        r = rank(field, singular._values(field, rows))
        assert rank(field, singular._values(field, rows + quartics)) == r
        assert len(cols) - r == 8, (name, P)


def test_certify_sweeps_only_when_the_proof_leaves_room(monkeypatch):
    # certify(X) equals certify with the swept singular points declared:
    # with no sweep when the declared points are all of them and certify
    # to a proven degree 8n, with a sweep when they are a strict subset
    swept = []
    sweep = singular._swept_points
    monkeypatch.setattr(singular, "_swept_points",
                        lambda X, checks: swept.append(X) or sweep(X, checks))
    rng = random.Random(2027)
    surfaces = [fam.sextic_ten_gf31(), fam.sextic_k3_228(F31, F31(3)),
                fam.sextic_elliptic_222(F7, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                        alpha=1, beta=None, gamma=None)]
    for _ in range(10):
        field = Field.GF(rng.choice([5, 7, 11, 13]))
        P = _random_point(rng, field)
        surfaces.append(Surface(_designed_surface(rng, field, P, 3)))
    paths = collections.Counter()

    def outcome(report):
        proven = report["degree_evidence"]["proven"]
        return (report["verdict"], report["points"],
                report["expected_degree"], proven and report["hilbert"][-1])
    for X in surfaces:
        every = enumerate_singular_points(X)
        want = certify(Surface(X.f, points=every))
        subsets = [rng.sample(every, len(every))]
        if every:
            subsets.append(rng.sample(every, rng.randrange(len(every))))
        for declared in subsets:
            swept.clear()
            got = certify(Surface(X.f, points=declared))
            # the evidence depends on the points certified before the
            # pass, the Tjurina bound 8n: compare what it proves
            assert outcome(got) == outcome(want), (str(X.f), declared)
            covered = len(declared) == len(every) and (
                got["verdict"] == "certified-exact"
                and got["degree_evidence"]["proven"])
            assert bool(swept) != covered, (str(X.f), declared)
            paths[covered, len(declared) == len(every)] += 1
    assert paths[True, True] and paths[False, False]


def test_certify_sweeps_first_in_characteristic_2_and_3():
    # no triple point certifies in characteristic 2 or 3, so the sweep
    # replaces the declared points before the pass: the smooth Fermat
    # quartic over GF(3) is certified-exact with no points, and a
    # surface whose sweep finds a singular point raises
    F2, F3 = Field.GF(2), Field.GF(3)
    P = ProjPoint(F3, [1, 0, 0, 0])
    report = certify(Surface(MultiPoly.parse("x^4+y^4+z^4+w^4", F3),
                             points=[P]))
    assert (report["verdict"], report["points"],
            report["expected_degree"]) == ("certified-exact", [], 0)
    for X in (Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F3), points=[P]),
              Surface(MultiPoly.parse("x^3+y^3+z^3", F2))):
        with pytest.raises(ValueError, match="characteristic 2, 3"):
            certify(X)


def test_a_tjurina_degree_is_proven_by_regularity_too():
    # where certify stops at h(k) = 8n on a covered degree, the pass with
    # no lower bound goes on and proves the same degree by regularity,
    # with the same Hilbert values up to k
    surfaces = [Surface.load(path) for path in sorted(GOLDEN.glob(
        "*-construct*.json")) if "error" not in path.name]
    surfaces.append(fam.septic_s4(QQ, 1, 2))
    rng = random.Random(2026)
    for _ in range(16):
        field = Field.GF(rng.choice([5, 7, 11, 13]))
        P = _random_point(rng, field)
        surfaces.append(Surface(_designed_surface(rng, field, P, 3),
                                points=[P]))
    methods = collections.Counter()
    for X in surfaces:
        report = certify(X)
        how, h = report["degree_evidence"], report["hilbert"]
        methods[how["method"]] += 1
        if how["method"] != "tjurina":
            continue
        assert how["covered_from"] <= how["computed_to"] == len(h) - 1
        res = singular_scheme_degree(
            singular._reduction(X) if X.field.kind == "QQ" else X)
        assert res["evidence"]["method"] == "regularity", str(X.f)
        assert res["degree"] == h[-1] == report["expected_degree"]
        assert res["hilbert"][:len(h)] == h
    assert methods == {"tjurina": 16, "regularity": 8, "lazard": 1}


def test_the_tjurina_bound_counts_only_certified_points():
    # a declared point that fails adds nothing to 8n: the k3-228 member
    # has h(9) = 80 on a covered degree, which 8 * 10 would take for its
    # degree.  The pass proves 72 from the nine certified points, and the
    # failed point makes the sweep replace the declared ones
    X = fam.sextic_k3_228(F31, F31(3))
    off = ProjPoint(F31, [1, 1, 1, 1])
    assert multiplicity(X, off) == 0
    report = certify(Surface(X.f, X.metadata, X.points + [off]))
    assert report["verdict"] == "certified-exact"
    assert len(report["points"]) == 9
    assert report["expected_degree"] == 72
    assert report["degree_evidence"] == {
        "method": "tjurina", "proven": True, "plane": "3*x+9*y+27*z+w",
        "covered_from": 9, "computed_to": 11}
    assert report["hilbert"][-3:] == [80, 73, 72]


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


@pytest.mark.parametrize("field", [QQ, F31, Field.GF(7, 2)],
                         ids=lambda F: F.tag)
def test_coefficient_arrays_hold_no_field_elements(field):
    # one array format per field: Fractions over QQ, int64 residues over
    # GF(p), int64 residue pairs over GF(p^2); FieldElements stay scalars
    X, P = triple_point_quartic(field)
    exps, vals = singular._arrays(field, X.f.terms)
    points = [P, ProjPoint(field, [1, 2, 0, 3])]
    jets = singular._jets(field, points, [(exps, vals)], 3)
    mac = singular._macaulay(field, singular._jacobian(X), 5)
    red, _ = rref(field, mac)
    tail = (2,) if field.kind == "GF2" else ()
    for a in (vals, jets, mac, red):
        if field.kind == "QQ":
            assert a.dtype == object
            assert all(type(v) is Fraction for v in a.flat)
        else:
            assert a.dtype == np.int64 and a.shape[a.ndim - len(tail):] == tail
        assert not any(isinstance(v, FieldElement) for v in a.flat)
