import random

import pytest

from triplepoints.fields import Field
from triplepoints.poly import MultiPoly
from triplepoints.surfaces import ProjPoint, Surface
from triplepoints.singular import local_jet, certify
from triplepoints.constructions import (forms_with_multiplicity,
                                        reciprocal_point, reciprocal_transform,
                                        dianode_surface, steiner_curve)

from helpers import generic_points

QQ = Field.QQ()
F31 = Field.GF(31)


def test_assignment_guards():
    P, Q = ProjPoint(QQ, [1, 0, 0, 0]), ProjPoint(QQ, [0, 1, 0, 0])
    # each pair is checked in turn, multiplicity before repetition, and
    # the pairs before the degree and the degree before emptiness
    for degree, pairs, message in [
            (2, [(P, 0)], "multiplicities must be at least 1"),
            (0, [(P, 1), (Q, 0)], "multiplicities must be at least 1"),
            (2, [(P, 1), (P, 0)], "multiplicities must be at least 1"),
            (2, [(P, 1), (P, 2), (Q, 0)], r"repeated point \(1:0:0:0\)"),
            (0, [(P, 1), (P, 2)], r"repeated point \(1:0:0:0\)"),
            (0, [(P, 1)], "degree must be positive"),
            (0, [], "degree must be positive"),
            (2, [], "empty assignment")]:
        with pytest.raises(ValueError, match=message):
            forms_with_multiplicity(degree, pairs)
    # a double point imposes 4 conditions and a simple one 1: 10 - 5
    assert len(forms_with_multiplicity(2, [(P, 2), (Q, 1)])) == 10 - 5


def test_forms_with_multiplicity_dimensions():
    # quintics with triple points at nu generic points: 56 - 10*nu
    for nu in range(1, 6):
        pts = generic_points(F31, nu, seed=7)
        basis = forms_with_multiplicity(5, [(P, 3) for P in pts])
        assert len(basis) == 56 - 10 * nu
    pts7 = generic_points(F31, 7, seed=7)
    # sextics with triple points at 7 generic points: 84 - 70 = 14
    assert len(forms_with_multiplicity(6, [(P, 3) for P in pts7])) == 14
    # quartics simply through 7 generic points: 35 - 7 = 28
    assert len(forms_with_multiplicity(4, [(P, 1) for P in pts7])) == 28
    # quadrics through 7 generic points: 10 - 7 = 3
    assert len(forms_with_multiplicity(2, [(P, 1) for P in pts7])) == 3


# the reduced-echelon basis of test_forms_vanish_to_assigned_order, pinned
# entry by entry so that a change in how jets are taken cannot move it
ASSIGNED_ORDER_BASIS = [
    "16*x^4+30*x^3*y+23*x^3*z+16*x^2*y^2+8*x^2*y*z+x^2*z^2",
    "12*x^4+20*x^3*y+28*x^3*z+27*x^3*w+30*x^2*y^2+23*x^2*y*z+4*x^2*y*w"
    "+x^2*z*w",
    "9*x^4+17*x^3*y+25*x^3*w+2*x^2*y^2+15*x^2*y*w+x^2*w^2",
    "22*x^4+15*x^3*y+10*x^3*z+21*x^2*y^2+14*x^2*y*z+4*x*y^3+x*y^2*z",
    "x^4+2*x^3*y+10*x^3*w+9*x^2*y^2+14*x^2*y*w+23*x*y^3+x*y^2*w",
    "10*x^4+20*x^3*y+13*x^3*z+17*x^2*y^2+4*x^2*y*z+15*x*y^3+x*y*z^2",
    "17*x^4+18*x^3*z+22*x^3*w+28*x^2*y^2+16*x^2*y*z+2*x^2*y*w+x*y^3+x*y*z*w",
    "16*x^4+10*x^3*y+5*x^3*w+6*x^2*y^2+x^2*y*w+29*x*y^3+x*y*w^2",
    "6*x^4+26*x^3*y+29*x^3*z+28*x^2*y^2+24*x^2*y*z+2*x*y^3+x*z^3",
    "6*x^4+4*x^3*y+18*x^3*z+20*x^3*w+27*x^2*y^2+25*x^2*y*z+8*x^2*y*w+27*x*y^3"
    "+x*z^2*w",
    "21*x^4+28*x^3*y+11*x^3*z+18*x^3*w+28*x^2*y^2+11*x^2*y*z+25*x^2*y*w"
    "+8*x*y^3+x*z*w^2",
    "29*x^4+10*x^3*y+2*x^3*w+28*x^2*y^2+2*x^2*y*w+15*x*y^3+x*w^3",
    "11*x^3*y+15*x^3*z+18*x^2*y^2+19*x*y^3+17*y^4+y^3*z",
    "26*x^4+23*x^3*y+15*x^3*w+12*x^2*y^2+2*x*y^3+11*y^4+y^3*w",
    "16*x^4+18*x^3*y+22*x^3*z+23*x^2*y^2+19*x^2*y*z+14*x*y^3+21*y^4+y^2*z^2",
    "4*x^4+19*x^3*y+26*x^3*z+11*x^3*w+20*x^2*y^2+11*x^2*y*z+25*x^2*y*w"
    "+17*x*y^3+30*y^4+y^2*z*w",
    "3*x^4+19*x^3*y+21*x^3*w+27*x^2*y^2+22*x^2*y*w+30*x*y^3+3*y^4+y^2*w^2",
    "28*x^4+8*x^3*z+5*x^2*y^2+3*x^2*y*z+17*x*y^3+15*y^4+y*z^3",
    "23*x^4+8*x^3*y+29*x^3*z+13*x^3*w+6*x^2*y^2+9*x^2*y*z+x^2*y*w+21*x*y^3"
    "+17*y^4+y*z^2*w",
    "2*x^4+26*x^3*y+14*x^3*z+29*x^3*w+3*x^2*y^2+12*x^2*y*z+9*x^2*y*w+20*x*y^3"
    "+11*y^4+y*z*w^2",
    "3*x^4+8*x^3*y+11*x^3*w+9*x^2*y^2+5*x^2*y*w+2*x*y^3+29*y^4+y*w^3",
    "16*x^4+2*x^3*y+19*x^3*z+27*x^2*y^2+19*x^2*y*z+29*x*y^3+24*y^4+z^4",
    "23*x^4+12*x^3*y+27*x^3*z+28*x^3*w+30*x^2*y^2+3*x^2*y*z+28*x^2*y*w"
    "+5*x*y^3+21*y^4+z^3*w",
    "22*x^4+19*x^3*y+7*x^3*z+18*x^3*w+10*x^2*y^2+23*x^2*y*z+2*x^2*y*w+9*x*y^3"
    "+30*y^4+z^2*w^2",
    "16*x^4+5*x^3*y+21*x^3*z+26*x^3*w+8*x^2*y^2+5*x^2*y*z+19*x^2*y*w+5*x*y^3"
    "+3*y^4+z*w^3",
    "4*x^4+11*x^3*y+22*x^3*w+16*x^2*y^2+20*x^2*y*w+9*x*y^3+22*y^4+w^4",
]


def test_forms_vanish_to_assigned_order():
    pts = generic_points(F31, 3, seed=9)
    assignment = [(pts[0], 2), (pts[1], 2), (pts[2], 1)]
    basis = forms_with_multiplicity(4, assignment)
    assert [str(g) for g in basis] == ASSIGNED_ORDER_BASIS
    for g in basis:
        for P, m in assignment:
            assert not local_jet(g, P, m - 1)  # vanishes to order m


def test_forms_with_multiplicity_guards():
    with pytest.raises(ValueError):
        forms_with_multiplicity(0, [(ProjPoint(QQ, [1, 0, 0, 0]), 1)])
    with pytest.raises(ValueError):
        forms_with_multiplicity(2, [])


def test_reciprocal_point():
    P = ProjPoint(QQ, [1, 2, 3, 4])
    Q = reciprocal_point(P)
    # (1 : 1/2 : 1/3 : 1/4) scaled
    assert Q == ProjPoint(QQ, [QQ(12), QQ(6), QQ(4), QQ(3)])
    assert reciprocal_point(Q) == P
    # one zero coordinate sends the point to the opposite vertex
    assert reciprocal_point(ProjPoint(QQ, [1, 1, 1, 0])) == \
        ProjPoint(QQ, [0, 0, 0, 1])
    # two or more zero coordinates kill every product
    with pytest.raises(ValueError):
        reciprocal_point(ProjPoint(QQ, [1, 1, 0, 0]))
    with pytest.raises(ValueError):
        reciprocal_point(ProjPoint(QQ, [1, 0, 0, 0]))


def test_reciprocal_transform_fixed_examples():
    X = Surface(MultiPoly.parse("x*y+z*w", QQ))
    img, mults = reciprocal_transform(X)
    assert mults == (1, 1, 1, 1)
    assert img.degree == 2
    assert img.f == X.f
    X1 = Surface(MultiPoly.parse("x+y+z+w", QQ))
    img1, mults1 = reciprocal_transform(X1)
    assert mults1 == (0, 0, 0, 0)
    assert img1.f == MultiPoly.parse("y*z*w+x*z*w+x*y*w+x*y*z", QQ)


def test_reciprocal_transform_rejects_plane_components():
    with pytest.raises(ValueError):
        reciprocal_transform(Surface(MultiPoly.parse("x*y", QQ)))


def test_reciprocal_transform_is_an_involution():
    rng = random.Random(51)
    from triplepoints.poly import exponents_of_degree
    exps = exponents_of_degree(6)
    for _ in range(50):
        terms = {e: F31.random_element(rng) for e in exps
                 if rng.random() < 0.3}
        f = MultiPoly(F31, {e: c for e, c in terms.items() if c})
        if not f:
            continue
        X = Surface(f)
        try:
            img, mults = reciprocal_transform(X)
        except ValueError:
            continue
        assert img.degree == 3 * 6 - sum(mults)
        back, _ = reciprocal_transform(img)
        # double transform recovers f up to a scalar
        (e0, c0) = next(iter(f.terms.items()))
        scale = back.f.terms[e0] / c0
        assert back.f == f.scale(scale)


def test_dianode_surface():
    pts = generic_points(F31, 7, seed=1)
    # quartic with nodes at all seven points: a cubic with nodes at the
    # first four and simple points at the last three, times the plane
    # through the last three
    cubics = forms_with_multiplicity(
        3, [(P, 2) for P in pts[:4]] + [(P, 1) for P in pts[4:]])
    planes = forms_with_multiplicity(1, [(P, 1) for P in pts[4:]])
    assert len(cubics) == 1 and len(planes) == 1
    g = cubics[0] * planes[0]
    q1, q2, q3 = forms_with_multiplicity(2, [(P, 1) for P in pts])
    delta = dianode_surface(g, q1, q2, q3)
    assert delta.homogeneous_degree() == 6
    X = Surface(delta, points=pts)
    report = certify(X)
    assert report["verdict"] == "certified-exact"
    assert len(report["points"]) == 7


def test_dianode_degenerate_inputs():
    pts = generic_points(F31, 7, seed=1)
    q1, q2, q3 = forms_with_multiplicity(2, [(P, 1) for P in pts])
    # g in the ideal of the net makes the gradients dependent everywhere
    assert not dianode_surface(q1 * q2, q1, q2, q3)
    with pytest.raises(ValueError):
        dianode_surface(q1, q1, q2, q3)
    with pytest.raises(ValueError):
        dianode_surface(q1 * q2, q1, q2, q1 * q2)


def test_steiner_curve():
    pts = generic_points(F31, 7, seed=1)
    q1, q2, q3 = forms_with_multiplicity(2, [(P, 1) for P in pts])
    minors = steiner_curve(q1, q2, q3)
    assert len(minors) == 4
    assert all(m.homogeneous_degree() == 3 for m in minors if m)
    # at a base point Euler's relation puts the point itself in the
    # kernel of the 3x4 Jacobian, so the signed minor vector is
    # proportional to the point
    for P in pts:
        vals = [m.evaluate(list(P.coords)) for m in minors]
        k = [vals[3], -vals[2], vals[1], -vals[0]]
        assert any(k)
        for i in range(4):
            for j in range(4):
                assert k[i] * P.coords[j] == k[j] * P.coords[i]
    with pytest.raises(ValueError):
        steiner_curve(q1, q2, q1 * q2)


def test_generic_points():
    a = generic_points(F31, 5, seed=3)
    b = generic_points(F31, 5, seed=3)
    assert a == b
    assert len(set(a)) == 5
    c = generic_points(F31, 5, seed=4)
    assert a != c
    # P^3(GF(2)) has 15 points: the draw for a 16th gives up
    assert len(set(generic_points(Field.GF(2), 15))) == 15
    with pytest.raises(RuntimeError):
        generic_points(Field.GF(2), 16)
