"""Construction machinery: linear systems with assigned base-point
multiplicities, the reciprocal transformation, the Cayley dianode
surface and the Steiner curve.
"""
from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .poly import MultiPoly, poly_determinant, exponents_of_degree
from .linalg import _elements, kernel_basis
from .surfaces import ProjPoint, Surface
from .singular import _exponents, _jet_matrix


def forms_with_multiplicity(degree: int, assignment):
    """Reduced-echelon basis of degree-k forms vanishing to order m at
    each point of the (point, m) pairs (order-(m-1) jet vanishes)."""
    assignment = [(P, int(m)) for P, m in assignment]
    seen = set()
    for P, m in assignment:
        if m < 1:
            raise ValueError("multiplicities must be at least 1")
        if P in seen:
            raise ValueError(f"repeated point {P}")
        seen.add(P)
    if degree < 1:
        raise ValueError("degree must be positive")
    if not assignment:
        raise ValueError("empty assignment")
    points, mults = zip(*assignment)
    field = points[0].field
    mons = exponents_of_degree(degree)
    # the order-(m-1) jets of every monomial at a point are its conditions:
    # the first C(m+2, 3) columns of the jets to the largest order
    jets = _jet_matrix(field, points, _exponents(degree), max(mults) - 1)
    coeffs = kernel_basis(field, np.concatenate([
        np.swapaxes(j[:, :comb(m + 2, 3)], 0, 1)
        for j, m in zip(jets, mults)]))
    return [MultiPoly(field, dict(zip(mons, _elements(field, v))))
            for v in coeffs]


def reciprocal_point(P: ProjPoint) -> ProjPoint:
    """Image of a point under coordinate reciprocals, where defined."""
    x, y, z, w = P.coords
    img = [y * z * w, x * z * w, x * y * w, x * y * z]
    if not any(img):
        raise ValueError(f"{P} lies on the fundamental locus")
    return ProjPoint(P.field, img)


def reciprocal_transform(X: Surface):
    """Image of X under (x:y:z:w) -> (1/x:1/y:1/z:1/w).

    Returns (image surface, vertex multiplicities (m1,m2,m3,m4)); the
    image has degree 3d - sum(m_i).  Applying the map twice recovers the
    original polynomial up to scale.
    """
    f = X.f
    for i in range(4):
        if f.divisible_by_variable(i):
            raise ValueError("a coordinate plane is a component of X")
    d = X.degree
    mults = tuple(d - max(e[i] for e in f.terms) for i in range(4))
    g = MultiPoly(f.field, {tuple(d - e[i] - mults[i] for i in range(4)): c
                            for e, c in f.terms.items()})
    meta = {k: v for k, v in X.metadata.items() if k != "exc_degrees"}
    mapped = []
    for P in X.points:
        try:
            mapped.append(reciprocal_point(P))
        except ValueError:
            pass
    return Surface(g, meta, mapped), mults


def dianode_surface(g: MultiPoly, q1: MultiPoly, q2: MultiPoly,
                    q3: MultiPoly) -> MultiPoly:
    """Determinant of the stacked gradients of (g, q1, q2, q3).

    For a quartic g and three quadrics this is a sextic vanishing where
    the four gradients are dependent.
    """
    if g.homogeneous_degree() != 4:
        raise ValueError("g must be a quartic")
    for q in (q1, q2, q3):
        if q.homogeneous_degree() != 2:
            raise ValueError("q1, q2, q3 must be quadrics")
    rows = [poly.gradient() for poly in (g, q1, q2, q3)]
    return poly_determinant(rows)


def steiner_curve(q1: MultiPoly, q2: MultiPoly, q3: MultiPoly):
    """The four maximal minors of the net's 3x4 Jacobian matrix, in
    lexicographic order of the retained column triples."""
    for q in (q1, q2, q3):
        if q.homogeneous_degree() != 2:
            raise ValueError("expected three quadrics")
    jac = [q.gradient() for q in (q1, q2, q3)]
    return [poly_determinant([[row[c] for c in cols] for row in jac])
            for cols in itertools.combinations(range(4), 3)]

