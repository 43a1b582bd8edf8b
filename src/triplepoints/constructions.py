"""Construction machinery: linear systems with assigned base-point
multiplicities, the reciprocal transformation, the Cayley dianode
surface, the Steiner curve and mixed-power systems.
"""
from __future__ import annotations

import random
from math import comb

import numpy as np

from .poly import MultiPoly, poly_determinant, exponents_of_degree
from .linalg import _values, kernel_basis, rref
from .surfaces import ProjPoint, Surface
from .singular import _exponents, _jet_matrix


class MultiplicityAssignment:
    """Points with required vanishing multiplicities."""

    __slots__ = ("items",)

    def __init__(self, items):
        items = [(P, int(m)) for P, m in items]
        seen = set()
        for P, m in items:
            if m < 1:
                raise ValueError("multiplicities must be at least 1")
            if P in seen:
                raise ValueError(f"repeated point {P}")
            seen.add(P)
        self.items = items

    def conditions(self) -> int:
        return sum(comb(m + 2, 3) for _, m in self.items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def forms_with_multiplicity(degree: int, assignment: MultiplicityAssignment):
    """Reduced-echelon basis of degree-k forms vanishing to the assigned
    order at each point (order-(m-1) jet vanishes)."""
    if degree < 1:
        raise ValueError("degree must be positive")
    if not isinstance(assignment, MultiplicityAssignment):
        assignment = MultiplicityAssignment(assignment)
    if not len(assignment):
        raise ValueError("empty assignment")
    points, mults = zip(*assignment)
    field = points[0].field
    mons = exponents_of_degree(degree)
    # the order-(m-1) jets of every monomial at a point are its conditions:
    # the first C(m+2, 3) columns of the jets to the largest order
    jets = _jet_matrix(field, points, _exponents(degree), max(mults) - 1)
    coeffs = kernel_basis(field, np.concatenate([
        j[:, :comb(m + 2, 3)].T for j, m in zip(jets, mults)]))
    return [MultiPoly.from_coeff_vector(field, mons, map(field, v))
            for v in coeffs]


def quadrics_through(points):
    """Basis of the quadrics through the given points."""
    return forms_with_multiplicity(
        2, MultiplicityAssignment([(P, 1) for P in points]))


def echelon_basis(polys):
    """Reduced-echelon basis of the span of homogeneous forms of one
    degree, against the graded-lex monomial order."""
    polys = [g for g in polys if g]
    if not polys:
        return []
    field = polys[0].field
    d = polys[0].homogeneous_degree()
    if d is None or any(g.homogeneous_degree() != d for g in polys):
        raise ValueError("forms must be homogeneous of a common degree")
    mons = exponents_of_degree(d)
    red, pivots = rref(field, _values(field, [g.coeff_vector(mons)
                                              for g in polys]))
    return [MultiPoly.from_coeff_vector(field, mons, map(field, v))
            for v in red[:len(pivots)]]


def mixed_power_system(quadrics, k: int = 3):
    """Basis of the span of all degree-k monomials in the given quadrics."""
    quadrics = list(quadrics)
    if not quadrics:
        raise ValueError("need at least one quadric")
    import itertools
    products = []
    for combo in itertools.combinations_with_replacement(quadrics, k):
        prod = combo[0]
        for q in combo[1:]:
            prod = prod * q
        products.append(prod)
    return echelon_basis(products)


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
    maxes = [max(e[i] for e in f.terms) for i in range(4)]
    mults = tuple(d - maxes[i] for i in range(4))
    terms = {}
    for e, c in f.terms.items():
        ne = tuple(d - e[i] - mults[i] for i in range(4))
        terms[ne] = c
    g = MultiPoly(f.field, terms)
    meta = {k: v for k, v in X.metadata.items()
            if k not in ("points", "exc_degrees")}
    mapped = []
    for P in X.points:
        try:
            mapped.append(reciprocal_point(P))
        except ValueError:
            pass
    if mapped:
        meta["points"] = mapped
    return Surface(g, meta), mults


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
    import itertools
    minors = []
    for cols in itertools.combinations(range(4), 3):
        sub = [[row[c] for c in cols] for row in jac]
        minors.append(poly_determinant(sub))
    return minors


def generic_points(field, n, seed=0, avoid_degenerate=None):
    """n deterministic pseudorandom points of P^3 over the field.

    avoid_degenerate, if given, is a predicate on the accumulated list;
    candidates violating it are redrawn.
    """
    rng = random.Random(seed)
    pts = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 1000 * n:
            raise RuntimeError("could not find points in general position")
        coords = [field.random_element(rng) for _ in range(4)]
        if not any(coords):
            continue
        P = ProjPoint(field, coords)
        if P in pts:
            continue
        cand = pts + [P]
        if avoid_degenerate is not None and not avoid_degenerate(cand):
            continue
        pts.append(P)
    return pts
