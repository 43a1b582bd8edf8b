"""Constructors for the explicit surface families: quintics with
assigned triple points, the sextic K3 and elliptic families and their
reciprocal relatives, the ten-triple-point sextic in characteristic 31,
and the S4-symmetric septics with the determinant check behind them.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from .fields import Field, solve_quadratic
from .poly import MultiPoly, _arrays
from .linalg import _values, _elements, kernel_basis, ranks, rref
from .surfaces import ProjPoint, Surface
from .singular import (CertificationFailure, DomainError,
                       common_projective_zeros, _certify_points, _jets,
                       _swept_points)
from .constructions import reciprocal_transform, forms_with_multiplicity


def _variables(field):
    return [MultiPoly.variable(field, i) for i in range(4)]


def vertex(field, i: int) -> ProjPoint:
    coords = [0, 0, 0, 0]
    coords[i] = 1
    return ProjPoint(field, coords)


def _ensure_certified(X: Surface, points):
    """Raise the first point that is not an ordinary triple point."""
    _certify_points(X, points)


class NoCertifiedMember(DomainError):
    """No member of a linear system certifies at the declared points."""


def _combination(coeffs, gens):
    """The sum of c * g over the nonzero coefficients c."""
    f = MultiPoly.zero(gens[0].field)
    for c, g in zip(coeffs, gens):
        if c:
            f = f + g.scale(c)
    return f


def _pool(field, fixed):
    """Coefficient tuples: fixed, with each None entry running over
    0..23 over QQ and over 0..p-1 over GF(p) and GF(p^2)."""
    pool = [field(v) for v in range(24 if field.kind == "QQ" else field.p)]
    for combo in itertools.product(pool, repeat=fixed.count(None)):
        free = iter(combo)
        yield tuple(field(next(free) if c is None else c) for c in fixed)


def _member_search(field, gens, points, candidates, meta):
    """The first linear combination of the generators, with coefficients
    from the iterable candidates, whose surface certifies at every
    declared point.

    Over a finite field the singular points are also enumerated, and
    members with singularities beyond the declared ones are rejected;
    when the field is too large to sweep, metadata["checks"] says so.
    """
    last_error = None
    for coeffs in candidates:
        f = _combination(coeffs, gens)
        if not f or f.homogeneous_degree() != gens[0].homogeneous_degree():
            continue
        params = dict(meta["params"], coefficients=[str(c) for c in coeffs])
        X = Surface(f, dict(meta, params=params), points)
        try:
            _ensure_certified(X, points)
        except CertificationFailure as exc:
            last_error = exc
            continue
        checks = {}
        extra = set(_swept_points(X, checks)) - set(points)
        if checks:
            X.metadata["checks"] = checks
        if extra:
            last_error = f"extra singular point {sorted(extra)[0]}"
            continue
        return X
    raise NoCertifiedMember(f"no member certifies at the declared points "
                            f"({last_error})")


def _degenerate_subsets(field, coords, s):
    """The s-subsets of the points with these coordinate rows, as index
    tuples in combinations order, that span less than min(s, 4)
    dimensions (collinear triples, coplanar quintuples), from one
    linalg.ranks call on the stacked matrices of all s-subsets."""
    combos = list(itertools.combinations(range(len(coords)), s))
    if not combos:
        return []
    low = ranks(field, coords[np.array(combos)]) < min(s, 4)
    return [c for c, m in zip(combos, low) if m]


# -- quintics ------------------------------------------------------------

def quintic_with_triple_points(points):
    """A quintic with ordinary triple points at the given points.

    The linear system of quintics triple at the points is solved
    exactly.  The member is the first of 300 random combinations (seed 0)
    that certifies at the points and, over a finite field, has no other
    singular point (NoCertifiedMember if none does); its
    params["coefficients"] records the combination.
    """
    points = list(points)
    if not 1 <= len(points) <= 5:
        raise ValueError("between 1 and 5 points")
    field = points[0].field
    coords = _values(field, [P.coords for P in points])
    if _degenerate_subsets(field, coords, 3):
        raise ValueError("three of the points are collinear")
    basis = forms_with_multiplicity(5, [(P, 3) for P in points])
    if not basis:
        raise ValueError("empty linear system")
    meta = {"family": "quintic-nu", "params": {"nu": len(points)}}
    rng = random.Random(0)
    candidates = (tuple(field.random_element(rng) for _ in basis)
                  for _ in range(300))
    return _member_search(field, basis, points, candidates, meta)


# -- sextic K3 families --------------------------------------------------

def sextic_k3_444(field, a1, a2, a3, b1, b2, b3, alpha=None, beta=None):
    """The (4,4,4) family: three quadric cones and the canonical quadric,
    combined as alpha*q1*q2*q3 + beta*q^3."""
    x, y, z, w = _variables(field)
    a = [field(a1), field(a2), field(a3)]
    b = [field(b1), field(b2), field(b3)]
    one = field.one
    q1 = z * z + y * w * a[0] + z * w * b[0] - y * z * (a[0] + b[0] + one)
    q2 = x * x + z * w * a[1] + x * w * b[1] - x * z * (a[1] + b[1] + one)
    q3 = y * y + x * w * a[2] + y * w * b[2] - x * y * (a[2] + b[2] + one)
    aw = [MultiPoly.constant(field, v) * w for v in a]
    bw = [MultiPoly.constant(field, v) * w for v in b]
    # the two xyz terms cancel, so w divides every term: q = q_cubic / w
    q_cubic = ((aw[0] - z) * (aw[1] - x) * (aw[2] - y)
               + (bw[0] + z) * (bw[1] + x) * (bw[2] + y))
    if any(not e[3] for e in q_cubic.terms):
        raise ArithmeticError(f"{q_cubic} is not divisible by w")
    q = MultiPoly(field, {e[:3] + (e[3] - 1,): c
                          for e, c in q_cubic.terms.items()})
    for P in (vertex(field, 3), ProjPoint(field, [1, 1, 1, 1])):
        if not q.evaluate(P.coords):
            raise ValueError(f"degenerate parameters: q vanishes at {P}")
    if alpha is not None and not field(alpha):
        raise ValueError("alpha = 0 gives the cube of a quadric")
    if beta is not None and not field(beta):
        raise ValueError("beta = 0 gives a reducible surface")
    points = [vertex(field, 0), vertex(field, 1), vertex(field, 2)]
    if field.kind != "QQ":
        excluded = {vertex(field, 3), ProjPoint(field, [1, 1, 1, 1])}
        for P in common_projective_zeros(
                [_arrays(field, g.terms) for g in (q1, q2, q3)], field):
            if P not in excluded:
                points.append(P)
    meta = {"family": "k3-444", "exc_degrees": [4, 4, 4],
            "params": {"a": [str(v) for v in a], "b": [str(v) for v in b]}}
    gens = [q1 * q2 * q3, q * q * q]
    if alpha is None:
        alpha = 1
    return _member_search(field, gens, points,
                          _pool(field, (alpha, beta)), meta)


def sextic_k3_228(field, lam, alpha=None, beta=None):
    """The (2,2,8) family: two planes, a quartic with a triple point and
    six nodes, and the canonical quadric."""
    lam = field(lam)
    for bad in (0, -1, -2):
        if lam == field(bad):
            raise ValueError(f"degenerate parameter lambda = {bad}")
    if field(2) * lam + 1 == field.zero:
        raise ValueError("degenerate parameter lambda = -1/2")
    x, y, z, w = _variables(field)
    s2 = x * y + x * z + y * z
    s1 = x + y + z
    xyz = x * y * z
    h1 = w
    h2 = s1 - w * (lam + 2)
    g4 = (s2 * s2 * (lam * (lam + 1) * (lam + 2))
          - xyz * s1 * ((2 * lam + 1) ** 2 * (lam + 1))
          - s2 * s1 * w * (lam * (2 * lam + 1))
          + xyz * w * ((2 * lam + 1) ** 2 * (lam + 2)))
    # the unique symmetric quadric through the nine points
    q = s2 * (lam + 2) - s1 * w * (2 * lam + 1)
    points = [vertex(field, i) for i in range(4)]
    for perm in ((lam, 1, 1, 1), (1, lam, 1, 1), (1, 1, lam, 1)):
        points.append(ProjPoint(field, list(perm)))
    # tangency points on the line h1 = h2 = 0 solve r^2 + r + 1 = 0
    for r in solve_quadratic(field.one, field.one, field.one):
        points.append(ProjPoint(field, [r, field.one, -r - 1, 0]))
    meta = {"family": "k3-228", "exc_degrees": [2, 2, 8],
            "params": {"lambda": str(lam)}}
    gens = [q * q * q, h1 * h2 * g4]
    if alpha is None:
        alpha = 1
    return _member_search(field, gens, points,
                          _pool(field, (alpha, beta)), meta)


def reciprocal_family(base: Surface, fundamental, exc_degrees, family_id):
    """Reciprocal transform of a family member about four of its triple
    points: move them to the vertices, take reciprocals, re-certify."""
    field = base.field
    fundamental = list(fundamental)
    if len(fundamental) != 4:
        raise ValueError("need exactly four fundamental points")
    declared = base.points
    undeclared = [P for P in fundamental if P not in declared]
    # the points before the first undeclared one are certified first
    _ensure_certified(base, fundamental[:fundamental.index(undeclared[0])]
                      if undeclared else fundamental)
    if undeclared:
        raise ValueError(f"{undeclared[0]} is not a declared triple point")
    # [m | c], the fundamental points then the declared ones as columns,
    # reduces to [I | m^-1 c] exactly when m has rank 4
    red, pivots = rref(field, np.swapaxes(
        _values(field, [P.coords for P in fundamental + declared]), 0, 1))
    if pivots[:4] != list(range(4)):
        raise ValueError("fundamental points are in degenerate position")
    variables = _variables(field)
    images = [_combination([P.coords[i] for P in fundamental], variables)
              for i in range(4)]
    f2 = base.f.substitute(images)
    moved = [ProjPoint(field, _elements(field, v))
             for v in np.swapaxes(red[:, 4:], 0, 1)]
    X2 = Surface(f2, base.metadata, moved)
    image, mults = reciprocal_transform(X2)
    if mults != (3, 3, 3, 3):
        raise ValueError(f"fundamental points have multiplicities {mults}")
    points = [vertex(field, i) for i in range(4)] + image.points
    if len(points) != len(declared) - 4 + 4:
        raise ValueError("lost points under the transformation")
    out = Surface(image.f, {"family": family_id,
                            "exc_degrees": list(exc_degrees),
                            "params": base.metadata.get("params", {})},
                  points)
    _ensure_certified(out, points)
    return out


def sextic_k3_246(base: Surface, fundamental):
    return reciprocal_family(base, fundamental, (2, 4, 6), "k3-246")


def sextic_elliptic_224(base: Surface, fundamental):
    return reciprocal_family(base, fundamental, (2, 2, 4), "ell-224")


# -- sextic elliptic (2,2,2) --------------------------------------------

def _elliptic_forms(field, lam, mu, nu, b):
    """The cubic g and quadric q of the (2,2,2) construction."""
    x, y, z, w = _variables(field)
    A = x * nu - y - z * (mu * nu)
    B = y * lam - x * (lam * nu) - z
    C = z * mu - x - y * (mu * lam)
    g = (w * w * (x * (lam * nu * b[4] * b[5])
                  + y * (lam * mu * b[3] * b[5])
                  + z * (mu * nu * b[3] * b[4]))
         + w * (x * A * (lam * b[0]) + y * B * (mu * b[1])
                + z * C * (nu * b[2]))
         + A * B * C)
    q = (w * w * (b[3] * b[4] * b[5])
         + w * (x * (b[0] * b[3]) + y * (b[1] * b[4]) + z * (b[2] * b[5]))
         + x * A * b[3] + y * B * b[4] + z * C * b[5])
    return g, q


def sextic_elliptic_222(field, lam, mu, nu, b1, b2, b3, b4, b5, b6,
                        alpha=None, beta=None, gamma=None):
    """The (2,2,2) family: net alpha*q^3 + beta*xyz*q*w + gamma*xyz*g."""
    lam, mu, nu = field(lam), field(mu), field(nu)
    if not (lam and mu and nu):
        raise ValueError("lambda, mu, nu must be nonzero")
    b = [field(v) for v in (b1, b2, b3, b4, b5, b6)]
    if not (b[3] and b[4] and b[5]):
        raise ValueError("b4, b5, b6 must be nonzero")
    if alpha is not None and gamma is not None \
            and not field(alpha) and not field(gamma):
        raise ValueError("alpha = gamma = 0 gives a surface divisible by xyz")
    g, q = _elliptic_forms(field, lam, mu, nu, b)
    x, y, z, w = _variables(field)
    xyz = x * y * z
    points = [ProjPoint(field, [0, 1, lam, 0]),
              ProjPoint(field, [mu, 0, 1, 0]),
              ProjPoint(field, [1, nu, 0, 0])]
    # base points on the coordinate axes: q restricted to each axis
    axis_quadrics = [
        (2, mu, b[2], b[3] * b[4]),       # x = y = 0, unknown z
        (1, lam, b[1], b[3] * b[5]),      # x = z = 0, unknown y
        (0, nu, b[0], b[4] * b[5]),       # y = z = 0, unknown x
    ]
    for idx, qa, qb, qc in axis_quadrics:
        for r in solve_quadratic(qa, qb, qc):
            coords = [0, 0, 0, 1]
            coords[idx] = r
            points.append(ProjPoint(field, coords))
    meta = {"family": "ell-222", "exc_degrees": [2, 2, 2],
            "params": {"lambda": str(lam), "mu": str(mu), "nu": str(nu),
                       "b": [str(v) for v in b]}}
    gens = [q * q * q, xyz * q * w, xyz * g]
    if alpha is None and beta is None and gamma is None:
        alpha, beta = 1, 0
    return _member_search(field, gens, points,
                          _pool(field, (alpha, beta, gamma)), meta)


# -- ten triple points in characteristic 31 ------------------------------

def _symmetric_forms(field, lam, a, b):
    """The symmetric specialization of the (2,2,2) forms."""
    x, y, z, w = _variables(field)
    A = x * lam - y - z * lam**2
    B = y * lam - x * lam**2 - z
    C = z * lam - x - y * lam**2
    g = (w * w * (x + y + z) * (lam * lam * a)
         + w * (x * A + y * B + z * C) * (lam * b)
         + A * B * C)
    q = (w * w * a + w * (x + y + z) * b + x * A + y * B + z * C)
    return g, q


def ten_point_conditions(lam, a, b, field):
    """The two residues whose vanishing allows a tenth triple point at
    (1:1:1:1) in the symmetric elliptic family."""
    lam, a, b = field(lam), field(a), field(b)
    r1 = a * a + 3 * a * b + 3 * b * b - 3 * a * lam
    third = field(3).inverse()
    u = b + a * third - lam * lam + lam - 1
    v = b + a + lam * lam - lam + 1
    r2 = 3 * (lam - 1) ** 2 * u * u + (lam + 1) ** 2 * v * v
    return r1, r2


def sextic_ten_gf31():
    """The sextic over GF(31) with ten ordinary triple points.

    Symmetric elliptic parameters lambda=2, a=9, b=-11 satisfy both
    residue equations mod 31; the tenth point (1:1:1:1) imposes ten
    linear conditions on the net, whose kernel must be a single line.
    """
    field = Field.GF(31)
    lam, a, b = field(2), field(9), field(-11)
    r1, r2 = ten_point_conditions(lam, a, b, field)
    if r1 or r2:
        raise AssertionError("parameters fail the residue equations")
    g, q = _symmetric_forms(field, lam, a, b)
    x, y, z, w = _variables(field)
    xyz = x * y * z
    gens = [q * q * q, xyz * q * w, xyz * g]
    center = ProjPoint(field, [1, 1, 1, 1])
    jets = _jets(field, [center], [_arrays(field, g.terms) for g in gens],
                 2)[0]
    kern = kernel_basis(field, jets.T)
    if len(kern) != 1:
        raise ArithmeticError(
            f"jet conditions give a {len(kern)}-dimensional kernel")
    coeffs = list(map(field, kern[0]))
    f = _combination(coeffs, gens)
    points = [center,
              ProjPoint(field, [0, 1, lam, 0]),
              ProjPoint(field, [lam, 0, 1, 0]),
              ProjPoint(field, [1, lam, 0, 0])]
    for r in solve_quadratic(lam, b, a):
        for idx in range(3):
            coords = [0, 0, 0, 1]
            coords[idx] = r
            points.append(ProjPoint(field, coords))
    points.sort(key=lambda P: P.sort_key())
    meta = {"family": "sextic-ten-gf31",
            "params": {"lambda": "2", "a": "9", "b": "-11",
                       "coefficients": [str(c) for c in coeffs]}}
    X = Surface(f, meta, points)
    _ensure_certified(X, points)
    return X


# -- S4-symmetric septics ------------------------------------------------

def elementary_symmetric(field):
    """sigma_1 .. sigma_4 in x, y, z, w."""
    x, y, z, w = _variables(field)
    s1 = x + y + z + w
    s2 = x * y + x * z + x * w + y * z + y * w + z * w
    s3 = x * y * z + x * y * w + x * z * w + y * z * w
    s4 = x * y * z * w
    return s1, s2, s3, s4


def septic_s4(field, mu, nu):
    """The S4-symmetric septic with 16 ordinary triple points."""
    mu, nu = field(mu), field(nu)
    if not (mu and nu):
        raise ValueError("mu and nu must be nonzero")
    if mu == nu or mu == -nu:
        raise ValueError("mu = +-nu degenerates the orbit")
    s1, s2, s3, s4 = elementary_symmetric(field)
    c1 = (mu - nu) ** 3 * nu
    f = (  (s1 * s1 * s2 * s3 - s1 * s3 * s3 - s1 ** 3 * s4).scale(c1)
         - (s1 * s2 ** 3).scale((mu + nu) * nu ** 3)
         - (s2 * s2 * s3).scale((mu + nu) * (mu ** 3 - nu ** 3))
         + (s1 * s2 * s4).scale((mu + nu) * (mu - nu) ** 2 * (mu + 2 * nu))
         + (s3 * s4).scale((mu + nu) * (mu - nu) ** 3))
    seed = (-nu, mu, nu, nu)
    orbit = {ProjPoint(field, list(perm))
             for perm in set(itertools.permutations(seed))}
    if len(orbit) != 12:
        raise ValueError(f"orbit has {len(orbit)} points, expected 12")
    points = [vertex(field, i) for i in range(4)] \
        + sorted(orbit, key=lambda P: P.sort_key())
    X = Surface(f, {"family": "septic-s4",
                    "params": {"mu": str(mu), "nu": str(nu)}}, points)
    _ensure_certified(X, points)
    return X


SEPTIC_FACTORS = [
    # (factor text in x, y, z standing for lambda, mu, nu, multiplicity)
    ("z", 5),
    ("x-y", 4),
    ("x-z", 5),
    ("y-z", 5),
    ("x+z", 1),
    ("y+z", 1),
    ("x+y+2*z", 4),
    ("x*y-z^2", 1),
    ("2*x*y+x*z+y*z", 1),
    ("x*y+2*x*z+2*y*z+z^2", 3),
]


def _on_grid(g, grid):
    """The values of a nonzero form g in x, y, z with integer coefficients
    at (a : b : 1) for a, b in the grid (an object array), indexed [a, b]."""
    a, b = grid[:, None], grid[None, :]
    return sum(int(c) * a ** e[0] * b ** e[1] for e, c in g.terms.items())


def _bareiss(m):
    """The determinant of a square integer matrix, a list of rows that it
    overwrites, by Bareiss's fraction-free elimination."""
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return 0
        m[k], m[p], sign = m[p], m[k], sign if p == k else -sign
        for i in range(k + 1, len(m)):  # each division is exact
            m[i] = [(a * m[k][k] - m[i][k] * b) // prev
                    for a, b in zip(m[i], m[k])]
        prev = m[k][k]
    return sign * m[-1][-1]


def septic_determinant_factorization():
    """Prove det = c * prod g_i^m_i for the 7x7 determinant behind the
    S4-symmetric septics with a triple point at (lambda:mu:nu:nu), in
    x, y, z, for the factors g_i and multiplicities m_i of SEPTIC_FACTORS.

    Each row's entries are forms of one degree, so det is a form of degree
    D, the sum of the row degrees (35), or zero; sum m_i deg g_i must be D
    too, or a wrong power of z, which is 1 at z = 1, would pass.  Forms of
    degree D that agree at z = 1 are equal, and there both sides have
    degree at most D in x and in y, so they agree once they agree on the
    (D + 1) x (D + 1) integer grid, where det is exact by Bareiss.  The g_i
    are irreducible (linear, or quadrics whose Gram matrix has rank 3) and
    pairwise non-proportional, so by unique factorization the identity
    fixes c and every m_i.  det vanishes on lambda = -nu as a factor does.
    """
    field = Field.QQ()
    s1, s2, s3, s4 = elementary_symmetric(field)
    basis = [s1 ** 3 * s4, s1 * s1 * s2 * s3, s1 * s2 ** 3, s1 * s2 * s4,
             s1 * s3 * s3, s2 * s2 * s3, s3 * s4]
    x, y, z, w = _variables(field)
    # second partials at (lambda : mu : nu : nu), with integer coefficients
    rows = [[g.derivative(i).derivative(j).substitute([x, y, z, z])
             for g in basis] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1),
                                          (1, 2), (2, 2), (2, 3))]
    row_degrees = [{e.homogeneous_degree() for e in row} for row in rows]
    if any(len(d) != 1 or None in d for d in row_degrees):
        raise ArithmeticError("a row's entries are not forms of one degree")
    degree = sum(d.pop() for d in row_degrees)
    factors = [(MultiPoly.parse(text, field), mult)
               for text, mult in SEPTIC_FACTORS]
    if sum(mult * g.homogeneous_degree() for g, mult in factors) != degree:
        raise ArithmeticError(f"the factors' degree is not {degree}")
    grid = np.array(range(degree + 1), dtype=object)
    entries = np.array([[_on_grid(e, grid) for e in row] for row in rows])
    det = np.array([_bareiss(m) for m in np.moveaxis(entries, (0, 1), (2, 3))
                    .reshape(-1, len(rows), len(rows)).tolist()], dtype=object)
    rhs = np.prod([_on_grid(g, grid).ravel() ** mult for g, mult in factors],
                  axis=0)
    k = np.flatnonzero(rhs)[0]
    constant = Fraction(det[k], rhs[k])
    if not constant or (det * constant.denominator
                        != rhs * constant.numerator).any():
        raise ArithmeticError("the determinant is not c times the product "
                              "of the stated factors")
    if all(g.substitute([-z, y, z, w]) for g, _ in factors):
        raise ArithmeticError("determinant does not vanish at lambda = -nu")
    return {"constant": str(constant),
            "factors": [{"factor": text, "multiplicity": mult}
                        for text, mult in SEPTIC_FACTORS],
            "degree": degree, "vanishes_at_lambda_eq_minus_nu": True}


def detect_minus_one_conics(points):
    """All 5-point subsets lying in a common plane, with the plane: a
    kernel vector of each subset that one stacked rank marks."""
    points = list(points)
    if len(points) < 5:
        raise ValueError("need at least five points")
    field = points[0].field
    coords = _values(field, [P.coords for P in points])
    return [(c, _combination(_elements(field, kernel_basis(
        field, coords[list(c)])[0]), _variables(field)))
        for c in _degenerate_subsets(field, coords, 5)]
