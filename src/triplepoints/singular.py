"""Local analysis at points of a surface: jets, multiplicity, the
ordinary-triple-point decision, singular-point enumeration over finite
fields, Jacobian Hilbert functions and the equisingular tangent space.

The local analysis is one batched pass over all the points of a surface:
_jets takes the jets at every point at once (arrays with a leading point
axis), _certify_points reads the multiplicities and the tangent cones
from one order-3 jet array and ranks all the cones in one elimination,
and the equisingular tangent space is one rank of a matrix of the
points' jets and their cones' partials.  local_jet and
certify_ordinary_triple_point are the one-point cases.

The Jacobian Hilbert function h(0), h(1), ... is one incremental pass:
J_k = w*J_{k-1} + the multiples m*g of J's generators with w not
dividing m, so the reduced echelon form of J_k is that of J_{k-1} times
w, plus the reduced form of those rows once one product has cleared
w*J_{k-1} from them (_Echelon, _hilbert_value).  In coordinates where a plane l
is w, the pivots also say whether (R/(J + l))_k = 0, and the degree is
settled by regularity, by the Tjurina bound of certify or, at the end
of the pass, by Lazard's bound (singular_scheme_degree).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, lcm

import numpy as np

from .fields import Field
from .poly import (MultiPoly, exponents_of_degree, num_monomials, _arrays,
                   _derivative, _digits)
from .linalg import (_numeric, _tail, _zeros, _ints, _values, _elements,
                     _nonzero, _mul, _dot, rank, ranks, rref)
from . import gfnum
from .surfaces import ProjPoint, Surface, SCHEMA_VERSION


class DomainError(Exception):
    """The input is well formed but the computation it asks for fails;
    the CLI reports it as one error document with exit code 1."""


class CertificationFailure(DomainError):
    """A point is not an ordinary triple point; .reason says why."""

    def __init__(self, point, reason, **info):
        super().__init__(f"{point}: {reason}")
        self.point = point
        self.reason = reason
        self.info = info


def local_jet(X, P: ProjPoint, k: int) -> MultiPoly:
    """Order-k Taylor expansion at P of a Surface or a MultiPoly.

    The chart variable of P (its leading coordinate) is set to 1 and does
    not occur; the other variables, translated to P, keep their names.
    Terms of degree above k are dropped.  The one-point case of _jets.
    """
    if not (0 <= k):
        raise ValueError("negative jet order")
    f = X.f if isinstance(X, Surface) else X
    field = f.field
    if not f:
        return f
    jet = _jets(field, [P], [_arrays(field, f.terms)], k)[0, 0]
    return MultiPoly(field, dict(zip(_embed(P.chart, k),
                                     _elements(field, jet))))


def multiplicity(X: Surface, P: ProjPoint) -> int:
    """Order of vanishing of X at P; 0 iff P is not on X."""
    d = X.degree
    jet = _jets(X.field, [P], [_arrays(X.field, X.f.terms)], d)[:, 0]
    (m,) = _orders(X.field, jet, d).tolist()
    if m < 0:
        # the dehomogenized translate of a nonzero form is nonzero
        raise AssertionError("zero local expansion of a nonzero surface")
    return m


@dataclass
class TriplePointCertificate:
    point: ProjPoint
    multiplicity: int
    tangent_cone: MultiPoly
    smooth_rank: int


def _cone_partials(field, coeffs, k):
    """The degree-k Macaulay matrices of the three partials of cone cubics,
    through _CONE_MAPS[k] (as pairs over GF(p^2)); for k = 2 their rows
    are the partials.  coeffs: the ten coefficients of each cubic, on the
    last axis of a coefficient array, in exponents_of_degree(3, 3) order
    of the local variables."""
    tail = _tail(field)
    cmap = _CONE_MAPS[k]
    mats = _dot(field, coeffs, _ints(field, cmap) if tail else cmap)
    return mats.reshape(coeffs.shape[:-1 - len(tail)] + (
        3 * num_monomials(k - 2, 3), num_monomials(k, 3)) + tail)


def _cone_smooth_rank(field, coeffs):
    """The rank of each degree-4 matrix of _cone_partials: 15 iff the
    three partial quadrics have no common projective zero, i.e. the cubic
    is smooth."""
    return ranks(field, _cone_partials(field, coeffs, 4))


def _orders(field, jets, k):
    """The order of each order-k jet (a row of jets): the degree of its
    first nonzero column, or -1 for a zero jet."""
    degree = np.repeat(np.arange(k + 1), [num_monomials(j, 3)
                                         for j in range(k + 1)])
    nonzero = _nonzero(field, jets)
    return np.where(nonzero.any(axis=1), degree[nonzero.argmax(axis=1)], -1)


def _certify_points(X: Surface, points, check=True):
    """Certify that each point is an ordinary triple point of X, in one
    batched pass over all of them.

    Multiplicity exactly 3 and a smooth tangent-cone cubic are read from
    one order-3 jet per point (_jets): the multiplicity from its degree
    blocks (order-d jets only at the rare points where it is zero), the
    cone as its degree-3 block, and the cone ranks from one product with
    _CONE_MAPS[4] and one batched rank (_cone_smooth_rank).

    Returns one TriplePointCertificate or CertificationFailure per point,
    in order; with check, the first failure is raised instead.
    """
    if not points:
        return []
    field = X.field
    if field.char in (2, 3):
        raise ValueError(
            "triple-point certification unsupported in characteristic 2, 3")
    jets = _jets(field, points, [_arrays(field, X.f.terms)], 3)[:, 0]
    mult = _orders(field, jets, 3)
    # a zero order-3 jet means multiplicity at least 4
    for i in np.flatnonzero(mult < 0):
        mult[i] = multiplicity(X, points[i])
    # at a triple point the jet is the tangent cone
    cones = jets[mult == 3, 10:]
    found = zip(_cone_smooth_rank(field, cones).tolist(), cones)
    out = []
    for P, m in zip(points, mult.tolist()):
        if m != 3:
            out.append(CertificationFailure(P, "multiplicity", multiplicity=m))
            continue
        r, cone = next(found)
        if r != 15:
            out.append(CertificationFailure(P, "tangent cone singular",
                                            multiplicity=3, rank=r))
            continue
        out.append(TriplePointCertificate(P, 3, MultiPoly(field, dict(zip(
            _embed(P.chart, 3)[10:], _elements(field, cone)))), r))
    if check:
        for c in out:
            if isinstance(c, CertificationFailure):
                raise c
    return out


def distinct_points(points):
    """The points in order, a point given twice kept once (its first
    occurrence): certify and equisingular_tangent_dimension count a
    repeated point once."""
    return list(dict.fromkeys(points))


def certify_ordinary_triple_point(X: Surface, P: ProjPoint) -> TriplePointCertificate:
    """Certificate that P is an ordinary triple point of X, or raise.

    Requires multiplicity exactly 3 and a smooth tangent-cone cubic,
    decided by the rank-15 saturation test on the cone's partials.  The
    one-point case of _certify_points.
    """
    return _certify_points(X, [P])[0]


# -- enumeration over finite fields -------------------------------------

_ENUM_LIMIT = 6_000_000


def common_projective_zeros(polys, field: Field):
    """All points of P^3 over the finite field where every poly vanishes.

    polys: (exps, vals) pairs, as _arrays makes them; over GF(p^2) the
    vals may also be GF(p) residues.  Chart-by-chart sweep
    (gfnum.sweep_chart); canonical points in lexicographic order of their
    canonical coordinates.
    """
    if field.kind == "QQ":
        raise ValueError("enumeration requires a finite field")
    q = field.order
    if q**3 + q**2 + q + 1 > _ENUM_LIMIT:
        raise ValueError(f"P^3 over order-{q} field is too large to sweep")
    elems = list(field.elements())
    found = []
    for chart in range(4):
        for row in gfnum.sweep_chart(polys, chart, field.p, field.nonresidue):
            found.append(ProjPoint(
                field, [0] * chart + [1] + [elems[i] for i in row]))
    found.sort(key=lambda P: P.sort_key())
    return found


def enumerate_singular_points(X: Surface, e: int = 1):
    """All points of P^3(GF(p^e)) where f and its four partials vanish.

    e=2 sweeps the canonical quadratic extension, the coefficients of f
    entering as real parts (f is included along with the partials, which
    matters when p divides the degree).
    """
    if e not in (1, 2):
        raise ValueError("extension degree must be 1 or 2")
    f = _arrays(X.field, X.f.terms)
    return common_projective_zeros(
        [f] + _partials(X.field, *f),
        X.field if e == 1 else X.field.extension())


def _swept_points(X: Surface, checks: dict):
    """The singular points of X by the sweep (enumerate_singular_points);
    over the rationals, and over a field too large to sweep (then
    checks["sweep"] says why), the declared points X.points."""
    if X.field.kind == "QQ":
        return X.points
    try:
        return enumerate_singular_points(X)
    except ValueError as exc:
        checks["sweep"] = f"skipped: {exc}"
        return X.points


# -- coefficient arrays: Macaulay matrices and jets ---------------------
#
# A polynomial is a pair (exps, vals), as poly._arrays makes it: an int
# array with one exponent row per term, and its coefficients as a linalg
# coefficient array.

def _frozen(a):
    """a, made read-only: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _exponents(k, n=4):
    """exponents_of_degree(k, n) as an int64 array, one row per monomial,
    built once per (k, n) (read-only)."""
    return _frozen(np.array(exponents_of_degree(k, n),
                            dtype=np.int64).reshape(-1, n))


def _partials(field, exps, vals):
    """The nonzero partial derivatives (poly._derivative), in variable
    order."""
    return [g for g in (_derivative(field, exps, vals, i)
                        for i in range(exps.shape[1])) if len(g[0])]


def _index(keys, k, n=4):
    """The positions in exponents_of_degree(k, n) of these keys."""
    ascending = (_exponents(k, n) @ _digits(k, n))[::-1]
    return len(ascending) - 1 - np.searchsorted(ascending, keys)


def _macaulay(field, gens, k, w_free=False):
    """Macaulay matrix of nonzero homogeneous gens in degree k.

    One row per generator g and monomial m of degree k - deg g (in
    exponents_of_degree order), holding the coefficients of m*g; one
    column per monomial of degree k, in exponents_of_degree order.  With
    w_free, only the rows of the m not divisible by the last variable.  A
    generator of degree above k has no such m, and no rows.
    """
    n = gens[0][0].shape[1]
    digits = _digits(k, n)
    rows, cols, vals, top = [], [], [], 0
    for exps, v in gens:
        shifts = _exponents(k - int(exps[0].sum()), n)
        if w_free:
            shifts = shifts[shifts[:, -1] == 0]
        shifts = shifts @ digits
        rows.append(np.repeat(np.arange(top, top + len(shifts)), len(v)))
        cols.append((shifts[:, None] + exps @ digits).ravel())
        # along the term axis, which is not the last one for pairs
        vals.append(np.tile(v, (len(shifts),) + (1,) * (v.ndim - 1)))
        top += len(shifts)
    mac = _zeros(field, (top, num_monomials(k, n)))
    cols = _index(np.concatenate(cols), k, n)
    # the terms of one generator land in distinct columns of its rows
    mac[np.concatenate(rows), cols] = np.concatenate(vals)
    return mac


def _cone_map(k):
    """The integer map from the ten coefficients of a ternary cubic, in
    exponents_of_degree order, to the flattened degree-k Macaulay matrix
    of its three partials.  Row c is that matrix for x^c, whose partials
    are c_j * x^(c - e_j); a zero one is written 0 * x_0^2 and gives zero
    rows.  _macaulay does not reduce, so any GF(p) will do."""
    rows = []
    for c in _exponents(3, 3):
        rows.append(_macaulay(Field.GF(2), [
            (np.array([c - e if c[j] else (2, 0, 0)]), c[j:j + 1])
            for j, e in enumerate(np.eye(3, dtype=np.int64))], k).ravel())
    return np.array(rows)


# k = 2: the partials' coefficients; k = 4: the smoothness rank's 18 x 15
_CONE_MAPS = {k: _cone_map(k) for k in (2, 4)}


# -- jets ---------------------------------------------------------------
#
# At a point P the chart variable is set to 1 and the other three,
# translated to P, are the local variables s_0, s_1, s_2.  A jet is a
# vector over the local monomials of degree <= k (_jet_columns).  Jets
# are taken at many points at once: the arrays carry a leading point axis.

# the local variables of each chart
_LOCAL = np.array([[i for i in range(4) if i != chart] for chart in range(4)])

# at most this many entries in one (points x terms x columns) array
_BATCH_CELLS = 2**17


@lru_cache(maxsize=None)
def _jet_columns(k):
    """Local exponent triples of degree 0, 1, ..., k, each degree in
    exponents_of_degree order (read-only)."""
    return _frozen(np.concatenate([_exponents(j, 3) for j in range(k + 1)]))


@lru_cache(maxsize=None)
def _embed(chart, k):
    """The monomials of _jet_columns(k) at a point of the chart, as
    exponent 4-tuples: 0 at the chart."""
    return tuple(map(tuple, np.insert(_jet_columns(k), chart, 0,
                                      axis=1).tolist()))


@lru_cache(maxsize=None)
def _binomials(n, k, field):
    """C(a, r) for a <= n and r <= k, as coefficients (read-only)."""
    return _frozen(_ints(field, [[comb(a, r) for r in range(k + 1)]
                                 for a in range(n + 1)]))


def _jet_matrix(field, points, exps, k):
    """Order-k jets at each point of the monomials with exponent rows exps:
    a (points x terms x C(k+3, 3)) array.

    With b_m the local coordinates of P and e_m the exponents of the local
    variables, a monomial becomes prod_m (b_m + s_m)^e_m, so its entry in
    column (r_0, r_1, r_2) is prod_m B[e_m, r_m, m] for the binomial
    table B[e, r, m] = C(e, r) * b_m^(e - r) of P.  Over a finite field
    the table holds residues (pairs over GF(p^2)) and the product is
    reduced after every factor, so no intermediate exceeds (p-1)**2 <
    2**62 (over GF(p^2) the bound of gfnum._mul), as p < 2**31.
    """
    local = _LOCAL[[P.chart for P in points]]
    e = np.moveaxis(exps[:, local], 1, 0)
    top = int(e.max(initial=0))
    base = _values(field, [[P.coords[i] for i in row]
                           for P, row in zip(points, local.tolist())])
    pows = [np.broadcast_to(_values(field, field.one), base.shape)]
    for _ in range(top):
        pows.append(_mul(field, pows[-1], base))
    # comb(a, r) = 0 where a < r, so the clipped power there is harmless
    shift = np.maximum(np.subtract.outer(np.arange(top + 1),
                                         np.arange(k + 1)), 0)
    binom = _binomials(top, k, field)
    table = _mul(field, binom[:, :, None], np.stack(pows, axis=1)[:, shift])
    cols = _jet_columns(k)
    at = np.arange(len(points))[:, None, None]
    out = table[at, e[:, :, None, 0], cols[:, 0], 0]
    for m in (1, 2):
        out = _mul(field, out, table[at, e[:, :, None, m], cols[:, m], m])
    return out


def _jets(field, points, polys, k):
    """Order-k jets at each point of (exps, vals) polynomials: a (points x
    polys x C(k+3, 3)) array, their coefficients times the jets of their
    terms summed per polynomial.  The points (at least one) go through
    _jet_matrix in chunks of at most _BATCH_CELLS entries."""
    exps, vals = (np.concatenate(x) for x in zip(*polys))
    starts = np.cumsum([0] + [len(v) for _, v in polys[:-1]])
    step = max(1, _BATCH_CELLS // (len(vals) * num_monomials(k)))
    chunks = [points[s:s + step] for s in range(0, len(points), step)]
    out = np.concatenate([np.add.reduceat(
        _mul(field, vals[:, None], _jet_matrix(field, c, exps, k)),
        starts, axis=1) for c in chunks])
    return out % field.p if _numeric(field) else out


# -- Jacobian Hilbert function ------------------------------------------

class _Echelon:
    """The reduced echelon form of J in one degree k, by its free block.

    pivots and free are complementary column indices (exponents_of_degree
    order); row i of the form is the monomial pivots[i] plus block[i] on
    the free monomials, free listed in the column order [w-free monomials
    of degree k | w times that of degree k-1].  covered: every w-free
    monomial is a pivot, (R/(J + w))_k = 0.  It starts at k = -1.
    """
    __slots__ = ("k", "pivots", "free", "block", "covered")

    def __init__(self, field):
        self.k = -1
        self.pivots = self.free = np.zeros(0, dtype=np.int64)
        self.block = _zeros(field, (0, 0))
        self.covered = False


def _hilbert_value(field, gens, d, k, echelon):
    """h(k) = dim (R/J)_k for J generated by gens, the generators of J for
    a degree-d form (_jacobian), given as (exps, vals) pairs.

    echelon holds J's form in degree k-1 and is moved to degree k: the
    rows N of the w-free multiples, reduced modulo w*J_{k-1}, are
    N - N[:, w*pivots] @ block on the other columns, and their reduced
    form adds the new pivot rows.  Its columns are [the w-free monomials
    | w*free]: w*J_{k-1} is zero on the first, so they all become pivots
    iff (R/(J + w))_k = 0 (echelon.covered).  The old rows are nonzero
    only on the w*free columns: those that stay free are copied, and only
    those that became new pivots are cleared, by their rows of the new form.
    """
    if echelon.k != k - 1:
        raise ValueError("the Hilbert function is computed degree by degree")
    # w*m keeps the order of the monomials m of degree k-1
    w_exp = _exponents(k)[:, -1]
    lead, on_w = np.flatnonzero(w_exp == 0), np.flatnonzero(w_exp)
    old = on_w[echelon.pivots]
    rest = np.concatenate([lead, on_w[echelon.free]])
    at = np.arange(len(lead), len(rest))
    red, new = _zeros(field, (0, len(rest))), []
    if k >= d - 1 and gens:
        rows = _macaulay(field, gens, k, w_free=True)
        m = rows[:, rest]
        m[:, at] -= _dot(field, rows[:, old], echelon.block)
        red, new = rref(field, m)
        red = red[:len(new)]
    # the pivots are ascending: the w-free ones come first
    echelon.covered = len(new) >= len(lead) and new[len(lead) - 1] < len(lead)
    keep = np.delete(np.arange(len(rest)), new)
    turned = np.isin(at, new)
    block = _zeros(field, (len(old), len(keep)))
    block[:, np.searchsorted(keep, at[~turned])] = echelon.block[:, ~turned]
    if turned.any():
        # red is the identity on the new pivots: clear them from the old rows
        block -= _dot(field, echelon.block[:, turned],
                      red[np.searchsorted(new, at[turned])][:, keep])
    block = np.concatenate([block, red[:, keep]])
    echelon.k = k
    echelon.pivots = np.concatenate([old, rest[new]])
    echelon.free = rest[keep]
    echelon.block = block % field.p if _numeric(field) else block
    return len(keep)


def _jacobian(X):
    """The generators of J, the ideal of the singular scheme of a Surface
    or a form f of degree d: the nonzero partials of f, and f itself when
    the characteristic p divides d.  Otherwise Euler's relation d*f =
    sum x_i df/dx_i puts f in the ideal of the partials."""
    f = X.f if isinstance(X, Surface) else X
    field, (exps, vals) = f.field, _arrays(f.field, f.terms)
    d = int(exps[0].sum())
    with_f = d > 0 and field.char and d % field.char == 0
    return _partials(field, exps, vals) + [(exps, vals)] * with_f


def jacobian_hilbert(X: Surface, k_max: int = None):
    """Hilbert function h(0..k_max) of R modulo the Jacobian ideal J
    (_jacobian: f is among its generators when p divides d); k_max is
    4*d by default and a ValueError below d - 1."""
    d = X.degree
    if k_max is None:
        k_max = 4 * d
    elif k_max < d - 1:
        raise ValueError(f"k_max must be at least {d - 1} for a "
                         f"degree-{d} surface")
    gens, echelon = _jacobian(X), _Echelon(X.field)
    return [_hilbert_value(X.field, gens, d, k, echelon)
            for k in range(k_max + 1)]


def _planes(field, gens, points):
    """The i of the planes l_i = w + i*x + i^2*y + i^3*z worth a pass: the
    first four in 1..min(p, 3m + 4) (1..3m + 4 over QQ) whose plane misses
    the m points at which every generator of J vanishes.  A plane through
    such a point never certifies: evaluation at the point is a nonzero
    functional on R_t that vanishes on J_t + l_i*R_{t-1}.  A point P lies on at most
    3 of the l_i, as l_i(P) is a nonzero cubic in i, so four are left when
    p >= 3m + 4; with m = 0 they are 1..min(p, 4).  The list is empty only
    when l_p = w meets such a point."""
    if points and gens:
        # the order-0 jets are the values of the generators
        zero = ~_nonzero(field, _jets(field, points, gens, 0)).any(
            axis=(1, 2))
        points = [P for P, z in zip(points, zero) if z]
    top = 3 * len(points) + 4
    planes = range(1, min(field.char or top, top) + 1)
    if not points:
        return list(planes)[:4]
    # column i - 1: the coefficients of x, y, z, w in l_i
    values = _dot(field, _values(field, [P.coords for P in points]), _ints(
        field, [[i ** j for i in planes] for j in (1, 2, 3, 0)]))
    return [i for i, ok in zip(planes, _nonzero(field, values).all(axis=0))
            if ok][:4]


def _plane_coordinates(f, i):
    """l_i = w + i*x + i^2*y + i^3*z, and the generators of J (_jacobian)
    in coordinates where l_i is the variable w: those of f with
    w - (l_i - w) for w."""
    x, y, z, w = (MultiPoly.variable(f.field, j) for j in range(4))
    plane = MultiPoly.parse(f"w+{i}*x+{i ** 2}*y+{i ** 3}*z", f.field)
    return plane, _jacobian(f.substitute([x, y, z, w - (plane - w)]))


def singular_scheme_degree(X: Surface):
    """Degree of the singular scheme, a proven positive-dimensional
    verdict, or neither (undetermined).

    Computes h(k) = dim (R/J)_k, J the Jacobian ideal (_jacobian), for k =
    0, 1, ..., max(4d - 5, d), one more when p divides d, in one
    incremental pass, in coordinates where a plane l = l_i is w
    (_plane_coordinates; their generators span the image of J, so h is
    unchanged): the pivots say whether (R/(J + l))_k = 0, "covered
    at k".  Covered at t, l maps (R/J)_{k-1} onto (R/J)_k for all k > t:
    h is non-increasing from t, and h(k) >= D, the degree, for k >= t.

    The regularity certificate: k >= d, h(k) = h(k-1) and l covered at
    k-1, l the first of _planes(..., X.points) that is; the pass of the
    first runs on, the others only to such k-1 (no l is covered there if
    h(k-1) > h(k-2)).  Then l is also injective on (R/J)_{k-1}: (J :
    l)_{k-1} = J_{k-1} and (J + l)_{k-1} = R_{k-1}.  By Bayer-Stillman
    (Invent. Math. 87, 1987, Thm 1.10 (b), j = 1) J is (k-1)-regular, so
    h(t) = h(k) for all t >= k-1.  The degree must be k-1: a zero
    cokernel at k with h(k) = h(k-1) is not the theorem's hypothesis.
    The last value returned, h(k+1), is proven, not computed.  For d = 1,
    J is the unit ideal and the certificate fires at k = 1.

    If the pass ends with no certificate: J is generated by at most four
    forms of degree d - 1 in four variables (and f when p divides d), so
    if V(J) were finite, h(k) would equal its degree for all k from the
    sum of the four largest degrees minus 3, 4d - 7 (4d - 6 with f; D.
    Lazard, EUROCAL '83, LNCS 162), two below the pass's end.  So h not
    constant on the last three degrees proves V(J) positive-dimensional
    (lazard); constant, it proves nothing (undetermined, as when every
    plane tried meets V(J)).

    Returns {"hilbert": [...], "evidence": {...}} and "degree": n (proven)
    or "verdict": "positive-dimensional" or neither.  The evidence:
    "method" (regularity, lazard, undetermined; tjurina only in certify),
    "proven" (false only for undetermined), "computed_to" (the last degree
    computed) and, for regularity, "plane" and "regular_from" (k-1).
    """
    return _scheme_degree(X, 0)


def _scheme_degree(X: Surface, lower):
    """singular_scheme_degree, and when lower > 0 is a proven lower bound
    for the degree D (certify's Tjurina bound) the rule tjurina: covered
    at t <= k and h(k) = lower prove D = lower, as lower <= D <= h(k).
    Evidence: the plane, "covered_from" t, "computed_to" k (h ends there)."""
    d = X.degree
    if d < 1:  # the rules compare h(k) with h(k-1) from k = d on
        raise ValueError("a singular scheme needs degree at least 1")
    field, gens = X.field, _jacobian(X)
    # f, of degree d, among the generators puts Lazard's bound one later
    top = max(4 * d - 5, d) + (int(gens[-1][0][0].sum()) == d)
    planes = _planes(field, gens, X.points) or [field.char]
    passes = {}  # i: l_i, J's generators, its form and (h(t), covered at t)

    def at(i, t):
        if i not in passes:
            passes[i] = (*_plane_coordinates(X.f, i), _Echelon(field), [])
        _, gens, echelon, done = passes[i]
        for k in range(len(done), t + 1):
            done.append((_hilbert_value(field, gens, d, k, echelon),
                         echelon.covered))
        return done[t]

    h, first = [], planes[0]
    for k in range(top + 1):
        h.append(at(first, k)[0])
        # l covers at k-1 only if it maps (R/J)_{k-2} onto (R/J)_{k-1}
        if k >= d and h[k] == h[k - 1] <= h[max(k - 2, 0)]:
            for i in (i for i in planes if at(i, k - 1)[1]):
                return {"degree": h[k], "hilbert": h + [h[k]], "evidence": {
                    "method": "regularity", "proven": True,
                    "plane": str(passes[i][0]), "regular_from": k - 1,
                    "computed_to": k}}
        covered = [c for _, c in passes[first][3]]
        if lower and h[k] == lower and covered[k]:
            return {"degree": lower, "hilbert": h, "evidence": {
                "method": "tjurina", "proven": True,
                "plane": str(passes[first][0]),
                "covered_from": covered.index(True), "computed_to": k}}
    if d >= 2 and len(set(h[top - 2:])) == 1:
        return {"hilbert": h, "evidence": {
            "method": "undetermined", "proven": False, "computed_to": top}}
    return {"verdict": "positive-dimensional", "hilbert": h, "evidence": {
        "method": "lazard", "proven": True, "computed_to": top}}


# -- equisingular tangent space -----------------------------------------

def equisingular_tangent_dimension(X: Surface, points) -> int:
    """Dimension of the projective equisingular tangent space at X.

    A degree-d form g, with coefficients c, is tangent to the
    equisingular stratum iff at each triple point P its 2-jet M_P c (M_P
    the 2-jets of the n degree-d monomials, _jet_matrix) is a combination
    of the 2-jets of the partials of f.  At an ordinary triple point the
    three local partials df/ds_i span those, independently: their 2-jets
    are the partials of the smooth tangent cone (_cone_partials, on the
    quadric block), and by Euler's relation the chart partial is d*f -
    sum (b_i + s_i) df/ds_i, b the point's local coordinates, whose 2-jet
    is -sum b_i times theirs (jet_2 f = jet_1 df/ds_i = 0).  So with A the
    matrix of 10 rows per point and the columns [M | the three cone
    partials of each point], the kernel of A has dimension n + 3m - rank A
    and maps onto the tangent c one to one (the three columns of a point
    are independent): each of the m points adds exactly 3.  Returns
    n - 1 + 3m - rank A (f itself always qualifies).  Repeated points
    count once.
    """
    field, tail = X.field, _tail(X.field)
    points = distinct_points(points)
    # the points may come from a file: check them, not just trust them
    certs = _certify_points(X, points)
    mons = _exponents(X.degree)
    m, n = len(points), len(mons)
    if not points:
        return n - 1
    cones = _values(field, [[c.tangent_cone.terms.get(e, field.zero)
                             for e in _embed(c.point.chart, 3)[10:]]
                            for c in certs])
    lam = _zeros(field, (m, 10, m, 3))
    # a point's own three columns, on its rows past the jets of degree <= 1
    lam[range(m), 4:, range(m)] = np.swapaxes(
        _cone_partials(field, cones, 2), 1, 2)
    a = np.concatenate([np.swapaxes(_jet_matrix(field, points, mons, 2), 1, 2),
                        lam.reshape((m, 10, 3 * m) + tail)], axis=2)
    return n - 1 + 3 * m - rank(field, a.reshape((10 * m, n + 3 * m) + tail))


# -- certification pipeline ---------------------------------------------

def _point_info(cert):
    """A point's record in the report, from its certificate or failure."""
    info = {"coords": cert.point.to_json()}
    if isinstance(cert, CertificationFailure):
        info.update(multiplicity=cert.info["multiplicity"], tangent_cone=None,
                    smooth_rank=cert.info.get("rank"), failure=cert.reason)
    else:
        info.update(multiplicity=3, tangent_cone=str(cert.tangent_cone),
                    smooth_rank=cert.smooth_rank)
    return info


_QQ_PRIME = 32003


def _reduction(X: Surface) -> Surface:
    """X mod p = _QQ_PRIME, with its declared points: each vector of
    coefficients or coordinates scaled to coprime integers (not all 0 mod
    p, so the degree is kept and a point stays a point)."""
    field, f = Field.GF(_QQ_PRIME), X.f.terms

    def mod_p(cs):
        den = lcm(*(c.val.denominator for c in cs))
        num = gcd(*(c.val.numerator for c in cs))
        return [field(c.val * den / num) for c in cs]
    points = [ProjPoint(field, mod_p(P.coords)) for P in X.points]
    return Surface(MultiPoly(field, dict(zip(f, mod_p(list(f.values()))))),
                   points=points)


def certify(X: Surface) -> dict:
    """Certify the singular locus of X; returns the report, a JSON document.

    The declared points X.points are certified; a point declared twice is
    listed and counted once.  Over a finite field the sweep (_swept_points)
    then runs only where the proof below leaves room: in characteristic 2
    or 3 (first, in place of X.points), or when a declared point fails, no
    degree is proven or it is not 8n.  Its singular points are then
    certified in place of the declared ones, or X.points again where the
    field is too large to sweep (checks["sweep"] says why).  When the proof
    covers the declared points they are listed in the sweep's order
    (ProjPoint.sort_key), the points the sweep would have found.

    The verdict: positive-dimensional-singular-locus where proven
    (below), else certified-exact if every listed point certifies and the
    proven degree is 8n, else certified-rational-only if they all certify
    and at least one is listed, else failed.  degree_evidence says how the
    pass settled it (singular_scheme_degree, and tjurina below); over QQ,
    on _reduction(X), with its "prime".  Reduction mod p can only lower
    the rank of a Macaulay matrix of the integer partials, so h_QQ(k) <=
    h_p(k) for every k, and a degree D proven mod p bounds the degree of
    V(J) over QQ by D.

    The pass also takes the lower bound 8n, n the points certified before
    it (below): covered at t <= k and h(k) = 8n prove the degree 8n a
    degree before regularity can (tjurina; hilbert ends at the computed
    h(k)).  Over QQ on the reduction: covered mod p means covered over QQ,
    so 8n <= deg_QQ <= h_QQ(k) <= h_p(k) = 8n.  A wrong bound would prove
    a wrong degree: only certify passes one.

    Each of the n certified points adds exactly 8 to the degree, its
    length l_P = dim O_P/J_P.  In characteristic 0 an ordinary triple point
    is right-equivalent to its quasi-homogeneous tangent cone (no
    Milnor-algebra monomial of weight > 1), so its Tjurina number is
    8 = mu (Saito 1971).  Over GF(p^e), p >= 5, take f dehomogenized in
    the local variables s_0, s_1, s_2 at P.  The initial forms of the
    df/ds_i are the partials of the smooth cone cubic, a regular sequence
    with Hilbert series (1 + t)^3, so (df/ds) has colength 8 and, by
    Nakayama, contains m^4.  Euler's relation d*f = sum x_i df/dx_i puts
    the chart partial in (df/ds, f), so J_P = (df/ds, f) (f is a
    generator of J when p divides d), and f lies in (df/ds): its cone is
    (1/3) sum s_i d(cone)/ds_i, as 3 is a unit, and the rest of f lies
    in m^4.  So l_P = 8, 8n <= deg <= D, and D = 8n proves that there is
    no other singular point, not even over the algebraic closure, where
    the sweep sees only the rational points.  A positive-dimensional locus
    mod p proves nothing over QQ.
    """
    checks, rational = {}, X.field.kind == "QQ"
    points, sweep = X.points, not rational
    if sweep and X.field.char in (2, 3):  # no triple-point certificates
        points, sweep = _swept_points(X, checks), False
    certs = _certify_points(X, distinct_points(points), check=False)
    lower = 8 * sum(isinstance(c, TriplePointCertificate) for c in certs)
    result = _scheme_degree(_reduction(X) if rational else X, lower)
    if sweep:
        if result.get("degree") == lower == 8 * len(certs):
            certs.sort(key=lambda c: c.point.sort_key())
        else:
            certs = _certify_points(
                X, distinct_points(_swept_points(X, checks)), check=False)
    infos = [_point_info(c) for c in certs]
    all_ok = all("failure" not in info for info in infos)
    expected = 8 * sum(isinstance(c, TriplePointCertificate) for c in certs)
    evidence = result["evidence"]
    if rational:
        evidence["prime"] = _QQ_PRIME
    if "verdict" in result and not rational:
        verdict = "positive-dimensional-singular-locus"
    elif all_ok and result.get("degree") == expected:
        verdict = "certified-exact"
    elif all_ok and infos:
        verdict = "certified-rational-only"
    else:
        verdict = "failed"
    out = {"schema_version": SCHEMA_VERSION, "surface": str(X.f),
           "field": X.field.tag, "points": infos, "hilbert": result["hilbert"],
           "degree_evidence": evidence, "expected_degree": expected,
           "verdict": verdict}
    if checks:
        out["checks"] = checks
    return out
