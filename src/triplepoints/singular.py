"""Local analysis at points of a surface: jets, multiplicity, the
ordinary-triple-point decision, singular-point enumeration over finite
fields, Jacobian Hilbert functions and the equisingular tangent space.

The local analysis is one batched pass over all the points of a surface:
_jets takes the jets at every point at once (arrays with a leading point
axis), _certify_points reads the multiplicities and the tangent cones
from one order-3 jet array and ranks all the cones in one elimination,
and the tangent conditions of every point are read from one elimination
of the stacked partial jets.  local_jet and certify_ordinary_triple_point
are the one-point cases.

The Jacobian Hilbert function h(0), h(1), ... is one incremental pass:
J_k = w*J_{k-1} + the multiples m*g of the partials with w not dividing
m, so the reduced echelon form of J_k is that of J_{k-1} times w, plus
the reduced form of those rows once one product has cleared w*J_{k-1}
from them.  Only the pivot and free monomials and the free block are
kept from one degree to the next (_Echelon, _hilbert_value).
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .fields import Field
from .poly import MultiPoly, exponents_of_degree, num_monomials
from .linalg import (_numeric, _zeros, _ints, _values, _mul, _dot, rank,
                     ranks, rref, leading_zero_rows)
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
    jet = _jets(field, [P], [_arrays(field, f.terms)], k)[0, 0].tolist()
    return MultiPoly.from_coeff_vector(
        field, _embed(P.chart, k), map(field, jet))


def multiplicity(X: Surface, P: ProjPoint) -> int:
    """Order of vanishing of X at P; 0 iff P is not on X."""
    jet = local_jet(X, P, X.degree)
    if not jet:
        # the dehomogenized translate of a nonzero form is nonzero
        raise AssertionError("zero local expansion of a nonzero surface")
    return min(map(sum, jet.terms))


class TriplePointCertificate:
    __slots__ = ("point", "multiplicity", "tangent_cone", "smooth_rank")

    def __init__(self, point, mult, tangent_cone, smooth_rank):
        self.point = point
        self.multiplicity = mult
        self.tangent_cone = tangent_cone
        self.smooth_rank = smooth_rank

    def __repr__(self):
        return f"TriplePointCertificate({self.point})"


def _cone_smooth_rank(field, coeffs):
    """Ranks of degree-2-monomial multiples of the cones' partials.

    coeffs: the ten coefficients of each cone cubic, on the last axis of
    a coefficient array, in exponents_of_degree(3, 3) order of the local
    variables; one rank per cubic.  Full rank 15 means the three partial
    quadrics have no common projective zero, i.e. the cubic is smooth.
    Read through _CONE_MAP.
    """
    mats = _dot(field, coeffs, _CONE_MAP)
    return ranks(field, mats.reshape(coeffs.shape[:-1] + (18, 15)))


def _orders(jets, k):
    """The order of each order-k jet (a row of jets): the degree of its
    first nonzero column, or -1 for a zero jet."""
    degree = np.repeat(np.arange(k + 1), [num_monomials(j, 3)
                                         for j in range(k + 1)])
    nonzero = jets.astype(bool)
    return np.where(nonzero.any(axis=1), degree[nonzero.argmax(axis=1)], -1)


def _certify_points(X: Surface, points, check=True):
    """Certify that each point is an ordinary triple point of X, in one
    batched pass over all of them.

    Multiplicity exactly 3 and a smooth tangent-cone cubic are read from
    one order-3 jet per point (_jets): the multiplicity from its degree
    blocks (order-d jets only at the rare points where it is zero), the
    cone as its degree-3 block, and the cone ranks from one product with
    _CONE_MAP and one batched rank (_cone_smooth_rank).

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
    mult = _orders(jets, 3)
    # a zero order-3 jet means multiplicity at least 4
    for i in np.flatnonzero(mult < 0):
        mult[i] = multiplicity(X, points[i])
    # at a triple point the jet is the tangent cone
    cones = jets[mult == 3, 10:]
    found = zip(_cone_smooth_rank(field, cones).tolist(), cones.tolist())
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
        out.append(TriplePointCertificate(P, 3, MultiPoly.from_coeff_vector(
            field, _embed(P.chart, 3)[10:], map(field, cone)), r))
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


def is_ordinary_triple_point(X, P) -> bool:
    try:
        certify_ordinary_triple_point(X, P)
        return True
    except CertificationFailure:
        return False


# -- enumeration over finite fields -------------------------------------

_ENUM_LIMIT = 6_000_000


def lift_poly(g: MultiPoly, big: Field) -> MultiPoly:
    """Lift a GF(p) polynomial into GF(p^2)."""
    return MultiPoly(big, {ex: big.lift(c) for ex, c in g.terms.items()})


def common_projective_zeros(polys, field: Field):
    """All points of P^3 over the finite field where every poly vanishes.

    Chart-by-chart sweep (gfnum.sweep_chart); canonical points in
    lexicographic order of their canonical coordinates.
    """
    if field.kind == "QQ":
        raise ValueError("enumeration requires a finite field")
    q = field.order
    if q**3 + q**2 + q + 1 > _ENUM_LIMIT:
        raise ValueError(f"P^3 over order-{q} field is too large to sweep")
    elems = list(field.elements())
    terms = [{e: c.val for e, c in g.terms.items()} for g in polys]
    found = []
    for chart in range(4):
        for row in gfnum.sweep_chart(terms, chart, field.p, field.nonresidue):
            found.append(ProjPoint(
                field, [0] * chart + [1] + [elems[i] for i in row]))
    found.sort(key=lambda P: P.sort_key())
    return found


def enumerate_singular_points(X: Surface, e: int = 1):
    """All points of P^3(GF(p^e)) where f and its four partials vanish.

    e=2 lifts to the canonical quadratic extension (f is included along
    with the partials, which matters when p divides the degree).
    """
    if X.field.kind == "QQ":
        raise ValueError("enumeration requires a finite field")
    if e not in (1, 2):
        raise ValueError("extension degree must be 1 or 2")
    base = X.field if e == 1 else X.field.extension()
    polys = [X.f] + [g for g in X.f.gradient() if g]
    if base != X.field:
        polys = [lift_poly(g, base) for g in polys]
    return common_projective_zeros(polys, base)


# -- coefficient arrays: Macaulay matrices and jets ---------------------
#
# A polynomial is a pair (exps, vals): an int array with one exponent row
# per term, and its coefficients as a linalg coefficient array.

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


def _arrays(field, terms):
    """(exps, vals) of a nonzero exponent -> coefficient dict."""
    return (np.array(list(terms), dtype=np.int64),
            _values(field, list(terms.values())))


def _collect(field, exps, vals):
    """Add up the terms of equal exponents and drop zero terms; None for
    the zero polynomial."""
    if _numeric(field):
        # vals may be products of two residues, below 2**62: reduce them
        # before they are summed
        vals = vals % field.p
    digits = (int(exps.max()) + 1) ** np.arange(exps.shape[1])
    keys, first, where = np.unique(exps @ digits, return_index=True,
                                   return_inverse=True)
    exps = exps[first]
    out = _zeros(field, len(keys))
    np.add.at(out, where, vals)
    if _numeric(field):
        out %= field.p
    keep = out.astype(bool)
    return (exps[keep], out[keep]) if keep.any() else None


def _partials(field, exps, vals):
    """The nonzero partial derivatives, in variable order."""
    out = []
    for i, unit in enumerate(np.eye(exps.shape[1], dtype=exps.dtype)):
        has = exps[:, i] > 0
        g = has.any() and _collect(field, exps[has] - unit, vals[has]
                                   * _ints(field, exps[has, i].tolist()))
        if g:
            out.append(g)
    return out


def _macaulay(field, gens, k, w_free=False):
    """Macaulay matrix of nonzero homogeneous gens in degree k.

    One row per generator g and monomial m of degree k - deg g (in
    exponents_of_degree order), holding the coefficients of m*g; one
    column per monomial of degree k, in exponents_of_degree order.  With
    w_free, only the rows of the m not divisible by the last variable.
    """
    n = gens[0][0].shape[1]
    # base-(k+1) keys: no exponent exceeds k, so a key names one
    # monomial and keys sort like exponents_of_degree (descending); the
    # key of a product of monomials is the sum of their keys
    digits = (k + 1) ** np.arange(n - 1, -1, -1)
    keys = _exponents(k, n) @ digits
    rows, cols, vals, top = [], [], [], 0
    for exps, v in gens:
        shifts = _exponents(k - int(exps[0].sum()), n)
        if w_free:
            shifts = shifts[shifts[:, -1] == 0]
        shifts = shifts @ digits
        rows.append(np.repeat(np.arange(top, top + len(shifts)), len(v)))
        cols.append((shifts[:, None] + exps @ digits).ravel())
        vals.append(np.tile(v, len(shifts)))
        top += len(shifts)
    mac = _zeros(field, (top, len(keys)))
    cols = len(keys) - 1 - np.searchsorted(keys[::-1], np.concatenate(cols))
    # the terms of one generator land in distinct columns of its rows
    mac[np.concatenate(rows), cols] = np.concatenate(vals)
    return mac


def _cone_map():
    """The integer map from the ten coefficients of a ternary cubic, in
    exponents_of_degree order, to the flattened 18 x 15 degree-4 Macaulay
    matrix of its three partials.  Row c is that matrix for x^c, whose
    partials are c_j * x^(c - e_j); a zero one is written 0 * x_0^2 and
    gives zero rows.  _macaulay does not reduce, so any GF(p) will do."""
    rows = []
    for c in _exponents(3, 3):
        rows.append(_macaulay(Field.GF(2), [
            (np.array([c - e if c[j] else (2, 0, 0)]), c[j:j + 1])
            for j, e in enumerate(np.eye(3, dtype=np.int64))], 4).ravel())
    return np.array(rows)


_CONE_MAP = _cone_map()


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
def _binomials(n, k, p):
    """C(a, r) for a <= n and r <= k by Pascal's rule: int64 residues mod
    p, or exact Python ints for p None."""
    t = np.zeros((n + 1, k + 1), dtype=object if p is None else np.int64)
    t[:, 0] = 1
    for a in range(1, n + 1):
        t[a, 1:] = t[a - 1, 1:] + t[a - 1, :-1]
        if p is not None:
            t[a, 1:] %= p
    return _frozen(t)


def _jet_matrix(field, points, exps, k):
    """Order-k jets at each point of the monomials with exponent rows exps:
    a (points x terms x C(k+3, 3)) array.

    With b_m the local coordinates of P and e_m the exponents of the local
    variables, a monomial becomes prod_m (b_m + s_m)^e_m, so its entry in
    column (r_0, r_1, r_2) is prod_m B[e_m, r_m, m] for the binomial
    table B[e, r, m] = C(e, r) * b_m^(e - r) of P.  Over a numeric GF(p)
    the table holds residues and the product is reduced after every
    factor, so no intermediate exceeds (p-1)**2 < 2**62, as p < 2**31.
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
    binom = _binomials(top, k, field.p if _numeric(field) else None)
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
    the free monomials.  It starts at k = -1, where there are none.
    """
    __slots__ = ("k", "pivots", "free", "block")

    def __init__(self, field):
        self.k = -1
        self.pivots = self.free = np.zeros(0, dtype=np.int64)
        self.block = _zeros(field, (0, 0))


def _hilbert_value(field, partials, d, k, echelon):
    """h(k) = dim (R/J)_k for J generated by the nonzero partials of a
    degree-d form, given as (exps, vals) pairs.

    echelon holds J's form in degree k-1 and is moved to degree k: the
    rows N of the w-free multiples, reduced modulo w*J_{k-1}, are
    N - N[:, w*pivots] @ block on the other columns, and their reduced
    form adds the new pivot rows.
    """
    if echelon.k != k - 1:
        raise ValueError("the Hilbert function is computed degree by degree")
    # w*m keeps the order of the monomials m of degree k-1
    on_w = np.flatnonzero(_exponents(k)[:, -1])
    old = on_w[echelon.pivots]
    rest = np.setdiff1d(np.arange(num_monomials(k)), old)
    at = np.searchsorted(rest, on_w[echelon.free])
    red, new = _zeros(field, (0, len(rest))), []
    if k >= d - 1 and partials:
        rows = _macaulay(field, partials, k, w_free=True)
        m = rows[:, rest]
        m[:, at] -= _dot(field, rows[:, old], echelon.block)
        red, new = rref(field, m)
        red = red[:len(new)]
    keep = np.delete(np.arange(len(rest)), new)
    block = _zeros(field, (len(old), len(rest)))
    block[:, at] = echelon.block
    # red is the identity on the new pivots: clear them from the old rows
    block = np.concatenate([
        block[:, keep] - _dot(field, block[:, new], red[:, keep]),
        red[:, keep]])
    echelon.k = k
    echelon.pivots = np.concatenate([old, rest[new]])
    echelon.free = rest[keep]
    echelon.block = block % field.p if _numeric(field) else block
    return len(keep)


def _jacobian(X: Surface):
    return _partials(X.field, *_arrays(X.field, X.f.terms))


def jacobian_hilbert(X: Surface, k_max: int = None):
    """Hilbert function h(0..k_max) of R modulo the Jacobian ideal."""
    d = X.degree
    if k_max is None:
        k_max = 4 * d
    if k_max < d - 1:
        raise ValueError("k_max must be at least degree - 1")
    partials = _jacobian(X)
    echelon = _Echelon(X.field)
    return [_hilbert_value(X.field, partials, d, k, echelon)
            for k in range(k_max + 1)]


def _restrict(field, gens, i):
    """The gens on the plane w + i*x + i^2*y + i^3*z = 0, in x, y, z.

    w^f becomes L^f for L = -(i*x + i^2*y + i^3*z), read from a table of
    the powers of L.
    """
    table = []
    for f in range(max(int(e[:, 3].max()) for e, _ in gens) + 1):
        es = _exponents(f, 3)
        table.append((es, _ints(field, [
            (-1) ** f * comb(f, a) * comb(f - a, b) * i ** (a + 2 * b + 3 * c)
            for a, b, c in es.tolist()])))
    out = []
    for exps, vals in gens:
        e3, v3 = [], []
        for f in np.unique(exps[:, 3]):
            on = exps[:, 3] == f
            te, tv = table[f]
            e3.append((exps[on, None, :3] + te).reshape(-1, 3))
            v3.append((vals[on, None] * tv).ravel())
        g = _collect(field, np.concatenate(e3), np.concatenate(v3))
        if g is not None:
            out.append(g)
    return out


def _regular_plane(field, partials, t):
    """The first i in 1..4 with (R/(J + l_i))_t = 0, or None.

    l_i = w + i*x + i^2*y + i^3*z; for p < 5 only i = 1..p, whose
    values mod p are distinct.  A point P != 0 lies on at most 3 of the 4
    planes, since l_i(P) is a nonzero cubic in i.
    """
    for i in range(1, min(4, field.char or 4) + 1):
        gens = _restrict(field, partials, i)
        if gens and (rank(field, _macaulay(field, gens, t))
                     == num_monomials(t, 3)):
            return i
    return None


def _settle(X: Surface, k_max):
    """(singular_scheme_degree's result, how it was settled)."""
    d = X.degree
    if k_max is None:
        k_max = 4 * d
    field = X.field
    partials = _jacobian(X)
    echelon = _Echelon(field)
    h = []
    for attempt in range(2):
        limit = k_max * (attempt + 1)
        while len(h) <= limit:
            k = len(h)
            h.append(_hilbert_value(field, partials, d, k, echelon))
            if k >= d and h[k] == h[k - 1]:
                i = _regular_plane(field, partials, k - 1)
                if i is not None:
                    plane = MultiPoly.parse(
                        f"w+{i}*x+{i ** 2}*y+{i ** 3}*z", field)
                    return ({"degree": h[k], "hilbert": h + [h[k]]},
                            {"method": "regularity", "proven": True,
                             "plane": str(plane), "regular_from": k - 1,
                             "computed_to": k})
            if len(h) >= 3 and h[-1] == h[-2] == h[-3] and len(h) > d:
                return ({"degree": h[-1], "hilbert": h},
                        {"method": "plateau", "proven": False,
                         "computed_to": k})
        if h[-1] > h[-2] > h[-3]:
            return ({"verdict": "positive-dimensional", "hilbert": h},
                    {"method": "growth", "proven": False,
                     "computed_to": len(h) - 1})
    raise ArithmeticError("Hilbert function did not stabilize; "
                          f"tail {h[-5:]}")


def singular_scheme_degree(X: Surface, k_max: int = None, evidence=None):
    """Degree of the singular scheme, or a positive-dimensional verdict.

    Computes h(k) = dim (R/J)_k, J the Jacobian ideal, for k = 0, 1, ...
    in one incremental pass (each degree's echelon form from the last
    one's, see the module docstring) and after each value tries, in this
    order:

    - regularity certificate: k >= d, h(k) = h(k-1), and
      (R/(J + l))_{k-1} = 0 for one of the planes l = w + i*x + i^2*y +
      i^3*z, i = 1..4 (a rank in x, y, z).  Then (R/(J + l))_k = 0 too,
      so multiplication by l maps (R/J)_{k-1} onto (R/J)_k, and as
      h(k) = h(k-1) also injectively: (J : l)_{k-1} = J_{k-1} and
      (J + l)_{k-1} = R_{k-1}.  By Bayer-Stillman (Invent. Math. 87,
      1987, Thm 1.10 (b), j = 1) J is (k-1)-regular, so h(t) = h(k) for
      all t >= k-1.  The degree must be k-1: a zero cokernel at k with
      h(k) = h(k-1) is not the theorem's hypothesis.  The result is what
      the plateau rule would give one degree later; its last value
      h(k+1) is proven, not computed.
    - plateau (a heuristic): three equal values in a row past degree d,
      taken only where no plane certifies.
    - growth: at the cutoff k_max a strictly increasing tail is taken as
      positive-dimensional; otherwise one retry up to 2*k_max.

    Returns {"degree": n, "hilbert": [...]} or
    {"verdict": "positive-dimensional", "hilbert": [...]}.  A dict passed
    as evidence gets how it was settled: "method" (plateau, regularity
    or growth), "proven", "computed_to" (the last degree computed) and,
    for regularity, "plane" and "regular_from" (k-1).
    """
    result, how = _settle(X, k_max)
    if evidence is not None:
        evidence.update(how)
    return result


# -- equisingular tangent space -----------------------------------------

def equisingular_tangent_dimension(X: Surface, points) -> int:
    """Dimension of the projective equisingular tangent space at X.

    A degree-d form g is tangent to the equisingular stratum iff at each
    triple point P its order-2 jet lies in the span of the order-2 jets
    of the four partials of f: a M_P c = 0 for every a with a J_P^T = 0,
    c the coefficients of g, M_P the 10 x n jet matrix of the n degree-d
    monomials and J_P the partials' jets.  The rows a M_P are the vectors
    of the row space of [J_P^T | M_P] that vanish on its J_P^T columns,
    taken at all points in one pass (linalg.leading_zero_rows).  Returns
    n - 1 minus the rank of those rows (f itself always qualifies).
    Repeated points count once.
    """
    field = X.field
    points = distinct_points(points)
    # the points may come from a file: check them, not just trust them
    _certify_points(X, points)
    mons = _exponents(X.degree)
    if not points:
        return len(mons) - 1
    jets = _jets(field, points, _jacobian(X), 2)
    stack = np.concatenate([jets, _jet_matrix(field, points, mons, 2)],
                           axis=1)
    rows = leading_zero_rows(field, np.swapaxes(stack, 1, 2), jets.shape[1])
    return len(mons) - 1 - rank(field, rows)


# -- certification pipeline ---------------------------------------------

class CertificationReport:
    def __init__(self, surface, points_info, hilbert, expected_degree, verdict,
                 degree_evidence=None, checks=None):
        self.surface = surface
        self.points_info = points_info
        self.hilbert = hilbert
        self.expected_degree = expected_degree
        self.verdict = verdict
        self.degree_evidence = degree_evidence
        self.checks = checks

    def to_json(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "surface": str(self.surface.f),
            "field": self.surface.field.tag,
            "points": self.points_info,
            "hilbert": self.hilbert,
            "degree_evidence": self.degree_evidence,
            "expected_degree": self.expected_degree,
            "verdict": self.verdict,
        }
        if self.checks:
            out["checks"] = self.checks
        return out


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


def certify(X: Surface, points=None, hilbert=None) -> CertificationReport:
    """Certify the singular locus of X.

    Over a finite field the singular points are enumerated; over the
    rationals the declared (or supplied) points are used, and also over
    a field too large to sweep, which the report's "checks" records.
    A point given twice is listed and counted once.
    hilbert=None computes the Hilbert evidence automatically over finite
    fields; degree_evidence then says how its degree was settled (see
    singular_scheme_degree).  When it is not computed, degree_evidence is
    {"method": "skipped", "proven": False, "reason": ...}, the reason
    "rational field; pass --hilbert" or "not requested" (hilbert=False).
    """
    finite = X.field.kind != "QQ"
    checks = None
    if points is None:
        points = X.points
        if finite:
            try:
                points = enumerate_singular_points(X)
            except ValueError as exc:
                checks = {"sweep": f"skipped: {exc}"}
    evidence = {"method": "skipped", "proven": False,
                "reason": ("not requested" if hilbert is False
                           else "rational field; pass --hilbert")}
    if hilbert is None:
        hilbert = finite
    certs = _certify_points(X, distinct_points(points), check=False)
    infos = [_point_info(c) for c in certs]
    all_ok = all("failure" not in info for info in infos)
    expected = 8 * sum(isinstance(c, TriplePointCertificate) for c in certs)
    hseq = None
    verdict = "failed"
    if hilbert:
        evidence = {}
        result = singular_scheme_degree(X, evidence=evidence)
        hseq = result["hilbert"]
        if "verdict" in result:
            verdict = "positive-dimensional-singular-locus"
        elif not all_ok:
            verdict = "failed"
        elif result["degree"] == expected:
            verdict = "certified-exact"
        else:
            verdict = "certified-rational-only"
    else:
        verdict = "certified-rational-only" if all_ok and infos else "failed"
    return CertificationReport(X, infos, hseq, expected, verdict, evidence,
                               checks)
