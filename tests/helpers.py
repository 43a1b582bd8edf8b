"""Helpers shared by the tests: deterministic sample points, the
ordinary-triple-point decision as a boolean, and Gauss-Jordan elimination
on field elements as the oracle of the elimination kernels."""
import random

from triplepoints.singular import TriplePointCertificate, _certify_points
from triplepoints.surfaces import ProjPoint


def generic_points(field, n, seed=0):
    """n deterministic pseudorandom points of P^3 over the field."""
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
        if P not in pts:
            pts.append(P)
    return pts


def ordinary_triple_points(X, points) -> bool:
    """Whether every point certifies as an ordinary triple point of X."""
    return all(isinstance(c, TriplePointCertificate)
               for c in _certify_points(X, points, check=False))


def _rref_generic(field, rows):
    """In-place RREF on a list of lists of Fractions or FieldElements;
    returns the pivot columns.  Exact Gauss-Jordan elimination, one entry
    at a time: the oracle of linalg's kernels over every field."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [v * inv for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i == r or not rows[i][c]:
                continue
            factor = rows[i][c]
            rows[i] = [a - factor * b if b else a
                       for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots
