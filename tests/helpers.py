"""Helpers shared by the tests: deterministic sample points and the
ordinary-triple-point decision as a boolean."""
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
