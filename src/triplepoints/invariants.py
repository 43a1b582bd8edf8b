"""Numerical invariants of the resolved surface, plurigenera, geometric
genus via the adjoint system, and the 18-class sextic lookup table.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb


@dataclass
class InvariantTable:
    """Chern and Hodge numbers of the resolution of a degree-d surface
    with nu ordinary triple points and irregularity alpha."""

    d: int
    nu: int
    alpha: int
    c1sq: int
    c2: int
    chi: int
    p_g: int
    q: int
    b2: int
    h11: int

    def __post_init__(self):
        if 12 * self.chi != self.c1sq + self.c2:
            raise AssertionError("Noether identity violated")

    def to_json(self):
        return asdict(self)


def smooth_invariants(d: int) -> InvariantTable:
    if d < 1:
        raise ValueError("degree must be positive")
    return InvariantTable(
        d, 0, 0,
        c1sq=d * (d - 4) ** 2,
        c2=d * (d * d - 4 * d + 6),
        chi=d * (d * d - 6 * d + 11) // 6,
        p_g=comb(d - 1, 3),
        q=0,
        b2=d**3 - 4 * d * d + 6 * d - 2,
        h11=d * (2 * d * d - 6 * d + 7) // 3,
    )


def resolved_invariants(d: int, nu: int, alpha: int = 0) -> InvariantTable:
    """Invariants after resolving nu ordinary triple points.

    alpha is the irregularity discrepancy; q = alpha and
    p_g = C(d-1,3) - nu + alpha.
    """
    if nu < 0 or alpha < 0:
        raise ValueError("nu and alpha must be nonnegative")
    s = smooth_invariants(d)
    p_g = comb(d - 1, 3) - nu + alpha
    if p_g < 0:
        raise ValueError(f"parameters force p_g = {p_g} < 0")
    return InvariantTable(
        d, nu, alpha,
        c1sq=s.c1sq - 3 * nu,
        c2=s.c2 - 9 * nu,
        chi=s.chi - nu,
        p_g=p_g,
        q=alpha,
        b2=s.b2 - 9 * nu + 4 * alpha,
        h11=s.h11 - 7 * nu + 2 * alpha,
    )


def alpha_from_genus(d: int, nu: int, p_g: int) -> int:
    alpha = p_g - comb(d - 1, 3) + nu
    if alpha < 0:
        raise ValueError(f"inconsistent: alpha = {alpha} < 0")
    return alpha


def plurigenus(n: int, Ksq: int, eps: int, chi: int) -> int:
    """n-th plurigenus, n >= 2.  (The formula does not hold at n = 1.)"""
    if n < 2:
        raise ValueError("plurigenus formula only valid for n >= 2")
    return n * (n - 1) // 2 * (Ksq + eps) + chi


def minus_one_multiplicity(d: int, c: int) -> int:
    """Triple points on a degree-c (-1)-curve of a degree-d surface."""
    if d < 5 or c < 1:
        raise ValueError("need d >= 5 and c >= 1")
    return c * (d - 4) + 1


def geometric_genus(X, points) -> int:
    """p_g of the resolution, as the dimension of the adjoint system of
    degree d-4 forms through the triple points."""
    from .constructions import forms_with_multiplicity
    d = X.degree
    if d <= 4:
        return 0
    if not points:
        return comb(d - 1, 3)
    return len(forms_with_multiplicity(d - 4, [(P, 1) for P in points]))


@dataclass
class SexticClass:
    nu: int
    c1sq: int
    c2: int
    chi: int
    p_g: int
    q: int
    b2: int
    h11: int
    n_minus_one: int | None
    kappa: int | str
    model: str

    def to_json(self):
        return asdict(self)


# The 18 classes of sextics with only ordinary triple points.
# (nu, c1sq, c2, chi, p_g, q, b2, h11, #(-1), kappa, minimal model)
SEXTIC_CLASSES = tuple(SexticClass(*row) for row in [
    (0, 24, 108, 11, 10, 0, 106, 86, 0, 2, "general type"),
    (1, 21, 99, 10, 9, 0, 97, 79, 0, 2, "general type"),
    (2, 18, 90, 9, 8, 0, 88, 72, 0, 2, "general type"),
    (3, 15, 81, 8, 7, 0, 79, 65, 0, 2, "general type"),
    (4, 12, 72, 7, 6, 0, 70, 58, 0, 2, "general type"),
    (5, 9, 63, 6, 5, 0, 61, 51, 1, 2, "general type"),
    (5, 9, 63, 6, 5, 0, 61, 51, 0, 2, "general type"),
    (6, 6, 54, 5, 4, 0, 52, 44, 1, 2, "general type"),
    (6, 6, 54, 5, 4, 0, 52, 44, 0, 2, "general type"),
    (7, 3, 45, 4, 3, 0, 43, 37, 1, 2, "general type"),
    (7, 3, 45, 4, 3, 0, 43, 37, 0, 2, "general type"),
    (8, 0, 36, 3, 2, 0, 34, 30, 1, 2, "general type"),
    (8, 0, 36, 3, 2, 0, 34, 30, 2, 2, "general type"),
    (8, 0, 36, 3, 2, 0, 34, 30, 0, 1, "elliptic"),
    (8, 0, 36, 3, 3, 1, 38, 32, 0, 1, "elliptic"),
    (9, -3, 27, 2, 1, 0, 25, 23, 3, 1, "elliptic"),
    (9, -3, 27, 2, 1, 0, 25, 23, 3, 0, "K3"),
    (10, -6, 18, 1, 0, 0, 16, 16, None, "-inf", "rational"),
])


def _validate_table():
    for row in SEXTIC_CLASSES:
        alpha = alpha_from_genus(6, row.nu, row.p_g)
        expected = resolved_invariants(6, row.nu, alpha).to_json()
        got = {k: v for k, v in row.to_json().items() if k in expected}
        if got != {k: expected[k] for k in got}:
            raise AssertionError(
                f"sextic table row nu={row.nu} disagrees with formulas: "
                f"{got} vs {expected}")


_validate_table()


def sextic_classify(nu, p_g, q, exc_degrees=None) -> SexticClass:
    """The sextic class with the given invariants.

    exc_degrees (degrees of the (-1)-curves) disambiguates rows sharing
    (nu, p_g, q); for nu=9 the K3 vs elliptic tie is broken by the sum
    of the degrees, which is 12 exactly for the K3 configurations.
    """
    if not 0 <= nu <= 10:
        raise ValueError("nu must be between 0 and 10")
    rows = [r for r in SEXTIC_CLASSES
            if r.nu == nu and r.p_g == p_g and r.q == q]
    if not rows:
        raise ValueError(f"no sextic class with nu={nu}, p_g={p_g}, q={q}")
    if len(rows) == 1:
        return rows[0]
    if exc_degrees is None:
        raise ValueError(
            f"(nu={nu}, p_g={p_g}, q={q}) is ambiguous without exc_degrees")
    n = len(exc_degrees)
    rows = [r for r in rows if r.n_minus_one == n]
    if not rows:
        raise ValueError(f"no sextic class with nu={nu} and {n} (-1)-curves")
    if len(rows) == 1:
        return rows[0]
    # nu = 9 tie: the K3 configurations have degree sum 12
    if sum(exc_degrees) == 12:
        rows = [r for r in rows if r.model == "K3"]
    else:
        rows = [r for r in rows if r.model == "elliptic"]
    if len(rows) != 1:
        raise ValueError("ambiguous classification")
    return rows[0]
