"""Upper bounds on the number of ordinary triple points of a degree-d
surface: the polar bound, the Miyaoka-type bound and the semicontinuity
bound from the singularity spectrum, plus their combination.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


class SpectrumDivisor:
    """Multiset of rational spectral numbers, kept sorted."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        merged = {}
        for v, m in pairs:
            v = Fraction(v)
            if m < 1:
                raise ValueError("multiplicities must be positive")
            merged[v] = merged.get(v, 0) + m
        self.pairs = tuple(sorted(merged.items()))

    def total(self) -> int:
        return sum(m for _, m in self.pairs)

    def values(self):
        return [v for v, _ in self.pairs]

    def __eq__(self, other):
        return isinstance(other, SpectrumDivisor) and self.pairs == other.pairs

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        body = ", ".join(f"{v}:{m}" for v, m in self.pairs)
        return f"SpectrumDivisor({body})"

    def count_open(self, a, b) -> int:
        """Number of spectral numbers strictly inside (a, b)."""
        a, b = Fraction(a), Fraction(b)
        if not a < b:
            raise ValueError("empty interval")
        return sum(m for v, m in self.pairs if a < v < b)


def brieskorn_spectrum(exponents) -> SpectrumDivisor:
    """Spectrum of the Brieskorn singularity sum of x_j^(a_j).

    The multiset of sums i_1/a_1 + ... + i_n/a_n over 1 <= i_j <= a_j-1,
    counted as numerators over L = lcm(a_j): the sparse convolution of the
    sets {i * L/a_j}.
    """
    exponents = list(exponents)
    if not exponents or any(a < 2 for a in exponents):
        raise ValueError("exponents must all be at least 2")
    den = lcm(*exponents)
    counts = {0: 1}
    for a in exponents:
        step = den // a
        out = {}
        for n, m in counts.items():
            for i in range(n + step, n + den, step):
                out[i] = out.get(i, 0) + m
        counts = out
    return SpectrumDivisor((Fraction(n, den), m) for n, m in counts.items())


def homogeneous_surface_spectrum(d: int) -> SpectrumDivisor:
    """Spectrum of the cone over a smooth plane curve of degree d."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    return brieskorn_spectrum([d, d, d])


def spectrum_bound(d: int, sing: SpectrumDivisor) -> int:
    """Semicontinuity bound: min over open unit intervals of the count ratio.

    The interval counts are piecewise constant in the interval start a,
    changing only at the critical values {v, v-1} of both spectra, so the
    global minimum is attained either at a critical value (where the open
    interval excludes spectral values sitting on its endpoints) or on a
    cell between two of them; outside the critical range it meets no
    spectral value.  Both kinds are counted on integers: the values times
    twice the lcm of their denominators, so midpoints are integers too.
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    amb = homogeneous_surface_spectrum(d)
    unit = 2 * lcm(*(v.denominator for v in amb.values() + sing.values()))
    spectra = [(np.array([v.numerator * (unit // v.denominator)
                          for v, _ in spec]),
                np.cumsum([0] + [m for _, m in spec]))
               for spec in (amb, sing)]
    critical = np.unique(np.concatenate(
        [vals - shift for vals, _ in spectra for shift in (0, unit)]))
    a = np.concatenate([critical, (critical[:-1] + critical[1:]) // 2])
    # spectral numbers strictly inside (a, a + unit), for every candidate a
    n_amb, n_sing = (total[np.searchsorted(vals, a + unit, side="left")]
                     - total[np.searchsorted(vals, a, side="right")]
                     for vals, total in spectra)
    if not n_sing.any():
        raise ValueError("singularity spectrum meets no unit interval")
    return int((n_amb[n_sing > 0] // n_sing[n_sing > 0]).min())


def polar_bound(d: int) -> int:
    """Bound from intersecting with a polar surface.

    For d in {5, 6} the generic count is beaten by the h^{1,1} argument,
    which also covers geometric genus zero.
    """
    if d < 5:
        raise ValueError("polar bound needs degree at least 5")
    if d <= 6:
        return (d - 1) * (d * d + d - 3) // 18
    return d * (d - 1) * (d - 4) // 6


def miyaoka_bound(d: int) -> int:
    if d < 7:
        raise ValueError("Miyaoka-type bound needs degree at least 7")
    return 2 * d * (d - 1) ** 2 // 27


def curve_bound(c: int, d: int) -> int:
    """Triple points of a degree-d surface on a degree-c curve on it."""
    if c < 1 or d < 2:
        raise ValueError("need c >= 1 and d >= 2")
    return c * (d - 1) // 2


def surface_bound(v: int, d: int) -> int:
    """Triple points on a degree-v surface not contained in X."""
    if v < 1 or d < 2:
        raise ValueError("need v >= 1 and d >= 2")
    return v * d * (d - 1) // 6


TRIPLE_POINT_SPECTRUM = brieskorn_spectrum([3, 3, 3])
NODE_SPECTRUM = brieskorn_spectrum([2, 2, 2])


def combined_bound(d: int) -> int:
    """Best known bound on the number of ordinary triple points."""
    if d < 3:
        raise ValueError("degree must be at least 3")
    if d <= 4:
        return 1
    spec = spectrum_bound(d, TRIPLE_POINT_SPECTRUM)
    if d <= 6:
        return min(spec, polar_bound(d))
    return min(spec, miyaoka_bound(d))
