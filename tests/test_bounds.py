import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triplepoints.bounds import (SpectrumDivisor, brieskorn_spectrum,
                                 homogeneous_surface_spectrum,
                                 spectrum_bound, polar_bound, miyaoka_bound,
                                 curve_bound, surface_bound, combined_bound,
                                 TRIPLE_POINT_SPECTRUM, NODE_SPECTRUM)


def test_spectrum_divisor_basics():
    s = SpectrumDivisor([(Fraction(1, 2), 2), (Fraction(1, 2), 1),
                         (Fraction(3, 2), 4)])
    assert s.total() == 7
    assert s.values() == [Fraction(1, 2), Fraction(3, 2)]
    assert s == SpectrumDivisor([(Fraction(1, 2), 3), (Fraction(3, 2), 4)])
    with pytest.raises(ValueError):
        SpectrumDivisor([(1, 0)])
    with pytest.raises(ValueError):
        s.count_open(2, 2)


def test_brieskorn_total_is_milnor_number():
    # the spectrum has mu = prod (a_i - 1) entries counted with multiplicity
    rng = random.Random(31)
    for _ in range(10):
        exps = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
        s = brieskorn_spectrum(exps)
        mu = 1
        for a in exps:
            mu *= a - 1
        assert s.total() == mu
    with pytest.raises(ValueError):
        brieskorn_spectrum([3, 1])
    with pytest.raises(ValueError):
        brieskorn_spectrum([])


def test_triple_point_spectrum():
    # x^3 + y^3 + z^3: eight spectral numbers, symmetric about 3/2
    assert TRIPLE_POINT_SPECTRUM.total() == 8
    assert TRIPLE_POINT_SPECTRUM.values() == [
        Fraction(1), Fraction(4, 3), Fraction(5, 3), Fraction(2)]
    assert dict(TRIPLE_POINT_SPECTRUM) == {
        Fraction(1): 1, Fraction(4, 3): 3, Fraction(5, 3): 3, Fraction(2): 1}


def test_spectrum_symmetry():
    # spectra of these hypersurface singularities satisfy v <-> n - v
    for exps, n in (([3, 3, 3], 3), ([2, 2, 2], 3), ([4, 5], 2)):
        s = brieskorn_spectrum(exps)
        assert dict(s) == {n - v: m for v, m in s}


def test_ambient_spectrum_matches_brieskorn():
    assert homogeneous_surface_spectrum(6) == brieskorn_spectrum([6, 6, 6])
    with pytest.raises(ValueError):
        homogeneous_surface_spectrum(1)


def test_interval_counts():
    amb5 = homogeneous_surface_spectrum(5)
    assert amb5.count_open(Fraction(3, 5), Fraction(8, 5)) == 31
    assert amb5.count_open(Fraction(4, 5), Fraction(9, 5)) == 40
    amb6 = homogeneous_surface_spectrum(6)
    assert amb6.count_open(Fraction(5, 6), Fraction(11, 6)) == 80
    assert TRIPLE_POINT_SPECTRUM.count_open(Fraction(4, 5),
                                            Fraction(9, 5)) == 7


def test_spectrum_bound_table():
    expected = {5: 5, 6: 11, 7: 17, 8: 29, 9: 45, 10: 60, 11: 84, 12: 114}
    for d, v in expected.items():
        assert spectrum_bound(d, TRIPLE_POINT_SPECTRUM) == v


def test_spectrum_bound_nodes():
    assert spectrum_bound(5, NODE_SPECTRUM) == 31
    with pytest.raises(ValueError):
        spectrum_bound(2, NODE_SPECTRUM)


@settings(max_examples=120, deadline=None)
@given(st.integers(5, 9), st.integers(-60, 120), st.integers(1, 40))
def test_spectrum_bound_is_a_true_minimum(d, num, den):
    # no interval start alpha can beat the reported minimum
    alpha = Fraction(num, den)
    amb = homogeneous_surface_spectrum(d)
    n_sing = TRIPLE_POINT_SPECTRUM.count_open(alpha, alpha + 1)
    if n_sing == 0:
        return
    n_amb = amb.count_open(alpha, alpha + 1)
    assert n_amb // n_sing >= spectrum_bound(d, TRIPLE_POINT_SPECTRUM)


def _enumerated_spectrum(exponents):
    """The spectrum as the multiset of all sums i_1/a_1 + ... + i_n/a_n,
    one Fraction per tuple of the i_j."""
    counts = {}
    for combo in itertools.product(*[range(1, a) for a in exponents]):
        v = sum(Fraction(i, a) for i, a in zip(combo, exponents))
        counts[v] = counts.get(v, 0) + 1
    return SpectrumDivisor(counts.items())


def _scanned_bound(amb, sing):
    """The semicontinuity bound by scanning Fraction interval starts: every
    critical value v or v - 1 of both spectra, the midpoints between them,
    and one start below and one above them all."""
    critical = sorted({w for v in amb.values() + sing.values()
                       for w in (v, v - 1)})
    candidates = ([critical[0] - 1] + critical
                  + [(u + v) / 2 for u, v in zip(critical, critical[1:])]
                  + [critical[-1] + Fraction(1, 2)])
    return min(amb.count_open(a, a + 1) // sing.count_open(a, a + 1)
               for a in candidates if sing.count_open(a, a + 1))


@pytest.mark.parametrize("exponents", [[3, 3, 3], [2, 2, 2], [12, 12, 12],
                                       [2, 3, 5], [4, 6, 9, 2]])
def test_brieskorn_spectrum_matches_enumeration(exponents):
    assert brieskorn_spectrum(exponents) == _enumerated_spectrum(exponents)


def test_spectrum_bound_matches_fraction_scan():
    for d in range(3, 21):
        amb = _enumerated_spectrum([d, d, d])
        for sing in (TRIPLE_POINT_SPECTRUM, NODE_SPECTRUM):
            assert spectrum_bound(d, sing) == _scanned_bound(amb, sing), d


def test_polar_bound_table():
    expected = {5: 6, 6: 10, 7: 21, 8: 37, 9: 60, 10: 90, 11: 128, 12: 176}
    for d, v in expected.items():
        assert polar_bound(d) == v
    with pytest.raises(ValueError):
        polar_bound(4)


def test_miyaoka_bound_table():
    expected = {7: 18, 8: 29, 9: 42, 10: 60, 11: 81, 12: 107}
    for d, v in expected.items():
        assert miyaoka_bound(d) == v
    with pytest.raises(ValueError):
        miyaoka_bound(6)


def test_combined_bound_table():
    expected = {3: 1, 4: 1, 5: 5, 6: 10, 7: 17, 8: 29, 9: 42, 10: 60,
                11: 81, 12: 107}
    for d, v in expected.items():
        assert combined_bound(d) == v
    with pytest.raises(ValueError):
        combined_bound(2)


def test_curve_and_surface_bounds():
    assert curve_bound(1, 6) == 2
    assert curve_bound(2, 6) == 5
    assert surface_bound(1, 6) == 5
    assert surface_bound(2, 6) == 10
    with pytest.raises(ValueError):
        curve_bound(0, 6)
    with pytest.raises(ValueError):
        surface_bound(1, 1)
