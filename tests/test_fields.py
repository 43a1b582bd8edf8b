import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from triplepoints.fields import (Field, FieldElement, FieldMismatchError,
                                 is_prime, smallest_nonresidue, sqrt_mod_p,
                                 sqrt_gf_p2, solve_quadratic)

QQ = Field.QQ()
F7 = Field.GF(7)
F31 = Field.GF(31)
F49 = Field.GF(7, 2)


def test_field_tags():
    assert QQ.tag == "QQ"
    assert F31.tag == "GF:31"
    assert F49.tag == "GF:7:2"
    for tag in ("QQ", "GF:31", "GF:7:2"):
        assert Field.parse_tag(tag).tag == tag


def test_parse_tag_rejects_garbage():
    for bad in ("GF", "GF:4", "GF:31:3", "RR", "GF:x"):
        with pytest.raises(ValueError):
            Field.parse_tag(bad)


def test_prime_bounds():
    with pytest.raises(ValueError):
        Field.GF(2 ** 31 + 11)
    with pytest.raises(ValueError):
        Field.GF(15)


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                      41, 43, 47, 53, 59]


def test_is_prime_against_a_sieve():
    n = 200_000
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, n, d))
    assert [is_prime(k) for k in range(n)] == sieve
    # near the 2^31 cap: 2^31 - 1 and 2^31 - 19 are prime, 2^31 - 5 is not
    assert is_prime(2147483647) and is_prime(2147483629)
    assert not is_prime(2147483643)


def test_smallest_nonresidue():
    # oracle: brute force
    for p in (3, 7, 11, 29, 31, 101):
        squares = {pow(v, 2, p) for v in range(1, p)}
        expected = min(n for n in range(2, p) if n not in squares)
        assert smallest_nonresidue(p) == expected


def test_sqrt_mod_p():
    rng = random.Random(0)
    for p in (7, 29, 31, 1009):
        for _ in range(20):
            v = rng.randrange(1, p)
            s = sqrt_mod_p(v * v % p, p)
            assert s is not None and s * s % p == v * v % p
        squares = {pow(v, 2, p) for v in range(p)}
        non = next(n for n in range(2, p) if n not in squares)
        assert sqrt_mod_p(non, p) is None


def test_rational_arithmetic():
    a = QQ.frac(2, 3)
    b = QQ.frac(-1, 6)
    assert str(a + b) == "1/2"
    assert str(a * b) == "-1/9"
    assert str(a / b) == "-4"
    assert (a - a) == QQ.zero
    assert a.inverse() * a == QQ.one


@pytest.mark.parametrize("field", [QQ, F31, F49], ids=["QQ", "GF31", "GF49"])
def test_negative_powers_and_fraction_operands(field):
    assert field(3) ** -2 * field(9) == field.one
    half = field(Fraction(1, 2))
    assert half * 2 == field.one
    assert field(1) + Fraction(1, 2) == half * 3


def test_corner_cases_of_the_prime_fields():
    assert F31(Fraction(1, 2)) == F31(16)
    assert sqrt_mod_p(1, 2) == 1
    with pytest.raises(FieldMismatchError):
        F49.lift(QQ(1))


def test_gf_arithmetic_matches_ints():
    rng = random.Random(1)
    for _ in range(200):
        x, y = rng.randrange(31), rng.randrange(1, 31)
        assert int(F31(x) + F31(y)) == (x + y) % 31
        assert int(F31(x) * F31(y)) == (x * y) % 31
        assert int(F31(x) - F31(y)) == (x - y) % 31
        assert int(F31(y).inverse()) == pow(y, 29, 31)


def test_gf2_is_a_field_of_order_49():
    elements = list(F49.elements())
    assert len(elements) == 49
    nonzero = [e for e in elements if e]
    assert len(nonzero) == 48
    for e in nonzero[:10]:
        assert e * e.inverse() == F49.one
        assert e ** 48 == F49.one


def test_gf2_modulus_is_a_nonresidue():
    # u^2 = n with n the smallest quadratic nonresidue of p
    n = smallest_nonresidue(7)
    u = F49.ext(0, 1)
    assert u * u == F49(n)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        F7(1) + F31(1)
    with pytest.raises(FieldMismatchError):
        QQ(1) * F7(1)


def test_element_parse_roundtrip():
    for field, texts in ((QQ, ["0", "7", "-3", "2/5", "-11/4"]),
                         (F31, ["0", "1", "30", "17"]),
                         (F49, ["(0)", "(3)", "(3+2*u)", "(0+6*u)"])):
        for t in texts:
            e = field.parse(t)
            assert field.parse(str(e)) == e


def test_lift_to_extension():
    ext = F7.extension()
    assert ext == F49
    a = F7(5)
    assert F49.lift(a) == F49.ext(5, 0)
    with pytest.raises(ValueError):
        QQ.extension()


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_field_axioms_gf31(x, y, z):
    a, b, c = F31(x), F31(y), F31(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F31.zero
    if b:
        assert (a / b) * b == a


@given(st.fractions(min_value=-10, max_value=10),
       st.fractions(min_value=-10, max_value=10))
def test_field_axioms_qq(x, y):
    a, b = QQ(x), QQ(y)
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a * b) / b == a


def test_solve_quadratic_gf():
    # t^2 + t + 1 over GF(7): roots 2 and 4
    roots = solve_quadratic(F7.one, F7.one, F7.one)
    assert [int(r) for r in roots] == [2, 4]
    # 2t^2 - 11t + 9 over GF(31): roots 1 and 20
    roots = solve_quadratic(F31(2), F31(-11), F31(9))
    assert [int(r) for r in roots] == [1, 20]
    # irreducible over the prime field (3 is a nonresidue mod 31)
    assert solve_quadratic(F31(1), F31(0), F31(-3)) == []


def test_solve_quadratic_qq():
    assert [str(r) for r in solve_quadratic(QQ(1), QQ(-3), QQ(2))] == ["1", "2"]
    assert solve_quadratic(QQ(1), QQ(0), QQ(1)) == []
    # double root reported once
    assert [str(r) for r in solve_quadratic(QQ(1), QQ(-2), QQ(1))] == ["1"]


def test_solve_quadratic_qq_fractional_discriminant():
    # t^2 + t/3: the discriminant 1/9 is not an integer
    roots = solve_quadratic(QQ(1), QQ.frac(1, 3), QQ(0))
    assert [str(r) for r in roots] == ["-1/3", "0"]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sqrt_gf_p2_matches_brute_force(p):
    F = Field.GF(p, 2)
    squares = {e * e for e in F.elements()}
    for z in F.elements():
        r = sqrt_gf_p2(z)
        assert (r is not None) == (z in squares)
        assert r is None or r * r == z


def test_solve_quadratic_over_extension_fields():
    # every root in the field, against brute force
    rng = random.Random(5)
    for F in (Field.GF(3, 2), Field.GF(5, 2), F49):
        elems = list(F.elements())
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            expected = sorted({t for t in elems if not a * t * t + b * t + c},
                              key=lambda e: e.sort_key())
            if a or b:
                assert solve_quadratic(a, b, c) == expected
    # t^2 + t + 1, irreducible over GF(5), splits over GF(25)
    F25 = Field.GF(5, 2)
    roots = solve_quadratic(F25.one, F25.one, F25.one)
    assert len(roots) == 2 and all(r * r + r + 1 == F25.zero for r in roots)
    assert [str(r) for r in solve_quadratic(F49.one, F49.one, F49.one)] \
        == ["(2)", "(4)"]
    F2 = Field.GF(2)
    with pytest.raises(ValueError):
        solve_quadratic(F2.one, F2.one, F2.one)


def test_solve_quadratic_degenerate_linear():
    assert [int(r) for r in solve_quadratic(F7.zero, F7(2), F7(3))] == [2]


def test_random_element_reproducible():
    a = F31.random_element(random.Random(3))
    b = F31.random_element(random.Random(3))
    assert a == b


def test_sort_key_orders_canonically():
    vals = [F31(v) for v in (5, 0, 30, 1)]
    assert [int(v) for v in sorted(vals, key=lambda e: e.sort_key())] == \
        [0, 1, 5, 30]
    q = [QQ(Fraction(1, 2)), QQ(-3), QQ(0)]
    assert [str(v) for v in sorted(q, key=lambda e: e.sort_key())] == \
        ["-3", "0", "1/2"]
