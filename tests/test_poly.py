import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from triplepoints.fields import Field
from triplepoints.poly import (MultiPoly, grlex_key, exponents_of_degree,
                               num_monomials, poly_determinant)

QQ = Field.QQ()
F31 = Field.GF(31)
F49 = Field.GF(7, 2)

SX, SY, SZ, SW = sympy.symbols("x y z w")
SYMS = (SX, SY, SZ, SW)


def to_sympy(f):
    expr = sympy.Integer(0)
    for e, c in f.terms.items():
        val = c.val if f.field.kind == "QQ" else int(c)
        expr += sympy.Rational(val) * SX**e[0] * SY**e[1] * SZ**e[2] * SW**e[3]
    return sympy.expand(expr)


def sympy_substitute(f, images):
    """f(images) by sympy's sparse polynomial arithmetic over f's field,
    in the generators u, x, y, z, w (over GF(p^2) = GF(p)[u], u^2 = n,
    reduced after every product), and f.substitute(images) in that ring."""
    field = f.field
    ring = sympy.ring("u,x,y,z,w", sympy.QQ if field.kind == "QQ"
                      else sympy.GF(field.p))[0]

    def reduced(h):  # u^k = n^(k // 2) * u^(k % 2)
        if field.kind != "GF2":
            return h
        terms = {}
        for (k, *e), c in h.items():
            key = (k % 2, *e)
            terms[key] = terms.get(key, 0) + c * field.nonresidue ** (k // 2)
        return ring.from_dict(terms)

    def poly(g):
        terms = {}
        for e, c in g.terms.items():
            if field.kind == "QQ":
                parts = [sympy.QQ(c.val.numerator, c.val.denominator)]
            else:  # a + b*u over GF(p^2)
                parts = c.val if field.kind == "GF2" else [c.val]
            terms.update({(k,) + e: v for k, v in enumerate(parts) if v})
        return ring.from_dict(terms) if terms else ring.zero

    powers = []
    for i, g in enumerate(images):
        pw = [ring.one]
        for _ in range(max((e[i] for e in f.terms), default=0)):
            pw.append(reduced(pw[-1] * poly(g)))
        powers.append(pw)
    total = ring.zero
    for e, c in f.terms.items():
        term = poly(MultiPoly.constant(field, c))
        for pw, k in zip(powers, e):
            term = reduced(term * pw[k])
        total += term
    return total, poly(f.substitute(images))


def from_ints(field, int_terms):
    return MultiPoly(field, {e: field(c) for e, c in int_terms.items()
                             if field(c)})


def random_poly(field, rng, degree=3, nterms=6):
    terms = {}
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(4)] += 1
        terms[tuple(e)] = field.random_element(rng)
    return MultiPoly(field, {e: c for e, c in terms.items() if c})


def test_grlex_order():
    # degree first, then lexicographic with x > y > z > w
    exps = exponents_of_degree(2)
    assert exps[0] == (2, 0, 0, 0)
    assert exps[-1] == (0, 0, 0, 2)
    assert len(exps) == 10
    assert grlex_key((1, 0, 0, 0)) < grlex_key((2, 0, 0, 0))
    assert grlex_key((0, 2, 0, 0)) < grlex_key((2, 0, 0, 0))


def test_num_monomials():
    for k in range(7):
        assert num_monomials(k) == len(exponents_of_degree(k))
        assert num_monomials(k) == (k + 1) * (k + 2) * (k + 3) // 6
        assert num_monomials(k, 3) == (k + 1) * (k + 2) // 2


def test_parse_print_roundtrip_fixed():
    samples = [
        "0",
        "x^3+y^3+z^3",
        "x^6+2*x^3*w^3-w^6",
        "x*y-z^2",
        "5",
        "-x+3*y*w",
    ]
    for text in samples:
        f = MultiPoly.parse(text, F31)
        assert MultiPoly.parse(str(f), F31) == f


@pytest.mark.parametrize("field,text,printed", [
    (QQ, "-x+3/2*y*w-1", "3/2*y*w-x-1"),
    (QQ, "-1", "-1"),
    (QQ, "0", "0"),
    (F31, "-x+2", "30*x+2"),
    (F31, "x*y-1", "x*y+30"),
    (F49, "(u)*x+(3+2*u)*y-1", "(0+1*u)*x+(3+2*u)*y+(6)"),
    (F49, "x^2+(0+1*u)", "(1)*x^2+(0+1*u)"),
])
def test_printed_text(field, text, printed):
    # every polynomial string of a CLI document is this text: terms in
    # grlex order, a QQ sign before its term, a coefficient 1 left out
    # except over GF(p^2), where every coefficient is a bracketed pair
    assert str(MultiPoly.parse(text, field)) == printed


@pytest.mark.parametrize("field", [QQ, F31, F49], ids=["QQ", "GF31", "GF49"])
def test_scalar_operands(field):
    x = MultiPoly.variable(field, 0)
    assert x + 1 == MultiPoly.parse("x+1", field)
    assert 2 - x == MultiPoly.parse("-x+2", field)
    assert x - field(3) == MultiPoly.parse("x-3", field)
    if field == F31:
        assert [str(x + 1), str(2 - x), str(x - field(3))] \
            == ["x+1", "30*x+2", "x+28"]


def test_parse_t_is_w_alias():
    assert MultiPoly.parse("x*t^2", QQ) == MultiPoly.parse("x*w^2", QQ)


def test_parse_rational_coefficients():
    f = MultiPoly.parse("1/2*x^2-3/4*y*z", QQ)
    assert f.terms[(2, 0, 0, 0)] == QQ.frac(1, 2)
    assert f.terms[(0, 1, 1, 0)] == QQ.frac(-3, 4)


def test_parse_rejects_garbage():
    for bad in ("x+", "x^", "v^2", "2**x", "(x"):
        with pytest.raises(ValueError):
            MultiPoly.parse(bad, QQ)


@pytest.mark.parametrize("bad", ["x2", "2**x", "(x", "x^", "--x", "x+"])
@pytest.mark.parametrize("field", [QQ, F31, F49], ids=["QQ", "GF31", "GF49"])
def test_parse_rejects_malformed_terms(field, bad):
    with pytest.raises(ValueError):
        MultiPoly.parse(bad, field)


def test_parse_reads_coefficients_as_field_parse_does():
    # every coefficient text goes to Field.parse, so the GF(p^2) forms it
    # reads parse in a polynomial too, and only over GF(p^2)
    x = MultiPoly.variable(F49, 0)
    assert MultiPoly.parse("(u)*x", F49) == x.scale(F49.ext(0, 1))
    assert MultiPoly.parse("(3*u)*x", F49) == x.scale(F49.ext(0, 3))
    assert MultiPoly.parse("-(2+3*u)*x^2*y + 5/2*z", F49) == MultiPoly(F49, {
        (2, 1, 0, 0): -F49.ext(2, 3), (0, 0, 1, 0): F49.frac(5, 2)})
    for field in (QQ, F31):
        with pytest.raises(ValueError):
            MultiPoly.parse("(u)*x", field)


def _term_text(c, mono):
    """One signed term of a polynomial text."""
    if c.field.kind == "QQ":
        v = c.val
        text = f"{'-' if v < 0 else '+'}{abs(v.numerator)}/{v.denominator}"
    else:
        text = "+" + str(c)
    return text + ("*" + mono if mono else "")


@pytest.mark.parametrize("field", [QQ, F31, F49],
                         ids=["QQ", "GF31", "GF49"])
def test_parse_sums_repeated_monomials_in_one_pass(field, monkeypatch):
    # parse(str(f)) == f, and a text that splits each term of f into four
    # parts, two of which cancel, parses to f; no MultiPoly is added
    rng = random.Random(41)
    cases = []
    for _ in range(20):
        f = random_poly(field, rng, degree=6, nterms=30)
        parts = []
        for e, c in f.terms.items():
            r = field.random_element(rng)
            mono = "*".join(f"{v}^{k}" for v, k in zip("xyzw", e) if k)
            parts += [_term_text(k, mono) for k in (c - r, r, r, -r)]
        rng.shuffle(parts)
        cases.append((f, str(f), "".join(parts)))
    adds = []
    add = MultiPoly.__add__
    monkeypatch.setattr(MultiPoly, "__add__",
                        lambda a, b: adds.append(1) or add(a, b))
    for f, text, split in cases:
        assert MultiPoly.parse(text, field) == f
        assert MultiPoly.parse(split, field) == f
    assert MultiPoly.parse("3*x^2*y+z-3*x^2*y", field) \
        == MultiPoly.variable(field, 2)
    assert adds == []


@settings(max_examples=60)
@given(st.integers(0, 2 ** 30))
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    f = random_poly(F31, rng)
    assert MultiPoly.parse(str(f), F31) == f


def test_arithmetic_against_sympy():
    rng = random.Random(11)
    for _ in range(25):
        f = random_poly(QQ, rng)
        g = random_poly(QQ, rng)
        assert to_sympy(f + g) == to_sympy(f) + to_sympy(g)
        assert to_sympy(f - g) == to_sympy(f) - to_sympy(g)
        assert to_sympy(f * g) == sympy.expand(to_sympy(f) * to_sympy(g))
    f = random_poly(QQ, rng, degree=2, nterms=3)
    assert to_sympy(f ** 3) == sympy.expand(to_sympy(f) ** 3)


def test_derivative_against_sympy():
    rng = random.Random(12)
    for _ in range(10):
        f = random_poly(QQ, rng)
        for i, s in enumerate(SYMS):
            assert to_sympy(f.derivative(i)) == sympy.diff(to_sympy(f), s)


@settings(max_examples=40)
@given(st.integers(0, 2 ** 30))
def test_product_rule(seed):
    rng = random.Random(seed)
    f = random_poly(F31, rng, degree=2, nterms=4)
    g = random_poly(F31, rng, degree=2, nterms=4)
    for i in range(4):
        lhs = (f * g).derivative(i)
        rhs = f.derivative(i) * g + f * g.derivative(i)
        assert lhs == rhs


@settings(max_examples=40)
@given(st.integers(0, 2 ** 30))
def test_euler_relation(seed):
    # sum x_i * df/dx_i = d * f for homogeneous f of degree d
    rng = random.Random(seed)
    d = rng.randint(1, 5)
    exps = exponents_of_degree(d)
    f = MultiPoly(F31, {e: c for e in exps
                        if (c := F31.random_element(rng))})
    acc = MultiPoly.zero(F31)
    for i in range(4):
        acc = acc + MultiPoly.variable(F31, i) * f.derivative(i)
    assert acc == f.scale(F31(d))


def test_evaluate_matches_sympy():
    rng = random.Random(13)
    f = random_poly(QQ, rng)
    pt = [QQ.random_element(rng) for _ in range(4)]
    expected = to_sympy(f).subs(
        {s: sympy.Rational(v.val) for s, v in zip(SYMS, pt)})
    assert sympy.Rational(f.evaluate(pt).val) == expected


def test_substitute_reciprocal():
    # xy + zw is fixed by the reciprocal substitution up to xyzw
    f = MultiPoly.parse("x*y+z*w", QQ)
    x, y, z, w = (MultiPoly.variable(QQ, i) for i in range(4))
    img = f.substitute([y * z * w, x * z * w, x * y * w, x * y * z])
    assert img == f * (x * y * z * w)


def test_substitute_zero_kills_variable():
    f = MultiPoly.parse("x^2+y^2", QQ)
    x = MultiPoly.variable(QQ, 0)
    zero = MultiPoly.zero(QQ)
    y = MultiPoly.variable(QQ, 1)
    w = MultiPoly.variable(QQ, 3)
    assert f.substitute([zero, y, zero, w]) == MultiPoly.parse("y^2", QQ)


@pytest.mark.parametrize("field", [QQ, F31, F49],
                         ids=["QQ", "GF31", "GF49"])
def test_substitute_matches_sympy(field):
    # images whose terms collide, monomial or not, against sympy's
    # expansion; then a dense sextic under linear changes of coordinates,
    # as the reciprocal families make them, one of them singular
    rng = random.Random(23)
    variables = [MultiPoly.variable(field, i) for i in range(4)]
    x, y, z, w = variables
    zero = MultiPoly.zero(field)
    cases = [(random_poly(field, rng), images) for images in
             [[x, x * 2, z, zero], [y * z, x * w, y * z, x * x]]
             + [[random_poly(field, rng, degree=2, nterms=3)
                 for _ in range(4)] for _ in range(4)]]
    for singular in (False, True):
        m = [[field.random_element(rng) for _ in range(4)] for _ in range(4)]
        if singular:
            m[3] = [a + b for a, b in zip(m[0], m[1])]
        images = [sum((v * c for v, c in zip(variables, row)), zero)
                  for row in m]
        sextic = MultiPoly(field, {e: field.random_element(rng)
                                   for e in exponents_of_degree(6)})
        cases.append((sextic, images))
    for f, images in cases:
        expected, got = sympy_substitute(f, images)
        assert got == expected


def test_symmetric_substitution_fixes_symmetric_poly():
    f = MultiPoly.parse("x+y", QQ)
    x, y, z, w = (MultiPoly.variable(QQ, i) for i in range(4))
    assert f.substitute([y, x, z, w]) == f


@pytest.mark.parametrize("field", [QQ, F31, F49], ids=["QQ", "GF31", "GF49"])
def test_equal_polynomials_hash_equal(field):
    # built in different orders and by different operations, with terms
    # that cancel: equal polynomials are one key of a set or a dict
    x, y, z = (MultiPoly.variable(field, i) for i in range(3))
    pairs = [((x + y) * (x + y), MultiPoly.parse("y^2+2*x*y+x^2", field)),
             ((x + z) - z, x),
             (y * z - z * y, MultiPoly.zero(field)),
             (MultiPoly.parse("x^3-y", field).scale(field(3)),
              MultiPoly.parse("3*x^3", field) - y - y - y)]
    for p, q in pairs:
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1
        assert {p: 1}[q] == 1
    assert len({p for pair in pairs for p in pair}) == len(pairs)


def test_homogeneity():
    f = MultiPoly.parse("x^3+y^2*w", F31)
    assert f.homogeneous_degree() == 3
    g = MultiPoly.parse("x^2+y", F31)
    assert g.homogeneous_degree() is None
    assert g.degree() == 2


def test_leading_term_grlex():
    f = MultiPoly.parse("y^3+x^2*w+x*y*z", F31)
    # degrees tie at 3; lex with x > y > z > w ranks x^2w > xyz > y^3
    assert [e for e, _ in f.sorted_terms()] == [(2, 0, 0, 1), (1, 1, 1, 0),
                                                (0, 3, 0, 0)]


def test_divisible_by_variable():
    f = MultiPoly.parse("x*y+x*w", F31)
    assert f.divisible_by_variable(0)
    assert not f.divisible_by_variable(1)


def test_poly_determinant_against_sympy():
    rng = random.Random(15)
    for n in (2, 3, 4):
        rows = [[random_poly(QQ, rng, degree=1, nterms=3) for _ in range(n)]
                for _ in range(n)]
        det = poly_determinant(rows)
        sdet = sympy.expand(sympy.Matrix(
            [[to_sympy(e) for e in r] for r in rows]).det())
        assert to_sympy(det) == sdet


def test_poly_determinant_repeated_row_is_zero():
    f = MultiPoly.parse("x+y", QQ)
    g = MultiPoly.parse("z*w", QQ)
    assert not poly_determinant([[f, g], [f, g]])


def test_poly_determinant_2x2():
    x, y, z, w = (MultiPoly.variable(QQ, i) for i in range(4))
    assert poly_determinant([[x, y], [z, w]]) == x * w - y * z


def test_poly_determinant_size_cap():
    one = MultiPoly.constant(QQ, 1)
    with pytest.raises(ValueError):
        poly_determinant([[one] * 9 for _ in range(9)])
