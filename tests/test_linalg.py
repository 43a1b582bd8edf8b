import random

import numpy as np
import pytest
import sympy

from triplepoints import gfnum
from triplepoints.fields import Field, FieldMismatchError
from triplepoints.linalg import (Matrix, rref, rank, kernel_basis,
                                 invert, _rref_generic)

QQ = Field.QQ()
F31 = Field.GF(31)
F49 = Field.GF(7, 2)


def random_int_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_constructor_checks():
    with pytest.raises(ValueError):
        Matrix.from_ints(QQ, [[1, 2], [3]])
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, [[F31(1)]])


def test_mul_vector():
    m = Matrix.from_ints(F31, [[1, 2], [3, 4]])
    v = [F31(5), F31(6)]
    assert [int(e) for e in m.mul_vector(v)] == [17, 8]  # 17, 39 mod 31


def test_rank_against_sympy():
    rng = random.Random(21)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        ints = random_int_matrix(rng, nrows, ncols)
        assert rank(Matrix.from_ints(QQ, ints)) == sympy.Matrix(ints).rank()


def test_rref_against_sympy():
    rng = random.Random(22)
    for _ in range(20):
        ints = random_int_matrix(rng, 4, 5)
        red, pivots = rref(Matrix.from_ints(QQ, ints))
        sred, spivots = sympy.Matrix(ints).rref()
        assert list(pivots) == list(spivots)
        for i in range(4):
            for j in range(5):
                assert sympy.Rational(red[i, j].val) == sred[i, j]


def test_kernel_is_killed_by_matrix():
    rng = random.Random(23)
    for field in (QQ, F31, F49):
        for _ in range(15):
            ints = random_int_matrix(rng, 3, 6)
            m = Matrix.from_ints(field, ints)
            basis = kernel_basis(m)
            assert len(basis) == 6 - rank(m)
            for v in basis:
                assert all(not e for e in m.mul_vector(v))


def test_kernel_edge_cases():
    m = Matrix(QQ, [])
    assert kernel_basis(m) == []
    zero_rows = Matrix.from_ints(F31, [[0, 0, 0]])
    basis = zero_rows.kernel_basis()
    assert len(basis) == 3


def test_numpy_and_generic_paths_agree():
    # above 256 entries the prime-field computation goes through numpy;
    # compare its rank with the generic elimination on the lifted QQ matrix
    rng = random.Random(24)
    for _ in range(5):
        ints = random_int_matrix(rng, 20, 20, 0, 30)
        # plant a dependency so the rank is not trivially full
        ints[7] = [(3 * a + 2 * b) % 31 for a, b in zip(ints[0], ints[1])]
        gf_rank = rank(Matrix.from_ints(F31, ints))
        rows = [list(r) for r in Matrix.from_ints(F31, ints).rows]
        assert gf_rank == len(_rref_generic(F31, rows))
        assert gf_rank <= 19


def test_numpy_rref_matches_generic():
    rng = random.Random(25)
    ints = random_int_matrix(rng, 18, 18, 0, 30)
    ints[5] = ints[2]
    m = Matrix.from_ints(F31, ints)
    red, pivots = rref(m)  # numpy path (324 entries)
    rows = [list(r) for r in m.rows]
    gen_pivots = _rref_generic(F31, rows)
    assert list(pivots) == gen_pivots
    assert [[int(e) for e in r] for r in red.rows] == \
        [[int(e) for e in r] for r in rows]


def test_invert():
    rng = random.Random(26)
    for field in (QQ, F31):
        for _ in range(10):
            ints = random_int_matrix(rng, 4, 4)
            m = Matrix.from_ints(field, ints)
            if rank(m) < 4:
                with pytest.raises(ValueError):
                    invert(m)
                continue
            inv = invert(m)
            for j in range(4):
                col = [inv[i, j] for i in range(4)]
                e = m.mul_vector(col)
                assert [int(x) if field is F31 else x.val for x in e] == \
                    [1 if i == j else 0 for i in range(4)]
    with pytest.raises(ValueError):
        invert(Matrix.from_ints(QQ, [[1, 2]]))


# 2**31 - 1 runs in int64 with width-1 panels; 33554393 (near 2**25) runs
# in float64 with width-8 panels and a reduction before every update
KERNEL_PRIMES = (2, 3, 31, 101, 33554393, 2**31 - 1)


def _kernel_cases(rng, p):
    """Integer matrices with planted dependencies, zero rows and columns,
    thin shapes, and entries outside [0, p), negatives included."""
    def rand(nrows, ncols):
        return [[rng.randint(-3 * p, 3 * p) for _ in range(ncols)]
                for _ in range(nrows)]

    def staggered(rk, ncols):
        # staggered leading zeros spread the pivots over several panels
        return [[0] * (t * ncols // (rk + 2)) + row[t * ncols // (rk + 2):]
                for t, row in enumerate(rand(rk, ncols))]

    def combine(base, nrows, ncols):
        return [[sum(c * b[j] for c, b in zip(comb, base)) % p
                 + p * rng.randint(-2, 2) for j in range(ncols)]
                for comb in rand(nrows, len(base))]

    cases = [rand(1, 1), [[p]], rand(1, 150), rand(80, 1), [[0] * 9] * 4,
             rand(40, 45)]
    for nrows, ncols, rk in ((80, 150, 24), (60, 70, 40), (100, 40, 12)):
        rows = combine(staggered(rk, ncols), nrows, ncols)
        for i in rng.sample(range(nrows), nrows // 8):
            rows[i] = [0] * ncols
        for j in rng.sample(range(ncols), ncols // 8):
            for row in rows:
                row[j] = 0
        cases.append(rows)
    # reverse staggered: the staggered rows at the bottom in reverse, under
    # combinations of the later ones, so each column's pivot is in the
    # last rows of its panel
    base = staggered(40, 100)
    cases.append(combine(base[20:], 30, 100) + base[::-1])
    return cases


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_matches_generic_elimination(p):
    field = Field.GF(p)
    rng = random.Random(p)
    for ints in _kernel_cases(rng, p):
        rows = [list(r) for r in Matrix.from_ints(field, ints).rows]
        gen_pivots = _rref_generic(field, rows)
        want = [[e.val for e in r] for r in rows]
        # a row permutation moves the pivots to other rows of their panels
        # and keeps the reduced form; the transpose keeps the rank
        for case in (ints, rng.sample(ints, len(ints))):
            arr = np.array(case, dtype=np.int64)
            assert gfnum.rank_mod_p(arr, p) == len(gen_pivots)
            assert gfnum.rank_mod_p(arr.T, p) == len(gen_pivots)
            red, pivots = gfnum.rref_mod_p(arr, p)
            assert pivots == gen_pivots
            assert red.tolist() == want
            assert np.array_equal(arr, np.array(case, dtype=np.int64))


def test_kernel_refuses_primes_beyond_its_bound():
    a = np.eye(3, dtype=np.int64)
    for p in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            gfnum.rank_mod_p(a, p)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            gfnum.rref_mod_p(a, p)
