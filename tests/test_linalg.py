import random

import numpy as np
import pytest
import sympy

from triplepoints import gfnum
from triplepoints.fields import Field
from triplepoints.linalg import (rref, rank, ranks, kernel_basis, invert,
                                 leading_zero_rows, _dot, _values,
                                 _rref_generic)

QQ = Field.QQ()
F31 = Field.GF(31)
F49 = Field.GF(7, 2)


def random_int_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def array(field, ints):
    """A coefficient array of the field from a list of integer rows."""
    return _values(field, [[field(v) for v in row] for row in ints])


def generic_rref(field, ints):
    """(rows, pivots) of the generic elimination, the object-field path."""
    rows = [[field(v) for v in row] for row in ints]
    return rows, _rref_generic(field, rows)


def test_rank_against_sympy():
    rng = random.Random(21)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        ints = random_int_matrix(rng, nrows, ncols)
        assert rank(QQ, array(QQ, ints)) == sympy.Matrix(ints).rank()


def test_rref_against_sympy():
    rng = random.Random(22)
    for _ in range(20):
        ints = random_int_matrix(rng, 4, 5)
        red, pivots = rref(QQ, array(QQ, ints))
        sred, spivots = sympy.Matrix(ints).rref()
        assert red.shape == (4, 5)
        assert list(pivots) == list(spivots)
        for i in range(4):
            for j in range(5):
                assert sympy.Rational(red[i, j].val) == sred[i, j]


def test_kernel_is_killed_by_matrix():
    rng = random.Random(23)
    for field in (QQ, F31, F49):
        for _ in range(15):
            ints = random_int_matrix(rng, 3, 6)
            m = array(field, ints)
            basis = kernel_basis(field, m)
            assert basis.shape == (6 - rank(field, m), 6)
            for v in basis:
                assert not any(_dot(field, v, m.T))


def test_kernel_edge_cases():
    for field in (QQ, F31):
        # no rows: every column is free
        for n in (0, 3):
            empty = _values(field, np.empty((0, n), dtype=object))
            assert [[int(e) if field is F31 else e.val for e in v]
                    for v in kernel_basis(field, empty)] == np.eye(n).tolist()
        zero_rows = array(field, [[0, 0, 0]])
        assert len(kernel_basis(field, zero_rows)) == 3


def test_numpy_and_generic_paths_agree():
    # every prime-field matrix goes to the gfnum kernel; compare its rank
    # with the generic elimination
    rng = random.Random(24)
    for _ in range(5):
        ints = random_int_matrix(rng, 20, 20, 0, 30)
        # plant a dependency so the rank is not trivially full
        ints[7] = [(3 * a + 2 * b) % 31 for a, b in zip(ints[0], ints[1])]
        gf_rank = rank(F31, array(F31, ints))
        assert gf_rank == len(generic_rref(F31, ints)[1])
        assert gf_rank <= 19
    # small matrices too: there is no size threshold
    for _ in range(20):
        ints = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(F31, array(F31, ints)) == len(generic_rref(F31, ints)[1])


def test_numpy_rref_matches_generic():
    rng = random.Random(25)
    for nrows, ncols in ((18, 18), (3, 5)):
        ints = random_int_matrix(rng, nrows, ncols, 0, 30)
        ints[2] = ints[0]
        red, pivots = rref(F31, array(F31, ints))
        rows, gen_pivots = generic_rref(F31, ints)
        assert red.dtype == np.int64
        assert list(pivots) == gen_pivots
        assert red.tolist() == [[int(e) for e in r] for r in rows]


def test_invert():
    rng = random.Random(26)
    for field in (QQ, F31, F49):
        eye = _values(field, [[field(int(i == j)) for j in range(4)]
                              for i in range(4)]).tolist()
        for _ in range(10):
            m = array(field, random_int_matrix(rng, 4, 4))
            if rank(field, m) < 4:
                with pytest.raises(ValueError, match="singular"):
                    invert(field, m)
                continue
            inv = invert(field, m)
            assert _dot(field, m, inv).tolist() == eye
        with pytest.raises(ValueError, match="square"):
            invert(field, array(field, [[1, 2]]))
    # GF(7^2) entries with a nonzero u part
    u = F49.ext(0, 1)
    m = _values(F49, [[u, F49.one], [F49.one, u]])  # det u^2 - 1 = 2
    assert _dot(F49, invert(F49, m), m).tolist() == [[F49.one, F49.zero],
                                                     [F49.zero, F49.one]]
    with pytest.raises(ValueError, match="singular"):
        invert(F49, _values(F49, [[u, u], [F49.one, F49.one]]))


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
        rows, gen_pivots = generic_rref(field, ints)
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


# 94906249 is the last prime whose products (p-1)**2 stay below 2**53, so
# float64 chunks of one term; 94906297 the first where one product crosses
# it, so int64; 33554393 sums chunks of 8 terms
@pytest.mark.parametrize("p", [2, 101, 33554393, 94906249, 94906297,
                               2**31 - 1])
def test_matmul_mod_p_matches_python_ints(p):
    rng = random.Random(p)
    for shape in ((5, 40, 7), (1, 1, 1), (3, 0, 4), (0, 6, 2), (9, 17, 1)):
        m, n, c = shape
        # all p - 1 is the largest sum, a case a float64 sum past 2**53
        # rounds
        for a, b in (
                ([[p - 1] * n] * m, [[p - 1] * c] * n),
                ([[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                 [[rng.randrange(p) for _ in range(c)] for _ in range(n)])):
            want = [[sum(a[i][t] * b[t][j] for t in range(n)) % p
                     for j in range(c)] for i in range(m)]
            a = np.array(a, dtype=np.int64).reshape(m, n)
            b = np.array(b, dtype=np.int64).reshape(n, c)
            got = gfnum.matmul_mod_p(a, b, p)
            assert got.dtype == np.int64 and got.tolist() == want
            if m:  # a vector times a matrix
                assert gfnum.matmul_mod_p(a[0], b, p).tolist() == want[0]


def test_float_elimination_reduces_exactly():
    # near 2**25 a panel of 8 pivots adds up to 8 * (p-1)**2, so from the
    # second panel on every update needs the trailing block reduced first
    p = 33554393
    dtype, width, limit = gfnum._layout(p)
    assert dtype == np.float64 and (p - 1) + 2 * width * (p - 1)**2 >= limit
    rng = random.Random(27)
    base = [[rng.randrange(p) for _ in range(96)] for _ in range(50)]
    combos = [[rng.randrange(p) for _ in range(5)] for _ in range(14)]
    ints = base + [[sum(c * row[j] for c, row in zip(cs, base)) % p
                    for j in range(96)] for cs in combos]
    rng.shuffle(ints)
    rows, gen_pivots = generic_rref(Field.GF(p), ints)
    arr = np.array(ints, dtype=np.int64)
    assert gfnum.rank_mod_p(arr, p) == len(gen_pivots) == 50
    red, pivots = gfnum.rref_mod_p(arr, p)
    assert pivots == gen_pivots
    assert red.tolist() == [[e.val for e in r] for r in rows]


def test_kernel_refuses_primes_beyond_its_bound():
    a = np.eye(3, dtype=np.int64)
    for p in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            gfnum.rank_mod_p(a, p)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            gfnum.rref_mod_p(a, p)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            gfnum.ranks_mod_p(a[None], p)


def random_stack(rng, p):
    """A stack of sparse random residue matrices, some with zero columns,
    zero rows or dependent rows."""
    b, m, n = rng.randint(1, 7), rng.randint(1, 10), rng.randint(1, 16)
    a = np.array([[[rng.randrange(p) if rng.random() < 0.6 else 0
                    for _ in range(n)] for _ in range(m)]
                  for _ in range(b)], dtype=np.int64)
    a[rng.randrange(b), :, rng.randrange(n)] = 0
    a[rng.randrange(b), rng.randrange(m)] = 0
    if m > 1:
        i = rng.randrange(b)
        a[i, 0] = (a[i, 1] * rng.randrange(p)) % p
    return a


STACK_PRIMES = [5, 101, 2**31 - 1]


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_ranks_mod_p_matches_rank_mod_p(p):
    rng = random.Random(p + 3)
    stacks = [random_stack(rng, p) for _ in range(80)]
    # a matrix with no pivot in a column must keep its rows; all p - 1 is
    # the largest product of the fraction-free step
    stacks.append(np.zeros((2, 4, 5), dtype=np.int64))
    stacks.append(np.array([np.eye(4, 6, k, dtype=np.int64) for k in
                            range(-2, 3)]))
    stacks.append(np.full((3, 6, 5), p - 1, dtype=np.int64))
    full = np.array([[[rng.randrange(p) for _ in range(15)]
                      for _ in range(18)] for _ in range(4)])
    full[1, :, 0] = 0
    stacks.append(full)
    for a in stacks:
        want = [gfnum.rank_mod_p(m, p) for m in a]
        assert gfnum.ranks_mod_p(a, p).tolist() == want
        assert ranks(Field.GF(p), a).tolist() == want
    assert ranks(F31, np.zeros((2, 3, 7, 5), dtype=np.int64)).shape == (2, 3)


@pytest.mark.parametrize("field", [Field.GF(5), Field.GF(101),
                                   Field.GF(2**31 - 1), F49, QQ],
                         ids=["GF5", "GF101", "GF2147483647", "GF49", "QQ"])
def test_leading_zero_rows_span_the_annihilated_rows(field):
    # the rows a M with a J = 0, for [J | M] split at ncols: one kernel per
    # matrix is the oracle
    rng = random.Random(field.char + 17)
    for _ in range(15):
        a = random_stack(rng, field.char if field.char else 7)
        a = _values(field, [[[field(int(v)) for v in row] for row in m]
                            for m in a])
        ncols = rng.randint(0, a.shape[2])
        got = leading_zero_rows(field, a, ncols)
        assert got.shape[1] == a.shape[2] - ncols
        want = [_dot(field, kernel_basis(field, m[:, :ncols].T), m[:, ncols:])
                for m in a if len(kernel_basis(field, m[:, :ncols].T))]
        want = np.concatenate(want) if want else got[:0]
        both = np.concatenate([got, want])
        r = rank(field, both) if len(both) else 0
        assert r == (rank(field, got) if len(got) else 0)
        assert r == (rank(field, want) if len(want) else 0)
