"""numpy-backed arithmetic mod p for the hot linear-algebra paths and
the singular-point sweep.

Elimination (rank_mod_p, rref_mod_p) checks 2 <= p < 2**31 at entry and
works by column panels, after Dumas, Giorgi and Pernet (ACM TOMS 35(3),
2008).  A panel is eliminated alone in int64 residues, without row swaps:
any nonzero residue of a column is its pivot, the pivot row is retired
by zeroing its later entries, and the multipliers are kept as LAPACK's
getrf keeps L.  One matrix product then clears the rows below, A22 -=
L21 (L11^-1 A12), with L11^-1 a product of I + (-N)^(2^j), L11 = I + N.
Every factor of a product is a residue below p and every sum has at most
width terms, so an update adds at most width * (p-1)**2 to an entry;
entries are reduced mod p only when a tracked bound says the next update
could reach the limit of the working dtype.  The width is chosen from p
alone: float64, whose matrix product is BLAS, while (p-1) + width *
(p-1)**2 < 2**53, so float64 only holds integers below 2**53 and is
exact; otherwise int64 with width 1, which p < 2**31 keeps below 2**63.
No result depends on rounding or on which rows become pivot rows.

The other products of residue matrices, L11^-1 and its products here
and linalg._dot over GF(p), are matmul_mod_p, under the same bounds.

A stack of small matrices (the 18 x 15 tangent-cone matrices of all the
points of a surface) is ranked in one pass, ranks_mod_p: one Gauss step
per column for every matrix at once, on int64 residues and fraction
free, each row r becoming v*r - f*piv with v the pivot and f the row's
entry in the pivot column.  Both products are below (p-1)**2 < 2**62, so
their difference lies in (-2**62, 2**62), inside int64, as p < 2**31.

_mul multiplies GF(p^2) = GF(p)[u] values, u^2 = n, as (a, b) parts, for
the sweep and for linalg's GF(p^2) arrays; reducing, it reduces the u
parts' product before multiplying by n, so every intermediate is below
n*(p-1) + (p-1)**2 < 2**63 for p < 2**31.

The sweep (sweep_chart) takes each polynomial as the (exps, vals) arrays
that singular's Macaulay matrices and jets use: one exponent row per
term and int64 residues, or (a, b) pairs over GF(p^2).  It reduces after
every product or contraction but the last, whose values are only
compared with zero: their exact sums are tested for divisibility by p
(_divisible, no division).  A contraction over the exponent axis, or a
survivor's sum over it, adds at most d+1 products of residues below p,
where d is the largest exponent; over GF(p^2) the real part adds n times
a second such sum (u^2 = n).  So every intermediate is below (d+1) *
(p-1)**2 * (1+n), and sweep_chart refuses inputs where that could reach
2**53: its contractions run in float64, for BLAS, which holds the
integers below 2**53 exactly.
"""
from __future__ import annotations

from functools import partial

import numpy as np


# widest panel: on the Macaulay matrices of one benchmark pass 32 and 48
# timed best, 12 to 24 up to 20% slower
_PANEL = 32


def _layout(p: int):
    """Working dtype, panel width and exactness limit for elimination mod p,
    as the module docstring describes."""
    if not 2 <= p < 2**31:
        raise ValueError("elimination mod p needs a prime 2 <= p < 2**31")
    width = min(_PANEL, (2**53 - p) // (p - 1)**2)
    if width >= 1:
        return np.float64, width, 2**53
    return np.int64, 1, 2**63


def _residues(x, p: int) -> np.ndarray:
    """int64 residues of an array of exact integers."""
    return x.astype(np.int64, order="C") % p


def matmul_mod_p(a, b, p: int) -> np.ndarray:
    """a @ b mod p, exactly, for int64 residue arrays (a 1-D or 2-D, b 2-D).

    A float64 product goes through BLAS and is exact while its sums stay
    below 2**53, so the inner dimension is cut into chunks of at most
    2**53 // (p-1)**2 terms, each chunk's product reduced before it is
    added.  When (p-1)**2 >= 2**53 not one term fits: the sum runs in
    int64, one term at a time and reduced after each, which p < 2**31
    keeps below 2**63.
    """
    chunk = 2**53 // (p - 1)**2
    if not chunk:
        out = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        for j in range(a.shape[-1]):
            out += np.multiply.outer(a[..., j], b[j])
            out %= p
        return out

    def part(s):
        return _residues(a[..., s:s + chunk].astype(np.float64)
                         @ b[s:s + chunk].astype(np.float64), p)
    out = part(0)
    for s in range(chunk, a.shape[-1], chunk):
        out += part(s)
        out %= p
    return out


def _unit_inverse(t, p: int) -> np.ndarray:
    """Inverse mod p of a k x k unit triangular residue matrix t = I + N:
    N is nilpotent, so it is the product of I + (-N)^(2^j) over 2^j < k."""
    eye = np.eye(len(t), dtype=np.int64)
    n = (eye - t) % p
    x = eye + n
    for _ in range((len(t) - 1).bit_length() - 1):
        n = matmul_mod_p(n, n, p)
        x = matmul_mod_p(x, eye + n, p)
    return x


def _eliminate(a, p: int, above: bool):
    """Gauss-Jordan elimination mod p by column panels.

    Returns (working array, pivot columns).  Rows 0..rank-1 of the array
    are congruent mod p to the pivot rows, with 1 at their pivot and 0 in
    the other pivot columns; the rows below keep residues in the panels'
    columns, eliminated only in each panel's copy w.  Rows above each
    panel's pivots are cleared only when `above` is set, which is all that
    distinguishes the reduced echelon form from a rank.

    Each panel column takes its largest residue as pivot; the update with
    its multipliers (kept as a column of L, 1 at the pivot row) zeroes the
    pivot row's later entries, which retires that row.  Only rows that
    must move are swapped.  Every step adds at most (p-1)**2 to an entry
    per pivot, so by the choice of width no entry reaches the limit of its
    dtype before it is reduced again.
    """
    dtype, width, limit = _layout(p)
    # one working copy, reduced in int64 and stored in the working dtype
    a = np.mod(a, p, dtype=np.int64, out=np.empty(a.shape, dtype))
    nrows, ncols = a.shape
    step = (p - 1)**2
    bound = p - 1  # largest |entry| the next update can start from
    pivots = []
    r = 0
    for c0 in range(0, ncols, width):
        if r == nrows:
            break
        w = _residues(a[r:, c0:c0 + width].T, p)  # one row per column
        piv, mult = [], []  # (row, column, 1 / pivot), and L by columns
        for j in range(len(w)):
            col = w[j] % p
            i = int(col.argmax())
            if col[i]:
                piv.append((i, j, pow(int(col[i]), -1, p)))
                mult.append(col * piv[-1][2] % p)
                w[j + 1:] -= w[j + 1:, i, None] % p * mult[-1]
        k = len(piv)
        pivots.extend(c0 + j for _, j, _ in piv)
        top, r = r, r + k
        if not k or not above and (r == nrows or c0 + width >= ncols):
            continue  # nothing to clear, or the rank is already known
        rows, cols, inverses = np.array(piv).T
        low = np.array(mult, dtype=dtype).T
        del w, mult  # a smaller peak on the largest matrices
        # the pivot rows from column c0, reduced by the panel's pivots
        u = matmul_mod_p(_unit_inverse(low[rows], p),
                         _residues(a[top + rows, c0:], p), p)
        # the other rows among the top k take the places of pivot rows
        down, up = rows[rows >= k], np.delete(np.arange(k), rows[rows < k])
        a[top + down] = a[top + up]
        low[down] = low[up]
        updates = [(a[r:, c0 + width:], low[k:], u[:, width:])]
        if above:  # normalise the pivot rows and clear them from above
            u = u * inverses[:, None] % p
            u = matmul_mod_p(_unit_inverse(u[:, cols], p), u, p)
            a[top:r, :c0] = 0
            a[top:r, c0:] = u
            b = a[:top, c0:]
            updates.append((b, _residues(b[:, cols], p), u))
        if bound + k * step >= limit:
            for b, _, _ in updates:
                b[...] = _residues(b, p)  # int64 %: float64 % is slower
            bound = p - 1
        for b, m, x in updates:
            b -= np.matmul(m, x, dtype=dtype)
        bound += k * step
    return a, pivots


def rref_mod_p(a: np.ndarray, p: int):
    """Reduced row echelon form mod p.  Returns (int64 array, pivot columns)."""
    a, pivots = _eliminate(a, p, above=True)
    a[len(pivots):] = 0
    return _residues(a, p), pivots


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank mod p: the same elimination, clearing below the pivots only."""
    return len(_eliminate(a, p, above=False)[1])


def ranks_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of the matrices a[b] of a stack (shape (batch, m, n)),
    by Gauss steps on every matrix at once.

    Each matrix takes as pivot of column c its largest residue among the
    rows that are not pivot rows yet; every row r then becomes v*r -
    r[c]*pivot row (v the pivot), which zeroes column c outside the pivot
    rows and keeps the row space (v != 0).  A matrix with no pivot in the
    column is left as it is.  The rank is the number of pivot rows.  The
    bound is in the module docstring.
    """
    if not 2 <= p < 2**31:
        raise ValueError("elimination mod p needs a prime 2 <= p < 2**31")
    a = np.mod(a, p, dtype=np.int64, order="C")
    free = np.ones(a.shape[:2], dtype=bool)
    at = np.arange(len(a))
    for c in range(a.shape[2] if a.shape[1] else 0):
        col = a[:, :, c] * free
        i = col.argmax(axis=1)
        v = col[at, i]
        # a pivot row stops being free; with no pivot, row i stays as it was
        free[at, i] &= v == 0
        pivot = a[at, i, c + 1:]
        rest = a[:, :, c + 1:]
        rest *= (v + (v == 0))[:, None, None]
        rest -= col[:, :, None] * pivot[:, None, :]
        rest %= p
    return (~free).sum(axis=1)


def _mul(x, y, p: int, n: int, op=np.multiply, reduce=True):
    """Product of values given as parts: (residues,) over GF(p), or
    (real, u) over GF(p^2) = GF(p)[u], u^2 = n.  op is the elementwise
    product or a contraction such as np.tensordot.  With reduce=False the
    parts are left as the exact nonnegative sums, for _divisible."""
    # reduced in place: no unreduced product outlives its reduction
    if len(x) == 1:
        r = op(x[0], y[0])
        if reduce:
            r %= p
        return (r,)
    (xa, xb), (ya, yb) = x, y
    a = op(xb, yb)
    if reduce:  # then n * (p-1) + (p-1)**2 < 2**63 for any p < 2**31
        a %= p
    a *= n
    a += op(xa, ya)
    b = op(xa, yb)
    b += op(xb, ya)
    if reduce:
        a %= p
        b %= p
    return (a, b)


def _divisible(v, p: int) -> np.ndarray:
    """v % p == 0 for int64 v in [0, 2**63), without a division.  For odd
    p, v -> v * p^-1 mod 2**64 is a bijection that takes the multiples k*p
    < 2**64 to the k <= (2**64-1)//p, so exactly the multiples land there
    (wrapping uint64 products); for p = 2 the low bit decides."""
    if p == 2:
        return (v & 1) == 0
    return (v.view(np.uint64) * np.uint64(pow(p, -1, 2**64))
            <= np.uint64((2**64 - 1) // p))


def sweep_chart(polys, chart: int, p: int, nonresidue=None) -> np.ndarray:
    """Common zeros of polys on the chart (0,..,0,1,t_1,..,t_f) of P^3.

    polys: (exps, vals) pairs, one exponent 4-tuple per term and their
    int64 residues; over GF(p^2) = GF(p)[u], u^2 = nonresidue, vals holds
    (a, b) parts, one row per term, or residues as real parts.  Field
    elements are indexed 0..q-1 in canonical order (a*p + b over
    GF(p^2)).  Returns the (m, f) array of element indices of the zeros'
    free coordinates, rows in lexicographic order.

    Each polynomial's dense coefficient tensor is contracted with the
    Vandermonde table V[t, e] = t^e over its first f-1 axes, giving the
    fibre table I[e, t_1..t_{f-1}] of at most (d+1) q^(f-1) entries: the
    polynomial is sum_e I[e, t_1..t_{f-1}] t_f^e.  The first (sparsest)
    polynomial finishes the last contraction on the whole q^f grid, in
    slabs of about 2**16 points; every other one is evaluated only at the
    survivors, by gathering their rows of I and of V and summing the
    products over e.
    """
    n = nonresidue or 0
    q = p * p if nonresidue else p
    f = 3 - chart
    # the terms without the zeroed coordinates: free exponents, parts
    restricted = []
    for exps, vals in polys:
        keep = ~exps[:, :chart].any(axis=1)
        if keep.any():
            restricted.append((exps[keep, chart + 1:],
                               vals[keep].reshape(keep.sum(), -1)))
    restricted.sort(key=lambda g: len(g[1]))
    deg = max((int(e.max(initial=0)) for e, _ in restricted), default=0)
    if (deg + 1) * (p - 1)**2 * (1 + n) >= 2**53:
        raise ValueError("sweep sums could overflow 2**53, where float64 "
                         "stops being exact")
    t = np.arange(q, dtype=np.int64)
    elems = (t // p, t % p) if nonresidue else (t,)
    cols = [(np.ones(q, dtype=np.int64),) + (np.zeros(q, dtype=np.int64),)
            * (len(elems) - 1)]
    for _ in range(deg):
        cols.append(_mul(cols[-1], elems, p, n))
    vander = tuple(np.stack(c, axis=1) for c in zip(*cols))

    def contract(x, y):  # in float64, for BLAS: exact below 2**53
        return np.tensordot(x.astype(np.float64), y.astype(np.float64),
                            axes=(0, 1)).astype(np.int64)

    def fibres(exps, parts):
        dense = np.zeros(((deg + 1) ** f, len(elems)), dtype=np.int64)
        # residues alone are real parts
        np.add.at(dense[:, :parts.shape[1]],
                  exps @ (deg + 1) ** np.arange(f - 1, -1, -1), parts)
        vals = tuple(dense.T.reshape((len(elems),) + (deg + 1,) * f) % p)
        for _ in range(f - 1):
            vals = _mul(vals, vander, p, n, contract)
        return tuple(v.reshape(deg + 1, -1) for v in vals)

    def zero(vals):  # the unreduced parts, each below 2**53
        return np.logical_and.reduce([_divisible(v.ravel(), p)
                                      for v in vals])

    rest = restricted
    if f and restricted:  # the first one on the whole grid, in slabs
        fib, step = fibres(*restricted[0]), max(1, 2**16 // q)
        idx = np.concatenate([s * q + np.flatnonzero(zero(_mul(
            tuple(x[:, s:s + step] for x in fib), vander, p, n, contract,
            reduce=False))) for s in range(0, fib[0].shape[1], step)])
        rest = restricted[1:]
    else:
        idx = np.arange(q**f)
    for exps, parts in rest:
        if not idx.size:
            break
        head, last = np.divmod(idx, q)
        at = tuple(x[:, head] for x in fibres(exps, parts))
        vals = _mul(at, tuple(v[last] for v in vander), p, n,
                    partial(np.einsum, "em,me->m"), reduce=False)
        idx = idx[zero(vals)]
    return idx[:, None] // q**np.arange(f - 1, -1, -1) % q
