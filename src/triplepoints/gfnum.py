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
points of a surface) is eliminated in one pass, eliminate_stack and
ranks_mod_p: one Gauss step per column for every matrix at once, on
int64 residues and fraction free, each row r becoming v*r - f*piv with
v the pivot and f the row's entry in the pivot column.  Both products
are below (p-1)**2 < 2**62, so their difference lies in (-2**62, 2**62),
inside int64, as p < 2**31.

The sweep reduces after every product or contraction.  A contraction
over the exponent axis sums at most d+1 products of residues below p,
where d is the largest exponent; over GF(p^2) the real part adds n times
a second such sum (u^2 = n).  So every intermediate is below
(d+1) * (p-1)**2 * (1+n), and sweep_chart refuses inputs where that
could reach 2**63.
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
    the other pivot columns; below them the rows are congruent to 0.
    Rows above each panel's pivots are cleared only when `above` is set,
    which is all that distinguishes the reduced echelon form from a rank.

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


def eliminate_stack(a: np.ndarray, p: int, ncols: int):
    """Gauss steps mod p on the first ncols columns of every matrix a[b]
    of a stack (shape (batch, m, n)) at once.

    Each matrix takes as pivot of column c its largest residue among the
    rows that are not pivot rows yet; every row r then becomes v*r -
    r[c]*pivot row (v the pivot), which zeroes column c outside the pivot
    rows and keeps the row space (v != 0).  A matrix with no pivot in the
    column is left as it is.  The bound is in the module docstring.

    Returns (working array, pivot-row mask).  Past the first ncols
    columns, the rows outside the mask span the vectors of each matrix's
    row space that vanish on those columns (which are left unwritten).
    """
    if not 2 <= p < 2**31:
        raise ValueError("elimination mod p needs a prime 2 <= p < 2**31")
    a = np.mod(a, p, dtype=np.int64, order="C")
    free = np.ones(a.shape[:2], dtype=bool)
    at = np.arange(len(a))
    for c in range(ncols if a.shape[1] else 0):
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
    return a, ~free


def ranks_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of the matrices of a stack: eliminate_stack on all
    their columns."""
    return eliminate_stack(a, p, a.shape[2])[1].sum(axis=1)


def _mul(x, y, p: int, n: int, op=np.multiply):
    """Product of values given as parts: (residues,) over GF(p), or
    (real, u) over GF(p^2) = GF(p)[u], u^2 = n.  op is the elementwise
    product or a contraction such as np.tensordot."""
    # reduced in place: no unreduced product outlives its reduction
    if len(x) == 1:
        r = op(x[0], y[0])
        r %= p
        return (r,)
    (xa, xb), (ya, yb) = x, y
    a = op(xa, ya)
    a += n * op(xb, yb)
    a %= p
    b = op(xa, yb)
    b += op(xb, ya)
    b %= p
    return (a, b)


def sweep_chart(polys, chart: int, p: int, nonresidue=None) -> np.ndarray:
    """Common zeros of polys on the chart (0,..,0,1,t_1,..,t_f) of P^3.

    polys: list of {exponent 4-tuple: residue}, or {exps: (a, b)} over
    GF(p^2) = GF(p)[u], u^2 = nonresidue.  Field elements are indexed
    0..q-1 in canonical order (a*p + b over GF(p^2)).  Returns the
    (m, f) array of element indices of the zeros' free coordinates, rows
    in lexicographic order.

    The first polynomial is evaluated on the whole q^f grid by fibres:
    its dense coefficient tensor is contracted one free axis at a time
    with the Vandermonde table V[t, e] = t^e.  The others, sparsest
    first, are evaluated only at the survivors, by lookups in V.
    """
    n = nonresidue or 0
    q = p * p if nonresidue else p
    f = 3 - chart
    # terms without the zeroed coordinates, keyed by free exponents
    restricted = []
    for g in polys:
        terms = [(e[chart + 1:], c if nonresidue else (c,))
                 for e, c in g.items() if not any(e[:chart])]
        if terms:
            restricted.append(terms)
    restricted.sort(key=len)
    deg = max((max(e, default=0) for terms in restricted
               for e, _ in terms), default=0)
    if (deg + 1) * (p - 1)**2 * (1 + n) >= 2**63:
        raise ValueError("sweep contraction could overflow int64")
    t = np.arange(q, dtype=np.int64)
    elems = (t // p, t % p) if nonresidue else (t,)
    cols = [(np.ones(q, dtype=np.int64),) + (np.zeros(q, dtype=np.int64),)
            * (len(elems) - 1)]
    for _ in range(deg):
        cols.append(_mul(cols[-1], elems, p, n))
    vander = tuple(np.stack([c[k] for c in cols], axis=1)
                   for k in range(len(elems)))
    if restricted:
        dense = tuple(np.zeros((deg + 1,) * f, dtype=np.int64)
                      for _ in elems)
        for e, c in restricted[0]:
            for k, part in enumerate(c):
                dense[k][e] += part
        vals = tuple(d % p for d in dense)
        for _ in range(f):
            vals = _mul(vals, vander, p, n, partial(np.tensordot, axes=(0, 1)))
        idx = np.flatnonzero(np.logical_and.reduce([v == 0 for v in vals]))
    else:
        idx = np.arange(q**f)
    pts = np.empty((f, idx.size), dtype=np.int64)
    for j in range(f):
        pts[j] = idx // q**(f - 1 - j) % q
    for terms in restricted[1:]:
        if not pts.shape[1]:
            break
        total = tuple(np.zeros(pts.shape[1], dtype=np.int64) for _ in elems)
        for e, c in terms:
            v = c
            for j, ej in enumerate(e):
                if ej:
                    v = _mul(v, tuple(V[pts[j], ej] for V in vander), p, n)
            total = tuple((a + b) % p for a, b in zip(total, v))
        pts = pts[:, np.logical_and.reduce([v == 0 for v in total])]
    return pts.T
