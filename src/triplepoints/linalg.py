"""Exact linear algebra over the coefficient fields, on coefficient arrays.

A vector or matrix is a numpy array of coefficients.  Over GF(p), p <
2**31 by Field.GF, it holds int64 residues; over QQ and GF(p^2) it is an
object array of the FieldElements themselves.  _zeros, _ints and _values
make such arrays and _mul and _dot multiply them, so one code path
serves every field.

rank, rref, kernel_basis and invert take (field, array) and return
arrays; ranks and leading_zero_rows take a stack of matrices.  Over
GF(p) every matrix, of any size, goes to the blocked elimination kernel
in gfnum (rank_mod_p, rref_mod_p) and every stack to its one-pass
elimination (eliminate_stack), whose results are exact (its module
docstring gives the bounds); over QQ and GF(p^2) the rows go to exact
Gaussian elimination, _rref_generic, one matrix at a time.  Both give
the same pivots and reduced form.
"""
from __future__ import annotations

import numpy as np

from . import gfnum


def _numeric(field) -> bool:
    return field.kind == "GF"


def _zeros(field, shape):
    if _numeric(field):
        return np.zeros(shape, dtype=np.int64)
    return np.full(shape, field.zero, dtype=object)


def _ints(field, ints):
    """Integers as coefficients: residues over a numeric field, Python
    ints (which FieldElement arithmetic accepts) otherwise."""
    a = np.array(ints, dtype=object)
    return (a % field.p).astype(np.int64) if _numeric(field) else a


def _values(field, elems):
    """An array of FieldElements as coefficients."""
    a = np.array(elems, dtype=object)
    if _numeric(field):
        return np.array([c.val for c in a.flat],
                        dtype=np.int64).reshape(a.shape)
    return a


def _mul(field, a, b):
    """a * b elementwise, reduced over a numeric field."""
    return a * b % field.p if _numeric(field) else a * b


def _dot(field, a, b):
    """a @ b; over a numeric field the exact product gfnum.matmul_mod_p."""
    if not _numeric(field):
        return a @ b
    return gfnum.matmul_mod_p(a, b, field.p)


def _rref_generic(field, rows):
    """In-place RREF on a list of lists of FieldElement; returns pivot cols."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        if not inv.is_one():
            rows[r] = [v * inv for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i == r or not rows[i][c]:
                continue
            factor = rows[i][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(field, a):
    """(reduced row echelon form, pivot column list) of a matrix."""
    if _numeric(field):
        return gfnum.rref_mod_p(a, field.p)
    rows = a.tolist()
    pivots = _rref_generic(field, rows)
    return np.array(rows, dtype=object).reshape(a.shape), pivots


def rank(field, a) -> int:
    if _numeric(field):
        return gfnum.rank_mod_p(a, field.p)
    return len(_rref_generic(field, a.tolist()))


def ranks(field, a):
    """Ranks of the matrices a[..., :, :] of a stack, as an int array of
    shape a.shape[:-2]: over GF(p) one pass over all of them
    (gfnum.ranks_mod_p), otherwise one rank per matrix."""
    m, n = a.shape[-2:]
    if _numeric(field):
        out = gfnum.ranks_mod_p(a.reshape(-1, m, n), field.p)
    else:
        out = np.array([rank(field, b) for b in a.reshape(-1, m, n)],
                       dtype=np.int64)
    return out.reshape(a.shape[:-2])


def leading_zero_rows(field, a, ncols):
    """The vectors of the row spaces of a stack of matrices a[b] that are
    zero on the first ncols columns, restricted to the other columns: the
    rows of one matrix that spans them all.  Over GF(p) one pass over the
    stack (gfnum.eliminate_stack), otherwise one rref per matrix."""
    if _numeric(field):
        red, pivot = gfnum.eliminate_stack(a, field.p, ncols)
        return red[~pivot][:, ncols:]
    out = [_zeros(field, (0, a.shape[2] - ncols))]
    for b in a:
        red, pivots = rref(field, b)
        out.append(red[[i for i, c in enumerate(pivots) if c >= ncols],
                       ncols:])
    return np.concatenate(out)


def kernel_basis(field, a):
    """Basis of {v : a v = 0} in reduced echelon form, one vector per row.

    One vector per free column, ordered by free column index: 1 at its
    free column, 0 at the other free columns, and minus the RREF entries
    of that column at the pivot columns.
    """
    red, pivots = rref(field, a)
    free = [j for j in range(a.shape[1]) if j not in pivots]
    out = _zeros(field, (len(free), a.shape[1]))
    out[np.arange(len(free)), free] = _values(field, field.one)
    neg = -red[:len(pivots), free].T
    out[:, pivots] = neg % field.p if _numeric(field) else neg
    return out


def invert(field, a):
    """Inverse of a square matrix, the right half of the RREF of [a | I];
    raises ValueError on singular input."""
    n = len(a)
    if a.shape != (n, n):
        raise ValueError("only square matrices are invertible")
    aug = np.concatenate([a, _zeros(field, (n, n))], axis=1)
    aug[range(n), range(n, 2 * n)] = _values(field, field.one)
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:]
