"""numpy-backed arithmetic mod p for the hot linear-algebra paths and
the singular-point sweep.

Residues are stored as int64.  Elimination multiplies a residue by a
residue before reducing, so products must stay below 2**63; primes below
2**31 keep every intermediate within 2**62.

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


def NUMPY_SAFE_PRIME(p: int) -> bool:
    return p < 2**31


def to_array(m) -> np.ndarray:
    """Matrix over GF(p) -> int64 array of residues."""
    return np.array([[e.val for e in row] for row in m.rows], dtype=np.int64)


def from_array(field, arr: np.ndarray):
    from .linalg import Matrix
    return Matrix(field, [[field(int(v)) for v in row] for row in arr])


def rref_mod_p(a: np.ndarray, p: int):
    """Reduced row echelon form mod p.  Returns (array, pivot columns)."""
    a = np.mod(a, p).astype(np.int64)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = a[r] * inv % p
        col_vals = a[:, c].copy()
        col_vals[r] = 0
        mask = col_vals != 0
        if mask.any():
            a[mask] = (a[mask] - col_vals[mask, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank mod p by forward elimination only (no back substitution)."""
    a = np.mod(a, p).astype(np.int64)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        below = a[r + 1:, c]
        mask = below != 0
        if mask.any():
            rows = a[r + 1:][mask]
            a[r + 1:][mask] = (rows - below[mask, None] * a[r][None, :]) % p
        r += 1
    return r


def _mul(x, y, p: int, n: int, op=np.multiply):
    """Product of values given as parts: (residues,) over GF(p), or
    (real, u) over GF(p^2) = GF(p)[u], u^2 = n.  op is the elementwise
    product or a contraction such as np.tensordot."""
    if len(x) == 1:
        return (op(x[0], y[0]) % p,)
    (xa, xb), (ya, yb) = x, y
    return ((op(xa, ya) + n * op(xb, yb)) % p,
            (op(xa, yb) + op(xb, ya)) % p)


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
