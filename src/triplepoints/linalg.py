"""Exact linear algebra over the coefficient fields, on coefficient arrays.

A vector or matrix is a numpy array of coefficients, in one format per
field: over GF(p), p < 2**31 by Field.GF, int64 residues; over GF(p^2) =
GF(p)[u], u^2 = n, int64 residue pairs (a, b) for a + b*u, on a trailing
axis of length 2 (the sweep's format, gfnum.sweep_chart); over QQ an
object array of fractions.Fraction.  _zeros, _ints and _values make such
arrays, _elements reads FieldElements back, and _mul and _dot multiply
them (pairs through gfnum._mul), so one code path serves every field.

rank, rref and kernel_basis take (field, array) and return arrays;
ranks takes a stack of matrices.  Over GF(p) every matrix, of any size,
goes to the blocked elimination kernel in gfnum (rank_mod_p, rref_mod_p)
and every stack to its one-pass elimination (ranks_mod_p), whose results
are exact (its module docstring gives the bounds).  A
GF(p^2) matrix is eliminated in its real form (_real_form), where each
row gives two GF(p) rows, its parts and those of u times it: the real
form spans the same space read over GF(p), so its rank is twice the
GF(p^2) rank, its pivots come in pairs (2j, 2j+1), and its rows with
even pivots are the GF(p^2) reduced rows.  Over QQ each row is scaled to
coprime integers for _bareiss, fraction-free elimination on Python ints,
one matrix at a time.  Every path gives the same pivots and reduced form.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm

import numpy as np

from . import gfnum


def _numeric(field) -> bool:
    """Whether the field's arrays are int64 residues (GF(p), GF(p^2))."""
    return field.kind != "QQ"


def _tail(field):
    """The trailing shape of one coefficient: (2,) for GF(p^2) pairs."""
    return (2,) if field.kind == "GF2" else ()


def _zeros(field, shape):
    if _numeric(field):
        return np.zeros(shape + _tail(field), dtype=np.int64)
    return np.full(shape, Fraction(0), dtype=object)


def _ints(field, ints):
    """Integers as coefficients: residues (real parts over GF(p^2)) over
    a finite field, Fractions over QQ."""
    a = np.array(ints, dtype=object)
    if not _numeric(field):
        return np.vectorize(Fraction, otypes=[object])(a)
    a = (a % field.p).astype(np.int64)
    return np.stack([a, 0 * a], axis=-1) if _tail(field) else a


def _values(field, elems):
    """An array of FieldElements as coefficients."""
    a = np.array(elems, dtype=object)
    return np.array([c.val for c in a.flat],
                    dtype=np.int64 if _numeric(field) else object
                    ).reshape(a.shape + _tail(field))


def _elements(field, a):
    """The FieldElements of a coefficient array, in flat order."""
    return list(map(field, np.reshape(a, (-1,) + _tail(field)).tolist()))


def _nonzero(field, a):
    """A boolean array: which coefficients of a are nonzero."""
    return a.any(axis=-1) if _tail(field) else a.astype(bool)


def _pair_product(field, a, b, op):
    """op(a, b) of GF(p^2) arrays for a product op of GF(p) residue
    arrays, from their (real, u) parts by gfnum._mul."""
    return np.stack(gfnum._mul((a[..., 0], a[..., 1]), (b[..., 0], b[..., 1]),
                               field.p, field.nonresidue, op), axis=-1)


def _mul(field, a, b):
    """a * b elementwise, reduced over a finite field."""
    if _tail(field):
        return _pair_product(field, a, b, np.multiply)
    return a * b % field.p if _numeric(field) else a * b


def _dot(field, a, b):
    """a @ b; over a finite field the exact product gfnum.matmul_mod_p."""
    if _tail(field):
        return _pair_product(field, a, b,
                             partial(gfnum.matmul_mod_p, p=field.p))
    return gfnum.matmul_mod_p(a, b, field.p) if _numeric(field) else a @ b


def _real_form(field, a):
    """The GF(p) matrix of a GF(p) or GF(p^2) matrix: a itself over GF(p);
    over GF(p^2) row i of an (m, n) matrix gives rows 2i (its parts
    a_j, b_j at columns 2j, 2j+1) and 2i+1 (those of u times it, u(a +
    b*u) = n*b + a*u).  Works on a stack of matrices too."""
    if not _tail(field):
        return a
    ua = np.stack([field.nonresidue * a[..., 1] % field.p, a[..., 0]], -1)
    m, n = a.shape[-3:-1]
    return np.stack([a, ua], axis=-3).reshape(a.shape[:-3] + (2 * m, 2 * n))


def _coprime(values):
    """Rationals scaled by one positive factor to coprime integers."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints) or 1
    return [v // g for v in ints]


def _bareiss(rows, above=False):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) in place
    on a list of integer rows; returns (pivot columns, det), det the last
    pivot signed by the row swaps: the determinant at full rank.
    Step j, with pivot v_j = q[c] in row q, takes each row r with r[c] != 0
    to (v_j*r - r[c]*q) // v_{j-1}, exact by Sylvester's identity.  A row
    with r[c] = 0 would only be scaled by v_j / v_{j-1}: it is scaled when
    next touched instead, by v_j / v_l at once, l the last step it reached
    (the pivot row reaches j + 1).  As in gfnum._eliminate, rows above the
    pivot are cleared only when `above` is set; each pivot row divided by
    its pivot is then a row of the reduced echelon form.
    """
    dets, reached, pivots, sign = [1], [0] * len(rows), [], 1
    for c in range(len(rows[0]) if rows else 0):
        j = len(pivots)
        i = next((i for i in range(j, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[i], rows[j], sign = rows[j], rows[i], sign if i == j else -sign
        reached[i], reached[j] = reached[j], reached[i]
        touched = [i for i in range(0 if above else j, len(rows))
                   if rows[i][c]]
        for i in touched:
            if reached[i] < j:  # catch up to step j
                v, u = dets[j], dets[reached[i]]
                rows[i] = [x * v // u for x in rows[i]]
            reached[i] = j + 1
        q, v, u = rows[j], rows[j][c], dets[j]
        for i in touched:
            if i != j:
                f = rows[i][c]
                rows[i] = [(v * x - f * y) // u for x, y in zip(rows[i], q)]
        dets.append(v)
        pivots.append(c)
    return pivots, sign * dets[-1]


def rref(field, a):
    """(reduced row echelon form, pivot column list) of a matrix."""
    if not _numeric(field):
        rows = [_coprime(row) for row in a.tolist()]
        pivots, _ = _bareiss(rows, above=True)
        out = _zeros(field, a.shape)
        for i, c in enumerate(pivots):
            out[i] = [Fraction(x, rows[i][c]) for x in rows[i]]
        return out, pivots
    red, pivots = gfnum.rref_mod_p(_real_form(field, a), field.p)
    if not _tail(field):
        return red, pivots
    # the rows with even pivots, back in pairs
    k = len(pivots) // 2
    out = np.zeros_like(a)
    out[:k] = red[:2 * k:2].reshape((k,) + a.shape[1:])
    return out, [c // 2 for c in pivots[::2]]


def rank(field, a) -> int:
    if not _numeric(field):
        return len(_bareiss([_coprime(row) for row in a.tolist()])[0])
    r = gfnum.rank_mod_p(_real_form(field, a), field.p)
    return r // 2 if _tail(field) else r


def ranks(field, a):
    """Ranks of the matrices of a stack (the two axes before the
    coefficients'), as an int array of the stack's shape: over a finite
    field one pass over all their real forms (gfnum.ranks_mod_p), over QQ
    one rank per matrix."""
    lead = a.shape[:a.ndim - 2 - len(_tail(field))]
    mats = a.reshape((int(np.prod(lead)),) + a.shape[len(lead):])
    if not _numeric(field):
        return np.array([rank(field, b) for b in mats],
                        dtype=np.int64).reshape(lead)
    out = gfnum.ranks_mod_p(_real_form(field, mats), field.p)
    return (out // 2 if _tail(field) else out).reshape(lead)


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
    neg = -np.swapaxes(red[:len(pivots), free], 0, 1)
    out[:, pivots] = neg % field.p if _numeric(field) else neg
    return out

