"""Exact linear algebra over the coefficient fields.

A Matrix is a thin wrapper over a list of FieldElement rows.  Rank,
reduced row echelon form and right null spaces are computed by exact
Gaussian elimination.  Over prime fields, matrices large enough to
matter go to the blocked kernel in gfnum, which holds only integers
below 2**53 in float64 (its panel width is chosen from p to keep them
there), uses int64 for large p, and checks p < 2**31 at entry; its
results are exact and equal to those of the generic elimination here.
"""
from __future__ import annotations

from .fields import Field, FieldElement, FieldMismatchError
from . import gfnum


class Matrix:
    """Dense matrix of FieldElement entries (rectangular)."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, FieldElement) or e.field != field:
                    raise FieldMismatchError("entry from a different field")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field(v) for v in r] for r in rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"Matrix({self.field.tag}, {self.nrows}x{self.ncols})"

    def mul_vector(self, v):
        out = []
        for r in self.rows:
            s = self.field.zero
            for a, b in zip(r, v):
                s = s + a * b
            out.append(s)
        return out

    def rank(self) -> int:
        return rank(self)

    def rref(self):
        return rref(self)

    def kernel_basis(self):
        return kernel_basis(self)


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


def _use_numpy(m: Matrix) -> bool:
    return m.field.kind == "GF" and m.nrows * m.ncols >= 256


def rref(m: Matrix):
    """(Matrix in reduced row echelon form, pivot column list)."""
    if _use_numpy(m):
        arr = gfnum.to_array(m)
        red, pivots = gfnum.rref_mod_p(arr, m.field.p)
        return gfnum.from_array(m.field, red), list(pivots)
    rows = [list(r) for r in m.rows]
    pivots = _rref_generic(m.field, rows)
    return Matrix(m.field, rows), pivots


def rank(m: Matrix) -> int:
    if _use_numpy(m):
        return gfnum.rank_mod_p(gfnum.to_array(m), m.field.p)
    rows = [list(r) for r in m.rows]
    return len(_rref_generic(m.field, rows))


def kernel_basis(m: Matrix):
    """Basis of {v : M v = 0} in reduced echelon form.

    One vector per free column, with 1 in the free position, the
    pivot-column entries determined by the RREF, and 0 in the other free
    positions; ordered by free column index.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [m.field.zero] * m.ncols
        v[j] = m.field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][j]
        basis.append(v)
    return basis


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    if m.nrows != m.ncols:
        raise ValueError("only square matrices are invertible")
    n = m.nrows
    field = m.field
    ident = [[field.one if i == j else field.zero for j in range(n)]
             for i in range(n)]
    aug = Matrix(field, [row + ident[i] for i, row in enumerate(m.rows)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(field, [row[n:] for row in red.rows[:n]])

