"""Sparse homogeneous polynomials in x, y, z, w over an exact field.

Terms are stored as a map from exponent 4-tuples to nonzero coefficients.
The monomial order used everywhere a deterministic order is needed is
graded lexicographic with x > y > z > w.
"""
from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .fields import Field, FieldElement, FieldMismatchError, _power
from .linalg import _numeric, _ints, _values, _elements, _nonzero, _mul

NVARS = 4
VAR_NAMES = ("x", "y", "z", "w")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2, "w": 3, "t": 3}  # t is an alias of w


def grlex_key(exps):
    """Sort key; larger key = larger monomial in graded lex, x > y > z > w."""
    return (sum(exps), exps)


@lru_cache(maxsize=None)
def exponents_of_degree(k: int, nvars: int = NVARS):
    """All exponent tuples of total degree k, in grlex-descending order."""
    def gen(rest, n):
        if n == 1:
            yield (rest,)
            return
        for e in range(rest, -1, -1):
            for tail in gen(rest - e, n - 1):
                yield (e,) + tail
    return tuple(gen(k, nvars))


def num_monomials(k: int, nvars: int = NVARS) -> int:
    from math import comb
    return comb(k + nvars - 1, nvars - 1)


# -- coefficient arrays and monomial keys ---------------------------------

def _arrays(field, terms):
    """(exps, vals) of a nonzero exponent -> coefficient dict, exponents
    ascending (singular._index finds keys faster in order)."""
    exps = sorted(terms)
    return (np.array(exps, dtype=np.int64),
            _values(field, [terms[e] for e in exps]))


def _derivative(field, exps, vals, i):
    """The partial in variable i of (exps, vals): the one differentiation,
    of MultiPoly.derivative and singular._partials.  e -> e - unit is
    injective, so only the terms whose c * e[i] is zero are dropped."""
    dv = _mul(field, vals, _ints(field, exps[:, i].tolist()))
    keep = _nonzero(field, dv)
    exps = exps[keep]
    exps[:, i] -= 1
    return exps, dv[keep]


def _digits(k, n=NVARS):
    """Place values of base-(k+1) keys of monomials of degree at most k:
    no exponent exceeds k, so a key names one monomial, keys of one degree
    sort like exponents_of_degree (descending) and keys of products add
    up."""
    return (k + 1) ** np.arange(n - 1, -1, -1)


def _collect(field, keys, vals):
    """The distinct keys, ascending, and the sums of their values, with
    the zero sums dropped.  Only values of equal keys are added."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    sums = np.add.reduceat(vals[order], first)
    if _numeric(field):
        sums %= field.p  # a sum of residues below p < 2**31 per key
    keep = _nonzero(field, sums)
    return keys[first[keep]], sums[keep]


def _pairs(n, starts):
    """Entry i meets n[i] rows of a table, from row starts[i] on: the
    entry and the row of every meeting."""
    src = np.repeat(np.arange(len(n)), n)
    return src, np.repeat(starts - np.cumsum(n) + n, n) + np.arange(len(src))


def _powers(field, images, highest, digits, space):
    """The powers images[v]**k, k <= highest[v], as one table of keys
    (under digits, each below space) and coefficients: (count, start,
    keys, coefficients), with images[v]**k in the count[k, v] rows from
    start[k, v].  Built one degree at a time for all the images at once,
    each level's rows grouped by v, in order."""
    gkeys = np.array([e for g in images for e in g.terms],
                     dtype=np.int64).reshape(-1, NVARS) @ digits
    gvals = _values(field, [c for g in images for c in g.terms.values()])
    gcount = np.array([len(g.terms) for g in images])
    gstart = np.cumsum(gcount) - gcount
    tags = np.repeat(np.arange(NVARS), gcount)
    # level 0 is never read: an entry without x_v is not multiplied
    levels = [(tags[:0], gkeys[:0], gvals[:0]), (tags, gkeys, gvals)]
    for k in range(2, int(highest.max()) + 1):
        tags, keys, coeffs = levels[-1]
        src, at = _pairs(np.where(highest[tags] >= k, gcount[tags], 0),
                         gstart[tags])
        keys, coeffs = _collect(field, tags[src] * space + keys[src]
                                + gkeys[at], _mul(field, coeffs[src],
                                                  gvals[at]))
        levels.append(np.divmod(keys, space) + (coeffs,))
    count = np.array([np.bincount(t, minlength=NVARS) for t, _, _ in levels])
    start = (np.cumsum(count) - count.ravel()).reshape(count.shape)
    return (count, start, np.concatenate([k for _, k, _ in levels]),
            np.concatenate([c for _, _, c in levels]))


class MultiPoly:
    """Sparse polynomial in x, y, z, w.  Immutable by convention."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, {(0, 0, 0, 0): field(c)})

    @classmethod
    def variable(cls, field, i):
        e = [0] * NVARS
        e[i] = 1
        return cls(field, {tuple(e): field.one})

    # -- predicates and structure ---------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if not homogeneous."""
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=True)

    def _check(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine {self.field.tag} and {other.field.tag}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.constant(self.field, self.field(other))
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return MultiPoly(self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.constant(self.field, self.field(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(self.field(other))
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return MultiPoly(self.field, terms)

    __rmul__ = __mul__

    def scale(self, c: FieldElement):
        c = self.field(c)
        if not c:
            return MultiPoly.zero(self.field)
        return MultiPoly(self.field, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return _power(self, n, MultiPoly.constant(self.field, 1))

    # -- calculus / evaluation ------------------------------------------

    def derivative(self, i: int) -> "MultiPoly":
        if not self.terms:
            return self
        exps, vals = _derivative(self.field,
                                 *_arrays(self.field, self.terms), i)
        return MultiPoly(self.field, dict(zip(map(tuple, exps.tolist()),
                                              _elements(self.field, vals))))

    def gradient(self):
        return [self.derivative(i) for i in range(NVARS)]

    def evaluate(self, point) -> FieldElement:
        """Exact value at a 4-tuple of field elements."""
        pt = [self.field(c) for c in point]
        powers = [{0: self.field.one} for _ in range(NVARS)]
        total = self.field.zero
        for e, c in self.terms.items():
            v = c
            for i in range(NVARS):
                pw = powers[i].get(e[i])
                if pw is None:
                    pw = pt[i] ** e[i]
                    powers[i][e[i]] = pw
                v = v * pw
            total = total + v
        return total

    def substitute(self, images) -> "MultiPoly":
        """Replace each variable by the given polynomial, expanded exactly.

        Works on coefficient arrays, one variable at a time.  An entry is
        a partial product of terms, named by one integer code: the
        exponents it has still to replace (upper digits, base e+1 for e
        the largest exponent) above the key of the product so far
        (_digits of the largest degree of the result, so no digit
        carries).  Replacing x_v multiplies each entry by the power of
        x_v's image that its exponent asks for, from one table of the
        powers (_powers), and adds up the entries whose codes agree:
        terms that share their remaining exponents are summed before the
        next variable multiplies them.
        """
        images = list(images)
        if len(images) != NVARS:
            raise ValueError("need one image per variable")
        for g in images:
            self._check(g)
        field = self.field
        exps, vals = _arrays(field, self.terms)
        top = int((exps @ [max(g.degree(), 0) for g in images]).max())
        digits, highest = _digits(top), exps.max(axis=0)
        space, base = (top + 1) ** NVARS, int(highest.max()) + 1
        if space * base ** NVARS >= 2**63:
            raise ValueError("substitution too large for int64 codes")
        count, start, keys, coeffs = _powers(field, images, highest, digits,
                                             space)
        place = space * _digits(base - 1)
        codes = exps @ place
        for v in np.flatnonzero(highest):
            e = codes // place[v] % base
            still = e == 0  # entries without x_v wait as they are
            src, at = _pairs(np.where(still, 0, count[e, v]), start[e, v])
            codes, vals = _collect(field, np.concatenate(
                [codes[still], codes[src] - e[src] * place[v] + keys[at]]),
                np.concatenate([vals[still],
                                _mul(field, vals[src], coeffs[at])]))
        exps = codes[:, None] // digits % (top + 1)
        return MultiPoly(field, dict(zip(map(tuple, exps.tolist()),
                                         _elements(field, vals))))

    def divisible_by_variable(self, i: int) -> bool:
        return bool(self.terms) and all(e[i] >= 1 for e in self.terms)

    # -- text form -------------------------------------------------------

    def __str__(self):
        out = ""
        for e, c in self.sorted_terms():
            sign = "+"
            if self.field.kind == "QQ" and c.val < 0:
                sign, c = "-", -c
            mono = "*".join(v if k == 1 else f"{v}^{k}"
                            for v, k in zip(VAR_NAMES, e) if k)
            cs = str(c)
            if mono:
                cs = mono if cs == "1" else f"{cs}*{mono}"
            out += sign + cs
        return out.removeprefix("+") or "0"

    def __repr__(self):
        return f"MultiPoly({self.field.tag}, {self})"

    @classmethod
    def parse(cls, text: str, field: Field) -> "MultiPoly":
        return _parse_poly(text, field)


# one signed term: a sign, a coefficient in the form Field.parse reads
# ("a", "a/b", "(a+b*u)") and the variables, each with an optional
# exponent and an optional * before it
_TERM_RE = re.compile(r"""\s*(?P<sign>[+-]?)\s*
    (?P<coeff>\([^()]*\)|\d+(?:\s*/\s*\d+)?)?
    (?P<mono>(?:\s*\*?\s*[xyzwt](?:\s*\^\s*\d+)?)*)\s*""", re.VERBOSE)
_POWER_RE = re.compile(r"([xyzwt])(?:\s*\^\s*(\d+))?")


def _parse_poly(text: str, field: Field) -> MultiPoly:
    if not text.strip():
        raise ValueError("empty polynomial text")
    terms = {}  # repeated monomials add up; MultiPoly drops zero sums
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        sign, coeff, mono = m.group("sign", "coeff", "mono")
        if pos and not sign:
            raise ValueError(f"expected + or - before {text[pos:]!r}")
        if coeff is None and not mono:
            raise ValueError(f"no term at {text[pos:]!r}")
        c = field.one if coeff is None else field.parse(coeff)
        exps = [0] * NVARS
        for var, e in _POWER_RE.findall(mono):
            exps[_VAR_INDEX[var]] += int(e or 1)
        exps, c = tuple(exps), -c if sign == "-" else c
        terms[exps] = terms[exps] + c if exps in terms else c
        pos = m.end()
    return MultiPoly(field, terms)


def poly_determinant(rows) -> MultiPoly:
    """Exact determinant of a square matrix of MultiPoly (n <= 8).

    Laplace expansion with memoized minors over column subsets.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n > 8:
        raise ValueError("determinant supported only for n <= 8")
    field = rows[0][0].field
    memo = {}

    def minor(cols):
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        if len(cols) == 1:
            val = rows[r][cols[0]]
        else:
            val = MultiPoly.zero(field)
            for j, c in enumerate(cols):
                entry = rows[r][c]
                if not entry:
                    continue
                term = entry * minor(cols[:j] + cols[j + 1:])
                val = val + term if j % 2 == 0 else val - term
        memo[cols] = val
        return val

    return minor(tuple(range(n)))
