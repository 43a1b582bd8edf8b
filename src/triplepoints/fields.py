"""Exact coefficient fields: the rationals, prime fields GF(p) and
quadratic extensions GF(p^2) = GF(p)[u] with u^2 = n for the smallest
quadratic nonresidue n mod p.

All values are immutable; equality is representational equality of the
canonical form (reduced fraction, residue in [0, p), coefficient pair).
"""
from __future__ import annotations

import math
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when elements of different fields are combined."""


MAX_PRIME = 2**31  # residues fit in double-width native integers


def is_prime(n: int) -> bool:
    """Trial division: at most 46,341 steps below the 2^31 cap."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _power(x, n: int, one):
    """x**n for n >= 0 by repeated squaring, one being x**0; the last
    bit needs no further square."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic nonresidue mod an odd prime p (Euler criterion)."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError(f"no nonresidue mod {p}")


class Field:
    """Field descriptor.  kind is 'QQ', 'GF' or 'GF2'."""

    __slots__ = ("kind", "p", "nonresidue", "_zero", "_one")

    def __init__(self, kind, p=None, nonresidue=None):
        self.kind = kind
        self.p = p
        self.nonresidue = nonresidue
        self._zero = None
        self._one = None

    @classmethod
    def QQ(cls) -> "Field":
        return _QQ

    @classmethod
    def GF(cls, p: int, degree: int = 1) -> "Field":
        if not (2 <= p < MAX_PRIME):
            raise ValueError(f"prime out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if degree == 1:
            return cls("GF", p)
        if degree == 2:
            if p == 2:
                raise ValueError("GF(4) is not supported (u^2 = n needs odd p)")
            return cls("GF2", p, smallest_nonresidue(p))
        raise ValueError(f"unsupported extension degree {degree}")

    @classmethod
    def parse_tag(cls, tag: str) -> "Field":
        """Parse "QQ", "GF:p" or "GF:p:2"."""
        if tag == "QQ":
            return _QQ
        parts = tag.split(":")
        if parts[0] == "GF" and len(parts) in (2, 3):
            try:
                p = int(parts[1])
                deg = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise ValueError(f"bad field tag: {tag!r}") from None
            return cls.GF(p, deg)
        raise ValueError(f"bad field tag: {tag!r}")

    @property
    def tag(self) -> str:
        if self.kind == "QQ":
            return "QQ"
        if self.kind == "GF":
            return f"GF:{self.p}"
        return f"GF:{self.p}:2"

    @property
    def char(self) -> int:
        return 0 if self.kind == "QQ" else self.p

    @property
    def order(self):
        if self.kind == "QQ":
            return None
        return self.p if self.kind == "GF" else self.p * self.p

    def extension(self) -> "Field":
        """The canonical quadratic extension (GF only)."""
        if self.kind != "GF":
            raise ValueError("extension() requires a prime field")
        return Field.GF(self.p, 2)

    def __eq__(self, other):
        return (isinstance(other, Field) and self.kind == other.kind
                and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"Field({self.tag})"

    # -- element construction -------------------------------------------

    def __call__(self, v) -> "FieldElement":
        if isinstance(v, FieldElement):
            if v.field == self:
                return v
            raise FieldMismatchError(f"{v.field.tag} element given to {self.tag}")
        if self.kind == "QQ":
            return FieldElement(self, Fraction(v))
        if self.kind == "GF":
            if isinstance(v, Fraction):
                return self(v.numerator) / self(v.denominator)
            return FieldElement(self, int(v) % self.p)
        if isinstance(v, (tuple, list)):
            a, b = v
            return FieldElement(self, (int(a) % self.p, int(b) % self.p))
        if isinstance(v, Fraction):
            return self((v.numerator, 0)) / self((v.denominator, 0))
        return FieldElement(self, (int(v) % self.p, 0))

    def frac(self, num: int, den: int) -> "FieldElement":
        if self.kind == "QQ":
            return FieldElement(self, Fraction(num, den))
        return self(num) / self(den)

    def ext(self, a, b) -> "FieldElement":
        """a + b*u in GF(p^2)."""
        if self.kind != "GF2":
            raise ValueError("ext() requires a quadratic extension field")
        return FieldElement(self, (int(a) % self.p, int(b) % self.p))

    @property
    def zero(self) -> "FieldElement":
        if self._zero is None:
            self._zero = self(0)
        return self._zero

    @property
    def one(self) -> "FieldElement":
        if self._one is None:
            self._one = self(1)
        return self._one

    def lift(self, e: "FieldElement") -> "FieldElement":
        """Lift an element of GF(p) into this GF(p^2)."""
        if self.kind == "GF2" and e.field.kind == "GF" and e.field.p == self.p:
            return FieldElement(self, (e.val, 0))
        return self(e)

    def elements(self):
        """All field elements, in canonical order (finite fields only)."""
        if self.kind == "GF":
            for a in range(self.p):
                yield FieldElement(self, a)
        elif self.kind == "GF2":
            for a in range(self.p):
                for b in range(self.p):
                    yield FieldElement(self, (a, b))
        else:
            raise ValueError("cannot enumerate the rationals")

    def random_element(self, rng) -> "FieldElement":
        if self.kind == "QQ":
            return FieldElement(self, Fraction(rng.randint(-20, 20),
                                               rng.randint(1, 12)))
        if self.kind == "GF":
            return FieldElement(self, rng.randrange(self.p))
        return FieldElement(self, (rng.randrange(self.p), rng.randrange(self.p)))

    def parse(self, text: str) -> "FieldElement":
        """Parse the serialized coefficient form: "a", "a/b" or "(a+b*u)"."""
        text = text.strip()
        if text.startswith("("):
            if self.kind != "GF2" or not text.endswith(")"):
                raise ValueError(f"bad element {text!r} for {self.tag}")
            body = text[1:-1]
            if "u" in body:
                a_s, _, b_s = body.rpartition("+")
                b_s = b_s.strip()
                if not b_s.endswith("u"):
                    raise ValueError(f"bad element {text!r}")
                b_s = b_s[:-1].rstrip()
                if b_s.endswith("*"):
                    b_s = b_s[:-1]
                return self.ext(int(a_s) if a_s.strip() else 0,
                                int(b_s) if b_s else 1)
            return self.ext(int(body), 0)
        if "/" in text:
            num, den = text.split("/", 1)
            return self.frac(int(num), int(den))
        return self(int(text))


_QQ = Field("QQ")


class FieldElement:
    """Canonical element of a Field.  Immutable and hashable."""

    __slots__ = ("field", "val")

    def __init__(self, field: Field, val):
        self.field = field
        self.val = val

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        if self.field.kind == "GF2":
            return self.val != (0, 0)
        return self.val != 0

    def is_one(self):
        if self.field.kind == "GF2":
            return self.val == (1, 0)
        return self.val == 1

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.val == other.val)

    def __hash__(self):
        return hash((self.field, self.val))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine {self.field.tag} and {other.field.tag}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = self.field.kind
        if k == "QQ":
            return FieldElement(self.field, self.val + o.val)
        if k == "GF":
            return FieldElement(self.field, (self.val + o.val) % self.field.p)
        p = self.field.p
        return FieldElement(self.field, ((self.val[0] + o.val[0]) % p,
                                         (self.val[1] + o.val[1]) % p))

    __radd__ = __add__

    def __neg__(self):
        k = self.field.kind
        if k == "QQ":
            return FieldElement(self.field, -self.val)
        if k == "GF":
            return FieldElement(self.field, -self.val % self.field.p)
        p = self.field.p
        return FieldElement(self.field, (-self.val[0] % p, -self.val[1] % p))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = self.field.kind
        if k == "QQ":
            return FieldElement(self.field, self.val * o.val)
        if k == "GF":
            return FieldElement(self.field, self.val * o.val % self.field.p)
        p, n = self.field.p, self.field.nonresidue
        a, b = self.val
        c, d = o.val
        return FieldElement(self.field, ((a * c + n * b * d) % p,
                                         (a * d + b * c) % p))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError(f"division by zero in {self.field.tag}")
        k = self.field.kind
        if k == "QQ":
            return FieldElement(self.field, 1 / self.val)
        if k == "GF":
            return FieldElement(self.field,
                                pow(self.val, self.field.p - 2, self.field.p))
        p, n = self.field.p, self.field.nonresidue
        a, b = self.val
        norm = (a * a - n * b * b) % p
        ninv = pow(norm, p - 2, p)
        return FieldElement(self.field, (a * ninv % p, -b * ninv % p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, self.field.one)

    def __int__(self):
        if self.field.kind == "GF2":
            raise TypeError("extension elements have no integer form")
        return int(self.val)

    # -- ordering / serialization ---------------------------------------

    def sort_key(self):
        """Total order on elements of one field, for canonical output."""
        if self.field.kind == "GF2":
            return self.val
        return (self.val,)

    def __str__(self):
        if self.field.kind != "GF2":
            return str(self.val)
        a, b = self.val
        if b == 0:
            return f"({a})"
        return f"({a}+{b}*u)"

    def __repr__(self):
        return f"{self.field.tag}[{self}]"


def sqrt_mod_p(a: int, p: int):
    """A square root of a mod p, or None if a is a nonresidue.

    Tonelli-Shanks; returns the smaller of the two roots.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = smallest_nonresidue(p)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def sqrt_gf_p2(z: "FieldElement"):
    """A square root of z in GF(p^2) = GF(p)[u], u^2 = n, or None.

    From the norm: z is a square iff N(z) = a^2 - n*b^2 is a square c^2
    in GF(p) (z = a + b*u).  Then (x + y*u)^2 = z for x^2 = (a + s)/2,
    s = c or -c, and y = b/(2x): as (a+s)(a-s) = n*b^2, x^2 + n*y^2 = a.
    If neither sign gives a nonzero square, b = 0 and z = n*y^2.
    """
    F = z.field
    p, n = F.p, F.nonresidue
    a, b = z.val
    c = sqrt_mod_p(a * a - n * b * b, p)
    if c is None:
        return None
    for s in (c, -c):
        x = sqrt_mod_p((a + s) * pow(2, -1, p), p)
        if x:
            return F.ext(x, b * pow(2 * x, -1, p))
    return F.ext(0, sqrt_mod_p(a * pow(n, -1, p), p))


def solve_quadratic(a: "FieldElement", b: "FieldElement", c: "FieldElement"):
    """Roots of a*t^2 + b*t + c in the coefficients' field.

    Supported over GF(p) and GF(p^2) (p odd) and over QQ (rational roots
    only).  Returns a sorted list of distinct roots found in the field
    itself.
    """
    F = a.field
    if not a:
        return [] if not b else [-c / b]
    d = b * b - 4 * a * c
    if F.kind == "GF" and F.p != 2:
        r = sqrt_mod_p(d.val, F.p)
    elif F.kind == "GF2":
        r = sqrt_gf_p2(d)
    elif F.kind == "QQ":
        d = d.val
        n = d.numerator * d.denominator  # sqrt(n/m) = sqrt(n*m)/m
        s = math.isqrt(max(n, 0))
        r = Fraction(s, d.denominator) if s * s == n else None
    else:
        raise ValueError(f"quadratic solving not supported over {F.tag}")
    if r is None:
        return []
    inv2a = (F(2) * a).inverse()
    roots = {(-b + F(r)) * inv2a, (-b - F(r)) * inv2a}
    return sorted(roots, key=lambda e: e.sort_key())
