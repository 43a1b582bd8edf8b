"""Projective points and surface records, with the JSON file formats."""
from __future__ import annotations

import json

from .fields import Field, FieldElement
from .poly import MultiPoly

SCHEMA_VERSION = 1

# the JSON type of each key of a surface document, matched exactly, as
# Python counts a JSON true or false (a bool) as an int
_TYPES = {"field": (str, "a string"), "polynomial": (str, "a string"),
          "metadata": (dict, "an object"), "points": (list, "an array"),
          "degree": (int, "an integer")}


class ProjPoint:
    """Point of P^3 in canonical form: first nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        coords = [field(c) for c in coords]
        if len(coords) != 4:
            raise ValueError("a point of P^3 needs 4 coordinates")
        lead = None
        for c in coords:
            if c:
                lead = c
                break
        if lead is None:
            raise ValueError("(0:0:0:0) is not a projective point")
        if not lead.is_one():
            inv = lead.inverse()
            coords = [c * inv for c in coords]
        self.field = field
        self.coords = tuple(coords)

    @property
    def chart(self) -> int:
        """Index of the first nonzero (hence =1) coordinate."""
        for i, c in enumerate(self.coords):
            if c:
                return i
        raise AssertionError("unreachable")

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"

    __repr__ = __str__

    def lift(self, bigfield: Field) -> "ProjPoint":
        return ProjPoint(bigfield, [bigfield.lift(c) for c in self.coords])

    def to_json(self):
        return [str(c) for c in self.coords]

    @classmethod
    def from_json(cls, field, data):
        if not isinstance(data, list) or {type(s) for s in data} - {str}:
            raise ValueError("'points' must hold arrays of coordinate "
                             f"strings, got {data!r}")
        return cls(field, [field.parse(s) for s in data])


class Surface:
    """A degree-d surface in P^3, its declared triple points and metadata."""

    __slots__ = ("field", "degree", "f", "metadata", "points")

    def __init__(self, f: MultiPoly, metadata=None, points=()):
        if not f:
            raise ValueError("the zero polynomial does not define a surface")
        d = f.homogeneous_degree()
        if d is None:
            raise ValueError("surface polynomial must be homogeneous")
        self.field = f.field
        self.degree = d
        self.f = f
        self.metadata = dict(metadata or {})
        self.points = list(points)

    def __repr__(self):
        return f"Surface(deg {self.degree} over {self.field.tag})"

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "field": self.field.tag,
            "degree": self.degree,
            "polynomial": str(self.f),
            "points": [p.to_json() for p in self.points],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("a surface must be a JSON object")
        for key, (kind, name) in _TYPES.items():
            if key in data and type(data[key]) is not kind:
                raise ValueError(f"{key!r} must be {name}, got {data[key]!r}")
        field = Field.parse_tag(data["field"])
        f = MultiPoly.parse(data["polynomial"], field)
        s = cls(f, data.get("metadata"),
                [ProjPoint.from_json(field, c) for c in data.get("points", [])])
        if "degree" in data and s.degree != data["degree"]:
            raise ValueError(
                f"stated degree {data['degree']} != actual {s.degree}")
        return s

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def load_points(path, field):
    """points.json: a list of coordinate 4-tuples as strings."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"a points file must hold an array, got {data!r}")
    return [ProjPoint.from_json(field, c) for c in data]


def save_points(path, points):
    with open(path, "w") as fh:
        json.dump([p.to_json() for p in points], fh, indent=2)
        fh.write("\n")
