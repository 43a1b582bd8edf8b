import json

import pytest

from triplepoints.fields import Field
from triplepoints.poly import MultiPoly
from triplepoints.surfaces import (ProjPoint, Surface, SCHEMA_VERSION,
                                   load_points, save_points)

QQ = Field.QQ()
F31 = Field.GF(31)


def test_point_canonical_form():
    p = ProjPoint(F31, [2, 4, 6, 8])
    assert [int(c) for c in p.coords] == [1, 2, 3, 4]
    q = ProjPoint(F31, [0, 0, 3, 9])
    assert [int(c) for c in q.coords] == [0, 0, 1, 3]
    assert q.chart == 2
    r = ProjPoint(QQ, [QQ.frac(1, 2), QQ(3), QQ(0), QQ(0)])
    assert str(r) == "(1:6:0:0)"


def test_point_equality_up_to_scale():
    assert ProjPoint(F31, [2, 4, 6, 8]) == ProjPoint(F31, [1, 2, 3, 4])
    assert hash(ProjPoint(F31, [2, 4, 6, 8])) == \
        hash(ProjPoint(F31, [1, 2, 3, 4]))
    assert ProjPoint(F31, [1, 0, 0, 0]) != ProjPoint(F31, [0, 1, 0, 0])


def test_point_rejects_origin_and_bad_length():
    with pytest.raises(ValueError):
        ProjPoint(QQ, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        ProjPoint(QQ, [1, 2, 3])


def test_point_sorting_is_stable():
    pts = [ProjPoint(F31, c) for c in
           ([0, 1, 2, 3], [1, 0, 0, 0], [1, 2, 3, 4], [0, 0, 1, 5])]
    ordered = sorted(pts, key=lambda p: p.sort_key())
    assert ordered == sorted(ordered, key=lambda p: p.sort_key())
    assert len(set(ordered)) == 4


def test_point_lift():
    F49 = Field.GF(7, 2)
    F7 = Field.GF(7)
    p = ProjPoint(F7, [1, 2, 3, 4])
    q = p.lift(F49)
    assert q.field == F49
    assert [str(c) for c in q.coords] == ["(1)", "(2)", "(3)", "(4)"]


def test_point_json_roundtrip():
    p = ProjPoint(QQ, [QQ(1), QQ.frac(2, 3), QQ(0), QQ(-5)])
    assert ProjPoint.from_json(QQ, p.to_json()) == p


def test_surface_construction_guards():
    with pytest.raises(ValueError):
        Surface(MultiPoly.zero(QQ))
    with pytest.raises(ValueError):
        Surface(MultiPoly.parse("x^2+y", QQ))


def test_surface_json_roundtrip(tmp_path):
    pts = [ProjPoint(F31, [1, 1, 1, 1]), ProjPoint(F31, [1, 2, 3, 4])]
    X = Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F31),
                {"family": "test"}, pts)
    data = X.to_json()
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["field"] == "GF:31"
    assert data["degree"] == 3
    Y = Surface.from_json(data)
    assert Y.f == X.f
    assert Y.points == pts
    assert Y.metadata["family"] == "test"
    path = tmp_path / "surface.json"
    X.save(path)
    Z = Surface.load(path)
    assert Z.f == X.f and Z.points == pts
    # the file is honest JSON
    with open(path) as fh:
        assert json.load(fh)["polynomial"] == str(X.f)


def test_surface_from_json_checks_degree():
    data = Surface(MultiPoly.parse("x^2+y*w", QQ)).to_json()
    data["degree"] = 3
    with pytest.raises(ValueError):
        Surface.from_json(data)


def test_points_file_roundtrip(tmp_path):
    pts = [ProjPoint(F31, [1, 5, 6, 7]), ProjPoint(F31, [0, 1, 30, 2])]
    path = tmp_path / "points.json"
    save_points(path, pts)
    assert load_points(path, F31) == pts
