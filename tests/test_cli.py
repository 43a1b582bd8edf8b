import json

import pytest

from triplepoints.cli import main
from triplepoints.fields import Field
from triplepoints.poly import MultiPoly
from triplepoints.surfaces import Surface, save_points, ProjPoint
from triplepoints.constructions import generic_points

F31 = Field.GF(31)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_bounds_degree(capsys):
    code, data = run(capsys, "bounds", "--degree", "6")
    assert code == 0
    assert data["schema_version"] == 1
    assert (data["polar"], data["spectrum"], data["combined"]) == (10, 11, 10)
    assert data["miyaoka"] is None


def test_bounds_table(capsys):
    code, data = run(capsys, "bounds", "--table", "3..12")
    assert code == 0
    assert data["table"] == {"3": 1, "4": 1, "5": 5, "6": 10, "7": 17,
                             "8": 29, "9": 42, "10": 60, "11": 81, "12": 107}


def test_bounds_requires_argument(capsys):
    code, data = run(capsys, "bounds")
    assert code == 1
    assert "error" in data


@pytest.mark.parametrize("table", ["5..3", "3", "a..b"])
def test_bounds_table_rejects_bad_ranges(capsys, table):
    # an empty range used to print {"table": {}}, the others an int() error
    code, data = run(capsys, "bounds", "--table", table)
    assert code == 1
    assert data["error"] == ("DomainError: --table takes lo..hi with "
                             f"integers lo <= hi, got {table!r}")


def test_spectrum(capsys):
    code, data = run(capsys, "spectrum", "--exponents", "3,3,3",
                     "--interval", "4/5,9/5")
    assert code == 0
    assert data["total"] == 8
    assert data["count"] == 7
    assert ["1", 1] in data["spectrum"]


def test_invariants(capsys):
    code, data = run(capsys, "invariants", "--degree", "6", "--nu", "9")
    assert code == 0
    assert (data["c1sq"], data["chi"], data["p_g"]) == (-3, 2, 1)


def test_classify_sextic(capsys):
    code, data = run(capsys, "classify-sextic", "--nu", "9", "--pg", "1",
                     "--q", "0", "--exc", "4,4,4")
    assert code == 0
    assert data["model"] == "K3"
    code, data = run(capsys, "classify-sextic", "--nu", "5", "--pg", "5",
                     "--q", "0")
    assert code == 1 and "error" in data


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_construct_certify_tangent_roundtrip(capsys, tmp_path):
    surf = tmp_path / "ten.json"
    code, data = run(capsys, "construct", "--family", "sextic-ten-gf31",
                     "-o", str(surf))
    assert code == 0 and data is None
    X = Surface.load(surf)
    assert X.degree == 6 and len(X.points) == 10

    code, report = run(capsys, "certify", "-i", str(surf))
    assert code == 0
    assert report["verdict"] == "certified-exact"
    assert report["expected_degree"] == 80

    code, data = run(capsys, "tangent-dim", "-i", str(surf))
    assert code == 0
    assert data == {"schema_version": 1, "dimension": 18, "points": 10}


def test_construct_with_params(capsys, tmp_path):
    code, data = run(capsys, "construct", "--family", "k3-228",
                     "--field", "GF:31", "--params", "lambda=3")
    assert code == 0
    assert data["metadata"]["family"] == "k3-228"
    assert len(data["points"]) == 9
    code, data = run(capsys, "construct", "--family", "k3-228",
                     "--field", "GF:31", "--params", "lambda=0")
    assert code == 1 and "error" in data


def test_construct_septic_failed_certification_is_a_domain_error(capsys):
    code, data = run(capsys, "construct", "--family", "septic-s4",
                     "--field", "GF:7", "--params", "mu=1,nu=3")
    assert code == 1
    assert data["error"].startswith("CertificationFailure")


def test_construct_ell_224_failed_certification_is_a_domain_error(
        capsys, tmp_path):
    base = str(tmp_path / "ell.json")
    code, _ = run(capsys, "construct", "--family", "ell-222", "--field",
                  "GF:7", "--params", "lambda=1,mu=1,nu=1,b1=1,b2=1,b3=1,"
                  "b4=1,b5=1,b6=1,alpha=1", "-o", base)
    assert code == 0
    code, data = run(capsys, "construct", "--family", "ell-224", "--base",
                     base, "--fundamental", "0,1,2,3")
    assert code == 1
    assert data["error"].startswith("CertificationFailure")


def test_construct_without_certified_member_is_a_domain_error(capsys):
    # alpha = beta = 0 leaves only the zero form to search
    code, data = run(capsys, "construct", "--family", "k3-228", "--field",
                     "GF:31", "--params", "lambda=3,alpha=0,beta=0")
    assert code == 1
    assert data["error"].startswith("NoCertifiedMember")


def test_certify_reports_how_the_degree_was_settled(capsys, tmp_path):
    surf = str(tmp_path / "ten.json")
    run(capsys, "construct", "--family", "sextic-ten-gf31", "-o", surf)
    code, report = run(capsys, "certify", "-i", surf)
    assert code == 0
    assert report["degree_evidence"] == {
        "method": "regularity", "proven": True, "plane": "x+y+z+w",
        "regular_from": 10, "computed_to": 11}
    assert report["hilbert"][-3:] == [80, 80, 80]
    assert "checks" not in report  # the sweep ran


@pytest.mark.parametrize("family, params, named", [
    ("septic-s4", "mu=1,nu=2,zz=3", "unknown parameter zz"),
    ("k3-228", "lambda=3,alpah=2", "unknown parameter alpah"),
    ("septic-s4", "mu=1", "missing parameter nu"),
    ("septic-s4", "mu=1,nu=2,mu=3", "repeated parameter mu"),
    ("ell-222", "lambda=1,mu=1,nu=1,b1=1,b2=1,b3=1,b4=1,b5=1",
     "missing parameter b6"),
])
def test_construct_rejects_unknown_repeated_and_missing_params(
        capsys, family, params, named):
    code, data = run(capsys, "construct", "--family", family, "--field",
                     "GF:31", "--params", params)
    assert code == 1
    assert data["error"].startswith(f"DomainError: {named} (required: ")
    assert "optional: " in data["error"]


@pytest.mark.parametrize("argv, named", [
    (["--family", "sextic-ten-gf31", "--field", "GF:7", "--params", "mu=3"],
     "--params mu=3"),
    (["--family", "sextic-ten-gf31", "--field", "GF:7"], "--field GF:7"),
    (["--family", "k3-444", "--field", "GF:29", "--params",
      "a1=2,a2=3,a3=5,b1=7,b2=11,b3=13", "--base", "base.json"],
     "--base base.json"),
    (["--family", "ell-222", "--field", "GF:7", "--params",
      "lambda=1,mu=1,nu=1,b1=1,b2=1,b3=1,b4=1,b5=1,b6=1",
      "--fundamental", "0,1,2,3"], "--fundamental 0,1,2,3"),
    (["--family", "k3-246", "--base", "base.json", "--fundamental",
      "0,1,3,4", "--field", "GF:29"], "--field GF:29"),
], ids=["sextic-ten-gf31-params", "sextic-ten-gf31-field", "k3-444-base",
        "ell-222-fundamental", "k3-246-field"])
def test_construct_rejects_flags_its_family_does_not_use(capsys, argv, named):
    code, data = run(capsys, "construct", *argv)
    assert code == 1
    assert data["error"] == (f"DomainError: family {argv[1]} does not use "
                             f"{named}")


def test_construct_ten_point_sextic_takes_its_own_field(capsys):
    code, data = run(capsys, "construct", "--family", "sextic-ten-gf31",
                     "--field", "GF:31")
    assert code == 0
    assert data["field"] == "GF:31"


def test_construct_reciprocal_family(capsys, tmp_path):
    base = tmp_path / "base.json"
    code, _ = run(capsys, "construct", "--family", "k3-444",
                  "--field", "GF:29",
                  "--params", "a1=-1,a2=-1,a3=-1,b1=0,b2=0,b3=0",
                  "-o", str(base))
    assert code == 0
    code, data = run(capsys, "construct", "--family", "k3-246",
                     "--base", str(base), "--fundamental", "0,1,3,4")
    assert code == 0
    assert data["metadata"]["exc_degrees"] == [2, 4, 6]
    assert len(data["points"]) == 9


def test_construct_reciprocal_family_degenerate_fundamental(capsys,
                                                           tmp_path):
    # four of the ten points whose coordinate matrix is singular: the
    # change of coordinates to the vertices does not exist
    surf = tmp_path / "ten.json"
    assert main(["construct", "--family", "sextic-ten-gf31", "-o",
                 str(surf)]) == 0
    capsys.readouterr()
    code = main(["construct", "--family", "k3-246", "--base", str(surf),
                 "--fundamental", "0,1,2,3"])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert code == 1
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "schema_version": 1,
        "error": "ValueError: fundamental points are in degenerate position"}


@pytest.fixture(scope="module")
def k3_444_file(tmp_path_factory):
    base = tmp_path_factory.mktemp("k3") / "base.json"
    assert main(["construct", "--family", "k3-444", "--field", "GF:29",
                 "--params", "a1=-1,a2=-1,a3=-1,b1=0,b2=0,b3=0",
                 "-o", str(base)]) == 0
    return str(base)


@pytest.mark.parametrize("flag", [
    ["--fundamental", "0,1,3,-5"], ["--fundamental", "0,1,3,9"],
    ["--fundamental", "0,1,x,4"], []],
    ids=["negative", "out-of-range", "non-integer", "missing"])
def test_construct_rejects_bad_fundamental_indices(capsys, k3_444_file,
                                                   flag):
    code, data = run(capsys, "construct", "--family", "k3-246", "--base",
                     k3_444_file, *flag)
    assert code == 1
    assert data["error"].startswith(
        "DomainError: --fundamental takes four point indices in 0..8")


def test_certify_over_a_field_too_large_to_sweep(capsys, tmp_path):
    # P^3 over GF(191) has more points than a sweep takes: the declared
    # point is certified, and the report says the sweep was skipped
    F191 = Field.GF(191)
    surf = tmp_path / "quartic.json"
    Surface(MultiPoly.parse("x^3*w+y^3*w+z^3*w+x^4+y^4+z^4", F191),
            {"points": [ProjPoint(F191, [0, 0, 0, 1])]}).save(surf)
    code, report = run(capsys, "certify", "-i", str(surf))
    assert code == 0
    assert report["verdict"] == "certified-exact"
    assert report["checks"] == {
        "sweep": "skipped: P^3 over order-191 field is too large to sweep"}
    assert [info["multiplicity"] for info in report["points"]] == [3]


def test_a_point_declared_twice_counts_once(capsys, tmp_path):
    # (0:0:0:1) and (0:0:0:5) are one point: it used to be listed twice
    # with expected degree 16 against the proven 8, so the verdict was
    # certified-rational-only
    F191 = Field.GF(191)
    surf = tmp_path / "quartic.json"
    Surface(MultiPoly.parse("x^3*w+y^3*w+z^3*w+x^4+y^4+z^4", F191),
            {"points": [ProjPoint(F191, [0, 0, 0, 1]),
                        ProjPoint(F191, [0, 0, 0, 5])]}).save(surf)
    code, report = run(capsys, "certify", "-i", str(surf))
    assert code == 0
    assert report["verdict"] == "certified-exact"
    assert report["expected_degree"] == report["hilbert"][-1] == 8
    assert [info["coords"] for info in report["points"]] == [
        ["0", "0", "0", "1"]]
    code, data = run(capsys, "tangent-dim", "-i", str(surf))
    assert (code, data["dimension"], data["points"]) == (0, 27, 1)


def test_construct_quintic_from_points_file(capsys, tmp_path):
    ptsfile = tmp_path / "points.json"
    save_points(ptsfile, generic_points(F31, 3, seed=0))
    code, data = run(capsys, "construct", "--family", "quintic-nu",
                     "--field", "GF:31", "--points", str(ptsfile))
    assert code == 0
    assert data["degree"] == 5
    assert len(data["points"]) == 3


def test_cremona(capsys, tmp_path):
    surf = tmp_path / "ten.json"
    run(capsys, "construct", "--family", "sextic-ten-gf31", "-o", str(surf))
    code, data = run(capsys, "cremona", "-i", str(surf))
    assert code == 0
    assert data["vertex_multiplicities"] == [0, 0, 0, 0]
    assert data["degree"] == 18


def test_dianode_and_steiner(capsys):
    code, data = run(capsys, "dianode", "--field", "QQ",
                     "--quartic", "x^4+y^4+z^4+w^4",
                     "--quadric", "x^2", "--quadric", "y^2",
                     "--quadric", "z*w")
    assert code == 0
    assert data["degree"] == 6
    code, data = run(capsys, "steiner", "--field", "QQ",
                     "--quadric", "x^2", "--quadric", "y^2",
                     "--quadric", "z*w")
    assert code == 0
    assert len(data["minors"]) == 4
    code, data = run(capsys, "dianode", "--field", "QQ",
                     "--quartic", "x^4", "--quadric", "x^2")
    assert code == 1 and "error" in data


def test_linear_system(capsys, tmp_path):
    ptsfile = tmp_path / "points.json"
    save_points(ptsfile, generic_points(F31, 7, seed=7))
    code, data = run(capsys, "linear-system", "--field", "GF:31",
                     "--degree", "2", "--points", str(ptsfile))
    assert code == 0
    assert data["dimension"] == 3
    assert len(data["basis"]) == 3


def test_missing_file_is_a_domain_error(capsys):
    code, data = run(capsys, "certify", "-i", "/nonexistent/surface.json")
    assert code == 1 and data["error"].startswith("FileNotFoundError")


@pytest.mark.parametrize("command", ["certify", "tangent-dim", "cremona"])
@pytest.mark.parametrize("patch, named", [
    ({"polynomial": 5}, "'polynomial' must be a string"),
    ({"polynomial": ["x"]}, "'polynomial' must be a string"),
    ({"field": 7}, "'field' must be a string"),
    ({"points": None}, "'points' must be an array"),
    ({"points": [[1, 2]]}, "'points' must hold arrays of coordinate strings"),
], ids=["polynomial-int", "polynomial-list", "field-int", "points-null",
        "point-ints"])
def test_malformed_surface_file_is_a_domain_error(capsys, tmp_path, command,
                                                  patch, named):
    # each of these used to end in a TypeError or AttributeError traceback
    doc = {"schema_version": 1, "field": "GF:31",
           "polynomial": "x^3*w+y^3*z+z^4", "points": [["0", "0", "0", "1"]]}
    doc.update(patch)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    code, data = run(capsys, command, "-i", str(path))
    assert code == 1
    assert data["error"].startswith(f"ValueError: {named}")


def test_surface_and_points_files_of_the_wrong_shape(capsys, tmp_path):
    # a surface that is not an object, and a points file that is not an
    # array, used to end in a TypeError traceback
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    code, data = run(capsys, "certify", "-i", str(bad))
    assert code == 1
    assert data["error"] == "ValueError: a surface must be a JSON object"
    surf = tmp_path / "ten.json"
    run(capsys, "construct", "--family", "sextic-ten-gf31", "-o", str(surf))
    pts = tmp_path / "points.json"
    pts.write_text("5")
    code, data = run(capsys, "tangent-dim", "-i", str(surf), "--points",
                     str(pts))
    assert code == 1
    assert data["error"] == ("ValueError: a points file must hold an array, "
                             "got 5")
