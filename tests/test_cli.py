import json

import pytest

from triplepoints.cli import build_parser, main
from triplepoints.fields import Field
from triplepoints.poly import MultiPoly
from triplepoints.surfaces import Surface, save_points, ProjPoint

from helpers import generic_points, ordinary_triple_points

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


def test_certify_has_no_hilbert_option(tmp_path):
    # the degree evidence is computed over every field, with no switch
    path = tmp_path / "surface.json"
    Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", Field.QQ())).save(path)
    with pytest.raises(SystemExit) as exc:
        main(["certify", "-i", str(path), "--hilbert"])
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


def test_construct_k3_444_where_q_vanishes_is_a_domain_error(capsys):
    # with every a and b zero the two cubics cancel, so q_cubic = q * w is
    # zero and q vanishes everywhere
    code = main(["construct", "--family", "k3-444", "--field", "GF:29",
                 "--params", "a1=0,a2=0,a3=0,b1=0,b2=0,b3=0"])
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {
        "schema_version": 1,
        "error": "ValueError: degenerate parameters: q vanishes at (0:0:0:1)"}


def test_certify_reports_how_the_degree_was_settled(capsys, tmp_path):
    surf = str(tmp_path / "ten.json")
    run(capsys, "construct", "--family", "sextic-ten-gf31", "-o", surf)
    code, report = run(capsys, "certify", "-i", surf)
    assert code == 0
    # h(10) = 80 = 8 * 10 where J + l covers from 9: the Tjurina bound
    # closes the degree one degree before regularity could
    assert report["degree_evidence"] == {
        "method": "tjurina", "proven": True, "plane": "x+y+z+w",
        "covered_from": 9, "computed_to": 10}
    assert report["hilbert"][-3:] == [85, 81, 80]
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
    # P^3 over GF(191) has more points than a sweep takes, but none is
    # needed: the declared point certifies and the proven degree is 8, so
    # it is the whole singular locus
    F191 = Field.GF(191)
    surf = tmp_path / "quartic.json"
    Surface(MultiPoly.parse("x^3*w+y^3*w+z^3*w+x^4+y^4+z^4", F191),
            points=[ProjPoint(F191, [0, 0, 0, 1])]).save(surf)
    code, report = run(capsys, "certify", "-i", str(surf))
    assert code == 0
    assert report["verdict"] == "certified-exact"
    assert report["degree_evidence"]["proven"]
    assert "checks" not in report
    assert [info["multiplicity"] for info in report["points"]] == [3]


def test_certify_says_when_a_needed_sweep_is_skipped(capsys, tmp_path):
    # with no declared point the proven degree 8 leaves room for a
    # singular point, and the sweep that would find it cannot run: no
    # point is certified, so the report fails
    F191 = Field.GF(191)
    surf = tmp_path / "quartic.json"
    Surface(MultiPoly.parse("x^3*w+y^3*w+z^3*w+x^4+y^4+z^4", F191)).save(surf)
    code, report = run(capsys, "certify", "-i", str(surf))
    assert code == 0
    assert report["verdict"] == "failed"
    assert report["checks"] == {
        "sweep": "skipped: P^3 over order-191 field is too large to sweep"}
    assert report["points"] == [] and report["hilbert"][-1] == 8


def test_a_point_declared_twice_counts_once(capsys, tmp_path):
    # (0:0:0:1) and (0:0:0:5) are one point: it used to be listed twice
    # with expected degree 16 against the proven 8, so the verdict was
    # certified-rational-only
    F191 = Field.GF(191)
    surf = tmp_path / "quartic.json"
    Surface(MultiPoly.parse("x^3*w+y^3*w+z^3*w+x^4+y^4+z^4", F191),
            points=[ProjPoint(F191, [0, 0, 0, 1]),
                    ProjPoint(F191, [0, 0, 0, 5])]).save(surf)
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


@pytest.mark.parametrize("argv, message", [
    (["construct", "--family", "k3-228", "--params", "lambda=3"],
     "--field is required for this family"),
    (["construct", "--family", "k3-228", "--field", "GF:31",
      "--params", "lambda"], "bad parameter 'lambda', expected key=value"),
    (["construct", "--family", "no-such-family"],
     "unknown family 'no-such-family'"),
    (["construct", "--family", "k3-246"], "k3-246 requires --base"),
    (["construct", "--family", "quintic-nu", "--field", "GF:31"],
     "quintic-nu requires --points"),
    (["construct", "--family", "quintic-nu", "--points", "POINTS"],
     "--field is required for this family"),
    (["tangent-dim", "-i", "SURFACE"], "no points declared or supplied"),
    (["steiner", "--field", "QQ", "--quadric", "x^2", "--quadric", "y^2"],
     "need exactly three --quadric forms"),
], ids=["field-required", "bad-parameter", "unknown-family",
        "k3-246-base", "quintic-nu-points", "quintic-nu-field",
        "tangent-dim-no-points", "steiner-two-quadrics"])
def test_domain_errors_print_one_error_document(capsys, tmp_path, argv,
                                                message):
    surface, points = tmp_path / "surface.json", tmp_path / "points.json"
    Surface(MultiPoly.parse("x^3+y^3+z^3+w^3", F31)).save(surface)
    save_points(points, generic_points(F31, 3, seed=0))
    files = {"SURFACE": str(surface), "POINTS": str(points)}
    argv = [files.get(a, a) for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("\n") == 1
    assert json.loads(out) == {"schema_version": 1,
                               "error": f"DomainError: {message}"}


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


@pytest.mark.parametrize("argv", [
    ["certify", "-i", "DIR"],
    ["construct", "--family", "sextic-ten-gf31", "-o", "DIR"],
    ["linear-system", "--field", "GF:31", "--degree", "2", "--points", "DIR"],
], ids=["certify-input", "construct-output", "linear-system-points"])
def test_a_directory_in_place_of_a_file_is_a_domain_error(capsys, tmp_path,
                                                          argv):
    # every OSError, not only FileNotFoundError, gives one error document
    code = main([str(tmp_path) if a == "DIR" else a for a in argv])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("\n") == 1
    data = json.loads(out)
    assert set(data) == {"schema_version", "error"}
    assert data["error"].startswith("IsADirectoryError: ")


@pytest.mark.parametrize("command", ["certify", "tangent-dim", "cremona"])
@pytest.mark.parametrize("patch, named", [
    ({"polynomial": 5}, "'polynomial' must be a string"),
    ({"polynomial": ["x"]}, "'polynomial' must be a string"),
    ({"field": 7}, "'field' must be a string"),
    ({"points": None}, "'points' must be an array"),
    ({"points": [[1, 2]]}, "'points' must hold arrays of coordinate strings"),
    # read as a string, it used to give "stated degree 4 != actual 4"
    ({"degree": "4"}, "'degree' must be an integer, got '4'"),
    ({"field": "GF:2:2"}, "GF(4) is not supported (u^2 = n needs odd p)"),
    ({"polynomial": ""}, "empty polynomial text"),
    # a JSON true is a bool, which Python counts as the integer 1: the
    # plane used to be certified and exit 0
    ({"polynomial": "x+y", "degree": True},
     "'degree' must be an integer, got True"),
    ({"degree": False}, "'degree' must be an integer, got False"),
], ids=["polynomial-int", "polynomial-list", "field-int", "points-null",
        "point-ints", "degree-string", "field-GF:2:2", "polynomial-empty",
        "degree-true", "degree-false"])
def test_malformed_surface_file_is_a_domain_error(capsys, tmp_path, command,
                                                  patch, named):
    # each of the first five used to end in a TypeError or AttributeError
    # traceback; every one is a single error line
    doc = {"schema_version": 1, "field": "GF:31",
           "polynomial": "x^3*w+y^3*z+z^4", "points": [["0", "0", "0", "1"]]}
    doc.update(patch)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    code = main([command, "-i", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(f"ValueError: {named}")


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


@pytest.mark.parametrize("command", ["certify", "tangent-dim", "cremona"])
@pytest.mark.parametrize("field, metadata", [
    ("QQ", {"points": [["1", "0", "0", "0"]]}),
    ("QQ", {"points": 5}),
    ("GF:31", {"points": [["1", "0", "0", "0"]]}),
], ids=["QQ-list", "QQ-int", "GF31-list"])
def test_surface_metadata_is_kept_as_given(capsys, tmp_path, command, field,
                                           metadata):
    # the declared points are the top-level array alone; a "points" key in
    # the metadata used to end in a TypeError or AttributeError traceback
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"field": field, "metadata": metadata,
                                "polynomial": "x^3+y^3+z^3+w^3"}))
    code, data = run(capsys, command, "-i", str(path))
    if command == "certify":
        assert (code, data["points"]) == (0, [])
        # the smooth surface has a singular scheme of degree 0, proven
        # over GF(31) and mod 32003 over QQ
        assert (data["verdict"], "checks" in data) == (
            "certified-exact", False)
    elif command == "tangent-dim":
        assert (code, data["error"]) == (
            1, "DomainError: no points declared or supplied")
    else:
        assert (code, data["metadata"], data["points"]) == (0, metadata, [])


def test_reciprocal_family_copies_the_base_params(capsys, tmp_path,
                                                   k3_444_file):
    # params that are not an object used to end in a TypeError traceback
    doc = json.loads(open(k3_444_file).read())
    doc["metadata"]["params"] = 5
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    code, data = run(capsys, "construct", "--family", "k3-246", "--base",
                     str(base), "--fundamental", "0,1,3,4")
    assert (code, data["metadata"]["params"]) == (0, 5)


@pytest.mark.parametrize("family, field, params", [
    ("k3-228", "GF:7:2", "lambda=2"),
    ("ell-222", "GF:5:2", "lambda=1,mu=1,nu=1,b1=1,b2=1,b3=1,b4=1,b5=1,b6=1"),
], ids=["k3-228", "ell-222"])
def test_construct_over_a_quadratic_extension(capsys, tmp_path, family,
                                              field, params):
    # the quadratics for the points on lines and axes split in GF(p^2)
    surf = str(tmp_path / "member.json")
    code, data = run(capsys, "construct", "--family", family, "--field",
                     field, "--params", params, "-o", surf)
    assert code == 0 and data is None
    X = Surface.load(surf)
    assert X.field.tag == field and X.degree == 6 and len(X.points) == 9
    assert ordinary_triple_points(X, X.points)


def test_main_called_again_in_one_process(capsys, tmp_path):
    # the parser is built once; every call parses its own arguments
    assert build_parser() is build_parser()
    quadrics = ["--quadric", "x^2", "--quadric", "y^2", "--quadric", "z*w"]
    for _ in range(2):
        code, data = run(capsys, "steiner", "--field", "QQ", *quadrics)
        assert code == 0 and len(data["minors"]) == 4
        code, data = run(capsys, "dianode", "--field", "QQ", "--quartic",
                         "x^4+y^4+z^4+w^4", *quadrics)
        assert code == 0 and data["degree"] == 6
    # --quadric does not keep the forms of an earlier call
    code, data = run(capsys, "dianode", "--field", "QQ", "--quartic", "x^4",
                     "--quadric", "x^2")
    assert code == 1 and "three --quadric" in data["error"]
    code, data = run(capsys, "bounds", "--table", "5..3")
    assert code == 1 and "error" in data
    code, data = run(capsys, "bounds", "--table", "3..4")
    assert code == 0 and data["table"] == {"3": 1, "4": 1}
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out, p in zip(outputs, ("2", "3")):
        code, data = run(capsys, "construct", "--family", "k3-228",
                         "--field", "GF:31", "--params", f"lambda={p}",
                         "-o", str(out))
        assert code == 0 and data is None
    a, b = (Surface.load(out) for out in outputs)
    assert a.metadata["params"]["lambda"] == "2"
    assert b.metadata["params"]["lambda"] == "3"


@pytest.mark.parametrize("surface", [
    {"field": "GF:3", "polynomial": "x^3+y^3+z^3+w^3",
     "points": [["1", "0", "0", "0"]]},
    {"field": "GF:2", "polynomial": "x^3+y^3+z^3"}], ids=["GF:3", "GF:2"])
def test_certify_in_characteristic_2_or_3_is_one_error_line(
        capsys, tmp_path, surface):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    code = main(["certify", "-i", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "ValueError: triple-point certification unsupported in "
        "characteristic 2, 3")
