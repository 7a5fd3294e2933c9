import json
import os

import numpy as np
import pytest

from polyscat import cli
from polyscat.rellich import Calibration


def scene_dict(n=96, value=0.3):
    return {
        "schema_version": 1,
        "polytope": {"dim": 2, "kind": "convex-polygon",
                     "vertices": [[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3],
                                  [-0.3, 0.3]]},
        "contrast": {"kind": "constant", "params": {"value": value}},
        "k": 2.0,
        "omega": [1.0, 0.0],
        "grid": {"half_width": 1.0, "n": n},
        "R": 1.0,
    }


def write_scene(tmp_path, **kw):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(scene_dict(**kw)))
    return str(p)


def small_cal_file(tmp_path):
    cal = Calibration(k=2.0, R_m=1.0, C=2.0, c1=0.8, c2=0.2, seed=0,
                      trials=10)
    p = tmp_path / "cal.json"
    cal.save(p)
    return str(p)


# ---------------------------------------------------------------------------
# Scene parsing
# ---------------------------------------------------------------------------

def test_build_scene_roundtrip():
    V, k, omega, grid, R = cli.build_scene(scene_dict())
    assert k == 2.0 and R == 1.0
    np.testing.assert_allclose(omega, [1.0, 0.0])
    assert grid.shape == (96, 96)
    assert len(V.polytope.vertices) == 4


def test_build_scene_normalizes_direction():
    d = scene_dict()
    d["omega"] = [3.0, 4.0]
    _, _, omega, _, _ = cli.build_scene(d)
    np.testing.assert_allclose(omega, [0.6, 0.8])


@pytest.mark.parametrize("omega", [[0.0, 0.0], [1.0, 0.0, 0.0],
                                   [float("nan"), 1.0], [float("inf"), 0.0]],
                         ids=["zero", "wrong-length", "nan", "inf"])
def test_build_scene_rejects_bad_direction(omega):
    d = scene_dict()
    d["omega"] = omega
    with pytest.raises(cli.CliError, match="omega must be a finite nonzero "
                                           "2-vector"):
        cli.build_scene(d)


@pytest.mark.parametrize("key, value", [
    ("k", 0.0), ("k", -2.0), ("k", float("nan")), ("k", float("inf")),
    ("n", 0), ("n", 2.5), ("half_width", 0.0), ("half_width", float("inf")),
    ("center", [float("nan"), 0.0]), ("center", [0.0, 0.0, 0.0]),
    ("k", "two"), ("k", [2.0]), ("omega", ["east", 0.0]),
    ("center", ["x", 0.0]), ("half_width", "wide"), ("R", "big")],
    ids=["k-zero", "k-negative", "k-nan", "k-inf", "n-zero", "n-fraction",
         "half_width-zero", "half_width-inf", "center-nan", "center-3d",
         "k-text", "k-list", "omega-text", "center-text", "half_width-text",
         "R-text"])
def test_build_scene_rejects_bad_numbers(tmp_path, capsys, key, value):
    # k = 0 and n = 0 divided by zero, k < 0 spun GMRES on a NaN system,
    # half_width = inf reached the far field, a NaN centre solved to a
    # zero far field and a 3-vector centre in 2D raised a FieldError;
    # text where a number belongs raised float()'s ValueError
    d = scene_dict()
    (d if key in ("k", "omega", "R") else d["grid"])[key] = value
    with pytest.raises(cli.CliError, match=key):
        cli.build_scene(d)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    rc = cli.main(["solve", "--scene", str(scene), "--seed", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError" and key in err["message"]


def test_build_scene_ball_guard():
    d = scene_dict()
    d["R"] = 0.2
    with pytest.raises(cli.CliError):
        cli.build_scene(d)


def test_build_scene_schema_guard():
    d = scene_dict()
    d["schema_version"] = 99
    with pytest.raises(cli.CliError):
        cli.build_scene(d)


@pytest.mark.parametrize("body", [{"scenes": [scene_dict()], "tol": 1e-6},
                                  dict(scene_dict(), tol=1e-6)],
                         ids=["manifest", "scene"])
def test_unknown_keys_are_rejected(tmp_path, capsys, body):
    # a key the CLI does not read would only change the manifest hash
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(body))
    rc = cli.main(["solve", "--scene", str(scene), "--seed", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError" and "tol" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["calibrate", "verify", "stability"])
def test_one_scene_commands_refuse_a_second_scene(tmp_path, capsys, command):
    # only `solve` runs every scene; the others would drop the second
    scene = tmp_path / "scenes.json"
    scene.write_text(json.dumps({"scenes": [scene_dict(), scene_dict(48)]}))
    rc = cli.main([command, "--scene", str(scene), "--seed", "1",
                   "--out", str(tmp_path / "out")])
    assert rc == 1 and not (tmp_path / "out").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CliError" and "holds 2" in err["message"]
    assert cli.main(["solve", "--scene", str(scene), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == [
        f"scene{i:03d}_{kind}" for i in range(2)
        for kind in ("farfield.csv", "solve.json")]


def test_contrast_kinds():
    d = scene_dict()
    d["contrast"] = {"kind": "affine",
                     "params": {"base": [1.0, 0.5], "gradient": [0.1, 0.0]}}
    V, *_ = cli.build_scene(d)
    assert V.alpha == 1.0
    d["contrast"] = {"kind": "hoelder-bump",
                     "params": {"center": [-0.3, -0.3], "alpha": 0.6,
                                "scale": 1.0}}
    V, *_ = cli.build_scene(d)
    assert V.alpha == 0.6
    d["contrast"] = {"kind": "nope", "params": {}}
    with pytest.raises(cli.CliError):
        cli.build_scene(d)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_solve_outputs_and_overwrite_guard(tmp_path):
    scene = write_scene(tmp_path)
    out = str(tmp_path / "out")
    rc = cli.main(["solve", "--scene", scene, "--seed", "1", "--out", out])
    assert rc == 0
    ff = (tmp_path / "out" / "scene000_farfield.csv").read_text()
    assert ff.startswith("# manifest_hash: ")
    assert "theta,re,im" in ff
    assert "np.float64" not in ff
    report = json.loads((tmp_path / "out" / "scene000_solve.json").read_text())
    assert report["far_field_l2"] > 0
    assert report["residual"] < 1e-7
    # second run without --force refuses to overwrite
    rc = cli.main(["solve", "--scene", scene, "--seed", "1", "--out", out])
    assert rc == 1
    rc = cli.main(["solve", "--scene", scene, "--seed", "1", "--out", out,
                   "--force"])
    assert rc == 0


def test_solve_deterministic(tmp_path):
    scene = write_scene(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli.main(["solve", "--scene", scene, "--seed", "3",
                         "--out", out]) == 0
        outs.append((tmp_path / name / "scene000_farfield.csv").read_text())
    assert outs[0] == outs[1]


def test_seed_is_mandatory(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["solve", "--out", str(tmp_path / "o")])


def test_calibrate_outputs(tmp_path):
    scene = write_scene(tmp_path)
    out = str(tmp_path / "out")
    rc = cli.main(["calibrate", "--scene", scene, "--seed", "5", "--out", out])
    assert rc == 0
    cal = json.loads((tmp_path / "out" / "calibration.json").read_text())
    assert 0 < cal["c1"] < 1
    assert abs(cal["c2"] - cal["c1"] / 4) < 1e-12
    assert cal["C"] >= 1.0
    assert "manifest_hash" in cal
    cert = json.loads((tmp_path / "out"
                       / "hankel_certificate.json").read_text())
    assert cert["C"] >= 1.0
    # the artifact reloads through the library path despite the extra key
    back = Calibration.from_json(
        (tmp_path / "out" / "calibration.json").read_text())
    assert back.c1 == cal["c1"]


def test_calibrate_certifies_at_the_scene_radius(tmp_path):
    # a scene without "R" has the grid's half-width as its ball radius, in
    # calibrate as in every other command
    d = scene_dict()
    del d["R"]
    d["grid"]["half_width"] = 1.5
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"scenes": [d], "trials": 10}))
    rc = cli.main(["calibrate", "--scene", str(scene), "--seed", "5",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    cert = json.loads((tmp_path / "out"
                       / "hankel_certificate.json").read_text())
    assert cert["z1"] == d["k"] * 1.5
    assert cert["z2"] == 4 * d["k"] * 1.5


def test_verify_passes(tmp_path):
    scene = write_scene(tmp_path)
    out = str(tmp_path / "out")
    rc = cli.main(["verify", "--scene", scene, "--seed", "2", "--out", out,
                   "--calibration", small_cal_file(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["all_passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"geometry-q-angle", "cone-transform", "three-spheres",
            "orthogonality-trivial"} <= names


def test_verify_checks_a_3d_cone_transform(tmp_path):
    d = scene_dict(n=32)
    h = 0.3
    d["polytope"] = {"dim": 3, "kind": "cuboid",
                     "vertices": [[sx, sy, sz] for sx in (-h, h)
                                  for sy in (-h, h) for sz in (-h, h)]}
    d["omega"] = [1.0, 0.0, 0.0]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    rc = cli.main(["verify", "--scene", str(scene), "--seed", "2",
                   "--out", str(tmp_path / "out"),
                   "--calibration", small_cal_file(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    check = {c["name"]: c for c in report["checks"]}["cone-transform"]
    assert check["passed"] and check["max_error"] <= 1e-14
    # a trihedral that is no orthant, so not the 2D check's quarter plane
    assert check["max_error"] != cli._cone_transform_error(2)


def test_verify_fails_on_a_geometry_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.geom, "check_q_angle",
                        lambda P, Q: cli.geom.QAngleReport(False, np.pi))
    rc = cli.main(["verify", "--scene", write_scene(tmp_path), "--seed", "2",
                   "--out", str(tmp_path / "out"),
                   "--calibration", small_cal_file(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    check = {c["name"]: c for c in report["checks"]}["geometry-q-angle"]
    assert not report["all_passed"]
    assert check["passed"] is False and check["violations"] == 200


def test_random_polygons_contract():
    polys = cli._random_polygons(np.random.default_rng(3), 400)
    again = cli._random_polygons(np.random.default_rng(3), 400)
    assert len(polys) == 400
    counts = set()
    for P, Q in zip(polys, again):
        v = P.vertices
        counts.add(len(v))
        np.testing.assert_array_equal(v, Q.vertices)
        turn = cli.geom._cross2(v - np.roll(v, 1, axis=0),
                                np.roll(v, -1, axis=0) - v)
        assert np.all(turn > 0)
    assert counts == {3, 4, 5, 6}
    assert isinstance(cli._random_polygon(np.random.default_rng(3)),
                      cli.Polytope)


def test_verify_calibrates_at_the_scene_wavenumber(tmp_path, monkeypatch):
    calls = []

    def fake_calibrate(k, dim, **kw):
        calls.append((k, dim))
        return Calibration(k=k, R_m=1.0, C=2.0, c1=0.8, c2=0.2, seed=0,
                           trials=10)

    monkeypatch.setattr(cli.rellich, "calibrate", fake_calibrate)
    d = scene_dict()
    d["k"] = 3.0
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    rc = cli.main(["verify", "--scene", str(scene), "--seed", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert calls == [(3.0, 2)]


def test_verify_calibrates_with_the_manifest_trials(tmp_path, monkeypatch):
    # without --calibration, verify calibrates as calibrate does: on the
    # manifest's trials
    trials = []

    def fake_calibrate(k, dim, **kw):
        trials.append(kw["trials"])
        return Calibration(k=k, R_m=1.0, C=2.0, c1=0.8, c2=0.2, seed=0,
                           trials=kw["trials"])

    monkeypatch.setattr(cli.rellich, "calibrate", fake_calibrate)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"scenes": [scene_dict()], "trials": 7}))
    rc = cli.main(["verify", "--scene", str(manifest), "--seed", "2",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert trials == [7]


def test_stability_outputs_and_determinism(tmp_path):
    scene = write_scene(tmp_path, n=64)
    cal = small_cal_file(tmp_path)
    texts = []
    for name in ("s1", "s2"):
        out = str(tmp_path / name)
        rc = cli.main(["stability", "--scene", scene, "--seed", "4",
                       "--out", out, "--calibration", cal])
        assert rc == 0
        blob = ""
        for fn in ("support_stability.json", "support_stability.csv",
                   "corner_lower_bound.json", "corner_lower_bound.csv",
                   "plots.gp"):
            blob += (tmp_path / name / fn).read_text()
        texts.append(blob)
    assert texts[0] == texts[1]
    recs = json.loads((tmp_path / "s1" / "support_stability.json").read_text())
    assert len(recs["records"]) == 5
    for r in recs["records"]:
        assert r["epsilon"] > 0 and r["hausdorff"] > 0


def test_stability_runs_at_the_scene_radius(tmp_path, monkeypatch):
    # a scene ball of radius 0.8 inside a grid of half-width 1: both the
    # Rellich pipeline and the corner admissibility ball take R = 0.8
    radii = {"rellich": [], "admissibility": []}
    rellich_fn = cli.stability.quantitative_rellich
    admissibility_fn = cli.stability.admissibility_report

    def rellich_spy(eps, S, k, R, *args, **kw):
        radii["rellich"].append(R)
        return rellich_fn(eps, S, k, R, *args, **kw)

    def admissibility_spy(P, R):
        radii["admissibility"].append(R)
        return admissibility_fn(P, R)

    monkeypatch.setattr(cli.stability, "quantitative_rellich", rellich_spy)
    monkeypatch.setattr(cli.stability, "admissibility_report",
                        admissibility_spy)
    d = scene_dict(n=64)
    d["R"] = 0.8
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    rc = cli.main(["stability", "--scene", str(scene), "--seed", "4",
                   "--out", str(tmp_path / "out"),
                   "--calibration", small_cal_file(tmp_path)])
    assert rc == 0
    assert radii == {"rellich": [0.8] * 5, "admissibility": [0.8] * 4}


def test_stability_stops_on_a_failed_solve(tmp_path, capsys):
    # a triangle in the grid's outer cell layer: the first solve fails, and
    # no support-stability record is written
    d = scene_dict(n=64)
    d["polytope"]["vertices"] = [[0.5, 0.0], [0.999, -0.04], [0.999, 0.04]]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(d))
    out = tmp_path / "o"
    rc = cli.main(["stability", "--scene", str(scene), "--seed", "4",
                   "--out", str(out), "--calibration", small_cal_file(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "SolverError" and err["command"] == "stability"
    assert not (out / "support_stability.csv").exists()


def test_error_reporting_is_json(tmp_path, capsys):
    rc = cli.main(["solve", "--scene", str(tmp_path / "missing.json"),
                   "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["command"] == "solve"
    assert "message" in err


def test_manifest_hash_covers_seed(tmp_path):
    class A:
        scene = None
        seed = 1
        tol = None
        calibration = None
        command = "solve"

    class B(A):
        seed = 2

    h1 = cli.manifest_hash(cli.load_manifest(A()))
    h2 = cli.manifest_hash(cli.load_manifest(B()))
    assert h1 != h2
