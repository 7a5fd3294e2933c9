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
    assert V.polytope.n_vertices == 4


def test_build_scene_normalizes_direction():
    d = scene_dict()
    d["omega"] = [3.0, 4.0]
    _, _, omega, _, _ = cli.build_scene(d)
    np.testing.assert_allclose(omega, [0.6, 0.8])


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
