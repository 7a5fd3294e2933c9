"""Command-line front end: scene ingestion, experiment orchestration and
result persistence.

Subcommands: solve (forward solve + far-field files per scene), calibrate
(three-balls calibration + Hankel certificate), verify (invariant suites),
stability (support-stability sweep and corner lower-bound ladder).  All
outputs are deterministic functions of manifest + seed + calibration and
carry the manifest hash; files are never overwritten without --force.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import cgo, geom, rellich, solver, stability
from .fields import (ContrastField, affine_contrast, centered_grid,
                     constant_contrast, hoelder_bump_contrast)
from .geom import Polytope, convex_polygon
from .rellich import Calibration
from .specfun import certify_hankel_bounds

SCHEMA_VERSION = 1


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Scenes and manifests
# ---------------------------------------------------------------------------

def polytope_from_dict(d: dict) -> Polytope:
    return Polytope.from_json(json.dumps(d))


def contrast_from_dict(P: Polytope, cfg: dict) -> ContrastField:
    kind = cfg.get("kind")
    params = cfg.get("params", {})
    if kind == "constant":
        return constant_contrast(P, complex(*_pair(params["value"])))
    if kind == "affine":
        return affine_contrast(P, complex(*_pair(params["base"])),
                               params["gradient"])
    if kind == "hoelder-bump":
        return hoelder_bump_contrast(P, params["center"], params["alpha"],
                                     complex(*_pair(params["scale"])))
    raise CliError(f"unknown contrast kind {kind!r}")


def _pair(v):
    if isinstance(v, (list, tuple)):
        return float(v[0]), float(v[1])
    return float(v), 0.0


def build_scene(d: dict):
    """Scene dict -> (ContrastField, k, omega, grid, R)."""
    if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise CliError("unsupported scene schema version")
    P = polytope_from_dict(d["polytope"])
    V = contrast_from_dict(P, d["contrast"])
    k = float(d["k"])
    omega = np.asarray(d["omega"], dtype=float)
    omega = omega / np.linalg.norm(omega)
    g = d["grid"]
    grid = centered_grid(float(g["half_width"]), int(g["n"]), P.dim,
                         g.get("center"))
    R = float(d.get("R", g["half_width"]))
    if not P.contained_in_ball(R, np.zeros(P.dim)):
        raise CliError("polytope escapes the scene ball B(0, R)")
    return V, k, omega, grid, R


def load_manifest(args) -> dict:
    if args.scene is None:
        manifest = {"scenes": [default_scene(args.command)]}
    else:
        with open(args.scene) as f:
            data = json.load(f)
        if "scenes" in data:
            manifest = data
        else:
            manifest = {"scenes": [data]}
    manifest.setdefault("command", args.command)
    manifest["seed"] = args.seed
    if args.tol is not None:
        manifest["tol"] = args.tol
    if args.calibration:
        manifest["calibration"] = args.calibration
    return manifest


def manifest_hash(manifest: dict) -> str:
    text = json.dumps(manifest, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def default_scene(command: str) -> dict:
    square = convex_polygon([[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3],
                             [-0.3, 0.3]])
    return {
        "schema_version": SCHEMA_VERSION,
        "polytope": json.loads(square.to_json()),
        "contrast": {"kind": "constant", "params": {"value": 0.3}},
        "k": 2.0,
        "omega": [1.0, 0.0],
        "grid": {"half_width": 1.0, "n": 192},
        "R": 1.0,
    }


def write_text(path: str, text: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise CliError(f"refusing to overwrite {path} (use --force)")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def far_field_csv(ff: solver.FarFieldPattern, mhash: str) -> str:
    lines = [f"# manifest_hash: {mhash}"]
    if ff.dim == 2:
        lines.append("theta,re,im")
        theta = np.mod(np.arctan2(ff.directions[:, 1], ff.directions[:, 0]),
                       2 * np.pi)
        for t, v in zip(theta, ff.values):
            lines.append(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}")
    else:
        lines.append("theta,phi,re,im")
        x, y, z = ff.directions.T
        theta = np.arccos(np.clip(z, -1, 1))
        phi = np.mod(np.arctan2(y, x), 2 * np.pi)
        for t, p, v in zip(theta, phi, ff.values):
            lines.append(f"{float(t)!r},{float(p)!r},"
                         f"{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def load_calibration(manifest: dict, k: float, dim: int) -> Calibration:
    path = manifest.get("calibration")
    if path:
        return Calibration.load(path)
    return rellich.calibrate(k, dim=dim, trials=40,
                             seed=int(manifest["seed"]))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    tol = float(manifest.get("tol", 1e-8))
    for i, scene in enumerate(manifest["scenes"]):
        V, k, omega, grid, R = build_scene(scene)
        sol = solver.solve_forward(V, k, omega, grid, tol=tol)
        base = os.path.join(args.out, f"scene{i:03d}")
        write_text(base + "_farfield.csv",
                   far_field_csv(sol.far_field, mhash), args.force)
        report = {
            "manifest_hash": mhash,
            "scene_index": i,
            "k": k,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "far_field_l2": sol.far_field.l2_norm(),
        }
        write_text(base + "_solve.json", json.dumps(report, indent=2,
                                                    sort_keys=True) + "\n",
                   args.force)
    return 0


def cmd_calibrate(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    scene = manifest["scenes"][0]
    k = float(scene["k"])
    dim = len(scene["omega"])
    cal = rellich.calibrate(k, dim=dim, trials=int(manifest.get("trials", 100)),
                            seed=int(manifest["seed"]))
    payload = json.loads(cal.to_json())
    payload["manifest_hash"] = mhash
    write_text(os.path.join(args.out, "calibration.json"),
               json.dumps(payload, indent=2, sort_keys=True) + "\n",
               args.force)
    R = float(scene.get("R", 1.0))
    cert = certify_hankel_bounds(k * R, 4 * k * R, nu_max=40)
    cert_payload = json.loads(cert.to_json())
    cert_payload["manifest_hash"] = mhash
    write_text(os.path.join(args.out, "hankel_certificate.json"),
               json.dumps(cert_payload, indent=2, sort_keys=True) + "\n",
               args.force)
    return 0


def cmd_verify(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    seed = int(manifest["seed"])
    rng = np.random.default_rng(seed)
    checks = []

    # geometry lemmas: hull-cone angle bounds on random polygon pairs
    bad = 0
    for _ in range(200):
        P, Pp = _random_polygon_pair(rng)
        rep = geom.check_q_angle(P, Pp)
        if not rep.vertex_ok and not rep.degenerate:
            bad += 1
    checks.append({"name": "geometry-q-angle", "passed": bad == 0,
                   "violations": bad, "trials": 200})

    # cone Laplace transform against quadrature
    err = _cone_transform_error()
    checks.append({"name": "cone-transform", "passed": err < 1e-6,
                   "max_error": err})

    # three-spheres inequality with the calibration at the scene's k and dim
    scene = manifest["scenes"][0]
    dim = len(scene["omega"])
    cal = load_calibration(manifest, float(scene["k"]), dim)
    viol = 0
    for _ in range(50):
        f = rellich.random_helmholtz_field(cal.k, dim, rng)
        x = rng.uniform(-0.4, 0.4, dim)
        r = rng.uniform(cal.R_m / 8, cal.R_m / 4 * 0.99)
        res = rellich.three_spheres_check(f, x, r, rng)
        if res.degenerate:
            continue
        if res.lhs > res.rhs(1 - 3 * cal.c1 / 4, cal.C) * (1 + 1e-9):
            viol += 1
    checks.append({"name": "three-spheres", "passed": viol == 0,
                   "violations": viol, "trials": 50})

    # orthogonality identity on the trivial V = 0 configuration
    rep = _orthogonality_trivial()
    checks.append({"name": "orthogonality-trivial",
                   "passed": rep.mismatch < 1e-6,
                   "mismatch": rep.mismatch})

    ok = all(c["passed"] for c in checks)
    report = {"manifest_hash": mhash, "all_passed": ok, "checks": checks}
    write_text(os.path.join(args.out, "verify.json"),
               json.dumps(report, indent=2, sort_keys=True) + "\n",
               args.force)
    return 0 if ok else 1


def _random_polygon_pair(rng):
    while True:
        try:
            P = _random_polygon(rng)
            Pp = _random_polygon(rng)
            return P, Pp
        except geom.GeometryError:
            continue


def _random_polygon(rng):
    n = int(rng.integers(3, 7))
    ang = np.sort(rng.uniform(0, 2 * np.pi, n))
    if np.min(np.diff(ang)) < 0.2:
        raise geom.GeometryError("angles too close")
    rad = rng.uniform(0.2, 0.6, n)
    center = rng.uniform(-0.3, 0.3, 2)
    pts = center + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    return convex_polygon(pts)


def _cone_transform_error() -> float:
    cone = geom.PolyCone(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0]]),
                         "polyhedral")
    zeta = np.array([-1.0 + 0.3j, -0.8 - 0.2j])
    exact = cgo.cone_laplace(cone, zeta).value
    approx = _cone_quadrature(cone, zeta)
    return abs(exact - approx) / abs(exact)


def _cone_quadrature(cone, zeta, n: int = 400) -> complex:
    """Numerical cone Laplace transform, independent of the closed form.

    2D: the radial integral is exact, leaving a smooth angular integrand
    1/(omega(theta).zeta)^2 handled by Gauss-Legendre.  3D (three
    generators): the integral factorizes into per-generator line
    integrals, each on a truncated interval long enough for the
    exponential tail to vanish."""
    zeta = np.asarray(zeta, dtype=complex)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    if cone.dim == 2:
        g1, g2 = cone.generators
        t1, t2 = np.arctan2(g1[1], g1[0]), np.arctan2(g2[1], g2[0])
        if (t2 - t1) % (2 * np.pi) > np.pi:
            t1, t2 = t2, t1
        t2 = t1 + (t2 - t1) % (2 * np.pi)
        th = 0.5 * (t2 - t1) * nodes + 0.5 * (t1 + t2)
        omega = np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = 1.0 / (omega @ zeta) ** 2
        return complex(np.sum(weights * vals) * 0.5 * (t2 - t1))
    det = abs(np.linalg.det(cone.generators))
    out = det
    for g in cone.generators:
        c = complex(g @ zeta)
        if c.real >= 0:
            raise CliError("cone transform quadrature diverges")
        L = 60.0 / abs(c.real)
        s = 0.5 * L * (nodes + 1.0)
        out *= complex(np.sum(weights * np.exp(c * s)) * 0.5 * L)
    return out


def _orthogonality_trivial():
    from .fields import plane_wave
    grid = centered_grid(0.5, 96, 2)
    k = 2.0
    u = plane_wave(k, [1.0, 0.0], grid)
    P = convex_polygon([[0.3, 0.3], [0.45, 0.3], [0.45, 0.45], [0.3, 0.45]])
    V = constant_contrast(P, 0.0)
    cone = geom.PolyCone(np.array([-0.2, -0.2]),
                         np.array([[1.0, 0.0], [0.0, 1.0]]), "polyhedral")
    return stability.check_orthogonality(V, u, u, u, cone, 0.15, k,
                                         n_volume=96, n_boundary=128)


def cmd_stability(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    seed = int(manifest["seed"])
    scene = manifest["scenes"][0]
    V0, k, omega, grid, R = build_scene(scene)
    cal = load_calibration(manifest, k, grid.dim)

    offsets = manifest.get("offsets", [0.02, 0.05, 0.1, 0.15, 0.2])
    pairs = []
    for t in offsets:
        pairs.append((V0, _shrunk_contrast(V0, t)))
    records = stability.run_support_stability_experiment(
        pairs, k, omega, grid, cal, tol=float(manifest.get("tol", 1e-8)))
    write_text(os.path.join(args.out, "support_stability.json"),
               _records_json(records, mhash, seed), args.force)
    write_text(os.path.join(args.out, "support_stability.csv"),
               f"# manifest_hash: {mhash}\n"
               + stability.records_to_csv(records), args.force)

    ladder = manifest.get("contrasts", [0.02, 0.05, 0.1, 0.2])
    scenes = [constant_contrast(V0.polytope, c) for c in ladder]
    corner = stability.run_corner_lower_bound_experiment(
        scenes, k, omega, grid, cal, tol=float(manifest.get("tol", 1e-8)))
    write_text(os.path.join(args.out, "corner_lower_bound.json"),
               _records_json(corner, mhash, seed), args.force)
    write_text(os.path.join(args.out, "corner_lower_bound.csv"),
               f"# manifest_hash: {mhash}\n"
               + stability.records_to_csv(corner), args.force)

    write_text(os.path.join(args.out, "plots.gp"),
               _gnuplot_script(mhash), args.force)
    return 0


def _shrunk_contrast(V: ContrastField, t: float) -> ContrastField:
    P = V.polytope
    c = P.vertices.mean(axis=0)
    Pp = convex_polygon(c + (1 - t) * (P.vertices - c)) if P.dim == 2 \
        else Polytope(P.dim, c + (1 - t) * (P.vertices - c), P.kind)
    return ContrastField(Pp, V.phi, V.alpha, V.M, V.mu)


def _records_json(records, mhash: str, seed: int) -> str:
    return json.dumps({"manifest_hash": mhash, "seed": seed,
                       "records": [r.to_dict() for r in records]},
                      indent=2, sort_keys=True) + "\n"


def _gnuplot_script(mhash: str) -> str:
    return f"""# manifest_hash: {mhash}
set datafile separator ','
set logscale y
set xlabel 'far-field difference'
set ylabel 'Hausdorff distance / bound'
plot 'support_stability.csv' using 1:2 with points title 'measured', \\
     'support_stability.csv' using 1:4 with lines title 'bound'
pause -1
set xlabel 'contrast at corner'
set ylabel 'far-field norm'
plot 'corner_lower_bound.csv' using 4:1 with linespoints title 'measured'
pause -1
"""


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyscat",
        description="Helmholtz scattering by penetrable polytopes: forward "
                    "solves, calibration, invariant checks and stability "
                    "experiments.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("calibrate", cmd_calibrate),
                     ("verify", cmd_verify), ("stability", cmd_stability)):
        p = sub.add_parser(name)
        p.add_argument("--scene", help="scene or manifest JSON file")
        p.add_argument("--out", default=os.environ.get("POLYSCAT_OUT", "out"),
                       help="output directory")
        p.add_argument("--seed", type=int, required=True,
                       help="master seed (mandatory for reproducibility)")
        p.add_argument("--calibration", help="calibration JSON path")
        p.add_argument("--tol", type=float, help="solver tolerance override")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        err = {"error": type(exc).__name__, "message": str(exc),
               "command": getattr(args, "command", None)}
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
