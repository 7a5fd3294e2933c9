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
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import cgo, geom, rellich, solver, stability
from .fields import (ContrastField, affine_contrast, centered_grid,
                     constant_contrast, hoelder_bump_contrast)
from .geom import Polytope, convex_polygon
from .rellich import Calibration
from .specfun import certify_hankel_bounds

SCHEMA_VERSION = 1
# the support-stability sweep shrinks the scene's polytope about its
# centroid by these fractions; the corner ladder sets these contrasts
SWEEP_OFFSETS = (0.02, 0.05, 0.1, 0.15, 0.2)
CORNER_CONTRASTS = (0.02, 0.05, 0.1, 0.2)
# the keys a manifest file and each scene may hold, all read by the CLI
MANIFEST_KEYS = frozenset({"scenes", "trials"})
SCENE_KEYS = frozenset({"schema_version", "polytope", "contrast", "k",
                        "omega", "grid", "R"})


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Scenes and manifests
# ---------------------------------------------------------------------------

def polytope_from_dict(d: dict) -> Polytope:
    return Polytope(d["dim"], np.asarray(d["vertices"], float), d["kind"])


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
    if not 0 < k < np.inf:
        raise CliError("k must be finite and > 0")
    omega = np.asarray(d["omega"], dtype=float)
    norm = np.linalg.norm(omega)
    if omega.shape != (P.dim,) or not 0 < norm < np.inf:
        raise CliError(f"omega must be a finite nonzero {P.dim}-vector")
    omega = omega / norm
    g = d["grid"]
    n, half_width = g["n"], float(g["half_width"])
    if not isinstance(n, int) or n < 1:
        raise CliError("grid n must be an integer >= 1")
    if not 0 < half_width < np.inf:
        raise CliError("grid half_width must be finite and > 0")
    grid = centered_grid(half_width, n, P.dim, g.get("center"))
    R = float(d.get("R", half_width))
    if not P.contained_in_ball(R, np.zeros(P.dim)):
        raise CliError("polytope escapes the scene ball B(0, R)")
    return V, k, omega, grid, R


def load_manifest(args) -> dict:
    """The --scene file (a manifest or one scene) or the default scene.
    A key nothing reads raises CliError: it would only change the hash."""
    if args.scene is None:
        manifest = {"scenes": [default_scene(args.command)]}
    else:
        with open(args.scene) as f:
            data = json.load(f)
        manifest = data if "scenes" in data else {"scenes": [data]}
        for d, known in ([(manifest, MANIFEST_KEYS)]
                         + [(s, SCENE_KEYS) for s in manifest["scenes"]]):
            if set(d) - known:
                raise CliError(f"unknown key(s) {sorted(set(d) - known)}")
    manifest.setdefault("command", args.command)
    manifest["seed"] = args.seed
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


def write_json(args, name: str, payload: dict, mhash: str) -> None:
    """Write payload, stamped with the manifest hash, to --out/name."""
    payload["manifest_hash"] = mhash
    write_text(os.path.join(args.out, name),
               json.dumps(payload, indent=2, sort_keys=True) + "\n",
               args.force)


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


def write_records(args, stem: str, seed: int, mhash: str, records) -> None:
    """Write a list of records to --out/stem.json and --out/stem.csv."""
    write_json(args, f"{stem}.json",
               {"seed": seed, "records": [asdict(r) for r in records]}, mhash)
    write_text(os.path.join(args.out, f"{stem}.csv"),
               f"# manifest_hash: {mhash}\n"
               + stability.records_to_csv(records), args.force)


def _calibrate(manifest: dict, k: float, dim: int) -> Calibration:
    return rellich.calibrate(k, dim=dim,
                             trials=int(manifest.get("trials", 100)),
                             seed=int(manifest["seed"]))


def load_calibration(manifest: dict, k: float, dim: int) -> Calibration:
    """The --calibration file if given, else a fresh calibration made as
    `calibrate` makes it."""
    path = manifest.get("calibration")
    if path:
        return Calibration.load(path)
    return _calibrate(manifest, k, dim)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    for i, scene in enumerate(manifest["scenes"]):
        V, k, omega, grid, R = build_scene(scene)
        sol = solver.solve_forward(V, k, omega, grid)
        write_text(os.path.join(args.out, f"scene{i:03d}_farfield.csv"),
                   far_field_csv(sol.far_field, mhash), args.force)
        write_json(args, f"scene{i:03d}_solve.json", {
            "scene_index": i,
            "k": k,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "far_field_l2": sol.far_field.l2_norm(),
        }, mhash)
    return 0


def cmd_calibrate(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    _, k, _, grid, R = build_scene(manifest["scenes"][0])
    cal = _calibrate(manifest, k, grid.dim)
    write_json(args, "calibration.json", asdict(cal), mhash)
    cert = certify_hankel_bounds(k * R, 4 * k * R, nu_max=40)
    write_json(args, "hankel_certificate.json", asdict(cert), mhash)
    return 0


def cmd_verify(args) -> int:
    manifest = load_manifest(args)
    mhash = manifest_hash(manifest)
    _, k, _, grid, _ = build_scene(manifest["scenes"][0])
    dim = grid.dim
    seed = int(manifest["seed"])
    rng = np.random.default_rng(seed)
    checks = []

    # geometry lemmas: hull-cone angle bounds on random polygon pairs
    polys = _random_polygons(rng, 400)
    bad = 0
    for P, Pp in zip(polys[0::2], polys[1::2]):
        rep = geom.check_q_angle(P, Pp)
        if not rep.vertex_ok and not rep.degenerate:
            bad += 1
    checks.append({"name": "geometry-q-angle", "passed": bad == 0,
                   "violations": bad, "trials": 200})

    # cone Laplace transform against quadrature, in the scene's dimension
    err = _cone_transform_error(dim)
    checks.append({"name": "cone-transform", "passed": err < 1e-6,
                   "max_error": err})

    # three-spheres inequality with the calibration at the scene's k and dim
    cal = load_calibration(manifest, k, dim)
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
    write_json(args, "verify.json", {"all_passed": ok, "checks": checks},
               mhash)
    return 0 if ok else 1


def _random_polygons(rng, count):
    """`count` random strictly convex counterclockwise polygons, drawn a
    block of candidates at a time.  A candidate has n uniform in 3..6,
    n sorted uniform angles, radii U(0.2, 0.6) and a centre
    U(-0.3, 0.3)^2.  It is rejected when two consecutive angles lie
    within 0.2, or when its vertices fail `convex_polygon`'s test; the
    others are returned in draw order."""
    j = np.arange(6)       # vertex slots; a candidate uses the first n
    polys = []
    while len(polys) < count:
        # about 2.5 candidates are drawn per accepted polygon
        m = 3 * (count - len(polys))
        n = rng.integers(3, 7, m)
        live = j < n[:, None]
        # unused angle slots hold nan, which sorts last
        ang = np.sort(np.where(live, rng.uniform(0, 2 * np.pi, (m, 6)),
                               np.nan), axis=1)
        spread = np.all((np.diff(ang, axis=1) >= 0.2) | ~live[:, 1:], axis=1)
        rad = rng.uniform(0.2, 0.6, (m, 6))
        center = rng.uniform(-0.3, 0.3, (m, 1, 2))
        pts = center + np.stack([rad * np.cos(ang), rad * np.sin(ang)],
                                axis=2)
        # Polytope's test: every turn strictly to the left
        nxt = np.take_along_axis(pts, ((j + 1) % n[:, None])[..., None], 1)
        prv = np.take_along_axis(pts, ((j - 1) % n[:, None])[..., None], 1)
        turn = geom._cross2(pts - prv, nxt - pts)
        convex = np.all((turn > 0) | ~live, axis=1)
        for row in np.flatnonzero(spread & convex)[:count - len(polys)]:
            polys.append(convex_polygon(pts[row, :n[row]]))
    return polys


def _random_polygon(rng):
    """One polygon drawn as `_random_polygons` draws them."""
    return _random_polygons(rng, 1)[0]


def _cone_transform_error(dim: int) -> float:
    """Relative error of `cgo.cone_laplace` against quadrature on a fixed
    cone: the 2D quarter plane, or a 3D trihedral that is no orthant."""
    if dim == 2:
        cone = geom.PolyCone(np.zeros(2), np.eye(2), "polyhedral")
        zeta = np.array([-1.0 + 0.3j, -0.8 - 0.2j])
    else:
        cone = geom.PolyCone(np.zeros(3), [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0],
                                           [0.2, 0.4, 1.0]], "polyhedral")
        zeta = np.array([-1.0 + 0.3j, -0.8 - 0.2j, -0.9 + 0.5j])
    exact = cgo.cone_laplace(cone, zeta).value
    approx = _cone_quadrature(cone, zeta)
    return abs(exact - approx) / abs(exact)


def _cone_quadrature(cone, zeta) -> complex:
    """Numerical Laplace transform of a simplicial cone, independent of
    the closed form.  The radial integral is exact,
    int_0^inf e^(r zeta.omega) r^(d-1) dr = (d-1)!/(-zeta.omega)^d,
    leaving a smooth integrand over the cone's unit directions omega,
    which `geom.cone_directions` at 32 nodes resolves to roundoff."""
    omega, w = geom.cone_directions(cone.generators, 32)
    d = cone.dim
    return complex(np.sum(w * math.factorial(d - 1)
                          / (-(omega @ np.asarray(zeta, dtype=complex))) ** d))


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

    pairs = [(V0, _shrunk_contrast(V0, t)) for t in SWEEP_OFFSETS]
    records = stability.run_support_stability_experiment(
        pairs, k, omega, grid, cal, R=R)
    write_records(args, "support_stability", seed, mhash, records)

    scenes = [constant_contrast(V0.polytope, c) for c in CORNER_CONTRASTS]
    corner = stability.run_corner_lower_bound_experiment(
        scenes, k, omega, grid, R=R)
    write_records(args, "corner_lower_bound", seed, mhash, corner)

    write_text(os.path.join(args.out, "plots.gp"),
               _gnuplot_script(mhash), args.force)
    return 0


def _shrunk_contrast(V: ContrastField, t: float) -> ContrastField:
    P = V.polytope
    c = P.vertices.mean(axis=0)
    Pp = Polytope(P.dim, c + (1 - t) * (P.vertices - c), P.kind)
    return ContrastField(Pp, V.phi, V.alpha, V.M, V.mu)


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
