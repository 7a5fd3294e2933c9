"""Seeded workloads of the polyscat benchmark.

Each workload turns the run seed into a schedule of scenes, runs one op
per scene through the package's public functions or `cli.main`, and checks
every op against an oracle that does not share the code path it checks:

- 2D discs: the separation-of-variables (Mie) series in tests/oracles.py;
- 3D spheres: the spherical Mie series in mie3d.py;
- 3D cuboids: the optical theorem (energy balance of a lossless scatterer);
- 2D polygons and the corner chain: the vertex orthogonality identity;
- CLI sessions: exit codes, verify.json, finite records and the manifest
  hash of every output file, recomputed here from the documented rule.

A schedule repeats a fixed cycle of slots.  A slot fixes what sets an
op's cost and its oracle error (scene kind, grid, which band of k, disc
radius, the corner where the identity is checked) and the seed draws the
rest (k inside its band, shapes, contrast values, incident direction).
So runs with different seeds measure the same mix, and any run length
covers it evenly.  Every package call goes through a module attribute
(`solver.solve_forward`, not an imported name), so the traced run sees
it.
"""

import hashlib
import importlib.util
import itertools
import json
import os
import shutil
from collections import defaultdict

import numpy as np

from polyscat import cgo, cli, fields, geom, rellich, solver, stability

import mie3d

# Oracle tolerances.  A check above its tolerance counts as a failed op.
MIE_TOL = 0.05          # relative L2 error against the Mie series
# The identity's mismatch at n = 192 is the grid's discretisation error and
# grows as the probed vertex gets sharper: up to about 9 % over 48 seeded
# chain scenes.  The tolerance is about twice the worst of those.
ORTH_TOL = 0.20         # relative mismatch of the orthogonality identity
OPTICAL_TOL = 1e-2      # relative energy imbalance (optical theorem)
ORTH_H = 0.1            # truncation radius of the vertex cone
ORTH_FD = ORTH_H / 128  # normal-derivative step; h/32 adds up to 10 %
# (interior angle, inward bisector direction) in degrees of the vertex where
# the orthogonality identity is checked, cycled along a schedule.  The
# identity's error at a given grid depends mostly on this local geometry,
# so fixing it per slot keeps the worst mismatch of a run steady while
# every run still sees a sharp, a right and an obtuse corner, none of them
# with edges along the grid axes.
PROBE_VERTICES = ((60.0, 20.0), (90.0, 115.0), (120.0, 250.0))
PROBE_OFFSET = np.array([0.31, 0.67])   # generic, off every symmetry


def load_test_oracles(root):
    """tests/oracles.py, loaded by path so nothing else under tests/ is
    imported."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("polyscat_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def slot_value(rng, i, period, lo, hi, stride=5):
    """A value for op i: slot i % period owns one of `period` equal bands
    of [lo, hi], visited in a spread-out order (stride is coprime to the
    period), and the seed places the value inside the band."""
    band = (stride * (i % period)) % period
    return lo + (hi - lo) * (band + rng.uniform()) / period


def unit2(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def random_unit3(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def circle_points(radius, count):
    th = 2 * np.pi * (np.arange(count) + 0.5) / count
    return radius * np.stack([np.cos(th), np.sin(th)], axis=1)


def vertex_frame(v, index=0):
    """Interior angle at a vertex and the direction of its inward
    bisector, both in degrees."""
    a = v[(index + 1) % len(v)] - v[index]
    b = v[index - 1] - v[index]
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    bis = a + b
    return (float(np.degrees(np.arccos(np.clip(np.dot(a, b), -1, 1)))),
            float(np.degrees(np.arctan2(bis[1], bis[0]))))


def random_polygon(rng, area, min_edge, probe=None, grid=None,
                   max_radius=0.75):
    """Convex polygon with 3 to 6 vertices, one per angular sector, scaled
    to the given area, with every edge at least min_edge and every vertex
    within max_radius of the origin.

    probe = (angle, bisector) in degrees fixes the geometry at vertex 0,
    where the orthogonality identity is checked: its interior angle lies
    within 3 degrees of `angle` and the polygon is rotated about the
    origin so that the inward bisector there points along `bisector`.
    Given the grid, the polygon is then shifted by less than one cell so
    that vertex 0 sits at PROBE_OFFSET within its cell: the identity's
    error changes by tens of percent with that sub-cell position."""
    while True:
        m = int(rng.integers(3, 7))
        ang = ((np.arange(m) + rng.uniform(0.25, 0.75, m)) * 2 * np.pi / m
               + rng.uniform(0, 2 * np.pi))
        rad = rng.uniform(0.8, 1.0, m)
        v = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        x, y = v.T
        shoelace = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
        v = v * np.sqrt(area / shoelace)
        if np.min(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)) < min_edge:
            continue
        if np.max(np.linalg.norm(v, axis=1)) > max_radius:
            continue
        if probe is not None:
            angle, direction = vertex_frame(v)
            if abs(angle - probe[0]) > 3.0:
                continue
            t = np.radians(probe[1] - direction)
            v = v @ np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        if grid is not None:
            cell = np.floor((v[0] - grid.origin) / grid.spacing)
            v = v + grid.origin + grid.spacing * (cell + PROBE_OFFSET) - v[0]
            if np.max(np.linalg.norm(v, axis=1)) > max_radius:
                continue
        try:
            return geom.convex_polygon(v)
        except geom.GeometryError:
            continue


CONTRAST_KINDS = ("constant", "affine", "hoelder-bump")


def contrast_params(rng, P, kind):
    """Parameters of a real contrast of the given kind, in the CLI's scene
    format."""
    if kind == "constant":
        return {"value": float(rng.uniform(0.3, 0.35))}
    if kind == "affine":
        return {"base": float(rng.uniform(0.3, 0.35)),
                "gradient": rng.uniform(-0.1, 0.1, P.dim).tolist()}
    return {"center": P.vertices[0].tolist(),
            "alpha": float(rng.uniform(0.6, 0.8)),
            "scale": float(rng.uniform(0.17, 0.2))}


def make_contrast(P, kind, params):
    return cli.contrast_from_dict(P, {"kind": kind, "params": params})


def vertex_cones(P, index=0):
    """The polyhedral cone of P at a vertex (generators along its two
    edges) and the spherical cone around its inward bisector."""
    v = P.vertices
    x_c = v[index]
    g1 = v[(index + 1) % len(v)] - x_c
    g2 = v[index - 1] - x_c
    g1 /= np.linalg.norm(g1)
    g2 /= np.linalg.norm(g2)
    axis = (g1 + g2) / np.linalg.norm(g1 + g2)
    p_cone = geom.PolyCone(x_c, np.array([g1, g2]), "polyhedral")
    q_cone = geom.PolyCone(x_c, axis[None], "spherical",
                           half_angle=0.45 * np.pi)
    return x_c, p_cone, q_cone


def rel_err(values, reference):
    return float(np.linalg.norm(values - reference) / np.linalg.norm(reference))


class Workload:
    """A schedule of scenes, the op run on each, and the oracle check of
    each op's output.

    `schedule` yields the seeded scenes one at a time, so a run draws only
    the scenes it runs, outside the op timer; each call starts the same
    sequence afresh.

    `check` returns (passed, {metric name: value}).  The accuracy metrics
    are the worst values over the checks of the first `accuracy_ops` ops,
    a set fixed by the seed, so they do not depend on how many ops fit in
    a run; the loop always runs at least that many.  `needs_probe` names
    the accuracy metrics this workload's own ops cannot check, which the
    run then takes from `reference_probe`.
    """

    name = ""
    needs_probe = ()
    period = 1
    accuracy_ops = 1

    def schedule(self):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def op(self, scene):
        raise NotImplementedError

    def check(self, scene, out):
        raise NotImplementedError

    def close(self):
        pass


# ---------------------------------------------------------------------------
# forward-2d
# ---------------------------------------------------------------------------

# disc radii of the four disc slots of a cycle; the staircase error of a
# disc changes erratically with its radius (0.1 % to 0.6 % at n = 192)
DISC_RADII = (0.38, 0.40, 0.42, 0.36)
NF_PROBE_2D = circle_points(0.9, 32)


class Forward2D(Workload):
    """Fresh 2D scenes: discs (Mie oracle) and convex polygons carrying
    constant, affine or Hoelder contrast (orthogonality oracle).
    Each op solves, evaluates the far field and a 32-point near-field
    probe.  No two ops share (grid shape, k), so a cross-solve cache can
    never hit.  A cycle has 12 slots: four discs and eight polygons, a
    quarter of them at n = 256, each slot with its own band of k in
    [1.5, 6]."""

    name = "forward-2d"
    period = 12
    accuracy_ops = 24

    def __init__(self, seed, oracles):
        self.seed = seed
        self.oracles = oracles

    def schedule(self):
        rng = np.random.default_rng([self.seed, 1])
        keys = set()
        for i in itertools.count():
            s = i % self.period
            theta = slot_value(rng, i, self.period, 0.0, 2 * np.pi, stride=7)
            scene = {"k": slot_value(rng, i, self.period, 1.5, 6.0),
                     "n": 256 if s % 4 == 3 else 192,
                     "theta": theta, "omega": unit2(theta)}
            if s % 3 == 0:
                scene.update(kind="disc", a=DISC_RADII[s // 3],
                             phi=float(rng.uniform(0.25, 0.35)))
            else:
                p = s - s // 3 - 1
                P = random_polygon(rng, float(rng.uniform(0.3, 0.4)), 0.25,
                                   PROBE_VERTICES[p % 3],
                                   fields.centered_grid(1.0, scene["n"], 2))
                kind = CONTRAST_KINDS[(p + p // 3) % 3]
                scene.update(kind="polygon",
                             V=make_contrast(P, kind, contrast_params(rng, P, kind)))
            key = (scene["n"], scene["n"], scene["k"])
            if key in keys:
                raise RuntimeError("two forward-2d ops share (grid shape, k)")
            keys.add(key)
            yield scene

    def contrast(self, scene):
        if scene["kind"] == "disc":
            return self.oracles.DiscContrast(scene["a"], scene["phi"])
        return scene["V"]

    def op(self, scene):
        return solve_2d(self.contrast(scene), scene)

    def warm_up(self):
        for scene, _ in zip(self.schedule(), range(2)):
            scene = dict(scene, n=64)
            self.check(scene, self.op(scene))

    def check(self, scene, out):
        if scene["kind"] == "disc":
            return check_disc(self.oracles, scene, out)
        mis = total_field_orthogonality(scene["V"], out["sol"], scene["k"],
                                        scene["omega"])
        return mis <= ORTH_TOL, {"orth_mismatch": mis}


def solve_2d(V, scene):
    """The forward-2d op: solve, far field, 32-point near-field probe."""
    grid = fields.centered_grid(1.0, scene["n"], 2)
    sol = solver.solve_forward(V, scene["k"], scene["omega"], grid)
    near = solver.scattered_at_points(sol, NF_PROBE_2D)
    return {"sol": sol, "near": near}


def check_disc(oracles, scene, out):
    """Far field and near-field probe of a disc against the Mie series,
    whose incident wave travels along +x: rotate by the incident angle."""
    k, a, phi, th0 = scene["k"], scene["a"], scene["phi"], scene["theta"]
    ff = out["sol"].far_field
    th = np.arctan2(ff.directions[:, 1], ff.directions[:, 0])
    ref = oracles.mie_far_field(k, a, phi, th - th0)
    r = np.linalg.norm(NF_PROBE_2D, axis=1)
    ph = np.arctan2(NF_PROBE_2D[:, 1], NF_PROBE_2D[:, 0]) - th0
    ref_nf = oracles.mie_scattered_field(
        k, a, phi, np.stack([r * np.cos(ph), r * np.sin(ph)], axis=1))
    m = {"ff_rel_err": rel_err(ff.values, ref),
         "nf_rel_err": rel_err(out["near"], ref_nf)}
    return max(m.values()) <= MIE_TOL, m


def total_field_orthogonality(V, sol, k, omega):
    """Orthogonality identity at vertex 0 with u' the incident plane wave
    and u0 the total field (both solve the equations the identity
    assumes), at n_volume = 192, n_boundary = 256."""
    _, p_cone, _ = vertex_cones(V.polytope)
    grid = sol.total.grid
    up = fields.plane_wave(k, omega, grid)
    rep = stability.check_orthogonality(V, sol.total, up, sol.total, p_cone,
                                        h=ORTH_H, k=k, n_volume=192,
                                        n_boundary=256, fd_step=ORTH_FD)
    return rep.relative_mismatch


# ---------------------------------------------------------------------------
# forward-3d
# ---------------------------------------------------------------------------

SPHERE_RADII = (0.30, 0.32, 0.34)
NF_PROBE_3D = 0.8 * solver.default_directions(3, 32)


class Forward3D(Workload):
    """Spheres (Mie oracle) alternate with rotated cuboids carrying a real
    contrast (optical-theorem oracle), at n = 48 and 64.  Each op solves,
    evaluates the 3D far field, its spherical-harmonic decomposition and a
    32-point near-field probe.  A cycle has 12 slots with k in [1.5, 3.5]:
    six spheres covering the six (radius, grid) pairs, whose staircase
    errors differ tenfold, and six cuboids at n = 48."""

    name = "forward-3d"
    needs_probe = ("orth_mismatch",)
    period = 12
    accuracy_ops = 12

    def __init__(self, seed):
        self.seed = seed

    def schedule(self):
        rng = np.random.default_rng([self.seed, 3])
        for i in itertools.count():
            s = i % self.period
            scene = {"k": slot_value(rng, i, self.period, 1.5, 3.5),
                     "omega": random_unit3(rng)}
            j = s // 2
            if s % 2 == 0:
                scene.update(kind="sphere", n=(48, 64)[j % 2],
                             a=SPHERE_RADII[j // 2],
                             phi=float(rng.uniform(0.3, 0.5)))
            else:
                rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                P = geom.cuboid(rng.uniform(-0.05, 0.05, 3),
                                rng.uniform(0.22, 0.32, 3), rotation=rot)
                kind = CONTRAST_KINDS[j % 3]
                scene.update(kind="cuboid", n=48,
                             V=make_contrast(P, kind, contrast_params(rng, P, kind)))
            yield scene

    def op(self, scene):
        grid = fields.centered_grid(1.0, scene["n"], 3)
        V = (mie3d.BallContrast(scene["a"], scene["phi"])
             if scene["kind"] == "sphere" else scene["V"])
        sol = solver.solve_forward(V, scene["k"], scene["omega"], grid)
        dec = rellich.decompose_far_field(sol.far_field)
        near = solver.scattered_at_points(sol, NF_PROBE_3D)
        return {"sol": sol, "dec": dec, "near": near}

    def warm_up(self):
        for scene, _ in zip(self.schedule(), range(2)):
            self.op(dict(scene, n=24))

    def check(self, scene, out):
        sol = out["sol"]
        k, omega = scene["k"], scene["omega"]
        ff = sol.far_field
        if not np.all(np.isfinite(out["dec"].b)):
            return False, {}
        if scene["kind"] == "sphere":
            ref = mie3d.sphere_far_field(k, scene["a"], scene["phi"], omega,
                                         ff.directions)
            ref_nf = mie3d.sphere_scattered_field(k, scene["a"], scene["phi"],
                                                  omega, NF_PROBE_3D)
            m = {"ff_rel_err": rel_err(ff.values, ref),
                 "nf_rel_err": rel_err(out["near"], ref_nf)}
            return max(m.values()) <= MIE_TOL, m
        # optical theorem for a lossless scatterer: the scattered power
        # int |A|^2 equals (4 pi / k) Im A(omega)
        fwd = solver.far_field_from_volume(scene["V"].evaluate(sol.total.grid),
                                           sol.total, k, omega[None, :])
        power = ff.l2_norm() ** 2
        imbalance = abs(power - 4 * np.pi / k * fwd.values[0].imag) / power
        return imbalance <= OPTICAL_TOL, {}


# ---------------------------------------------------------------------------
# corner-chain-2d
# ---------------------------------------------------------------------------

CHAIN_TAUS = (10.0, 20.0, 40.0)
CHAIN_AREA = 0.36
# one annulus for every scene: the cost of a Hankel evaluation depends on
# its argument k|x - y|, so a per-scene annulus would add cost variance
CHAIN_ANNULUS = (0.7, 1.4)


class CornerChain2D(Workload):
    """One polygon scene per op at n = 192, then every step after the
    solve: calibration, the annulus near field (8 x 96 points), the
    far-field decomposition, the Rellich pipeline in its saturated and its
    decay regime (the latter certifies Hankel bounds), a tau-ladder of CGO
    solutions, the orthogonality identity at criterion 6's configuration
    and the estimate budget.  Every polygon has the same area and the same
    annulus, so the near field, the largest step, costs nearly the same on
    every op.  A cycle has 6 slots: the three probed corners, each with two
    contrast kinds, and k in [1.8, 2.6]."""

    name = "corner-chain-2d"
    needs_probe = ("ff_rel_err", "nf_rel_err")
    period = 6
    accuracy_ops = 6

    def __init__(self, seed):
        self.seed = seed

    def schedule(self):
        rng = np.random.default_rng([self.seed, 4])
        for i in itertools.count():
            s = i % self.period
            P = random_polygon(rng, CHAIN_AREA, 0.3, PROBE_VERTICES[s % 3],
                               fields.centered_grid(1.0, 192, 2),
                               max_radius=CHAIN_ANNULUS[0] - 0.05)
            if not geom.admissibility_report(P, R=1.0).ok:
                raise RuntimeError("corner-chain scene is not admissible")
            kind = CONTRAST_KINDS[(s + s // 3) % 3]
            theta = slot_value(rng, i, self.period, 0.0, 2 * np.pi, stride=1)
            yield {
                "index": i, "n": 192,
                "k": slot_value(rng, i, self.period, 1.8, 2.6),
                "omega": unit2(theta),
                "V": make_contrast(P, kind, contrast_params(rng, P, kind)),
                "log_ratios": (float(rng.uniform(2.0, 8.0)),
                               float(rng.uniform(200.0, 400.0)))}

    def op(self, scene, n_radial=8, n_angular=96, n_volume=256,
           n_boundary=512):
        k, V = scene["k"], scene["V"]
        P = V.polytope
        grid = fields.centered_grid(1.0, scene["n"], 2)
        cal = rellich.calibrate(k, dim=2, trials=40,
                                seed=self.seed * 1000 + scene["index"])
        sol = solver.solve_forward(V, k, scene["omega"], grid)
        near, _ = solver.near_field_on_annulus(sol, *CHAIN_ANNULUS,
                                               n_radial, n_angular)
        dec = rellich.decompose_far_field(sol.far_field)
        S = max(1.0, fields.h2_surrogate(sol.scattered))
        pipes = [rellich.quantitative_rellich(None, S, k, 1.0, cal, T=S,
                                              log_ratio=lr)
                 for lr in scene["log_ratios"]]
        x_c, p_cone, q_cone = vertex_cones(P)
        ladder = {}
        for tau in CHAIN_TAUS:
            d = cgo.build_direction(q_cone, k, tau)
            ladder[tau] = (d,) + cgo.build_cgo(V, k, d, grid)
        d, u0, psi = ladder[20.0]
        up = fields.plane_wave(k, scene["omega"], grid)
        orth = stability.check_orthogonality(
            V, sol.total, up, u0, p_cone, h=ORTH_H, k=k, n_volume=n_volume,
            n_boundary=n_boundary, fd_step=ORTH_FD)
        case = cgo.faddeev_decay_case(2)
        u_prime_xc = complex(np.exp(1j * k * np.dot(scene["omega"], x_c)))
        budget = stability.assemble_budget(
            V, x_c, ORTH_H, d, p_cone, u_prime_xc,
            cgo.lp_norm(psi.values, case.p, grid.cell_volume),
            fields.h2_surrogate(psi), pipes[1].boundary_bound, S, case.p)
        return {"near": near, "dec": dec, "pipes": pipes, "orth": orth,
                "budget": budget}

    def warm_up(self):
        scene = dict(next(self.schedule()), n=96)
        self.op(scene, n_radial=2, n_angular=16, n_volume=64, n_boundary=64)

    def check(self, scene, out):
        mis = out["orth"].relative_mismatch
        budget = out["budget"]
        ok = (mis <= ORTH_TOL
              and [p.regime for p in out["pipes"]] == ["saturated", "decay"]
              and np.all(np.isfinite(out["near"].values))
              and np.all(np.isfinite(out["dec"].b))
              and np.isfinite(budget.total) and budget.lhs > 0)
        return bool(ok), {"orth_mismatch": mis}


# ---------------------------------------------------------------------------
# cli-stability
# ---------------------------------------------------------------------------

CLI_OUTPUTS = {
    "calibrate": ("calibration.json", "hankel_certificate.json"),
    "solve": ("scene000_solve.json", "scene000_farfield.csv"),
    "verify": ("verify.json",),
    "stability": ("support_stability.json", "support_stability.csv",
                  "corner_lower_bound.json", "corner_lower_bound.csv",
                  "plots.gp"),
}


class CliStability(Workload):
    """One user session per op on a seeded admissible polygon scene:
    calibrate, solve, verify and stability through `cli.main`, each into a
    fresh --out directory, with verify and stability reading the
    calibration file that calibrate wrote.  A cycle has 12 slots, each with
    its own band of k in [1.5, 3] and of support area in [0.2, 0.4]."""

    name = "cli-stability"
    needs_probe = ("ff_rel_err", "nf_rel_err", "orth_mismatch")
    period = 12
    R = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def schedule(self):
        rng = np.random.default_rng([self.seed, 2])
        for i in itertools.count():
            # contained in B(0, R) by construction: every vertex lies
            # within 0.75 of the origin
            area = slot_value(rng, i, self.period, 0.2, 0.4, stride=7)
            P = random_polygon(rng, area, 0.2)
            rep = geom.admissibility_report(P, R=self.R)
            if not rep.ok:
                raise RuntimeError(f"cli scene not admissible: {rep.violations}")
            kind = CONTRAST_KINDS[i % 3]
            theta = float(rng.uniform(0, 2 * np.pi))
            yield {
                "index": i,
                "scene": {
                    "schema_version": cli.SCHEMA_VERSION,
                    "polytope": json.loads(P.to_json()),
                    "contrast": {"kind": kind,
                                 "params": contrast_params(rng, P, kind)},
                    "k": slot_value(rng, i, self.period, 1.5, 3.0),
                    "omega": unit2(theta).tolist(),
                    "grid": {"half_width": 1.0, "n": 128},
                    "R": self.R}}

    def session(self, scene, tag):
        base = os.path.join(self.workdir, tag)
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        path = os.path.join(base, "scene.json")
        with open(path, "w") as f:
            json.dump(scene["scene"], f)
        seed = str(self.seed)
        out = os.path.join(base, "out")
        cal = os.path.join(out, "calibration.json")
        argvs = {"calibrate": [], "solve": [], "verify": ["--calibration", cal],
                 "stability": ["--calibration", cal]}
        codes = {}
        for cmd, extra in argvs.items():
            codes[cmd] = cli.main([cmd, "--scene", path, "--seed", seed,
                                   "--out", out] + extra)
        return {"dir": base, "path": path, "out": out, "codes": codes,
                "argvs": argvs}

    def op(self, scene):
        return self.session(scene, f"op{scene['index']:03d}")

    def warm_up(self):
        scene = next(self.schedule())
        scene["scene"]["grid"]["n"] = 48
        out = self.session(scene, "warmup")
        shutil.rmtree(out["dir"], ignore_errors=True)

    def check(self, scene, out):
        try:
            return self._check(scene, out), {}
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, scene, out):
        if any(code != 0 for code in out["codes"].values()):
            return False
        for cmd, extra in out["argvs"].items():
            manifest = {"scenes": [scene["scene"]], "command": cmd,
                        "seed": self.seed}
            if extra:
                manifest["calibration"] = extra[1]
            text = json.dumps(manifest, sort_keys=True, default=str)
            want = hashlib.sha256(text.encode()).hexdigest()[:16]
            for name in CLI_OUTPUTS[cmd]:
                with open(os.path.join(out["out"], name)) as f:
                    body = f.read()
                if name.endswith(".json"):
                    got = json.loads(body).get("manifest_hash")
                else:
                    got = body.splitlines()[0].removeprefix("# manifest_hash: ")
                if got != want:
                    return False
        with open(os.path.join(out["out"], "verify.json")) as f:
            if json.load(f)["all_passed"] is not True:
                return False
        with open(os.path.join(out["out"], "support_stability.json")) as f:
            support = json.load(f)["records"]
        with open(os.path.join(out["out"], "corner_lower_bound.json")) as f:
            corner = json.load(f)["records"]
        finite = ([r[key] for r in support for key in ("epsilon", "hausdorff", "S")]
                  + [r[key] for r in corner
                     for key in ("ff_norm", "separation", "ell")])
        return (len(support) == 5 and len(corner) == 4
                and all(np.isfinite(x) for x in finite)
                and all(r["ff_norm"] >= r["bound"] for r in corner))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reference probe for the accuracy metrics a workload's ops cannot check
# ---------------------------------------------------------------------------

# incident directions of the probe's disc, one in each of as many equal
# bands of [0, pi/4); the grid's symmetries map every direction into that
# range, and the worst of several is steadier than one
PROBE_DISC_DIRECTIONS = 4


def reference_probe(seed, oracles, needs):
    """A 2D disc (k = 4, radius 0.38, contrast 0.3) against Mie at
    PROBE_DISC_DIRECTIONS seeded incident directions, and criterion 6's
    0.7 square (contrast 0.4, k = 2) through the total-field orthogonality
    identity at one, all at n = 192.  Returns (passed, {metric name: list
    of checked values})."""
    rng = np.random.default_rng([seed, 99])
    omega = unit2(float(rng.uniform(0, 2 * np.pi)))
    grid = fields.centered_grid(1.0, 192, 2)
    metrics = defaultdict(list)
    passed = True
    if "ff_rel_err" in needs or "nf_rel_err" in needs:
        for j in range(PROBE_DISC_DIRECTIONS):
            theta = slot_value(rng, j, PROBE_DISC_DIRECTIONS, 0.0, np.pi / 4,
                               stride=1)
            disc = {"k": 4.0, "a": 0.38, "phi": 0.3, "theta": theta,
                    "omega": unit2(theta), "n": 192}
            ok, m = check_disc(oracles, disc,
                               solve_2d(oracles.DiscContrast(0.38, 0.3), disc))
            passed &= ok
            for key in ("ff_rel_err", "nf_rel_err"):
                if key in needs:
                    metrics[key].append(m[key])
    if "orth_mismatch" in needs:
        P = geom.convex_polygon([[-0.35, -0.35], [0.35, -0.35], [0.35, 0.35],
                                 [-0.35, 0.35]])
        V = fields.constant_contrast(P, 0.4)
        sol = solver.solve_forward(V, 2.0, omega, grid)
        mis = total_field_orthogonality(V, sol, 2.0, omega)
        passed &= mis <= ORTH_TOL
        metrics["orth_mismatch"].append(mis)
    return bool(passed), metrics


def make(name, seed, root):
    """The workload for the seed (part of set-up)."""
    oracles = load_test_oracles(root)
    if name == "forward-2d":
        wl = Forward2D(seed, oracles)
    elif name == "forward-3d":
        wl = Forward3D(seed)
    elif name == "corner-chain-2d":
        wl = CornerChain2D(seed)
    elif name == "cli-stability":
        wl = CliStability(seed, os.path.join(root, ".bench_build", "perfbench",
                                             f"cli-{os.getpid()}"))
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.oracles = oracles
    return wl
