"""Orthogonality identity, term-by-term budgets and stability experiments.

The key identity equates a weighted volume integral of the contrast near a
corner with a boundary flux of the difference field; combined with the
decaying exponential solutions it yields computable budgets whose balance,
at the optimal decay rate tau_e, produces double-logarithmic stability of
the scatterer support and a lower bound for corner scattering.

Constants in the theorems are existential: experiments fit them over
sweeps and report the fit, never assert a numeric value.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import cgo, rellich
from .cgo import CgoDirection, faddeev_decay_case
from .fields import ContrastField, WaveField, h2_surrogate, polytope_mask
from .geom import (PolyCone, admissibility_report, cone_mask,
                   hausdorff_distance)
from .rellich import Calibration, float_view, quantitative_rellich
from .solver import solve_forward


# The far-field level below which a corner record's far field counts as
# noise.  The far field of V = 0 is exactly 0, so this roundoff-scale
# constant is the floor; item 5 of ROADMAP.md replaces it with a measured
# discretisation floor.
NOISE_FLOOR = 1e-12


class StabilityError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Field sampling helpers
# ---------------------------------------------------------------------------

def field_interpolator(*fields: WaveField):
    """One exact not-a-knot cubic spline of one or more fields on one grid
    (a banded direct solve per axis), callable on (..., dim) points in the
    grid: shape pts.shape[:-1] for one field and pts.shape[:-1] + (m,) for
    m fields.  A point outside the grid raises ValueError.

    scipy.interpolate is imported here, on first call: the forward solve
    and the Rellich chain never load it."""
    from scipy.interpolate import NdBSpline, make_interp_spline

    if len({(w.grid.shape, w.grid.spacing, tuple(w.grid.origin))
            for w in fields}) > 1:
        raise StabilityError("interpolated fields must share one grid")
    grid = fields[0].grid
    axes = grid.axes()
    lo, hi = np.array([a[[0, -1]] for a in axes]).T
    coef = np.stack([w.values for w in fields], axis=-1)
    knots = []
    for i, a in enumerate(axes):
        spl = make_interp_spline(a, coef, k=3, axis=i)
        knots.append(spl.t)
        coef = np.moveaxis(spl.c, 0, i)
    spline = NdBSpline(tuple(knots), coef, 3)
    tail = (len(fields),) if len(fields) > 1 else ()

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        if not np.all((lo <= pts) & (pts <= hi)):
            raise ValueError("interpolation point outside the grid")
        return spline(pts).reshape(pts.shape[:-1] + tail)

    return f


def gradient_at(f, pts, step: float):
    pts = np.asarray(pts, dtype=float)
    dim = pts.shape[-1]
    comps = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        comps.append((f(pts + step * e) - f(pts - step * e)) / (2 * step))
    return np.stack(comps, axis=-1)


# ---------------------------------------------------------------------------
# Truncated-cone boundary quadrature
# ---------------------------------------------------------------------------

def cone_boundary_quadrature(q_cone: PolyCone, h: float, n: int = 256):
    """Midpoint quadrature for the boundary of Q_h = cone intersect
    B(vertex, h): points, outward unit normals and weights.

    2D: two radial edges plus the circular arc, n points on each.  3D:
    supported for rotated-orthant cones (three quarter-disc faces plus the
    spherical patch, each on a grid of about sqrt(n) by sqrt(n)).
    """
    v = q_cone.vertex
    if q_cone.dim == 2:
        g1, g2 = q_cone.generators
        pts, nrm, wts = [], [], []
        for g, inward in zip(q_cone.generators, q_cone.facet_normals):
            t = (np.arange(n) + 0.5) / n * h
            pts.append(v + np.outer(t, g))
            nrm.append(np.tile(-inward, (n, 1)))
            wts.append(np.full(n, h / n))
        a1 = np.arctan2(g1[1], g1[0])
        span = np.arccos(np.clip(np.dot(g1, g2), -1, 1))
        ang = a1 + (np.arange(n) + 0.5) / n * span
        rad = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts.append(v + h * rad)
        nrm.append(rad)
        wts.append(np.full(n, h * span / n))
        return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)
    if not q_cone.is_orthant:
        raise StabilityError("3D boundary quadrature needs an orthant cone")
    g = q_cone.generators
    pts, nrm, wts = [], [], []
    m = max(8, int(np.sqrt(n)))   # points per side of each patch
    mid = (np.arange(m) + 0.5) / m
    ang = mid * (np.pi / 2)
    for k_out in range(3):
        gi, gj = g[(k_out + 1) % 3], g[(k_out + 2) % 3]
        S, PHI = np.meshgrid(mid * h, ang, indexing="ij")
        P = (v + S[..., None] * (np.cos(PHI)[..., None] * gi
                                 + np.sin(PHI)[..., None] * gj))
        W = S * (h / m) * (np.pi / 2 / m)
        pts.append(P.reshape(-1, 3))
        nrm.append(np.tile(-g[k_out], (P.size // 3, 1)))
        wts.append(W.ravel())
    TH, PH = np.meshgrid(ang, ang, indexing="ij")
    local = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                      np.cos(TH)], axis=-1)
    rad = local @ g
    W = h ** 2 * np.sin(TH) * (np.pi / 2 / m) ** 2
    pts.append(v + h * rad.reshape(-1, 3))
    nrm.append(rad.reshape(-1, 3))
    wts.append(W.ravel())
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


def cone_ball_mask(q_cone: PolyCone, pts: np.ndarray, h: float) -> np.ndarray:
    """Membership in Q_h = cone intersect B(vertex, h)."""
    inside_ball = np.linalg.norm(pts - q_cone.vertex, axis=-1) <= h
    return inside_ball & cone_mask(q_cone, pts)


# ---------------------------------------------------------------------------
# The orthogonality identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrthogonalityReport:
    volume_term: complex
    boundary_term: complex
    mismatch: float

    @property
    def relative_mismatch(self) -> float:
        scale = max(abs(self.volume_term), abs(self.boundary_term))
        return self.mismatch / scale if scale > 0 else 0.0


def check_orthogonality(V: ContrastField, u_total, u_prime, u0,
                        q_cone: PolyCone, h: float, k: float,
                        n_volume: int, n_boundary: int,
                        fd_step: float | None = None) -> OrthogonalityReport:
    """Quadrature check of
    k^2 int_{Q_h} V u0 u' dx = int_{dQ_h} (u0 dn(u'-u) - (u'-u) dn u0).

    The three fields are WaveFields on one grid, interpolated together in
    one pass.  Q_h is the cone truncated at radius h around its vertex.
    u' must solve the free Helmholtz equation on Q_h (V' = 0 there); u0
    any solution with potential V.
    """
    f = field_interpolator(u_total, u_prime, u0)
    v = q_cone.vertex
    # volume term on a fine midpoint subgrid of the bounding box
    cell = 2 * h / n_volume
    ax = [v[i] - h + cell * (np.arange(n_volume) + 0.5)
          for i in range(q_cone.dim)]
    mesh = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)
    pts = mesh[cone_ball_mask(q_cone, mesh, h)]
    pv = pts[polytope_mask(V.polytope, pts)]
    bpts, bnrm, bwts = cone_boundary_quadrature(q_cone, h, n_boundary)
    step = fd_step if fd_step is not None else h / 64
    # columns u, u', u0
    vals = f(np.concatenate([pv, bpts, bpts + step * bnrm,
                             bpts - step * bnrm]))
    vol_vals, on_b, plus, minus = np.split(
        vals, np.cumsum([len(pv), len(bpts), len(bpts)]))
    vol = k ** 2 * np.sum(V.phi(pv) * vol_vals[:, 2] * vol_vals[:, 1]) \
        * cell ** q_cone.dim
    dn = (plus - minus) / (2 * step)
    diff = on_b[:, 1] - on_b[:, 0]
    dn_diff = dn[:, 1] - dn[:, 0]
    bnd = np.sum((on_b[:, 2] * dn_diff - diff * dn[:, 2]) * bwts)
    return OrthogonalityReport(complex(vol), complex(bnd),
                               float(abs(vol - bnd)))


# ---------------------------------------------------------------------------
# Estimate budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateBudget:
    tail: float
    hoelder: float
    remainder: float
    boundary_near: float
    boundary_sphere: float
    lhs: float
    tau: float
    h: float
    delta_eps: float
    m: float

    @property
    def total(self) -> float:
        return (self.tail + self.hoelder + self.remainder
                + self.boundary_near + self.boundary_sphere)

    @property
    def fitted_C(self) -> float:
        """Largest C with C * lhs <= total for this budget."""
        return self.total / self.lhs if self.lhs > 0 else np.inf

    def to_dict(self) -> dict:
        d = asdict(self)
        d["total"] = self.total
        d["fitted_C"] = self.fitted_C
        return d


def assemble_budget(V: ContrastField, x_c, h: float,
                    direction: CgoDirection, p_cone: PolyCone,
                    u_prime_at_xc: complex, psi_lp: float, psi_h2: float,
                    boundary_sup: float, u_h2_sum: float, p: float
                    ) -> EstimateBudget:
    """Evaluate the five right-hand terms of the corner estimate with
    measured constants, plus the closed-form left side
    |phi(x_c) L_P(rho) u'(x_c)| via the cone Laplace transform."""
    n = direction.dim
    alpha = V.alpha
    tau = float(np.linalg.norm(np.real(direction.rho)))
    rho_abs = float(np.linalg.norm(direction.rho))
    d0 = direction.delta0
    if u_prime_at_xc == 0:
        raise StabilityError("total wave vanishes at the probed corner")
    tail = tau ** (-n) * np.exp(-d0 * tau * h / 2)
    hoelder = tau ** (-n - min(1.0, alpha))
    p_prime = p / (p - 1) if np.isfinite(p) else 1.0
    remainder = tau ** (-n / p_prime) * psi_lp
    boundary_near = h ** ((n - 1) / 2) * rho_abs * (1 + psi_h2) * boundary_sup
    boundary_sphere = (h ** (n / 2 - 1) * np.exp(-d0 * tau * h)
                       * rho_abs * (1 + psi_h2) * u_h2_sum)
    phi_xc = complex(V.phi(np.asarray(x_c, dtype=float)[None, :])[0])
    laplace = cgo.cone_laplace(p_cone, direction.rho).value
    lhs = abs(phi_xc * laplace * u_prime_at_xc)
    m = min(1.0, alpha)
    return EstimateBudget(float(tail), float(hoelder), float(remainder),
                          float(boundary_near), float(boundary_sphere),
                          float(lhs), float(tau), float(h),
                          float(boundary_sup), float(m))


@dataclass(frozen=True)
class TauChoice:
    tau_e: float
    clamped: bool


def optimize_tau(h: float, delta_eps: float, m: float, n: int,
                 k: float = 1.0) -> TauChoice:
    """tau_e = (1/(h^(n+5) delta))^(1/(m+n+5)): the decay rate balancing
    the two terms delta tau^(n+5) and h^(-n-5) tau^(-m), floored at
    max(1, k)."""
    if not (0 < h <= 1):
        raise StabilityError("h must lie in (0, 1]")
    if delta_eps <= 0:
        raise StabilityError("delta must be positive")
    tau_e = (1.0 / (h ** (n + 5) * delta_eps)) ** (1.0 / (m + n + 5))
    floor = max(1.0, k)
    if tau_e < floor:
        return TauChoice(float(floor), True)
    return TauChoice(float(tau_e), False)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityRecord:
    epsilon: float
    hausdorff: float
    tau_used: float
    bound_value: float
    regime: str
    gamma: float
    m: float
    S: float


def support_stability_gamma(m: float, n: int) -> float:
    return m / (2 * (n + 5) ** 2)


def corner_gamma(m: float, n: int) -> float:
    return m / (n + 5) ** 2


def run_support_stability_experiment(scene_pairs, k: float, omega, grid,
                                     cal: Calibration,
                                     n_directions: int = 256,
                                     tol: float = 1e-8,
                                     R: float = 1.0) -> list:
    """For each (V, V') pair: solve both scattering problems, measure the
    far-field difference and the Hausdorff distance of the supports, and
    evaluate the pipeline bound C (ln ln S/eps)^(-gamma), with the Rellich
    pipeline run on the ball B(0, R) that holds the supports.  Each distinct
    contrast object is solved, and its H^2 surrogate taken, once, however
    many pairs share it."""
    records = []
    n = grid.dim
    beta = faddeev_decay_case(n).beta
    scene_pairs = list(scene_pairs)  # keeps every object alive: ids stay unique
    solved = {}   # id of a contrast -> (far field, H^2 surrogate)
    for V, Vp in scene_pairs:
        for W in (V, Vp):
            if id(W) not in solved:
                sol = solve_forward(W, k, omega, grid, tol=tol,
                                    n_directions=n_directions)
                solved[id(W)] = (sol.far_field, h2_surrogate(sol.scattered))
        (ffA, sA), (ffB, sB) = solved[id(V)], solved[id(Vp)]
        eps = float(np.sqrt(np.sum(np.abs(ffA.values - ffB.values) ** 2)
                            * ffA.quad_weight))
        hh = hausdorff_distance(V.polytope, Vp.polytope)
        S = max(1.0, sA, sB)
        m = min(1.0, V.alpha, beta)
        gamma = support_stability_gamma(m, n)
        pipeline = quantitative_rellich(eps, S, k, R, cal, T=S)
        if eps > 0 and np.log(S / eps) > 1:
            bound = np.log(np.log(S / eps)) ** (-gamma)
            tau = optimize_tau(min(1.0, max(hh, grid.spacing)),
                               pipeline.capped_bound, m, n, k=k).tau_e
            regime = pipeline.regime
        else:
            bound, tau, regime = np.inf, np.nan, "saturated"
        records.append(StabilityRecord(eps, float(hh), float(tau),
                                       float(bound), regime, gamma, m, S))
    return records


def fit_stability_constant(records) -> float:
    """Smallest C with h <= C (ln ln S/eps)^(-gamma) on every record of a
    sweep: the largest ratio of h to the bound."""
    ratios = [r.hausdorff / r.bound_value for r in records
              if np.isfinite(r.bound_value) and r.bound_value > 0
              and np.isfinite(r.hausdorff)]
    if not ratios:
        raise StabilityError("no finite records to fit")
    return float(max(ratios))


@dataclass(frozen=True)
class CornerRecord:
    ff_norm: float
    bound: float
    ell: float
    phi_re: float        # phi(x_c), the contrast at the probed corner
    phi_im: float
    noise_floor: float
    separation: float
    lnln_ratio: float    # ln ln(S/bound): finite where bound underflows to 0


def run_corner_lower_bound_experiment(scenes, k: float, omega, grid,
                                      n_directions: int = 256,
                                      tol: float = 1e-8,
                                      R: float = 1.0) -> list:
    """Solve each corner scene, record the far-field norm against the
    double-exponential lower-bound expression and the noise floor.  Each
    support must be admissible inside the ball B(0, R)."""
    n = grid.dim
    beta = faddeev_decay_case(n).beta
    out = []
    for V in scenes:
        rep = admissibility_report(V.polytope, R)
        if not rep.ok:
            raise StabilityError(f"inadmissible scene: {rep.violations}")
        sol = solve_forward(V, k, omega, grid, tol=tol,
                            n_directions=n_directions)
        ff_norm = float(sol.far_field.l2_norm())
        S = max(1.0, h2_surrogate(sol.scattered))
        m = min(1.0, V.alpha, beta)
        g = corner_gamma(m, n)
        x_c = V.polytope.vertices[0]
        phi_xc = complex(np.atleast_1d(V.phi(x_c[None, :]))[0])
        ell = rep.ell
        # bound = S exp(-inner) with inner = ell^(-2/g) |phi|^(-2-2/((n+5)g)),
        # carried as ln(inner) = ln ln(S/bound)
        with np.errstate(divide="ignore"):
            lnln = (-(2 / g) * np.log(ell)
                    - (2 + 2 / ((n + 5) * g)) * np.log(abs(phi_xc)))
        bound = float_view(np.log(S) - float_view(lnln))
        out.append(CornerRecord(ff_norm, float(bound), float(ell),
                                phi_xc.real, phi_xc.imag, NOISE_FLOOR,
                                ff_norm / NOISE_FLOOR, float(lnln)))
    return out


def records_to_csv(records) -> str:
    if not records:
        return ""
    rows = [asdict(r) for r in records]
    keys = list(rows[0])
    lines = [",".join(keys)]
    lines += [",".join(str(d[k]) for k in keys) for d in rows]
    return "\n".join(lines) + "\n"
