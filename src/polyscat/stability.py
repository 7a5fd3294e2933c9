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
from functools import lru_cache

import numpy as np

from . import cgo, rellich
from .cgo import CgoDirection, faddeev_decay_case
from .fields import ContrastField, WaveField, h2_surrogate, polytope_mask
from .geom import (PolyCone, admissibility_report, cone_directions,
                   gauss_legendre, hausdorff_distance)
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

@lru_cache(maxsize=None)
def _spline_slopes(n: int) -> np.ndarray:
    """The (n, n) matrix taking the values at n uniformly spaced nodes to
    the node slopes, times the spacing, of their not-a-knot cubic spline
    (de Boor, A Practical Guide to Splines, ch. IV).  Rows 1..n-2 make the
    spline C^2: s[i-1] + 4 s[i] + s[i+1] = 3 (y[i+1] - y[i-1]).  The end
    rows s[0] + 2 s[1] = (-5 y[0] + 4 y[1] + y[2]) / 2 and its mirror make
    the third derivative continuous at the second and last-but-one node."""
    A, B = np.zeros((n, n)), np.zeros((n, n))
    i = np.arange(1, n - 1)
    A[i, i - 1] = A[i, i + 1] = 1.0
    A[i, i] = 4.0
    B[i, i - 1], B[i, i + 1] = -3.0, 3.0
    A[0, :2], B[0, :3] = (1.0, 2.0), (-2.5, 2.0, 0.5)
    A[-1, -2:], B[-1, -3:] = (2.0, 1.0), (-0.5, -2.0, 2.5)
    S = np.linalg.solve(A, B)
    S.flags.writeable = False
    return S


def _hermite_weights(t: np.ndarray) -> np.ndarray:
    """Cubic Hermite basis at local cell coordinates t in [0, 1], (..., 4):
    the weights of (y[i], h s[i], y[i+1], h s[i+1])."""
    s = 1.0 - t
    return np.stack([(1 + 2 * t) * s * s, t * s * s,
                     t * t * (3 - 2 * t), -t * t * s], axis=-1)


def field_interpolator(*fields: WaveField):
    """One exact not-a-knot cubic spline of one or more fields on one grid,
    callable on (..., dim) points in the grid: shape pts.shape[:-1] for one
    field and pts.shape[:-1] + (m,) for m fields.  A point outside the grid
    raises ValueError.

    On each cell the tensor-product spline is the tensor cubic Hermite
    interpolant whose corner data are the node values and the per-axis
    spline slopes, in every combination of axes.  Each call builds those
    data only on the box of nodes its points reach: along each axis, an
    operator of (value, slope) rows at the box's nodes, each slope row read
    off the whole grid line, is applied to the field in turn.  The largest
    intermediate array has one axis cut to the box, so a call never holds a
    second full-grid array.  Each field is interpolated by the same
    operations on its own array, so a stacked result equals the
    single-field ones bit for bit."""
    if len({(w.grid.shape, w.grid.spacing, tuple(w.grid.origin))
            for w in fields}) > 1:
        raise StabilityError("interpolated fields must share one grid")
    grid = fields[0].grid
    if min(grid.shape) < 4:
        raise StabilityError("a cubic spline needs 4 points per axis")
    shape = np.array(grid.shape)
    lo, hi = np.array([a[[0, -1]] for a in grid.axes()]).T
    slopes = [_spline_slopes(n) for n in grid.shape]
    tail = (len(fields),) if len(fields) > 1 else ()
    dim = grid.dim
    taps = np.arange(4)

    def f(pts):
        pts = np.asarray(pts, dtype=float)
        if not np.all((lo <= pts) & (pts <= hi)):
            raise ValueError("interpolation point outside the grid")
        out_shape = pts.shape[:-1] + tail
        x = (pts.reshape(-1, dim) - grid.origin) / grid.spacing
        if len(x) == 0:
            return np.zeros(out_shape, dtype=complex)
        cell = np.clip(np.floor(x).astype(int), 0, shape - 2)
        weights = _hermite_weights(x - cell)
        first, last = cell.min(axis=0), cell.max(axis=0) + 1
        ops, index, w = [], [], np.ones((len(x),))
        for a, S in enumerate(slopes):
            # rows (y, h s) at each node of the box, interleaved
            nodes = np.arange(first[a], last[a] + 1)
            E = np.zeros((2 * len(nodes), shape[a]))
            E[0::2, nodes] = np.eye(len(nodes))
            E[1::2] = S[nodes]
            ops.append(E)
            # each point's taps y[i], h s[i], y[i + 1], h s[i + 1]
            lead = (-1,) + (1,) * a + (4,)
            taps_a = (2 * (cell[:, a] - first[a]))[:, None] + taps
            index.append(taps_a.reshape(lead + (1,) * (dim - 1 - a)))
            w = w[..., None] * weights[:, a].reshape(lead)
        index = tuple(index)
        w = w.reshape(len(x), -1).astype(complex)
        out = []
        for field in fields:
            table = field.values
            for a, E in enumerate(ops):
                table = np.moveaxis(E @ np.moveaxis(table, a, -2), -2, a)
            out.append(np.einsum("pi,pi->p",
                                 table[index].reshape(len(x), -1), w))
        return np.stack(out, axis=-1).reshape(out_shape)

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
# Truncated-cone quadrature
# ---------------------------------------------------------------------------

def _polar_rule(vertex, generators, h: float, m: int, power: int):
    """Points vertex + r omega and weights over m radial Gauss-Legendre
    nodes r in [0, h] times the cone's `cone_directions` at m nodes, with
    weight r^power, radius-major."""
    x, w = gauss_legendre(m)
    r = h * x
    omega, wd = cone_directions(generators, m)
    pts = vertex + (r[:, None, None] * omega).reshape(-1, len(vertex))
    return pts, np.outer(h * w * r ** power, wd).ravel()


def _simplicial_generators(q_cone: PolyCone) -> np.ndarray:
    g = q_cone.generators
    if len(g) != q_cone.dim:
        raise StabilityError(f"truncated-cone quadrature needs a cone on "
                             f"{q_cone.dim} generators, got {len(g)}")
    return g


def cone_volume_quadrature(q_cone: PolyCone, h: float, n: int):
    """Quadrature for Q_h = cone intersect B(vertex, h) of a cone on d
    generators in d dimensions: points and weights of `_polar_rule` on the
    whole cone with weight r^(d-1), m = max(8, n // 4)."""
    g = _simplicial_generators(q_cone)
    return _polar_rule(q_cone.vertex, g, h, max(8, n // 4), q_cone.dim - 1)


def cone_boundary_quadrature(q_cone: PolyCone, h: float, n: int):
    """Quadrature for the boundary of Q_h = cone intersect B(vertex, h) of
    a cone on d generators in d dimensions: points, outward unit normals
    and weights, about n points per piece.

    Facet k is the cone on the generators other than g_k, taken by
    `_polar_rule` with weight r^(d-2); its outward normal is minus column
    k of the inverse generator matrix, which is orthogonal to the other
    generators and positive on g_k.  The cap is vertex + h omega over the
    cone's own `cone_directions`, with weight h^(d-1).
    m = max(8, n^(1/(d-1))).
    """
    v, g, d = q_cone.vertex, _simplicial_generators(q_cone), q_cone.dim
    m = max(8, int(n ** (1 / (d - 1))))
    outward = -np.linalg.inv(g).T
    outward /= np.linalg.norm(outward, axis=1)[:, None]
    pts, nrm, wts = [], [], []
    for k in range(d):
        p, w = _polar_rule(v, np.delete(g, k, axis=0), h, m, d - 2)
        pts.append(p)
        nrm.append(np.tile(outward[k], (len(p), 1)))
        wts.append(w)
    omega, wd = cone_directions(g, m)
    pts.append(v + h * omega)
    nrm.append(omega)
    wts.append(h ** (d - 1) * wd)
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


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
    The volume term sums over the points of `cone_volume_quadrature`
    inside V's support, whose Gauss rule takes max(8, n_volume // 4)
    radial and per-angle nodes; the boundary term uses
    `cone_boundary_quadrature` at n_boundary points per piece.
    u' must solve the free Helmholtz equation on Q_h (V' = 0 there); u0
    any solution with potential V.
    """
    f = field_interpolator(u_total, u_prime, u0)
    pts, wts = cone_volume_quadrature(q_cone, h, n_volume)
    inside = polytope_mask(V.polytope, pts)
    pv = pts[inside]
    bpts, bnrm, bwts = cone_boundary_quadrature(q_cone, h, n_boundary)
    step = fd_step if fd_step is not None else h / 64
    # columns u, u', u0
    vals = f(np.concatenate([pv, bpts, bpts + step * bnrm,
                             bpts - step * bnrm]))
    vol_vals, on_b, plus, minus = np.split(
        vals, np.cumsum([len(pv), len(bpts), len(bpts)]))
    vol = k ** 2 * np.sum(V.phi(pv) * vol_vals[:, 2] * vol_vals[:, 1]
                          * wts[inside])
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
                sol = solve_forward(W, k, omega, grid,
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
        else:
            bound, tau = np.inf, np.nan
        records.append(StabilityRecord(eps, float(hh), float(tau),
                                       float(bound), pipeline.regime, gamma,
                                       m, S))
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
        sol = solve_forward(V, k, omega, grid, n_directions=n_directions)
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
