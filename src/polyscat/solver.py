"""Forward scattering solver via the Lippmann-Schwinger integral equation.

The total field solves u = u^i + k^2 Phi_k * (V u) with the outgoing
fundamental solution Phi_k (2D: (i/4) H_0^(1)(k|x|), 3D: e^(ik|x|)/(4 pi |x|)).
The volume convolution is applied with FFTs on a zero-padded grid; the
singular cell is replaced by the analytic average of Phi_k over an
equal-measure disc/ball, and the linear system is solved with restarted
GMRES.  The radiation condition is exact by construction of the kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres
from scipy.special import hankel1, jv

from .fields import (ContrastField, FieldError, Grid, WaveField, plane_wave,
                     polytope_mask)

GMRES_RESTART = 50
GMRES_MAXITER = 2000
# the largest (points, orders or directions) x source cells temporary a
# far-field or off-grid field evaluation allocates at once
BLOCK_ELEMENTS = 2 ** 20
# truncation tolerance of the Graf expansion, on J_N(k R_src) |H_N(k b)|
GRAF_TOL = 2.0 ** -52


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Fundamental solution and far-field constants
# ---------------------------------------------------------------------------

def fundamental_solution(k: float, r: np.ndarray, dim: int) -> np.ndarray:
    """Outgoing fundamental solution Phi_k(r) for r > 0."""
    r = np.asarray(r, dtype=float)
    if dim == 2:
        return 0.25j * hankel1(0, k * r)
    return np.exp(1j * k * r) / (4 * np.pi * r)


def singular_cell_integral(k: float, h: float, dim: int) -> complex:
    """Analytic integral of Phi_k over an equal-measure disc/ball replacing
    the singular cell of an h-cube."""
    if dim == 2:
        a = h / np.sqrt(np.pi)
        return complex(0.5j * np.pi * a / k * hankel1(1, k * a) - 1.0 / k ** 2)
    a = h * (3.0 / (4 * np.pi)) ** (1.0 / 3.0)
    return complex((np.exp(1j * k * a) * (1j * k * a - 1) + 1) / (-k ** 2))


def far_field_constant(k: float, dim: int) -> complex:
    """gamma_n from Phi_k's large-radius factor e^(ikr)/r^((n-1)/2)."""
    if dim == 2:
        return np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
    return 1.0 / (4 * np.pi)


# ---------------------------------------------------------------------------
# Volume equations x + G(m x) = rhs with a zero-padded Fourier multiplier G
# ---------------------------------------------------------------------------

class PaddedFFTMultiplier:
    """x -> crop(F^-1[symbol F[mod pad(x)]] conj(mod)) on the grid
    zero-padded to twice its shape per axis.  Subclasses build `_symbol`
    and, to shift the frequency lattice, the modulation `_mod`."""

    _mod = None

    def __init__(self, grid: Grid):
        self.grid = grid
        self._pad = tuple(2 * s for s in grid.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        crop = tuple(slice(0, s) for s in self.grid.shape)
        buf = np.zeros(self._pad, dtype=complex)
        buf[crop] = x
        if self._mod is not None:
            buf *= self._mod
        out = np.fft.ifftn(np.fft.fftn(buf) * self._symbol)
        if self._mod is not None:
            out *= np.conj(self._mod)
        return out[crop]


class GreenConvolution(PaddedFFTMultiplier):
    """Circulant embedding of x -> (Phi_k * x) h^n on a uniform grid.

    The kernel depends on each offset only through its size per axis, so
    Phi_k is evaluated once on the first orthant of offsets 0..s and
    folded onto the padded lattice of m = 2s points, where index a holds
    the offset of size min(a, m - a)."""

    def __init__(self, grid: Grid, k: float):
        super().__init__(grid)
        h = grid.spacing
        offsets = np.meshgrid(*[np.arange(s + 1) * h for s in grid.shape],
                              indexing="ij", sparse=True)
        r = np.sqrt(sum(o ** 2 for o in offsets))
        origin = (0,) * grid.dim
        r[origin] = h   # keeps r = 0 out of Phi_k; the cell is set below
        orthant = fundamental_solution(k, r, grid.dim) * grid.cell_volume
        orthant[origin] = singular_cell_integral(k, h, grid.dim)
        fold = np.ix_(*[np.minimum(np.arange(m), m - np.arange(m))
                        for m in self._pad])
        self._symbol = np.fft.fftn(orthant[fold])


def solve_volume_equation(op: PaddedFFTMultiplier, m: np.ndarray,
                          rhs: np.ndarray, tol: float,
                          maxiter: int) -> tuple[np.ndarray, int, float]:
    """Solve x + op.apply(m x) = rhs on op's grid by restarted GMRES.

    Returns (x, GMRES iterations, relative residual); raises SolverError
    with the residual when GMRES stops at maxiter restart cycles.
    """
    shape = rhs.shape
    n = rhs.size

    def matvec(x):
        u = x.reshape(shape)
        return (u + op.apply(m * u)).ravel()

    counter = {"n": 0}

    def cb(_):
        counter["n"] += 1

    sol, info = gmres(LinearOperator((n, n), matvec=matvec, dtype=complex),
                      rhs.ravel(), rtol=tol, atol=0.0, restart=GMRES_RESTART,
                      maxiter=maxiter, callback=cb, callback_type="pr_norm")
    # a zero rhs has the exact solution 0, and its residual is absolute
    res = float(np.linalg.norm(matvec(sol) - rhs.ravel())
                / (np.linalg.norm(rhs) or 1.0))
    if info != 0:
        raise SolverError(f"GMRES did not converge (info={info}, "
                          f"residual={res:.3e})")
    return sol.reshape(shape), counter["n"], res


# ---------------------------------------------------------------------------
# Far-field patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FarFieldPattern:
    directions: np.ndarray  # (N, dim) unit vectors, uniform sampling
    values: np.ndarray      # complex, (N,)
    k: float

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v.view(float))):
            raise FieldError("far-field values must be finite")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def quad_weight(self) -> float:
        n = len(self.directions)
        return (2 * np.pi / n) if self.dim == 2 else (4 * np.pi / n)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.quad_weight))


def default_directions(dim: int, n: int) -> np.ndarray:
    """Uniform unit directions: equispaced angles (2D), Fibonacci sphere (3D)."""
    if dim == 2:
        th = 2 * np.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    i = np.arange(n) + 0.5
    phi = np.pi * (1 + np.sqrt(5.0)) * i
    z = 1 - 2 * i / n
    rho = np.sqrt(1 - z ** 2)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def far_field_from_volume(Vvals: np.ndarray, u: WaveField, k: float,
                          directions: np.ndarray) -> FarFieldPattern:
    """A(theta) = gamma_n k^2 int e^(-ik theta.y) V(y) u(y) dy by midpoint
    quadrature over the grid."""
    g = u.grid
    src = Vvals * u.values
    nz = src != 0
    pts = g.points()[nz]
    amp = src[nz]
    gamma = far_field_constant(k, g.dim)
    sums = np.empty(len(directions), dtype=complex)
    for rows in _blocks(len(directions), len(pts)):
        sums[rows] = np.exp(-1j * k * (directions[rows] @ pts.T)) @ amp
    vals = gamma * k ** 2 * sums * g.cell_volume
    return FarFieldPattern(directions, vals, k)


def _blocks(n_rows: int, row_elements: int):
    """Row slices holding at most BLOCK_ELEMENTS elements, or one row, each."""
    step = max(1, BLOCK_ELEMENTS // max(row_elements, 1))
    return (slice(start, start + step) for start in range(0, n_rows, step))


# ---------------------------------------------------------------------------
# The forward solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringSolution:
    contrast: ContrastField
    total: WaveField
    scattered: WaveField
    far_field: FarFieldPattern
    iterations: int
    residual: float

    def min_total_outside(self, R: float) -> float:
        """inf |u| over B_R minus the scatterer (non-vanishing wave check)."""
        g = self.total.grid
        pts = g.points()
        inside_ball = np.linalg.norm(pts, axis=-1) <= R
        inside_p = polytope_mask(self.contrast.polytope, pts)
        mask = inside_ball & ~inside_p
        if not np.any(mask):
            raise SolverError("no grid points in B_R outside the scatterer")
        return float(np.min(np.abs(self.total.values[mask])))


def solve_forward(V: ContrastField, k: float, omega, grid: Grid,
                  tol: float = 1e-8,
                  n_directions: int = 256) -> ScatteringSolution:
    """Solve u = u^i + k^2 Phi_k * (V u) by GMRES and compute the far field."""
    Vvals = V.evaluate(grid)
    if _support_touches_boundary(Vvals):
        raise SolverError("potential support escapes the grid interior")
    ui = plane_wave(k, omega, grid)
    u, iterations, res = solve_volume_equation(
        GreenConvolution(grid, k), -k ** 2 * Vvals, ui.values, tol,
        GMRES_MAXITER)
    total = WaveField(grid, u, k)
    scattered = WaveField(grid, u - ui.values, k)
    dirs = default_directions(grid.dim, n_directions)
    ff = far_field_from_volume(Vvals, total, k, dirs)
    return ScatteringSolution(V, total, scattered, ff, iterations, res)


def _support_touches_boundary(Vvals: np.ndarray) -> bool:
    """True when some nonzero lies on a face of the grid, i.e. outside its
    interior (every index strictly between the first and the last)."""
    interior = Vvals[(slice(1, -1),) * Vvals.ndim]
    return np.count_nonzero(Vvals) != np.count_nonzero(interior)


# ---------------------------------------------------------------------------
# Scattered-field evaluation away from the grid (volume potential)
# ---------------------------------------------------------------------------

def scattered_at_points(sol: ScatteringSolution,
                        points: np.ndarray) -> np.ndarray:
    """u^s(x) = k^2 sum_y Phi_k(x-y) V(y) u(y) h^n at arbitrary exterior
    points (valid wherever V vanishes).

    2D points strictly outside the circle |x| = R_src through the farthest
    source cell (where V u != 0) are summed by Graf's addition theorem,
        u^s(x) = sum_{|n|<=N} a_n H_n(k|x|) e^(in theta_x),
        a_n = (i/4) k^2 h^2 sum_y J_n(k|y|) e^(-in theta_y) (V u)(y),
    at O(N) Bessel evaluations per distinct source-cell radius and O(N)
    Hankel evaluations per distinct evaluation radius.  Let b be the
    nearest radius so evaluated.  For n >= k R_src, J_n(k|y|) <=
    J_n(k R_src), and |H_n| falls with its argument, so at every |x| >= b
    the dropped orders add at most
        (1/2) k^2 h^2 ||V u||_1 sum_{n>N} J_n(k R_src) |H_n(k b)|.
    N is the first order >= ceil(k R_src) whose term falls below
    GRAF_TOL = 2^-52.  Beyond N the terms fall off like (R_src/b)^n / n,
    so the bound is about GRAF_TOL R_src / (b - R_src) times that
    prefactor.

    The dense sum, one Hankel evaluation per (point, cell) pair, serves
    every 3D point, every point with |x| <= R_src, and the points so close
    to R_src that J_n(k R_src) underflows or H_n(k b) overflows before the
    term falls below GRAF_TOL.
    """
    k = sol.total.k
    ys, amps = _volume_sources(sol)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(points), dtype=complex)
    graf = np.zeros(len(points), dtype=bool)
    if sol.total.grid.dim == 2:
        kr = k * np.linalg.norm(points, axis=1)
        kR = k * np.linalg.norm(ys, axis=1).max(initial=0.0)
        kb, order = _graf_reach(kR, np.unique(kr[kr > kR]))
        if order is not None:
            graf = kr >= kb
            out[graf] = _graf_potential(k, ys, amps, points[graf], order)
    out[~graf] = _dense_potential(k, ys, amps, points[~graf])
    return out


def _volume_sources(sol: ScatteringSolution) -> tuple[np.ndarray, np.ndarray]:
    """Source cells y where V u != 0, and their weights k^2 (V u)(y) h^n."""
    g = sol.total.grid
    src = sol.contrast.evaluate(g) * sol.total.values
    nz = src != 0
    return g.points()[nz], src[nz] * g.cell_volume * sol.total.k ** 2


def _dense_potential(k: float, ys: np.ndarray, amps: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """sum_y Phi_k(x - y) amps(y), one block of points at a time."""
    out = np.empty(len(points), dtype=complex)
    for rows in _blocks(len(points), len(ys)):
        r = np.linalg.norm(points[rows, None, :] - ys[None, :, :], axis=-1)
        if np.any(r == 0):
            raise SolverError("evaluation point inside the support")
        out[rows] = fundamental_solution(k, r, ys.shape[1]) @ amps
    return out


def _graf_order(kR: float, kb: float) -> int | None:
    """First N >= ceil(kR) with J_N(kR) |H_N(kb)| <= GRAF_TOL, or None
    when J_n(kR) underflows or H_n(kb) overflows before that order."""
    for lo in itertools.count(int(np.ceil(kR)), 32):
        n = np.arange(lo, lo + 32)
        j = np.abs(jv(n, kR))
        h = np.abs(hankel1(n, kb))
        term = np.multiply(j, h, out=np.full(len(n), np.nan),
                           where=(j >= np.finfo(float).tiny) & np.isfinite(h))
        stop = ~(term > GRAF_TOL)   # below the tolerance, or not certified
        if np.any(stop):
            first = int(np.argmax(stop))
            return lo + first if np.isfinite(term[first]) else None


def _graf_reach(kR: float, kb: np.ndarray) -> tuple[float, int | None]:
    """The smallest of the ascending arguments kb at which _graf_order
    certifies, with its order, or (inf, None).  An order certified at kb
    is certified at every larger argument, so the search tries the
    smallest first and then bisects."""
    lo, hi, order, probe = 0, len(kb), None, 0
    while lo < hi:
        found = _graf_order(kR, kb[probe])
        if found is None:
            lo = probe + 1
        else:
            hi, order = probe, found
        probe = (lo + hi) // 2
    return (np.inf, None) if order is None else (kb[hi], order)


def _graf_potential(k: float, ys: np.ndarray, amps: np.ndarray,
                    points: np.ndarray, order: int) -> np.ndarray:
    """sum_{|n|<=order} a_n H_n(k|x|) e^(in theta_x) for 2D points outside
    every source cell, one block of cells or points at a time.

    With J_{-n} = (-1)^n J_n and H_{-n} = (-1)^n H_n, the orders n and -n
    share H_n(k|x|): u^s = sum_{n>=0} H_n (a_n e^(in theta) +
    c_n e^(-in theta)) with c_n = (-1)^n a_{-n}, and c_0 = 0."""
    n = np.arange(order + 1)[:, None]
    a = np.zeros(order + 1, dtype=complex)
    c = np.zeros(order + 1, dtype=complex)
    for rows in _blocks(len(ys), order + 1):
        y, w = ys[rows], amps[rows]
        kr, at = np.unique(k * np.linalg.norm(y, axis=1), return_inverse=True)
        j = jv(n, kr)[:, at]
        e = np.exp(-1j * n * np.arctan2(y[:, 1], y[:, 0]))
        a += (j * e) @ w
        c += (j * e.conj()) @ w
    a *= 0.25j
    c *= 0.25j
    c[0] = 0
    out = np.empty(len(points), dtype=complex)
    for rows in _blocks(len(points), order + 1):
        p = points[rows]
        kr, at = np.unique(k * np.linalg.norm(p, axis=1), return_inverse=True)
        h = hankel1(n, kr)[:, at]
        e = np.exp(1j * n * np.arctan2(p[:, 1], p[:, 0]))
        out[rows] = np.sum(
            h * (a[:, None] * e + c[:, None] * e.conj()), axis=0)
    return out


@dataclass(frozen=True)
class SampledField:
    points: np.ndarray
    values: np.ndarray
    k: float

    def l2_norm(self, weight: float) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * weight))


def annulus_sampling(r1: float, r2: float, dim: int, n_radial: int = 24,
                     n_angular: int = 128) -> tuple[np.ndarray, float]:
    """Midpoint polar/spherical sampling of an origin-centred annulus;
    returns (points, quadrature weight per point)."""
    radii = r1 + (r2 - r1) * (np.arange(n_radial) + 0.5) / n_radial
    dr = (r2 - r1) / n_radial
    if dim == 2:
        th = 2 * np.pi * np.arange(n_angular) / n_angular
        circ = np.stack([np.cos(th), np.sin(th)], axis=1)
        pts = (radii[:, None, None] * circ[None, :, :]).reshape(-1, 2)
        w = np.repeat(radii, n_angular) * dr * (2 * np.pi / n_angular)
    else:
        sph = default_directions(3, n_angular)
        pts = (radii[:, None, None] * sph[None, :, :]).reshape(-1, 3)
        w = np.repeat(radii ** 2, n_angular) * dr * (4 * np.pi / n_angular)
    return pts, w


def near_field_on_annulus(sol: ScatteringSolution, r1: float, r2: float,
                          n_radial: int = 24,
                          n_angular: int = 128) -> tuple[SampledField, np.ndarray]:
    """Scattered wave sampled on the annulus r1 <= |x| <= r2 via the volume
    potential.  Returns the sampled field and per-point quadrature weights."""
    P = sol.contrast.polytope
    if np.max(np.linalg.norm(P.vertices, axis=1)) >= r1:
        raise SolverError("annulus intersects the potential support")
    pts, w = annulus_sampling(r1, r2, P.dim, n_radial, n_angular)
    vals = scattered_at_points(sol, pts)
    return SampledField(pts, vals, sol.total.k), w


def born_far_field(V: ContrastField, k: float, omega, grid: Grid,
                   directions: np.ndarray) -> FarFieldPattern:
    """Born approximation: the far-field quadrature with u replaced by u^i."""
    ui = plane_wave(k, np.asarray(omega, dtype=float), grid)
    return far_field_from_volume(V.evaluate(grid), ui, k, directions)
