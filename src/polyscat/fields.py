"""Uniform grids, complex wave fields, contrasts and discrete norms.

Everything downstream works on uniform Cartesian grids: the forward solver
needs them for FFT convolution and the quadrature model stays predictable
near polytope boundaries.  A grid point doubles as the center of its cell;
a cell belongs to a region iff its center does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geom import Polytope, polytope_mask

POINT_BUDGET = 2 ** 24


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    origin: np.ndarray   # coordinates of the first grid point / cell center
    spacing: float
    shape: tuple         # points per axis

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if self.spacing <= 0:
            raise FieldError("grid spacing must be positive")
        if len(self.shape) != origin.size or origin.size not in (2, 3):
            raise FieldError("grid must be 2D or 3D with matching origin")
        if int(np.prod(self.shape)) > POINT_BUDGET:
            raise FieldError(f"grid exceeds the {POINT_BUDGET} point budget")

    @property
    def dim(self) -> int:
        return self.origin.size

    def axes(self) -> list[np.ndarray]:
        return [self.origin[i] + self.spacing * np.arange(self.shape[i])
                for i in range(self.dim)]

    def points(self) -> np.ndarray:
        """All grid points, shape (*self.shape, dim)."""
        return _tensor_points(self.axes())

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim


def _tensor_points(axes: list[np.ndarray]) -> np.ndarray:
    """The tensor-product points of per-axis coordinates, (*lengths, dim)."""
    pts = np.empty(tuple(len(x) for x in axes) + (len(axes),))
    for a, x in enumerate(axes):
        pts[..., a] = x.reshape((-1,) + (1,) * (len(axes) - 1 - a))
    return pts


def centered_grid(half_width: float, n: int, dim: int = 2,
                  center=None) -> Grid:
    """Grid of n points per axis covering [-half_width, half_width]^dim."""
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    h = 2 * half_width / n
    origin = center - half_width + h / 2
    return Grid(origin, h, (n,) * dim)


# ---------------------------------------------------------------------------
# Wave fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveField:
    grid: Grid
    values: np.ndarray   # complex, shape grid.shape
    k: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.shape:
            raise FieldError("value array does not match the grid shape")
        if not np.all(np.isfinite(vals)):
            raise FieldError("field values must be finite")


def plane_wave(k: float, omega, grid: Grid) -> WaveField:
    """Incident plane wave exp(i k omega . x) sampled on the grid."""
    omega = np.asarray(omega, dtype=float)
    if not abs(np.linalg.norm(omega) - 1.0) <= 1e-12:
        raise FieldError("direction must be a unit vector")
    phase = np.tensordot(grid.points(), omega, axes=1)
    return WaveField(grid, np.exp(1j * k * phase), k)


def laplacian_stencil(values: np.ndarray, h: float) -> np.ndarray:
    """2n+1-point discrete Laplacian on the interior; boundary entries NaN."""
    lap = np.full(values.shape, np.nan + 0j)
    core = (slice(1, -1),) * values.ndim
    acc = -2 * values.ndim * values[core]
    for ax in range(values.ndim):
        lo = tuple(slice(1, -1) if i != ax else slice(0, -2)
                   for i in range(values.ndim))
        hi = tuple(slice(1, -1) if i != ax else slice(2, None)
                   for i in range(values.ndim))
        acc = acc + values[lo] + values[hi]
    lap[core] = acc / h ** 2
    return lap


def h2_surrogate(u: WaveField) -> float:
    """Discrete stand-in for the H^2 norm over the interior cells: L2 norms
    of the values, the central-difference gradient and the stencil
    Laplacian, combined in quadrature.  Recorded in experiment outputs
    instead of an a-priori scattering bound."""
    g = u.grid
    h = g.spacing
    grads = np.gradient(u.values, h)
    lap = laplacian_stencil(u.values, h)
    core = (slice(1, -1),) * g.dim
    total = np.sum(np.abs(u.values[core]) ** 2)
    for gr in grads:
        total += np.sum(np.abs(gr[core]) ** 2)
    total += np.sum(np.abs(lap[core]) ** 2)
    return float(np.sqrt(total * g.cell_volume))


# ---------------------------------------------------------------------------
# Contrasts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContrastField:
    """Potential V = chi_P phi with a Hoelder-continuous contrast phi.

    alpha, M are the declared Hoelder exponent and norm bound; mu the
    declared minimum of |phi| over the vertices of P.
    """
    polytope: Polytope
    phi: Callable[[np.ndarray], np.ndarray]
    alpha: float
    M: float
    mu: float
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        n = self.polytope.dim
        if (n == 2 and self.alpha <= 0) or (n == 3 and self.alpha <= 0.25):
            raise FieldError("Hoelder exponent too small for this dimension")

    def evaluate(self, grid: Grid) -> np.ndarray:
        """V sampled at cell centers: phi where the center lies in P, else 0.
        Only the reach box, the cells within P's vertex bounds widened by
        one per side and clipped, is sampled, at points of grid.axes()."""
        key = (grid.shape, grid.spacing, tuple(grid.origin))
        if key in self._cache:
            return self._cache[key]
        axes = grid.axes()
        v = self.polytope.vertices
        reach = tuple(slice(max(np.searchsorted(x, a) - 1, 0),
                            np.searchsorted(x, b, side="right") + 1)
                      for x, a, b in zip(axes, v.min(axis=0), v.max(axis=0)))
        pts = _tensor_points([x[s] for x, s in zip(axes, reach)])
        inside = polytope_mask(self.polytope, pts)
        vals = np.zeros(grid.shape, dtype=complex)
        if np.any(inside):
            vals[reach][inside] = self.phi(pts[inside])
        self._cache.clear()   # one grid at a time: the cache stays bounded
        self._cache[key] = vals
        return vals


def constant_contrast(P: Polytope, value: complex) -> ContrastField:
    c = complex(value)
    return ContrastField(P, lambda pts: np.full(pts.shape[:-1], c, dtype=complex),
                         alpha=1.0, M=abs(c), mu=abs(c))


def affine_contrast(P: Polytope, base: complex, gradient) -> ContrastField:
    g = np.asarray(gradient, dtype=complex)
    diam = float(np.max(np.linalg.norm(
        P.vertices[:, None, :] - P.vertices[None, :, :], axis=-1)))

    def phi(pts):
        return base + np.tensordot(pts, g, axes=1)

    M = float(abs(base) + np.linalg.norm(g) * (1 + diam))
    mu = float(np.min(np.abs(base + P.vertices @ g)))
    return ContrastField(P, phi, alpha=1.0, M=M, mu=mu)


def hoelder_bump_contrast(P: Polytope, center, alpha: float,
                          scale: complex) -> ContrastField:
    """phi(x) = base + scale * |x - x0|^alpha, exercising the Hoelder split
    phi = phi(x_c) + phi_alpha around the vertex x0."""
    x0 = np.asarray(center, dtype=float)
    s = complex(scale)

    def phi(pts):
        r = np.linalg.norm(pts - x0, axis=-1)
        return s * (1.0 + r ** alpha)

    vert_abs = np.abs(s * (1.0 + np.linalg.norm(P.vertices - x0, axis=-1) ** alpha))
    diam = float(np.max(np.linalg.norm(P.vertices - x0, axis=-1)))
    M = float(abs(s) * (1 + diam ** alpha) + abs(s))
    return ContrastField(P, phi, alpha=alpha, M=M, mu=float(np.min(vert_abs)))
