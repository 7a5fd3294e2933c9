"""Forward scattering solver via the Lippmann-Schwinger integral equation.

The total field solves u = u^i + k^2 Phi_k * (V u) with the outgoing
fundamental solution Phi_k (2D: (i/4) H_0^(1)(k|x|), 3D: e^(ik|x|)/(4 pi |x|)).
Only u on supp V enters the equation, so it is solved on the bounding box
of supp V.  The volume convolution maps a source box to a target box (box
to box in the solve, box to grid when the grid is read) by FFTs on one
circulant embedding of their offsets, run per axis over only the lines
that hold data; the singular cell is replaced by the analytic average of
Phi_k over an equal-measure disc/ball, and the linear system is solved
with a native restarted GMRES (numpy only, one true-residual matvec per
restart cycle).  The radiation condition is exact by
construction of the kernel.  The far field is summed over the bounding box
of supp V u, where the phase e^(-ik theta.y) splits into one factor per
grid axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft
from scipy.special import hankel1, j0, j1, jv, y0, y1

from .fields import ContrastField, FieldError, Grid, WaveField, plane_wave
from .specfun import bessel_j_orders, hankel_h1_factors

GMRES_RESTART = 50
GMRES_MAXITER = 2000
# the largest temporary a far-field or off-grid field evaluation allocates
# at once: directions x the partial sums left after the far field's first
# axis, or (points or orders) x source cells off the grid
BLOCK_ELEMENTS = 2 ** 20
# truncation tolerance of the Graf expansion, on J_N(k R_src) |H_N(k b)|
GRAF_TOL = 2.0 ** -52


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Fundamental solution and far-field constants
# ---------------------------------------------------------------------------

def fundamental_solution(k: float, r: np.ndarray, dim: int) -> np.ndarray:
    """Outgoing fundamental solution Phi_k(r) for r > 0; in 2D
    (i/4) H_0 = (i/4) J_0 - Y_0/4 from Cephes' j0 and y0."""
    r = np.asarray(r, dtype=float)
    if dim == 2:
        kr = k * r
        return 0.25j * j0(kr) - 0.25 * y0(kr)
    return np.exp(1j * k * r) / (4 * np.pi * r)


def singular_cell_integral(k: float, h: float, dim: int) -> complex:
    """Analytic integral of Phi_k over an equal-measure disc/ball replacing
    the singular cell of an h-cube."""
    if dim == 2:
        a = h / np.sqrt(np.pi)
        h1 = j1(k * a) + 1j * y1(k * a)
        return complex(0.5j * np.pi * a / k * h1 - 1.0 / k ** 2)
    a = h * (3.0 / (4 * np.pi)) ** (1.0 / 3.0)
    return complex((np.exp(1j * k * a) * (1j * k * a - 1) + 1) / (-k ** 2))


def far_field_constant(k: float, dim: int) -> complex:
    """gamma_n from Phi_k's large-radius factor e^(ikr)/r^((n-1)/2)."""
    if dim == 2:
        return np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * k)
    return 1.0 / (4 * np.pi)


# ---------------------------------------------------------------------------
# Volume equations x + G(m x) = rhs with a convolution G between two boxes
# ---------------------------------------------------------------------------

class PaddedFFTMultiplier:
    """x -> sum_s kappa(t - s) x(s) from the points s of a source box to
    the points t of a target box of one grid lattice; `grid` is the source
    box, and both boxes default to the grid.  Subclasses give `_kernel`,
    kappa on the tensor product of per-axis integer offsets.

    With b source and w target points per axis the offsets span
    b + w - 1 values, laid once on a cyclic lattice of next_fast_len(b + w)
    points: index i holds the offset i (i < w) or i - m, plus the offset
    of the target from the source.  x enters zero-padded, so the indices
    no pair of points reaches never contribute.

    `apply` runs one axis at a time over only the lines that can hold
    data: the forward passes, last axis first, each zero-pad their own
    axis, and each inverse pass crops its axis to the target at once.
    With an m^d lattice and a target of width w per axis, the inverse
    runs m^2 + w m + w^2 lines in 3D instead of 3 m^2, and m + w instead
    of 2 m in 2D."""

    def __init__(self, grid: Grid, source: Grid | None = None,
                 target: Grid | None = None):
        self.grid = grid if source is None else source
        self.target = grid if target is None else target
        shift = np.rint((self.target.origin - self.grid.origin)
                        / grid.spacing).astype(int)
        self._pad = tuple(fft.next_fast_len(b + w) for b, w in
                          zip(self.grid.shape, self.target.shape))
        offsets = []
        for c, m, w in zip(shift, self._pad, self.target.shape):
            i = np.arange(m)
            offsets.append(c + np.where(i < w, i, i - m))
        self._symbol = fft.fftn(self._kernel(grid, offsets), overwrite_x=True)

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = x
        for a in reversed(range(x.ndim)):
            # the first pass pads into a new array, so x is never written
            y = fft.fft(y, self._pad[a], axis=a, overwrite_x=y is not x)
        y *= self._symbol
        for a, w in enumerate(self.target.shape):
            y = fft.ifft(y, axis=a, overwrite_x=True)
            y = y[(slice(None),) * a + (slice(w),)]
        return y


class GreenConvolution(PaddedFFTMultiplier):
    """The volume potential x -> (Phi_k * x) h^n on a uniform grid.

    The kernel depends on each offset only through its size per axis, so
    Phi_k is evaluated once on the first orthant of offset sizes and read
    at |d| per axis; the singular cell d = 0 takes the analytic average."""

    def __init__(self, grid: Grid, k: float, source: Grid | None = None,
                 target: Grid | None = None):
        self.k = k
        super().__init__(grid, source, target)

    def _kernel(self, grid: Grid, offsets: list) -> np.ndarray:
        h = grid.spacing
        sizes = [np.abs(d) for d in offsets]
        axes = np.meshgrid(*[np.arange(s.max() + 1) * h for s in sizes],
                           indexing="ij", sparse=True)
        r = np.sqrt(sum(a ** 2 for a in axes))
        origin = (0,) * grid.dim
        r[origin] = h   # keeps r = 0 out of Phi_k; the cell is set below
        orthant = fundamental_solution(self.k, r, grid.dim) * grid.cell_volume
        orthant[origin] = singular_cell_integral(self.k, h, grid.dim)
        return orthant[np.ix_(*sizes)]


def gmres(matvec, b: np.ndarray, tol: float, restart: int,
          maxiter: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0, with
    A given by `matvec`.  Returns (x, inner iterations, r = b - A x).

    Each cycle builds an Arnoldi basis by modified Gram-Schmidt and
    reduces its Hessenberg matrix by complex Givens rotations in LAPACK's
    zlartg convention (c real, s complex), so |g_(j+1)| of the rotated
    right-hand side is the residual norm of the cycle's least-squares
    solution.  The inner loop stops when |g_(j+1)| <= tol ||b||, after
    `restart` steps, or on breakdown, h_(j+1,j) <= eps ||A v_j|| (the
    Krylov space holds the solution).  Every cycle then takes one matvec
    for the true residual r = b - A x, which it restarts from and which
    is returned; the solve has converged when ||r|| <= tol ||b||.  After
    `maxiter` cycles it returns unconverged, so the caller compares ||r||
    with tol ||b||.  A zero b returns x = 0, 0 iterations and r = b.

    perfbench/tracing.py looks this function up as `solver.gmres` and
    wraps it, so it keeps that name."""
    b = np.asarray(b, dtype=complex)
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x, 0, b
    atol = tol * bnorm
    eps = np.finfo(float).eps
    restart = min(restart, b.size)
    v = np.empty((restart + 1, b.size), dtype=complex)
    h = np.zeros((restart, restart + 1), dtype=complex)  # row j: column j
    rot = np.zeros((restart, 2), dtype=complex)          # (c, s) per step
    r, iterations = b, 0
    for _ in range(maxiter):
        g = np.zeros(restart + 1, dtype=complex)
        g[0] = np.linalg.norm(r)
        v[0] = r / g[0]
        for j in range(restart):
            w = matvec(v[j]).astype(complex)   # a copy, so v is never written
            h0 = np.linalg.norm(w)
            for i in range(j + 1):
                h[j, i] = np.vdot(v[i], w)
                w -= h[j, i] * v[i]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0
            h[j, j + 1] = 0 if breakdown else h1
            if not breakdown:
                v[j + 1] = w / h1
            for i, (c, s) in enumerate(rot[:j]):
                top = h[j, i]
                h[j, i] = c * top + s * h[j, i + 1]
                h[j, i + 1] = c * h[j, i + 1] - s.conjugate() * top
            c, s, h[j, j] = _givens(h[j, j], h[j, j + 1])
            rot[j] = c, s
            g[j], g[j + 1] = c * g[j], -s.conjugate() * g[j]
            iterations += 1
            if abs(g[j + 1]) <= atol or breakdown:
                break
        # back-substitution on the rotated triangle; a zero pivot (A
        # singular on the Krylov space) leaves its component at 0
        y = np.zeros(j + 1, dtype=complex)
        for i in range(j, -1, -1):
            if h[i, i] != 0:
                y[i] = (g[i] - h[i + 1:j + 1, i] @ y[i + 1:]) / h[i, i]
        x += y @ v[:j + 1]
        r = b - matvec(x)
        if np.linalg.norm(r) <= atol:
            break
    return x, iterations, r


def _givens(f: complex, g: complex) -> tuple[float, complex, complex]:
    """(c, s, r), c real, with [c s; -conj(s) c] [f; g] = [r; 0] as in
    LAPACK's zlartg."""
    if g == 0:
        return 1.0, 0j, f
    if f == 0:
        return 0.0, g.conjugate() / abs(g), abs(g)
    d = np.hypot(abs(f), abs(g))
    phase = f / abs(f)
    return abs(f) / d, phase * g.conjugate() / d, phase * d


def solve_volume_equation(op: PaddedFFTMultiplier, m: np.ndarray,
                          rhs: np.ndarray, tol: float,
                          maxiter: int) -> tuple[np.ndarray, int, float]:
    """Solve x + op.apply(m x) = rhs on op's grid by restarted GMRES
    (`gmres`, GMRES_RESTART steps per cycle, at most maxiter cycles).

    Returns (x, GMRES iterations, relative residual ||r|| / ||rhs||), r
    the true residual GMRES computes after its last cycle, so the solve
    takes iterations + cycles matvecs.  Raises SolverError with the
    residual when GMRES stops at maxiter restart cycles unconverged.
    """
    shape = rhs.shape

    def matvec(x):
        u = x.reshape(shape)
        return (u + op.apply(m * u)).ravel()

    sol, iterations, r = gmres(matvec, rhs.ravel(), tol, GMRES_RESTART,
                               maxiter)
    rnorm, bnorm = np.linalg.norm(r), np.linalg.norm(rhs)
    # a zero rhs has the exact solution 0, and its residual is absolute
    res = float(rnorm / (bnorm or 1.0))
    if rnorm > tol * bnorm:
        raise SolverError(f"GMRES did not converge in {maxiter} restart "
                          f"cycles (residual={res:.3e})")
    return sol.reshape(shape), iterations, res


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
    quadrature over the grid.

    The sum runs over the bounding box of the nonzeros of V u, of b_a
    points x_a per axis.  Every cell there is a grid point, so the phase
    splits per axis, e^(-ik theta.y) = prod_a e^(-ik theta_a y_a): axis 0
    is summed by one matmul with E_0 = exp(-ik theta_0 x_0), and each
    further axis a by a product with E_a row by row.  N directions cost
    N sum_a b_a exponentials and N prod_a b_a multiply-adds.  A block of
    directions holds at most BLOCK_ELEMENTS partial sums of the axes
    after the first.  An all-zero V u gives exact zeros."""
    g = u.grid
    src = Vvals * u.values
    support, box = support_box(src, g)
    sums = np.zeros(len(directions), dtype=complex)
    if box.shape[0]:
        src = src[support].reshape(box.shape[0], -1)
        axes = box.axes()
        for rows in _blocks(len(directions), src.shape[1]):
            theta = directions[rows]
            part = np.exp(-1j * k * np.outer(theta[:, 0], axes[0])) @ src
            for a in range(1, g.dim):
                part = part.reshape(len(theta), box.shape[a], -1)
                e = np.exp(-1j * k * np.outer(theta[:, a], axes[a]))
                part = (e[:, None, :] @ part)[:, 0]
            sums[rows] = part[:, 0]
    vals = far_field_constant(k, g.dim) * k ** 2 * sums * g.cell_volume
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
    """A forward solve.  The solve computes the total field only on `box`,
    the bounding box of supp V (index slices `support` of `grid`), where
    `box_contrast` holds V.  The full-grid `total` and `scattered` fields
    are rebuilt from it on first read by one convolution from the box to
    the grid."""
    contrast: ContrastField
    grid: Grid
    omega: np.ndarray
    support: tuple
    box: WaveField
    box_contrast: np.ndarray
    far_field: FarFieldPattern
    iterations: int
    residual: float

    @cached_property
    def total(self) -> WaveField:
        """u = u^i + k^2 Phi_k * (V u) on the grid, equal to the solved
        field on the box."""
        k, g = self.box.k, self.grid
        u = plane_wave(k, self.omega, g).values
        if self.box.values.size:
            src = -k ** 2 * self.box_contrast * self.box.values
            u = u - GreenConvolution(g, k, self.box.grid, g).apply(src)
            u[self.support] = self.box.values
        return WaveField(g, u, k)

    @cached_property
    def scattered(self) -> WaveField:
        ui = plane_wave(self.box.k, self.omega, self.grid)
        return WaveField(self.grid, self.total.values - ui.values, ui.k)


def solve_forward(V: ContrastField, k: float, omega, grid: Grid,
                  tol: float = 1e-8,
                  n_directions: int = 256) -> ScatteringSolution:
    """Solve u = u^i + k^2 Phi_k * (V u) by GMRES on the bounding box of
    supp V, the only place u enters the equation, and compute the far
    field from the box field.  A zero contrast has an empty box and the
    solution u = u^i."""
    Vvals = V.evaluate(grid)
    support, box = support_box(Vvals, grid)
    if box.shape[0] and any(s.start == 0 or s.stop == n
                            for s, n in zip(support, grid.shape)):
        raise SolverError("potential support escapes the grid interior")
    omega = np.asarray(omega, dtype=float)
    ui = plane_wave(k, omega, box)
    Vbox = Vvals[support]
    if Vbox.size:
        u, iterations, res = solve_volume_equation(
            GreenConvolution(grid, k, box, box), -k ** 2 * Vbox, ui.values,
            tol, GMRES_MAXITER)
    else:
        u, iterations, res = ui.values, 0, 0.0
    field = WaveField(box, u, k)
    dirs = default_directions(grid.dim, n_directions)
    ff = far_field_from_volume(Vbox, field, k, dirs)
    return ScatteringSolution(V, grid, omega, support, field, Vbox, ff,
                              iterations, res)


def support_box(values: np.ndarray, grid: Grid) -> tuple[tuple, Grid]:
    """Index slices of the bounding box of the nonzeros of `values` on
    `grid`, and that box as a Grid; both are empty when all values are 0.
    Each axis's range is read off the projection of the nonzeros onto it."""
    nz = values != 0
    lo, hi = np.zeros((2, grid.dim), dtype=int)
    dims = set(range(grid.dim))
    for a in dims:
        hit = np.flatnonzero(np.any(nz, axis=tuple(dims - {a})))
        if len(hit):
            lo[a], hi[a] = hit[0], hit[-1] + 1
    support = tuple(slice(a, b) for a, b in zip(lo, hi))
    return support, Grid(grid.origin + grid.spacing * lo, grid.spacing,
                         hi - lo)


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
        a_n = (i/4) k^2 h^2 sum_y J_n(k|y|) e^(-in theta_y) (V u)(y).
    J_0..J_N at each distinct source-cell radius come from one backward
    recurrence (specfun.bessel_j_orders, valid since k|y| <= k R_src <= N),
    and the phases e^(-in theta) at the cells and the points are the
    powers of one unit complex number each, so no Bessel or exp call is
    made per (order, cell) pair; H_0..H_N at each distinct evaluation
    radius come from one J_0 + i Y_0, J_1 + i Y_1 start and the order
    recurrence (specfun.hankel_h1_factors).  Let b be the nearest
    radius so evaluated.  For n >= k R_src, J_n(k|y|) <=
    J_n(k R_src), and |H_n| falls with its argument, so at every |x| >= b
    the dropped orders add at most
        (1/2) k^2 h^2 ||V u||_1 sum_{n>N} J_n(k R_src) |H_n(k b)|.
    N is the first order >= ceil(k R_src) whose term falls below
    GRAF_TOL = 2^-52.  Beyond N the terms fall off like (R_src/b)^n / n,
    so the bound is about GRAF_TOL R_src / (b - R_src) times that
    prefactor.

    The dense sum, one Phi_k evaluation per (point, cell) pair, serves
    every 3D point, every point with |x| <= R_src, and the points so close
    to R_src that J_n(k R_src) underflows or H_n(k b) overflows before the
    term falls below GRAF_TOL.
    """
    k = sol.box.k
    ys, amps = _volume_sources(sol)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(points), dtype=complex)
    graf = np.zeros(len(points), dtype=bool)
    if sol.grid.dim == 2:
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
    g = sol.box.grid
    src = sol.box_contrast * sol.box.values
    nz = src != 0
    return g.points()[nz], src[nz] * g.cell_volume * sol.box.k ** 2


def _dense_potential(k: float, ys: np.ndarray, amps: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """sum_y Phi_k(x - y) amps(y), one block of points at a time."""
    out = np.empty(len(points), dtype=complex)
    for rows in _blocks(len(points), len(ys)):
        r = np.sqrt(sum((points[rows, a, None] - ys[:, a]) ** 2
                        for a in range(ys.shape[1])))
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
    c_n e^(-in theta)) with c_n = (-1)^n a_{-n}, and c_0 = 0.  So
    a_n = (i/4) sum_y J_n(k|y|) e^(-in theta_y) w_y and c_n the same
    with e^(+in theta_y): one product table P = J e^(-in theta_y) gives
    both, as P w and conj(P conj(w))."""
    a = np.zeros(order + 1, dtype=complex)
    c = np.zeros(order + 1, dtype=complex)
    for rows in _blocks(len(ys), order + 1):
        y, w = ys[rows], amps[rows]
        kr, at = np.unique(k * np.linalg.norm(y, axis=1), return_inverse=True)
        p = _phase_powers(y, order)
        p *= bessel_j_orders(order, kr)[:, at]
        both = p @ np.stack([w, w.conj()], axis=1)
        a += both[:, 0]
        c += both[:, 1].conj()
    a *= 0.25j
    c *= 0.25j
    c[0] = 0
    out = np.empty(len(points), dtype=complex)
    for rows in _blocks(len(points), order + 1):
        p = points[rows]
        kr, at = np.unique(k * np.linalg.norm(p, axis=1), return_inverse=True)
        h = np.cumprod(hankel_h1_factors(0, order, kr), axis=0)[:, at]
        e = _phase_powers(p, order)
        out[rows] = np.sum(
            h * (a[:, None] * e.conj() + c[:, None] * e), axis=0)
    return out


def _phase_powers(v: np.ndarray, order: int) -> np.ndarray:
    """e^(-in theta_v) for n = 0..order as rows: the powers of
    z = (v_1 - i v_2)/|v|, with z = 1 at the origin."""
    r = np.linalg.norm(v, axis=1)
    z = np.ones(len(v), dtype=complex)
    np.divide(v[:, 0] - 1j * v[:, 1], r, out=z, where=r > 0)
    e = np.empty((order + 1, len(v)), dtype=complex)
    e[0] = 1
    for n in range(order):
        np.multiply(e[n], z, out=e[n + 1])
    return e


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
    return SampledField(pts, vals, sol.box.k), w

