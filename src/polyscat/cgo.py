"""Complex exponential solutions decaying in a cone.

Builds the admissible complex direction curve rho(tau) with
rho.rho + k^2 = 0 attached to a spherical cone, evaluates the Laplace
transform of e^(rho.(x-x_c)) over a simplicial cone by one closed form
for 2D wedges and 3D trihedra, and solves the conjugated remainder
equation (Lap + 2 rho.grad + q) psi = -q by a Fourier-multiplier Green
operator on the grid's doubled periodic lattice, applied between boxes
of the grid: GMRES on the bounding box of supp q, then one apply from
that box to the grid, giving the special solution
u0 = e^(rho.(x-x_c)) (1 + psi).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .fields import ContrastField, Grid, WaveField
from .geom import GeometryError, PolyCone, _angle_between
from .solver import (PaddedFFTMultiplier, SolverError, solve_volume_equation,
                     support_box)

FIXED_R = {2: 6.0 / 5.0, 3: 4.0 / 3.0}   # r = 2(n+1)/(n+3)
SMOOTHNESS = 0.49                         # smoothness index s of the contrast
CONTRACTION_LIMIT = 0.9
REMAINDER_TOL = 1e-10     # GMRES tolerance of the remainder solve
PLATEAU_FRAC = 0.9        # share of |L(zeta)| that starts the plateau


class CgoError(RuntimeError):
    pass


class MultiplierSingularity(CgoError):
    def __init__(self, min_abs: float, suggested_tau: float):
        super().__init__(f"Fourier multiplier within {min_abs:.2e} of a lattice "
                         f"zero; retry with tau={suggested_tau!r}")
        self.suggested_tau = suggested_tau


# ---------------------------------------------------------------------------
# Directions on the curve rho(tau)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CgoDirection:
    zeta: np.ndarray    # complex unit pair: zeta.zeta = 0, |Re|=|Im|=1
    tau: float
    k: float
    rho: np.ndarray     # tau Re zeta + i sqrt(tau^2+k^2) Im zeta
    vertex: np.ndarray
    delta0: float       # cos(alpha'): decay constant in the cone

    @property
    def dim(self) -> int:
        return self.zeta.size

    @property
    def im_rho_norm(self) -> float:
        return float(np.linalg.norm(np.imag(self.rho)))


def _orthogonal_unit(axis: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the axis: 2D rotates by +pi/2,
    3D Gram-Schmidts the lowest-index coordinate vector not parallel to it."""
    if axis.size == 2:
        return np.array([-axis[1], axis[0]])
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        v = e - np.dot(e, axis) * axis
        n = np.linalg.norm(v)
        if n > 1e-9:
            v = v / n
            # second projection pass: the residual component along the axis
            # is amplified by tau^2 downstream, so push it to ~eps^2
            v = v - np.dot(v, axis) * axis
            return v / np.linalg.norm(v)
    raise CgoError("could not build an orthogonal direction")


def build_direction(q_cone: PolyCone, k: float, tau: float) -> CgoDirection:
    """Direction on the curve attached to a spherical cone: -Re zeta is the
    unit vector on the cone's central axis, Im zeta a deterministic
    orthogonal unit vector, and rho = tau Re zeta + i sqrt(tau^2+k^2) Im zeta."""
    if q_cone.kind != "spherical":
        raise CgoError("directions are built from a spherical cone")
    alpha_p = q_cone.half_angle
    if alpha_p >= np.pi / 2:
        raise CgoError("cone half-angle must be below pi/2")
    if tau <= 0:
        raise CgoError("tau must be positive")
    axis = q_cone.generators[0]
    re = -axis
    im = _orthogonal_unit(re)
    zeta = re + 1j * im
    rho = tau * re + 1j * np.sqrt(tau ** 2 + k ** 2) * im
    return CgoDirection(zeta, float(tau), float(k), rho,
                        q_cone.vertex.copy(), float(np.cos(alpha_p)))


# ---------------------------------------------------------------------------
# Cone Laplace transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeTransform:
    value: complex
    a: float = 0.0       # 2D wedge slope cot(opening angle)


def cone_laplace(cone: PolyCone, vec: np.ndarray) -> ConeTransform:
    """Closed-form int_cone e^(vec.(x - x_c)) dx over a simplicial cone,
    the same in 2D and 3D: |det G| / prod_i(-vec.g_i) for the generators
    g_i, which converges when Re vec.g_i < 0 for every i.  In 2D `a` is
    the wedge slope g_0.g_1 / |det G| = cot(alpha).  Raises if the
    convergence condition fails, and for a cone with more generators
    than its dimension, whose transform is the sum over a fan of
    simplicial cones (ROADMAP item 17, step 2)."""
    vec = np.asarray(vec, dtype=complex)
    if cone.kind != "polyhedral":
        raise CgoError("Laplace transform requires a polyhedral cone")
    g = cone.generators
    if len(g) != cone.dim:
        raise CgoError(f"cone with {len(g)} generators is not simplicial; "
                       "its transform needs a fan of simplicial cones "
                       "(ROADMAP item 17, step 2)")
    xi = g @ vec
    if not np.all(np.real(xi) < 0):
        raise CgoError("convergence condition violated for this "
                       "(cone, direction) pairing")
    det = abs(np.linalg.det(g))
    a = g[0] @ g[1] / det if cone.dim == 2 else 0.0
    return ConeTransform(complex(det / np.prod(-xi)), float(a))


def check_cone_geometry(p_cone: PolyCone, q_cone: PolyCone) -> None:
    """Validate the (spherical cone, polyhedral cone) pairing used by the
    lower-bound curve: common vertex, containment, half-angle below pi/2."""
    if q_cone.kind != "spherical" or p_cone.kind != "polyhedral":
        raise GeometryError("expected (polyhedral, spherical) cone pair")
    if np.linalg.norm(p_cone.vertex - q_cone.vertex) > 1e-12:
        raise GeometryError("cones must share their vertex")
    if q_cone.half_angle >= np.pi / 2:
        raise GeometryError("spherical cone half-angle must be below pi/2")
    axis = q_cone.generators[0]
    for g in p_cone.generators:
        if _angle_between(axis, g) > q_cone.half_angle + 1e-12:
            raise GeometryError("polyhedral cone is not contained in the "
                                "spherical cone")


@dataclass(frozen=True)
class LowerBoundCurve:
    taus: np.ndarray
    values: np.ndarray       # tau^n |L(rho(tau))|
    zeta_value: complex      # L(zeta)
    tau0: float
    c: float


def lower_bound_curve(p_cone: PolyCone, q_cone: PolyCone, k: float,
                      tau_grid: np.ndarray) -> LowerBoundCurve:
    """Evaluate tau^n |L(rho(tau))| along the curve; the plateau constant is
    the minimum beyond the first grid point within PLATEAU_FRAC of |L(zeta)|."""
    check_cone_geometry(p_cone, q_cone)
    taus = np.asarray(tau_grid, dtype=float)
    n = p_cone.dim
    zeta_val = cone_laplace(p_cone, build_direction(q_cone, k, taus[0]).zeta).value
    vals = np.empty(len(taus))
    for i, tau in enumerate(taus):
        d = build_direction(q_cone, k, tau)
        vals[i] = tau ** n * abs(cone_laplace(p_cone, d.rho).value)
    target = PLATEAU_FRAC * abs(zeta_val)
    above = np.nonzero(vals >= target)[0]
    i0 = int(above[0]) if len(above) else len(taus) - 1
    c = float(np.min(vals[i0:]))
    return LowerBoundCurve(taus, vals, zeta_val, float(taus[i0]), c)


# ---------------------------------------------------------------------------
# The Fourier-multiplier Green operator and the remainder solve
# ---------------------------------------------------------------------------

class FaddeevGreen(PaddedFFTMultiplier):
    """G_rho: Fourier multiplier 1/(-|xi|^2 + 2i rho.xi) on the grid's
    periodized lattice of 2n points per axis, between boxes of the grid.

    The symbol vanishes at xi = 0 for every rho, so its frequencies are
    shifted by half a quantum per axis; remaining near-zeros on the
    characteristic circle are detected and reported with a perturbed tau
    to retry with.  Otherwise `min_abs`, the smallest |symbol| on that
    lattice, gives the bound ||G_rho|| <= 1/min_abs, which every
    compression to boxes keeps.  The kernel at offset d is
    K[d mod 2n] e^(i pi d / 2n) per axis, K the inverse FFT of 1/symbol,
    computed once per direction; `between` re-embeds it for other boxes.
    """

    def __init__(self, grid: Grid, rho: np.ndarray,
                 source: Grid | None = None, target: Grid | None = None):
        self.domain = grid   # the grid whose 2n lattice defines the symbol
        lattice = [2 * s for s in grid.shape]
        xi = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
                           + np.pi / (m * grid.spacing) for m in lattice],
                         indexing="ij", sparse=True)
        symbol = (-sum(x ** 2 for x in xi)
                  + 2j * sum(r * x for r, x in zip(rho, xi)))
        self.min_abs = float(np.min(np.abs(symbol)))
        if self.min_abs < 1e-8:
            tau = float(np.linalg.norm(np.real(rho)))
            dq = 2 * np.pi / (lattice[0] * grid.spacing)
            raise MultiplierSingularity(self.min_abs, tau + dq)
        self._table = fft.ifftn(1.0 / symbol, overwrite_x=True)
        super().__init__(grid, source, target)

    def between(self, source: Grid, target: Grid) -> FaddeevGreen:
        """G_rho from the box `source` to the box `target` of the domain."""
        op = copy.copy(self)
        PaddedFFTMultiplier.__init__(op, self.domain, source, target)
        return op

    def _kernel(self, grid: Grid, offsets: list) -> np.ndarray:
        lattice = self._table.shape
        phase = sum(np.ix_(*[d / m for d, m in zip(offsets, lattice)]))
        return (self._table[np.ix_(*[d % m for d, m in zip(offsets, lattice)])]
                * np.exp(1j * np.pi * phase))


def contraction_estimate(green: FaddeevGreen, q: np.ndarray) -> float:
    """The fixed-point contraction factor ||G_rho m_q|| on the grid, or a
    bound on it.

    Every ratio ||G_rho(q x)|| / ||x|| is at most the certified bound
    ||q||_inf / min_abs.  When that bound is below CONTRACTION_LIMIT it is
    returned and no operator is applied.  Otherwise a six-step power
    iteration with G_rho from the whole grid to itself, re-embedded from
    `green`'s kernel, estimates the factor; the estimate never exceeds
    the bound, so the gate decides as the estimate alone would."""
    bound = float(np.max(np.abs(q))) / green.min_abs
    if bound < CONTRACTION_LIMIT:
        return bound
    green = green.between(green.domain, green.domain)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(green.grid.shape) \
        + 1j * rng.standard_normal(green.grid.shape)
    x /= np.linalg.norm(x)
    rate = 0.0
    for _ in range(6):
        y = green.apply(q * x)
        rate = np.linalg.norm(y)
        if rate == 0:
            return 0.0
        x = y / rate
    return float(rate)


def solve_faddeev(q: np.ndarray, rho: np.ndarray, grid: Grid) -> WaveField:
    """Solve (Lap + 2 rho.grad + q) psi = -q as psi = -G_rho(q (1 + psi)).

    Only psi on supp q enters the equation, so it is solved on the
    bounding box B of supp q: GMRES solves psi + G(q psi) = -G q with G
    from B to B, and psi on the grid is -G(q (1 + psi)) with G re-embedded
    from B to the grid, the box solution pasted back.  The lattice kernel
    is computed once; a zero q gives psi = 0 and builds no operator.

    Rejects directions whose fixed-point map is not an observable
    contraction (factor >= 0.9), standing in for the non-computable
    operator-norm admissibility threshold.  The gate reads
    `contraction_estimate` on the full grid, which certifies by the bound
    ||q||_inf / min_abs before it iterates.  Where that bound is below
    0.9, GMRES's residual after j steps is at most 0.9^j of the first, so
    the solve reaches REMAINDER_TOL within 219 iterations, far inside
    solver.GMRES_MAXITER.
    """
    q = np.asarray(q, dtype=complex)
    # psi solves no Helmholtz equation: the WaveField's k is moot
    if not np.any(q):
        return WaveField(grid, np.zeros(grid.shape, dtype=complex), k=0.0)
    support, box = support_box(q != 0, grid)
    qb = q[support]
    green = FaddeevGreen(grid, rho, box, box)
    rate = contraction_estimate(green, q)
    if rate >= CONTRACTION_LIMIT:
        raise CgoError(f"fixed-point contraction factor {rate:.3f} >= "
                       f"{CONTRACTION_LIMIT}; |Im rho| too small for this "
                       "contrast")
    try:
        psi_box, _, _ = solve_volume_equation(
            green, qb, green.apply(-qb), REMAINDER_TOL)
    except SolverError as exc:
        raise CgoError(f"remainder solve: {exc}") from exc
    psi = green.between(box, grid).apply(-qb - qb * psi_box)
    psi[support] = psi_box
    return WaveField(grid, psi, k=0.0)


def lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    a = np.abs(values)
    if np.isinf(p):
        return float(np.max(a))
    return float((np.sum(a ** p) * cell_volume) ** (1.0 / p))


@dataclass(frozen=True)
class DecayCase:
    case: int
    p: float
    beta: float
    decay_exponent: float  # 2 + n/r' - n/r = n/p + beta


def faddeev_decay_case(n: int) -> DecayCase:
    """The Lebesgue exponent p and decay split (n/p, beta) at s = SMOOTHNESS
    and r = FIXED_R[n]: case 1 in 2D (s > n/r' = 1/3, p = inf, beta = 2/3),
    case 3 in 3D (s < n/r' = 3/4, p = 3/0.26).  Neither the equality case
    s = n/r' nor the excluded regime s <= n/r - 2 occurs."""
    s, r = SMOOTHNESS, FIXED_R[n]
    rp = r / (r - 1)
    decay = 2 + n / rp - n / r
    if s > n / rp:
        case, p = 1, np.inf
    else:
        case, p = 3, n / (n / rp - s)
    n_over_p = 0.0 if np.isinf(p) else n / p
    return DecayCase(case, float(p), float(decay - n_over_p), float(decay))


def build_cgo(V: ContrastField, k: float, direction: CgoDirection,
              grid: Grid) -> tuple[WaveField, WaveField]:
    """u0 = e^(rho.(x - x_c)) (1 + psi) with psi solving the remainder
    equation for q = k^2 V.  Returns (u0, psi)."""
    psi = solve_faddeev(k ** 2 * V.evaluate(grid), direction.rho, grid)
    phase = np.tensordot(grid.points() - direction.vertex, direction.rho, axes=1)
    u0 = np.exp(phase) * (1.0 + psi.values)
    return WaveField(grid, u0, k), psi
