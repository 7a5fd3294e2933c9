"""Propagation of smallness from the far field to scatterer boundaries.

The pipeline: a small far-field difference forces the radiating field to
be small on a large annulus (harmonic decomposition plus certified Hankel
envelopes), a three-balls inequality carries that smallness along chains
of balls to just outside the convex hull of the scatterer supports, and
Hoelder continuity bridges the last collar onto the hull boundary with a
double-logarithmic loss.

The three-balls constants (C, c1, c2, R_m) exist but are not explicit;
they are calibrated once per wavenumber by randomized sweeps over exact
Helmholtz solutions (plane-wave superpositions), inflated for safety and
persisted as a JSON artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields

import numpy as np
from scipy import special

from .geom import Polytope, point_polytope_distance
from .solver import FarFieldPattern
from .specfun import HankelBoundCertificate, certify_hankel_bounds, \
    hankel_h1_log_abs

TS_FACTOR = (2 + np.sqrt(2)) ** 1.5   # geometric factor of the three-balls bound
LAMBDA_DEFAULT = 0.25                 # annulus thickness parameter
A_DEFAULT = 2 + LAMBDA_DEFAULT        # escape-segment length parameter (>= 2+lambda)


class RellichError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Harmonic decomposition of far fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicDecomposition:
    """Degree-aggregated magnitudes b_j of a far-field pattern:
    sum b_j^2 = ||ff||^2 on the unit sphere, and the field radiating it has
    ||w||^2 on S(0,r) equal to (pi/2) sum b_j^2 kr |H_(j+(n-2)/2)(kr)|^2."""
    k: float
    dim: int
    b: np.ndarray            # (J+1,) nonnegative degree magnitudes
    coefficients: np.ndarray  # raw complex mode coefficients (phase data)
    J: int

    def parseval_total(self) -> float:
        return float(np.sum(self.b ** 2))


def decompose_far_field(ff: FarFieldPattern, J: int | None = None
                        ) -> HarmonicDecomposition:
    """2D: FFT over equispaced angles; 3D: discrete spherical-harmonic
    projection on the sampling directions."""
    n = len(ff.values)
    if ff.dim == 2:
        j_max = n // 2 - 1
        if J is None:
            J = j_max
        if J > j_max:
            raise RellichError(f"J={J} aliases on {n} angular samples")
        theta = np.arctan2(ff.directions[:, 1], ff.directions[:, 0])
        order = np.argsort(theta)
        c = np.fft.fft(ff.values[order]) / n
        b = np.zeros(J + 1)
        b[0] = np.sqrt(2 * np.pi) * np.abs(c[0])
        for j in range(1, J + 1):
            b[j] = np.sqrt(2 * np.pi * (np.abs(c[j]) ** 2 + np.abs(c[-j]) ** 2))
        return HarmonicDecomposition(ff.k, 2, b, c[:J + 1].copy(), J)
    # 3D: least-squares-free projection with equal quadrature weights
    j_max = max(1, int(np.sqrt(n)) // 2)
    if J is None:
        J = j_max
    if J > j_max:
        raise RellichError(f"J={J} aliases on {n} sphere samples")
    x, y, z = ff.directions.T
    phi = np.arctan2(y, x)
    theta = np.arccos(np.clip(z, -1, 1))
    w = 4 * np.pi / n
    b = np.zeros(J + 1)
    coeffs = []
    for deg in range(J + 1):
        total = 0.0
        for m in range(-deg, deg + 1):
            ylm = special.sph_harm_y(deg, m, theta, phi)
            c = w * np.sum(np.conj(ylm) * ff.values)
            coeffs.append(c)
            total += abs(c) ** 2
        b[deg] = np.sqrt(total)
    return HarmonicDecomposition(ff.k, 3, b, np.array(coeffs), J)


def sphere_norm_from_decomposition(dec: HarmonicDecomposition,
                                   r: float) -> float:
    """L2 norm of the radiating field on the sphere S(0,r) from the
    decomposition and Hankel magnitudes."""
    k = dec.k
    total = 0.0
    for j in range(dec.J + 1):
        if dec.b[j] == 0:
            continue
        nu = j + (dec.dim - 2) / 2
        log_h = hankel_h1_log_abs(nu, k * r)
        total += dec.b[j] ** 2 * k * r * np.exp(2 * log_h)
    return float(np.sqrt(np.pi / 2 * total))


# ---------------------------------------------------------------------------
# Far field to near field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ff2nfBound:
    bound: float
    regime: str      # "decay" | "saturated"
    ell: float
    nu0: float
    constant: float  # the multiplicative constant used
    log_bound: float = np.nan  # ln(bound), exact even when bound underflows


def ff2nf_bound(epsilon: float | None, S: float, k: float, R: float,
                B0: float,
                certificate: HankelBoundCertificate | None = None,
                log_ratio: float | None = None) -> Ff2nfBound:
    """Bound ||w||_L2 on the annulus B(0,2 B0 R) \\ B(0,B0 R) by the
    far-field size epsilon and the a-priori annulus bound S.

    Decay regime: bound = Const * S * B0^(-l/2), l = sqrt(2ekR ln(S/eps));
    otherwise the bound saturates proportionally to epsilon.  Symbolically
    tiny far-field sizes can be supplied as log_ratio = ln(S/eps) to avoid
    floating-point underflow.
    """
    if S < 0 or (epsilon is not None and epsilon < 0):
        raise RellichError("epsilon and S must be nonnegative")
    if B0 <= 1:
        raise RellichError("B0 must exceed 1")
    if log_ratio is None:
        if epsilon is None:
            raise RellichError("need epsilon or log_ratio")
        if epsilon == 0:
            return Ff2nfBound(0.0, "decay", np.inf, np.inf, 0.0, -np.inf)
        log_ratio = float(np.log(S / epsilon)) if S > 0 else -np.inf
    ell = float(np.sqrt(2 * np.e * k * R * max(log_ratio, 0.0)))
    nu0 = np.floor(ell) / 2
    if nu0 >= max(1.5, np.e * B0 * k * R) and log_ratio >= 0:
        if certificate is None:
            nu_max = min(200.0, max(np.ceil(min(ell, 400.0)) / 2 + 2, 10.0))
            certificate = certify_hankel_bounds(k * R, 2 * B0 * k * R, nu_max)
        C = certificate.C
        const = float(np.sqrt(2 * max(2 * C ** 2 * R / np.e, C ** 4))
                      * B0 ** 1.5)
        log_bound = np.log(const) + np.log(S) - 0.5 * ell * np.log(B0)
        bound = float(np.exp(log_bound)) if log_bound > -700 else 0.0
        return Ff2nfBound(bound, "decay", ell, float(nu0), const,
                          float(log_bound))
    # saturated: S/eps is itself bounded, so the annulus norm is O(eps)
    log_const = (1 + max(3.0, 2 * np.e * B0 * k * R)) ** 2 / (2 * np.e * k * R)
    const = float(np.exp(min(log_const, 700.0)))
    if epsilon is None:
        epsilon = S * float(np.exp(-min(log_ratio, 700.0)))
    return Ff2nfBound(const * epsilon, "saturated", ell, float(nu0), const,
                      float(np.log(const * epsilon)) if epsilon > 0
                      else -np.inf)


# ---------------------------------------------------------------------------
# Calibration of the three-balls constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    k: float
    R_m: float
    C: float
    c1: float
    c2: float
    seed: int
    trials: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Calibration":
        data = json.loads(text)
        names = {f.name for f in fields(Calibration)}
        return Calibration(**{k: v for k, v in data.items() if k in names})

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @staticmethod
    def load(path) -> "Calibration":
        with open(path) as f:
            return Calibration.from_json(f.read())

    @property
    def chain_constant(self) -> float:
        log_const = (4.0 / (3.0 * self.c1)) * np.log(self.C * TS_FACTOR)
        return float(np.exp(min(log_const, 700.0)))


def random_helmholtz_field(k: float, dim: int, rng: np.random.Generator,
                           n_waves: int = 20):
    """Exact Helmholtz solution: random superposition of plane waves.
    Returns a callable pts (..., dim) -> complex values."""
    if dim == 2:
        ang = rng.uniform(0, 2 * np.pi, n_waves)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = rng.standard_normal((n_waves, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = rng.standard_normal(n_waves) + 1j * rng.standard_normal(n_waves)

    def field(pts):
        pts = np.asarray(pts, dtype=float)
        phase = np.tensordot(pts, dirs.T, axes=1)
        return np.exp(1j * k * phase) @ amps

    return field


def ball_sup(field, center, radius, rng: np.random.Generator,
             n_samples: int = 600) -> float:
    """Sampled sup |field| over a ball: uniform interior points plus the
    center."""
    center = np.asarray(center, dtype=float)
    dim = center.size
    raw = rng.standard_normal((n_samples, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = radius * rng.uniform(0, 1, n_samples) ** (1.0 / dim)
    pts = np.vstack([center, center + raw * radii[:, None]])
    return float(np.max(np.abs(field(pts))))


@dataclass(frozen=True)
class ThreeSpheresResult:
    norm_r: float
    norm_2r: float
    norm_4r: float
    beta_star: float
    degenerate: bool

    def rhs(self, beta: float, C: float = 1.0) -> float:
        return float(C * TS_FACTOR
                     * self.norm_4r ** (1 - beta) * self.norm_r ** beta)

    @property
    def lhs(self) -> float:
        return self.norm_2r


def three_spheres_check(field, x, r: float, rng=None,
                        cal: "Calibration | None" = None,
                        n_samples: int = 600) -> ThreeSpheresResult:
    """Measure sup-norms on B(x,r), B(x,2r), B(x,4r) and solve for the
    interpolation exponent beta* solving
    ||w||_2r = ||w||_4r^(1-beta) ||w||_r^beta."""
    if cal is not None and 4 * r >= cal.R_m:
        raise RellichError("4r must stay below the calibrated R_m")
    rng = np.random.default_rng(0) if rng is None else rng
    x = np.asarray(x, dtype=float)
    # one nested point cloud keeps the estimated sups monotone in the radius
    sups = []
    for radius in (r, 2 * r, 4 * r):
        sups.append(ball_sup(field, x, radius, rng, n_samples))
    n1 = sups[0]
    n2 = max(sups[0], sups[1])
    n4 = max(sups)
    # any two coinciding norms leave the interpolation exponent undefined
    degenerate = (n4 <= 0 or n1 <= 0 or n1 / n4 > 1 - 1e-9
                  or n2 / n4 > 1 - 1e-9 or n1 / n2 > 1 - 1e-9)
    if degenerate:
        beta = np.nan
    else:
        beta = float(np.log(n2 / n4) / np.log(n1 / n4))
    return ThreeSpheresResult(n1, n2, n4, beta, degenerate)


def calibration_sweep(k: float, dim: int, R_m: float, trials: int,
                      seed: int, n_waves: int = 20):
    """The documented-seed trial stream behind `calibrate`.

    Yields one ThreeSpheresResult per trial so verification runs can replay
    exactly the population the constants were certified on."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        field = random_helmholtz_field(k, dim, rng, n_waves)
        x = rng.uniform(-0.5, 0.5, dim)
        r = rng.uniform(R_m / 8, R_m / 4 * 0.999)
        yield three_spheres_check(field, x, r, rng)


def calibrate(k: float, dim: int = 2, R_m: float | None = None,
              trials: int = 100, seed: int = 0,
              n_waves: int = 20) -> Calibration:
    """Calibrate (C, c1, c2, R_m) by randomized plane-wave sweeps.

    c1 is deflated and C inflated by 10% so the three-balls inequality with
    beta anywhere in [c1/4, 1 - 3 c1/4] holds on every observed field.
    """
    if R_m is None:
        R_m = min(1.0, 2.0 / k)
    records = [res for res in
               calibration_sweep(k, dim, R_m, trials, seed, n_waves)
               if not res.degenerate]
    if not records:
        raise RellichError("all calibration trials degenerate")
    betas = np.array([res.beta_star for res in records])
    c1 = 0.9 * min(4 * float(betas.min()), 4.0 / 3.0 * (1 - float(betas.max())))
    c1 = float(np.clip(c1, 1e-9, 0.99))
    c2 = c1 / 4
    # the bound is tightest at the top of the admissible exponent range, so
    # certifying C there makes it hold for every beta in [c1/4, 1 - 3c1/4]
    beta_top = 1 - 3 * c1 / 4
    ratios = [res.norm_2r / res.rhs(beta_top) for res in records]
    C = max(1.0, 1.1 * float(np.max(ratios)))
    return Calibration(float(k), float(R_m), C, c1, float(c2),
                       int(seed), len(records))


# ---------------------------------------------------------------------------
# Chains of balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagationPath:
    centers: np.ndarray   # (K, dim)
    r: float

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", c)
        if self.r <= 0:
            raise RellichError("chain radius must be positive")
        steps = np.linalg.norm(np.diff(c, axis=0), axis=1)
        if np.any(steps > self.r * (1 + 1e-9)):
            raise RellichError("consecutive chain centers further than r apart")

    @property
    def K(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class ChainResult:
    bound: float
    measured_start: float
    measured_end: float
    K: int


def propagate_chain(field, path: PropagationPath, T: float,
                    cal: Calibration, rng=None,
                    clearance=None) -> ChainResult:
    """Telescoped chain bound ||w||_(B_K) <= C_chain T ||w||_(B_1)^(c2^(K-1)).

    `clearance(center) -> distance to the domain boundary` is checked
    against 3r when provided.
    """
    if 4 * path.r >= cal.R_m:
        raise RellichError("4r must stay below the calibrated R_m")
    if T < 1:
        raise RellichError("the global bound T must be at least 1")
    if clearance is not None:
        for c in path.centers:
            if clearance(c) < 3 * path.r - 1e-12:
                raise RellichError("chain ball too close to the domain boundary")
    rng = np.random.default_rng(0) if rng is None else rng
    m1 = ball_sup(field, path.centers[0], path.r, rng)
    mK = ball_sup(field, path.centers[-1], path.r, rng)
    if m1 > 1 + 1e-9:
        raise RellichError("chain start norm exceeds 1")
    if path.K == 1:
        return ChainResult(m1, m1, mK, 1)
    exponent = cal.c2 ** (path.K - 1)
    bound = cal.chain_constant * T * m1 ** exponent
    return ChainResult(float(bound), m1, mK, path.K)


def propagate_outside_hull(field, Q: Polytope, query, r: float,
                           lam: float, delta: float, T: float,
                           cal: Calibration, R: float,
                           rng=None) -> ChainResult:
    """Carry delta-smallness on the annulus B((2-lam)R) \\ B((1+lam)R)
    to a query point outside B(Q, 4r), along the radial escape ray the
    convexity of Q guarantees."""
    if not (0 < lam < 0.5):
        raise RellichError("lambda must lie in (0, 1/2)")
    if 4 * r > cal.R_m or 2 * r >= (1 - 2 * lam) * R:
        raise RellichError("chain radius too large for this geometry")
    if not (0 < delta <= 1):
        raise RellichError("delta must lie in (0, 1]")
    query = np.asarray(query, dtype=float)
    if Q is not None:
        if point_polytope_distance(query, Q) < 4 * r - 1e-12:
            raise RellichError("query point is inside the 4r collar of Q")
    nq = np.linalg.norm(query)
    direction = (query / nq if nq > 1e-12
                 else np.ones_like(query) / np.sqrt(query.size))
    # choose the radial ray (away from or through the origin) clear of B(Q,4r)
    target_radius = (1 + lam) * R + r
    for d in (direction, -direction):
        end = _ray_exit(query, d, target_radius)
        if end is None:
            continue
        if Q is None or _segment_clear(query, end, Q, 4 * r):
            seg_len = np.linalg.norm(end - query)
            n_steps = int(np.ceil(seg_len / r)) if seg_len > 0 else 0
            ts = np.linspace(1.0, 0.0, n_steps + 1)
            centers = end + np.outer(1 - ts, query - end)
            path = PropagationPath(centers, r)
            rng = np.random.default_rng(0) if rng is None else rng
            m_first = ball_sup(field, centers[0], r, rng)
            if m_first > delta * (1 + 1e-6):
                raise RellichError("annulus smallness assumption fails at the "
                                   "chain start")
            exponent = cal.c2 ** (path.K - 1)
            bound = cal.chain_constant * T * delta ** exponent
            m_end = ball_sup(field, query, r, rng)
            return ChainResult(float(bound), m_first, m_end, path.K)
    raise RellichError("no radial escape ray clears B(Q, 4r)")


def uniform_outside_hull_bound(delta: float, r: float, lam: float,
                               T: float, cal: Calibration, R: float) -> float:
    """The query-independent form C T delta^(c2^((2+lam)R/r + 2))."""
    exponent = cal.c2 ** ((2 + lam) * R / r + 2)
    return float(cal.chain_constant * T * delta ** exponent)


def _ray_exit(start, direction, target_radius):
    """Point along start + t*direction (t >= 0) at the target radius."""
    b = float(np.dot(start, direction))
    c = float(np.dot(start, start)) - target_radius ** 2
    disc = b * b - c
    if disc < 0:
        return None
    t = -b + np.sqrt(disc)
    if t < 0:
        return None
    return start + t * np.asarray(direction)


def _segment_clear(a, b, Q: Polytope, margin: float, n_check: int = 64) -> bool:
    ts = np.linspace(0, 1, n_check)
    for t in ts:
        if point_polytope_distance(a + t * (b - a), Q) < margin - 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# Crossing into the boundary layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingResult:
    r_delta: float
    bound: float
    delta_max: float
    delta_ok: bool


def cross_into_boundary(delta: float, alpha: float, T: float, A: float,
                        cal: Calibration, R: float,
                        lam: float = LAMBDA_DEFAULT,
                        log_delta: float | None = None) -> CrossingResult:
    """Hoelder bridge onto the boundary collar: with r(d) =
    A R |ln c2| / ((1-alpha) ln|ln d|), points within 4 r(d) of the hull
    boundary obey |w| <= ((8AR|ln c2|/(1-alpha))^alpha + C/c2^2)
    (ln|ln d|)^(-alpha) T.

    log_delta = ln(delta) may be given for deltas below underflow.
    """
    if not (0 < alpha < 1):
        raise RellichError("Hoelder exponent must lie in (0, 1)")
    if A < 2 + lam:
        raise RellichError("A must be at least 2 + lambda")
    if log_delta is None:
        if not (0 < delta < 1):
            raise RellichError("delta must lie in (0, 1)")
        log_delta = float(np.log(delta))
    elif log_delta >= 0:
        raise RellichError("delta must lie in (0, 1)")
    log_c2 = abs(np.log(cal.c2))
    geom = min(cal.R_m, R / 2, 2 * (1 - 2 * lam) * R)
    log_delta_max = -np.exp(min(4 * A * R * log_c2 / (1 - alpha) / geom,
                                700.0))
    delta_max = float(np.exp(max(log_delta_max, -700.0)))
    delta_ok = log_delta < log_delta_max
    lnln = np.log(abs(log_delta))
    if lnln <= 0:
        raise RellichError("delta too close to 1 for the double-log bridge")
    r_delta = A * R * log_c2 / ((1 - alpha) * lnln)
    numer = (8 * A * R * log_c2 / (1 - alpha)) ** alpha + cal.C / cal.c2 ** 2
    bound = numer / lnln ** alpha * T
    return CrossingResult(float(r_delta), float(bound), delta_max,
                          bool(delta_ok))


# ---------------------------------------------------------------------------
# The full quantitative pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RellichBound:
    boundary_bound: float
    delta: float
    regime: str
    r_delta: float
    delta_ok: bool
    nf: Ff2nfBound | None


def quantitative_rellich(epsilon: float | None, S: float, k: float, R: float,
                         cal: Calibration, T: float,
                         B0: float = 2.0, alpha: float = 0.5,
                         A: float = A_DEFAULT,
                         lam: float = LAMBDA_DEFAULT,
                         log_ratio: float | None = None) -> RellichBound:
    """Chain far-field -> near-field -> hull collar -> boundary.

    Returns the double-log boundary bound, applicable to both the
    difference field and (applied to difference quotients) its gradient.
    The alpha = 1/2 default reflects the C^(1,1/2) interior regularity of
    total-wave differences.  log_ratio = ln(S/epsilon) admits symbolically
    tiny far-field sizes.
    """
    if epsilon is not None and epsilon < 0:
        raise RellichError("epsilon must be nonnegative")
    if epsilon == 0:
        return RellichBound(0.0, 0.0, "zero", 0.0, True, None)
    nf = ff2nf_bound(epsilon, S, k, R, B0, log_ratio=log_ratio)
    if nf.regime == "saturated" or not nf.log_bound < 0:
        # smallness never reaches the propagation stage; only the trivial
        # a-priori bound survives
        delta = min(nf.bound, 1.0) if nf.bound > 0 else 1.0
        return RellichBound(float(T), delta, "saturated", 0.0, False, nf)
    crossing = cross_into_boundary(nf.bound, alpha, T, A, cal, R, lam,
                                   log_delta=nf.log_bound)
    return RellichBound(crossing.bound, float(nf.bound), "decay",
                        crossing.r_delta, crossing.delta_ok, nf)


def far_field_epsilon(ff_diff: FarFieldPattern) -> float:
    return float(ff_diff.l2_norm())
