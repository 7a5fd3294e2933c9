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

from .geom import Polytope, coord_dot, polytope_distance
from .solver import FarFieldPattern
from .specfun import certify_hankel_bounds, hankel_h1_log_abs

TS_FACTOR = (2 + np.sqrt(2)) ** 1.5   # geometric factor of the three-balls bound
B0_DEFAULT = 2.0                      # annulus B(0,2 B0 R) \ B(0,B0 R) scale
ALPHA_DEFAULT = 0.5                   # C^(1,1/2) regularity of total-wave differences
LAMBDA_DEFAULT = 0.25                 # annulus thickness parameter
A_DEFAULT = 2 + LAMBDA_DEFAULT        # escape-segment length parameter (>= 2+lambda)
N_WAVES = 20                          # plane waves per random Helmholtz field
BALL_SAMPLES = 600                    # interior samples per sampled ball sup
UNRESOLVED_SHARE = 1e-12              # share of a sphere norm left to rounding noise


class RellichError(RuntimeError):
    pass


def float_view(log_value: float) -> float:
    """exp(log_value) as a float: 0 below the float range, inf above it and
    never a clamped value.  Every bound of the chain is carried as its
    logarithm; this is the one place one becomes a float."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_value))


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
    J: int

    def parseval_total(self) -> float:
        return float(np.sum(self.b ** 2))


def decompose_far_field(ff: FarFieldPattern, J: int | None = None
                        ) -> HarmonicDecomposition:
    """2D: FFT over equispaced angles; 3D: least-squares fit of the spherical
    harmonics to the samples (equal weights are not an exact quadrature).

    Degrees run up to j_max, the highest the samples resolve without
    aliasing (n/2 - 1 on n angles, sqrt(n)/2 on n sphere points).  The
    default J is the highest degree whose b_j exceeds the rounding floor
    (j_max + 1) eps ||b|| of that full projection; degrees above it are
    rounding noise.  An explicit J is used as given."""
    n = len(ff.values)
    j_max = n // 2 - 1 if ff.dim == 2 else max(1, int(np.sqrt(n)) // 2)
    if J is not None and J > j_max:
        raise RellichError(f"J={J} aliases on {n} "
                           f"{'angular' if ff.dim == 2 else 'sphere'} samples")
    if ff.dim == 2:
        theta = np.arctan2(ff.directions[:, 1], ff.directions[:, 0])
        order = np.argsort(theta)
        c = np.fft.fft(ff.values[order]) / n
        b = np.empty(j_max + 1)
        b[0] = np.sqrt(2 * np.pi) * np.abs(c[0])
        # degree j pairs c[j] with c[-j].  float_power squares through pow
        # like numpy's scalar **, where array ** 2 multiplies
        sq = np.float_power(np.abs(c), 2)
        b[1:] = np.sqrt(2 * np.pi * (sq[1:j_max + 1] + sq[:-j_max - 1:-1]))
    else:
        # one fit over every (degree, order) pair up to j_max
        deg = np.repeat(np.arange(j_max + 1), 2 * np.arange(j_max + 1) + 1)
        ylm = _spherical_harmonics(j_max, ff.directions)
        c = np.linalg.lstsq(ylm.T, ff.values, rcond=None)[0]
        b = np.sqrt(np.bincount(deg, np.abs(c) ** 2))
    if J is None:
        above = np.flatnonzero(
            b > (j_max + 1) * np.finfo(float).eps * np.linalg.norm(b))
        J = int(above[-1]) if len(above) else 0
    return HarmonicDecomposition(ff.k, ff.dim, b[:J + 1], J)


def _spherical_harmonics(j_max: int, directions: np.ndarray) -> np.ndarray:
    """Y_j^m (scipy's phase) at unit directions as rows j^2 + j + m, by
    Y_m^m = -sqrt((2m+1)/2m) sin theta e^(i phi) Y_(m-1)^(m-1), then the
    orthonormal Legendre three-term recurrence in z = cos theta along
    each order (Colton & Kress, ch. 2); Y_j^-m = (-1)^m conj(Y_j^m)."""
    x, y, z = directions.T
    z = np.clip(z, -1, 1)
    step = -np.sqrt(1 - z ** 2) * np.exp(1j * np.arctan2(y, x))
    out = np.empty(((j_max + 1) ** 2, len(z)), dtype=complex)
    top = np.full(len(z), 1 / np.sqrt(4 * np.pi), dtype=complex)
    for m in range(j_max + 1):
        if m:
            top = np.sqrt((2 * m + 1) / (2 * m)) * step * top
        prev, p = 0, top
        for j in range(m, j_max + 1):
            if j > m:
                a = np.sqrt((4 * j * j - 1) / (j * j - m * m))
                b = np.sqrt(((j - 1) ** 2 - m * m) * (2 * j + 1)
                            / ((2 * j - 3) * (j * j - m * m)))
                prev, p = p, a * z * p - b * prev
            out[j * j + j + m] = p
            out[j * j + j - m] = (-1) ** m * np.conj(p)
    return out


def sphere_norm_from_decomposition(dec: HarmonicDecomposition,
                                   r: float) -> float:
    """L2 norm of the radiating field on the sphere S(0,r) from the
    decomposition and Hankel magnitudes.

    A degree with b_j <= (J+1) eps ||b|| sits at the rounding level of the
    projection, which cannot tell its true size below that floor.  The sum
    weights degree j by kr |H_(j+(n-2)/2)(kr)|^2, which grows like a
    factorial in j once j exceeds kr, so rounding noise can swamp it.
    Raises RellichError when the rounding-level degrees, taken at the
    floor, could carry more than UNRESOLVED_SHARE of the sum; a smaller J
    avoids that.  The sum is taken on logarithms, so nothing overflows.
    """
    k = dec.k
    floor = (dec.J + 1) * np.finfo(float).eps * np.sqrt(dec.parseval_total())
    if floor == 0:
        return 0.0
    log_h = hankel_h1_log_abs((dec.dim - 2) / 2, dec.J, [k * r])[:, 0]
    log_w = np.log(k * r) + 2 * log_h
    resolved = dec.b > floor
    log_sum = special.logsumexp(2 * np.log(dec.b[resolved])
                                + log_w[resolved])
    log_noise = special.logsumexp(2 * np.log(floor) + log_w[~resolved])
    if log_noise - log_sum > np.log(UNRESOLVED_SHARE):
        raise RellichError(
            f"at J={dec.J}, degrees at rounding level could reach "
            f"10^{(log_noise - log_sum) / np.log(10):.0f} times the "
            f"resolved sum on S(0,{r}); decompose with a smaller J")
    return float(np.sqrt(np.pi / 2) * np.exp(log_sum / 2))


# ---------------------------------------------------------------------------
# Far field to near field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ff2nfBound:
    regime: str          # "decay" | "saturated"
    ell: float
    nu0: float
    log_constant: float  # ln of the multiplicative constant used
    log_bound: float     # ln of the annulus bound

    @property
    def bound(self) -> float:
        return float_view(self.log_bound)


def ff2nf_bound(log_ratio: float, S: float, k: float, R: float,
                B0: float) -> Ff2nfBound:
    """Bound ||w||_L2 on the annulus B(0,2 B0 R) \\ B(0,B0 R) by
    log_ratio = ln(S/eps), where eps is the far-field size and S the
    a-priori annulus bound.

    Decay regime: bound = Const * S * B0^(-l/2), l = sqrt(2ekR ln(S/eps));
    otherwise the bound saturates proportionally to eps.
    """
    if S <= 0:
        raise RellichError("S must be positive")
    if B0 <= 1:
        raise RellichError("B0 must exceed 1")
    ell = float(np.sqrt(2 * np.e * k * R * max(log_ratio, 0.0)))
    nu0 = np.floor(ell) / 2
    if nu0 >= max(1.5, np.e * B0 * k * R) and log_ratio >= 0:
        nu_max = min(200.0, max(np.ceil(min(ell, 400.0)) / 2 + 2, 10.0))
        C = certify_hankel_bounds(k * R, 2 * B0 * k * R, nu_max).C
        log_const = np.log(np.sqrt(2 * max(2 * C ** 2 * R / np.e, C ** 4))
                           * B0 ** 1.5)
        log_bound = log_const + np.log(S) - 0.5 * ell * np.log(B0)
        return Ff2nfBound("decay", ell, float(nu0), float(log_const),
                          float(log_bound))
    # saturated: S/eps is itself bounded, so the annulus norm is O(eps)
    log_const = (1 + max(3.0, 2 * np.e * B0 * k * R)) ** 2 / (2 * np.e * k * R)
    return Ff2nfBound("saturated", ell, float(nu0), float(log_const),
                      float(log_const + np.log(S) - log_ratio))


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
    def log_chain_constant(self) -> float:
        """ln C_chain, with C_chain = (C TS_FACTOR)^(4/(3 c1))."""
        return float((4.0 / (3.0 * self.c1)) * np.log(self.C * TS_FACTOR))

    def chain_bound(self, T: float, start: float, steps: float) -> float:
        """C_chain T start^(c2^steps): a start-ball smallness carried
        through `steps` three-balls steps."""
        with np.errstate(divide="ignore"):
            log_start = np.log(start)
        return float_view(self.log_chain_constant + np.log(T)
                          + self.c2 ** steps * log_start)


def random_helmholtz_field(k: float, dim: int, rng: np.random.Generator):
    """Exact Helmholtz solution: random superposition of N_WAVES plane
    waves.  Returns a callable pts (..., dim) -> complex values."""
    if dim == 2:
        ang = rng.uniform(0, 2 * np.pi, N_WAVES)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = rng.standard_normal((N_WAVES, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = rng.standard_normal(N_WAVES) + 1j * rng.standard_normal(N_WAVES)

    def field(pts):
        # exp overwrites its argument: with one complex temporary fewer,
        # a trial's allocations stop faulting in fresh pages
        z = 1j * k * (np.asarray(pts, dtype=float) @ dirs.T)
        return np.exp(z, out=z) @ amps

    return field


def _ball_points(center: np.ndarray, radius: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The center, then BALL_SAMPLES uniform interior points of the ball."""
    dim = center.size
    raw = rng.standard_normal((BALL_SAMPLES, dim))
    raw /= np.sqrt(coord_dot(raw, raw))[:, None]
    radii = radius * rng.uniform(0, 1, BALL_SAMPLES) ** (1.0 / dim)
    return np.vstack([center, center + raw * radii[:, None]])


def ball_sup(field, center, radius, rng: np.random.Generator) -> float:
    """Sampled sup |field| over a ball: BALL_SAMPLES uniform interior
    points plus the center."""
    pts = _ball_points(np.asarray(center, dtype=float), radius, rng)
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


def three_spheres_check(field, x, r: float, rng=None) -> ThreeSpheresResult:
    """Measure sup-norms on B(x,r), B(x,2r), B(x,4r) and solve for the
    interpolation exponent beta* solving
    ||w||_2r = ||w||_4r^(1-beta) ||w||_r^beta."""
    rng = np.random.default_rng(0) if rng is None else rng
    x = np.asarray(x, dtype=float)
    # one cloud per radius, drawn in turn and evaluated in one field call;
    # running maxima keep the sups monotone in r
    clouds = [_ball_points(x, radius, rng) for radius in (r, 2 * r, 4 * r)]
    sups = np.abs(field(np.concatenate(clouds))).reshape(3, -1).max(axis=1)
    n1, s1, s2 = (float(s) for s in sups)
    n2 = max(n1, s1)
    n4 = max(n2, s2)
    # any two coinciding norms leave the interpolation exponent undefined
    degenerate = (n4 <= 0 or n1 <= 0 or n1 / n4 > 1 - 1e-9
                  or n2 / n4 > 1 - 1e-9 or n1 / n2 > 1 - 1e-9)
    if degenerate:
        beta = np.nan
    else:
        beta = float(np.log(n2 / n4) / np.log(n1 / n4))
    return ThreeSpheresResult(n1, n2, n4, beta, degenerate)


def calibration_sweep(k: float, dim: int, R_m: float, trials: int,
                      seed: int):
    """The documented-seed trial stream behind `calibrate`.

    Yields one ThreeSpheresResult per trial so verification runs can replay
    exactly the population the constants were certified on."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        field = random_helmholtz_field(k, dim, rng)
        x = rng.uniform(-0.5, 0.5, dim)
        r = rng.uniform(R_m / 8, R_m / 4 * 0.999)
        yield three_spheres_check(field, x, r, rng)


def calibrate(k: float, dim: int = 2, *, trials: int = 100,
              seed: int = 0) -> Calibration:
    """Calibrate (C, c1, c2, R_m) by randomized plane-wave sweeps, with
    R_m = min(1, 2/k).

    c1 is deflated and C inflated by 10% so the three-balls inequality with
    beta anywhere in [c1/4, 1 - 3 c1/4] holds on every observed field.
    """
    R_m = min(1.0, 2.0 / k)
    records = [res for res in calibration_sweep(k, dim, R_m, trials, seed)
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
        return ChainResult(m1, mK, 1)
    return ChainResult(cal.chain_bound(T, m1, path.K - 1), mK, path.K)


def propagate_outside_hull(field, Q: Polytope, query, r: float,
                           lam: float, delta: float, T: float,
                           cal: Calibration, R: float) -> ChainResult:
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
        if polytope_distance(Q, query) < 4 * r - 1e-12:
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
            rng = np.random.default_rng(0)
            if ball_sup(field, centers[0], r, rng) > delta * (1 + 1e-6):
                raise RellichError("annulus smallness assumption fails at the "
                                   "chain start")
            m_end = ball_sup(field, query, r, rng)
            return ChainResult(cal.chain_bound(T, delta, path.K - 1),
                               m_end, path.K)
    raise RellichError("no radial escape ray clears B(Q, 4r)")


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


def _segment_clear(a, b, Q: Polytope, margin: float) -> bool:
    pts = a + np.linspace(0, 1, 64)[:, None] * (b - a)
    return bool(np.all(polytope_distance(Q, pts) >= margin - 1e-12))


# ---------------------------------------------------------------------------
# Crossing into the boundary layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingResult:
    r_delta: float
    bound: float
    delta_ok: bool


def cross_into_boundary(log_delta: float, alpha: float, T: float, A: float,
                        cal: Calibration, R: float) -> CrossingResult:
    """Hoelder bridge onto the boundary collar from log_delta = ln(delta):
    with r(d) = A R |ln c2| / ((1-alpha) ln|ln d|), points within 4 r(d)
    of the hull boundary obey |w| <= ((8AR|ln c2|/(1-alpha))^alpha +
    C/c2^2) (ln|ln d|)^(-alpha) T.  The annulus thickness is
    LAMBDA_DEFAULT.  The double logarithm is positive only for delta < 1/e.
    """
    lam = LAMBDA_DEFAULT
    if not (0 < alpha < 1):
        raise RellichError("Hoelder exponent must lie in (0, 1)")
    if A < 2 + lam:
        raise RellichError("A must be at least 2 + lambda")
    if not log_delta < -1:
        raise RellichError("the double-log bridge needs delta < 1/e")
    log_c2 = abs(np.log(cal.c2))
    geom = min(cal.R_m, R / 2, 2 * (1 - 2 * lam) * R)
    log_delta_max = -float_view(4 * A * R * log_c2 / (1 - alpha) / geom)
    lnln = np.log(abs(log_delta))
    r_delta = A * R * log_c2 / ((1 - alpha) * lnln)
    numer = (8 * A * R * log_c2 / (1 - alpha)) ** alpha + cal.C / cal.c2 ** 2
    bound = numer / lnln ** alpha * T
    return CrossingResult(float(r_delta), float(bound),
                          bool(log_delta < log_delta_max))


# ---------------------------------------------------------------------------
# The full quantitative pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RellichBound:
    """`boundary_bound` is the theorem's bound, which in the decay regime
    can exceed the a-priori bound T; `capped_bound` is the smaller of the
    two."""
    boundary_bound: float
    delta: float
    regime: str
    r_delta: float
    delta_ok: bool
    nf: Ff2nfBound | None
    T: float

    @property
    def capped_bound(self) -> float:
        return min(self.boundary_bound, self.T)


def quantitative_rellich(epsilon: float | None, S: float, k: float, R: float,
                         cal: Calibration, T: float,
                         log_ratio: float | None = None) -> RellichBound:
    """Chain far-field -> near-field -> hull collar -> boundary.

    Returns the double-log boundary bound, applicable to both the
    difference field and (applied to difference quotients) its gradient.
    The annulus scale is B0_DEFAULT, the Hoelder exponent ALPHA_DEFAULT
    and the escape-segment length A_DEFAULT.  log_ratio = ln(S/epsilon)
    admits symbolically tiny far-field sizes.  Where the bridge does not
    apply (the saturated regime, or delta >= 1/e) the bound is T.

    The annulus bound goes straight to `cross_into_boundary`: neither
    `propagate_outside_hull` nor `Calibration.log_chain_constant` enters,
    and the calibration enters only through c2, C/c2^2 and R_m.
    """
    if epsilon is not None and epsilon < 0:
        raise RellichError("epsilon must be nonnegative")
    if epsilon == 0:
        return RellichBound(0.0, 0.0, "zero", 0.0, True, None, float(T))
    if log_ratio is None:
        if epsilon is None:
            raise RellichError("need epsilon or log_ratio")
        log_ratio = float(np.log(S / epsilon))
    nf = ff2nf_bound(log_ratio, S, k, R, B0_DEFAULT)
    if nf.regime == "saturated" or not nf.log_bound < -1:
        # smallness never reaches the propagation stage; only the trivial
        # a-priori bound survives
        return RellichBound(float(T), min(nf.bound, 1.0), "saturated", 0.0,
                            False, nf, float(T))
    crossing = cross_into_boundary(nf.log_bound, ALPHA_DEFAULT, T, A_DEFAULT,
                                   cal, R)
    return RellichBound(crossing.bound, nf.bound, "decay",
                        crossing.r_delta, crossing.delta_ok, nf, float(T))
