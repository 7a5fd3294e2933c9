"""Independent reference computations used by the test suite.

Everything here is deliberately written against a different method than the
library code it checks: separation-of-variables series for the disc, mpmath
arbitrary-precision Bessel evaluations, scipy's hankel1 with Debye
asymptotics beyond its range, dense sampling for distances and
brute-force quadrature for cone integrals, and a finite-difference PDE
residual.
"""

import numpy as np
from scipy.special import jv, jvp, hankel1, h1vp


# ---------------------------------------------------------------------------
# Disc scattering (separation of variables)
# ---------------------------------------------------------------------------

class DiscContrast:
    """Indicator of a disc |x| <= a times a constant contrast value.

    Duck-typed stand-in for a ContrastField: the forward solver only needs
    `evaluate`.
    """

    def __init__(self, a, phi):
        self.a = a
        self.phi_val = phi
        self.alpha = 1.0

    def evaluate(self, grid):
        pts = grid.points()
        r = np.linalg.norm(pts, axis=-1)
        v = np.zeros(grid.shape, dtype=complex)
        v[r <= self.a] = self.phi_val
        return v


def mie_far_field(k, a, phi, theta, n_modes=60):
    """Exact 2D far field for a plane wave exp(ikx_1) hitting the disc of
    radius a with constant contrast phi.

    Mode matching: interior wavenumber k1 = k sqrt(1+phi); continuity of the
    value and radial derivative at r = a determines the scattering
    coefficients b_m.
    """
    k1 = k * np.sqrt(1.0 + phi)
    out = np.zeros_like(np.asarray(theta, dtype=float), dtype=complex)
    for m in range(-n_modes, n_modes + 1):
        A = np.array([[jv(m, k1 * a), -hankel1(m, k * a)],
                      [k1 * jvp(m, k1 * a), -k * h1vp(m, k * a)]])
        rhs = np.array([(1j) ** m * jv(m, k * a),
                        (1j) ** m * k * jvp(m, k * a)])
        _, bm = np.linalg.solve(A, rhs)
        out += bm * (-1j) ** m * np.exp(1j * m * np.asarray(theta))
    return np.sqrt(2.0 / (np.pi * k)) * np.exp(-1j * np.pi / 4) * out


def mie_scattered_field(k, a, phi, points, n_modes=60):
    """Exact scattered field outside the disc at the given points."""
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=-1)
    th = np.arctan2(pts[..., 1], pts[..., 0])
    k1 = k * np.sqrt(1.0 + phi)
    out = np.zeros(r.shape, dtype=complex)
    for m in range(-n_modes, n_modes + 1):
        A = np.array([[jv(m, k1 * a), -hankel1(m, k * a)],
                      [k1 * jvp(m, k1 * a), -k * h1vp(m, k * a)]])
        rhs = np.array([(1j) ** m * jv(m, k * a),
                        (1j) ** m * k * jvp(m, k * a)])
        _, bm = np.linalg.solve(A, rhs)
        out += bm * hankel1(m, k * r) * np.exp(1j * m * th)
    return out


# ---------------------------------------------------------------------------
# Bessel/Hankel references (mpmath)
# ---------------------------------------------------------------------------

def mp_log_abs_hankel1(nu, z):
    import mpmath
    with mpmath.workdps(60):
        return float(mpmath.log(abs(mpmath.hankel1(nu, z))))


def log_abs_hankel1_or_debye(nu, z):
    """log |H^(1)_nu(z)| elementwise over broadcast (nu, z): scipy's
    hankel1 where it is finite and nonzero, else (nu >> z) the Debye
    asymptotics |H_nu(z)| ~ sqrt(2/(pi nu)) (e z / (2 nu))^(-nu), which
    drops a relative term of about (z^2/4 + 1/12)/nu."""
    nu = np.asarray(nu, dtype=float)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.abs(hankel1(nu, z))
        debye = (0.5 * np.log(2 / (np.pi * nu))
                 + nu * np.log(2 * nu / (np.e * z)))
        return np.where(np.isfinite(a) & (a > 0), np.log(a), debye)


# ---------------------------------------------------------------------------
# Cone Laplace transforms by quadrature
# ---------------------------------------------------------------------------

def cone_laplace_quadrature(cone, zeta, n=400):
    """Cone Laplace transform int_cone exp(zeta . (x - vertex)) dx by
    quadrature, independent of the closed form |det G| / prod(-zeta . g).

    Both dimensions do the radial integral exactly, int_0^inf r^(d-1)
    e^(r zeta . omega) dr = (d-1)! / (-zeta . omega)^d, and integrate it
    over the directions omega of the cone.  2D: Gauss-Legendre in the
    angle.  3D (three generators): the spherical triangle of directions,
    reached by central projection omega = p / |p| of the flat triangle
    p = g1 + u (g2 - g1) + v (g3 - g1), whose solid-angle element is
    |det G| / |p|^3 du dv; a Duffy map takes the triangle to a square
    with n // 8 Gauss-Legendre nodes per side, which already resolve the
    analytic integrand to roundoff.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if cone.dim == 2:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        if cone.kind == "spherical":
            ax = np.arctan2(cone.generators[0][1], cone.generators[0][0])
            t1, t2 = ax - cone.half_angle, ax + cone.half_angle
        else:
            g1, g2 = cone.generators
            t1 = np.arctan2(g1[1], g1[0])
            t2 = np.arctan2(g2[1], g2[0])
            if (t2 - t1) % (2 * np.pi) > np.pi:
                t1, t2 = t2, t1
            t2 = t1 + (t2 - t1) % (2 * np.pi)
        th = 0.5 * (t2 - t1) * nodes + 0.5 * (t1 + t2)
        omega = np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = 1.0 / (omega @ zeta) ** 2
        return complex(np.sum(weights * vals) * 0.5 * (t2 - t1))
    G = cone.generators
    assert len(G) == 3, "3D quadrature needs a trihedral cone"
    nodes, weights = np.polynomial.legendre.leggauss(n // 8)
    x, w = 0.5 * (nodes + 1.0), 0.5 * weights
    s, t = np.meshgrid(x, x, indexing="ij")        # u = s (1 - t), v = s t
    p = (G[0] + (s * (1 - t))[..., None] * (G[1] - G[0])
         + (s * t)[..., None] * (G[2] - G[0]))
    r = np.linalg.norm(p, axis=-1)
    zeta_omega = (p @ zeta) / r
    assert np.all(zeta_omega.real < 0), "divergent quadrature direction"
    solid_angle = np.outer(w, w) * s * abs(np.linalg.det(G)) / r ** 3
    return complex(np.sum(solid_angle * 2.0 / (-zeta_omega) ** 3))


# ---------------------------------------------------------------------------
# Random plane-wave superpositions
# ---------------------------------------------------------------------------

def tensordot_helmholtz_field(k, dim, rng, n_waves=20):
    """The plane-wave superposition of `rellich.random_helmholtz_field`,
    drawn from rng in the same order, with its phases taken by
    np.tensordot: sum_j a_j exp(i k d_j . x)."""
    if dim == 2:
        ang = rng.uniform(0, 2 * np.pi, n_waves)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = rng.standard_normal((n_waves, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    amps = rng.standard_normal(n_waves) + 1j * rng.standard_normal(n_waves)

    def field(pts):
        phase = np.tensordot(np.asarray(pts, dtype=float), dirs.T, axes=1)
        return np.exp(1j * k * phase) @ amps

    return field


# ---------------------------------------------------------------------------
# Distances by dense sampling
# ---------------------------------------------------------------------------

def sampled_hausdorff(P, Q, n=400):
    """Hausdorff distance between convex polygons by dense boundary and
    interior sampling; converges to the true value as n grows."""
    from scipy.spatial import cKDTree
    pa = _sample_polygon(P, n)
    pb = _sample_polygon(Q, n)
    d_ab = np.max(cKDTree(pb).query(pa)[0])
    d_ba = np.max(cKDTree(pa).query(pb)[0])
    return float(max(d_ab, d_ba))


def _sample_polygon(P, n):
    v = P.vertices
    nxt = np.roll(v, -1, axis=0)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    edges = [a + np.outer(t, b - a) for a, b in zip(v, nxt)]
    boundary = np.vstack(edges)
    # add the centroid fan to cover the interior
    c = v.mean(axis=0)
    s = np.linspace(0.0, 1.0, 12)[1:, None, None]
    fan = (c + s * (boundary - c)).reshape(-1, 2)
    return np.vstack([boundary, fan])


# ---------------------------------------------------------------------------
# Far fields by direct quadrature (no FFT, no per-axis split)
# ---------------------------------------------------------------------------

def born_far_field_quadrature(Vvals, grid, k, omega, directions):
    """First Born far field by direct sums: gamma_n k^2 int V(y)
    exp(ik(omega - xhat).y) dy."""
    from polyscat.solver import far_field_constant
    pts = grid.points().reshape(-1, grid.dim)
    v = np.asarray(Vvals).reshape(-1)
    nz = v != 0
    pts, v = pts[nz], v[nz]
    omega = np.asarray(omega, dtype=float)
    out = []
    for xhat in np.asarray(directions, dtype=float):
        phase = np.exp(1j * k * pts @ (omega - xhat))
        out.append(np.sum(v * phase) * grid.cell_volume)
    return far_field_constant(k, grid.dim) * k ** 2 * np.array(out)


def dense_far_field(Vvals, u, k, directions):
    """gamma_n k^2 sum_y e^(-ik theta.y) (V u)(y) h^n over the nonzero
    cells, one complex exponential per (direction, cell) pair."""
    from polyscat.solver import far_field_constant
    src = Vvals * u.values
    nz = src != 0
    phase = np.exp(-1j * k * (np.asarray(directions) @ u.grid.points()[nz].T))
    return (far_field_constant(k, u.grid.dim) * k ** 2 * (phase @ src[nz])
            * u.grid.cell_volume)


# ---------------------------------------------------------------------------
# Helmholtz residual (finite differences)
# ---------------------------------------------------------------------------

def helmholtz_residual(u, V=None, mask=None):
    """max over interior points of |Lap_h u + k^2 (1+V) u| for a WaveField u.

    A solver sanity metric, not a convergence proof.  An optional mask
    restricts the maximum (e.g. to cells away from a contrast boundary).
    """
    from polyscat.fields import FieldError, laplacian_stencil
    lap = laplacian_stencil(u.values, u.grid.spacing)
    one_plus_v = 1.0 if V is None else 1.0 + V
    res = lap + u.k ** 2 * one_plus_v * u.values
    core = (slice(1, -1),) * u.grid.dim
    r = np.abs(res[core])
    if mask is not None:
        m = mask[core]
        if not np.any(m):
            raise FieldError("empty interior mask")
        r = r[m]
    if r.size == 0:
        raise FieldError("grid has no interior points")
    return float(np.max(r))
