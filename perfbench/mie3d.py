"""Separation-of-variables reference for a penetrable sphere in 3D.

A plane wave exp(ik omega.x) hits the ball |x| <= a with constant contrast
phi, so the interior wavenumber is k1 = k sqrt(1 + phi).  Expanding in
spherical Bessel functions and Legendre polynomials, continuity of the
value and the radial derivative at r = a fixes the scattering coefficient
b_l of each degree:

    c_l j_l(k1 a)      = j_l(k a)      + b_l h_l(k a)
    c_l k1 j_l'(k1 a)  = k j_l'(k a)   + b_l k h_l'(k a)

with h_l = j_l + i y_l.  The scattered field outside the ball is
sum_l i^l (2l+1) b_l h_l(kr) P_l(cos theta), and the far field (the
coefficient of e^(ikr)/r) is (-i/k) sum_l (2l+1) b_l P_l(cos theta).  This
shares no code with the volume-integral solver it checks.
"""

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn


class BallContrast:
    """Indicator of the ball |x| <= a times a constant contrast value.

    Duck-typed stand-in for a ContrastField: the forward solver and the
    volume potential only call `evaluate`.
    """

    def __init__(self, a, phi):
        self.a = a
        self.phi_val = phi

    def evaluate(self, grid):
        r = np.linalg.norm(grid.points(), axis=-1)
        v = np.zeros(grid.shape, dtype=complex)
        v[r <= self.a] = self.phi_val
        return v


def _coefficients(k, a, phi, n_modes):
    k1 = k * np.sqrt(1.0 + phi + 0j)
    b = np.empty(n_modes + 1, dtype=complex)
    for l in range(n_modes + 1):
        h = spherical_jn(l, k * a) + 1j * spherical_yn(l, k * a)
        hp = (spherical_jn(l, k * a, derivative=True)
              + 1j * spherical_yn(l, k * a, derivative=True))
        A = np.array([[spherical_jn(l, k1 * a), -h],
                      [k1 * spherical_jn(l, k1 * a, derivative=True), -k * hp]])
        rhs = np.array([spherical_jn(l, k * a),
                        k * spherical_jn(l, k * a, derivative=True)])
        b[l] = np.linalg.solve(A, rhs)[1]
    return b


def sphere_far_field(k, a, phi, omega, directions, n_modes=40):
    """Exact far field in the given unit directions."""
    b = _coefficients(k, a, phi, n_modes)
    c = np.asarray(directions, dtype=float) @ np.asarray(omega, dtype=float)
    out = np.zeros(c.shape, dtype=complex)
    for l in range(n_modes + 1):
        out += (2 * l + 1) * b[l] * eval_legendre(l, c)
    return (-1j / k) * out


def sphere_scattered_field(k, a, phi, omega, points, n_modes=40):
    """Exact scattered field at points outside the ball."""
    b = _coefficients(k, a, phi, n_modes)
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=-1)
    c = (pts @ np.asarray(omega, dtype=float)) / r
    out = np.zeros(r.shape, dtype=complex)
    for l in range(n_modes + 1):
        h = spherical_jn(l, k * r) + 1j * spherical_yn(l, k * r)
        out += (1j) ** l * (2 * l + 1) * b[l] * h * eval_legendre(l, c)
    return out
