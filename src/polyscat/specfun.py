"""Bessel and Hankel functions, incomplete gammas and certified envelope
constants.

The far-field to near-field machinery needs two-sided envelopes for
|H^(1)_nu(z)| of the form C^2 (4/(pi e z)) (2 nu/(e z))^(2 nu - 1) on a
compact z-interval, uniformly over the orders 1/2, 1, 3/2, ...  The
constant is never available in closed form, so we certify a working value
by dense sampling and a 5% safety inflation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

CERTIFICATE_SAFETY = 1.05   # inflation of the sampled envelope constant


class SpecfunError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bessel and Hankel functions
# ---------------------------------------------------------------------------

def bessel_j_orders(order: int, x: np.ndarray) -> np.ndarray:
    """J_0(x), ..., J_order(x) as an (order + 1) x len(x) table, for
    0 <= x <= order.

    Miller's backward recurrence J_(n-1) = (2n/x) J_n - J_(n+1), started
    from (J_(M+1), J_M) = (0, 1) at the even M >= order + sqrt(160 order)
    and normalised by J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Review 9,
    1967).  Before a step could overflow, the running values are scaled
    by a power of two, which is exact.  J_n(0) is 1 for n = 0, else 0."""
    x = np.asarray(x, dtype=float)
    if np.any(~(x >= 0) | (x > order)):
        raise SpecfunError("bessel_j_orders needs 0 <= x <= order")
    out = np.zeros((order + 1, len(x)))
    out[0, x == 0] = 1.0
    pos = x > 0
    if not np.any(pos):
        return out
    xp = x[pos]
    grow = 2 / xp.min()
    m = order + int(np.ceil(np.sqrt(160 * order)))
    m += m % 2
    table = np.empty((order + 1, len(xp)))
    f_up, f, nxt = np.zeros_like(xp), np.ones_like(xp), np.empty_like(xp)
    even = np.zeros_like(xp)   # sum of J_2k, k >= 1, in the running scale
    bound = 1.0   # a bound on |f_up| and |f| in every column
    for n in range(m, 0, -1):
        if n % 2 == 0:
            even += f
        if n <= order:
            table[n] = f
        step = n * grow + 1   # |next f| <= step * bound
        if bound > 2.0 ** 1000 / step:
            _, e = np.frexp(np.maximum(np.abs(f), np.abs(f_up)))
            f_up, f, even = (np.ldexp(v, -e) for v in (f_up, f, even))
            table[n:] = np.ldexp(table[n:], -e)
            bound = 1.0
        bound *= step
        np.divide(2 * n, xp, out=nxt)
        nxt *= f
        nxt -= f_up
        f_up, f, nxt = f, nxt, f_up
    table[0] = f
    with np.errstate(under="ignore"):
        out[:, pos] = table / (f + 2 * even)
    return out


def hankel_h1_factors(nu0: float, order: int, z: np.ndarray) -> np.ndarray:
    """H^(1)_nu0(z) in row 0 and the ratios H_(nu0+n)/H_(nu0+n-1) in rows
    n = 1..order, for nu0 = 0 or 1/2 and z > 0: the cumulative product
    down the rows is the table H_nu0..H_(nu0+order), and the cumulative
    sum of the log-moduli its log |H| (hankel_h1_log_abs), which never
    overflows.

    The starts are Cephes' j0 + i y0 and j1 + i y1, or the closed forms
    H_(1/2) = -i sqrt(2/(pi z)) e^(iz), H_(3/2)/H_(1/2) = 1/z - i
    (DLMF 10.16.1); the ratios follow H_(nu+1) = (2 nu/z) H_nu - H_(nu-1)
    (DLMF 10.6.1), which is stable upwards for H^(1)."""
    z = np.asarray(z, dtype=float)
    f = np.empty((order + 1, len(z)), dtype=complex)
    if nu0 == 0:
        f[0] = special.j0(z) + 1j * special.y0(z)
        start = (special.j1(z) + 1j * special.y1(z)) / f[0]
    else:
        f[0] = -1j * np.sqrt(2 / (np.pi * z)) * np.exp(1j * z)
        start = 1 / z - 1j
    if order:
        f[1] = start
    for n in range(1, order):
        f[n + 1] = 2 * (nu0 + n) / z - 1 / f[n]
    return f


def hankel_h1_log_abs(nu0: float, order: int, z: np.ndarray) -> np.ndarray:
    """log |H^(1)_(nu0+n)(z)| in row n = 0..order, for nu0 = 0 or 1/2 and
    z > 0: the cumulative sum of the log-moduli of hankel_h1_factors, so
    every entry is exact, also where |H_nu| itself would overflow."""
    return np.cumsum(np.log(np.abs(hankel_h1_factors(nu0, order, z))), axis=0)


# ---------------------------------------------------------------------------
# Certified envelope constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HankelBoundCertificate:
    """Smallest sampled constant (times a 5% safety factor) such that on
    z in [z1, z2] and nu in {1/2, 1, 3/2, ..., nu_max}:

        |H_0(z)|^2 <= C^2
        C^-2 E(nu,z) <= |H_nu(z)|^2 <= C^2 E(nu,z),
        E(nu,z) = (4/(pi e z)) (2 nu/(e z))^(2 nu - 1).
    """
    z1: float
    z2: float
    nu_max: float
    C: float
    samples: int


def _envelope_log(nu: np.ndarray, z: np.ndarray) -> np.ndarray:
    # log of (4/(pi e z)) (2 nu/(e z))^(2 nu - 1)
    return (np.log(4 / (np.pi * np.e)) - np.log(z)
            + (2 * nu - 1) * (np.log(2 * nu) - 1 - np.log(z)))


def certify_hankel_bounds(z1: float, z2: float, nu_max: float,
                          samples: int = 512) -> HankelBoundCertificate:
    """Certify the two-sided Hankel envelope constant on a sampled grid,
    inflated by CERTIFICATE_SAFETY.  |H_nu| at every sample comes from
    the two order chains of hankel_h1_log_abs (nu = 0, 1, ... and
    nu = 1/2, 3/2, ...), so every sampled value is exact, also where
    |H_nu| itself would overflow."""
    if not (0 < z1 <= z2):
        raise SpecfunError("need 0 < z1 <= z2")
    if nu_max < 0.5:
        raise SpecfunError("nu_max must be at least 1/2")
    if z1 == z2:
        zgrid = np.array([z1])
    else:
        zgrid = np.linspace(z1, z2, samples)
    m = int(2 * nu_max + 2e-12)   # the orders 1/2, 1, 3/2, ..., m/2
    log_h = np.empty((m + 1, len(zgrid)))   # row j: log |H_(j/2)|
    for nu0 in (0, 0.5):   # the integer and half-integer chains
        log_h[int(2 * nu0)::2] = hankel_h1_log_abs(nu0, int(m / 2 - nu0),
                                                   zgrid)
    log_c = log_h[0].max()  # |H_0| <= C
    nus = 0.5 * np.arange(1, m + 1)[:, None]
    dev = 0.5 * np.max(np.abs(2 * log_h[1:] - _envelope_log(nus, zgrid)))
    log_c = max(log_c, dev)
    C = float(np.exp(log_c) * CERTIFICATE_SAFETY)
    if C < 1.0:
        C = 1.0
    return HankelBoundCertificate(float(z1), float(z2), float(nu_max), C,
                                  len(zgrid))


# ---------------------------------------------------------------------------
# Incomplete gamma functions
# ---------------------------------------------------------------------------

def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x e^-t t^(s-1) dt for s > 0, x >= 0."""
    if s <= 0 or x < 0:
        raise SpecfunError("need s > 0 and x >= 0")
    return float(special.gammainc(s, x) * special.gamma(s))


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = int_x^infty e^-t t^(s-1) dt for s > 0, x >= 0."""
    if s <= 0 or x < 0:
        raise SpecfunError("need s > 0 and x >= 0")
    return float(special.gammaincc(s, x) * special.gamma(s))
