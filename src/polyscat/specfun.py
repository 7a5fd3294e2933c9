"""Hankel functions, incomplete gammas and certified envelope constants.

The far-field to near-field machinery needs two-sided envelopes for
|H^(1)_nu(z)| of the form C^2 (4/(pi e z)) (2 nu/(e z))^(2 nu - 1) on a
compact z-interval, uniformly over half-integer orders.  The constant is
never available in closed form, so we certify a working value by dense
sampling and a 5% safety inflation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np
from scipy import special

NU_MAX_DEFAULT = 200.0


class SpecfunError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hankel functions of half-integer and integer order
# ---------------------------------------------------------------------------

def hankel_h1(nu: float, z) -> complex | np.ndarray:
    """Hankel function of the first kind H^(1)_nu(z) for z > 0 and
    half-integer order 0 <= nu <= NU_MAX_DEFAULT.

    Raises on overflow (large order, small argument) rather than returning
    infinities.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise SpecfunError("argument must be positive")
    two_nu = 2 * nu
    if nu < 0 or abs(two_nu - round(two_nu)) > 1e-12 or nu > NU_MAX_DEFAULT:
        raise SpecfunError(f"order must be a half-integer in [0, {NU_MAX_DEFAULT}]")
    out = special.hankel1(nu, z)
    if not (np.all(np.isfinite(np.real(out))) and np.all(np.isfinite(np.imag(out)))):
        raise SpecfunError(f"H^(1)_{nu} overflows at z={z!r}")
    return out if out.ndim else complex(out)


def hankel_h1_log_abs(nu, z) -> float | np.ndarray:
    """log |H^(1)_nu(z)|, elementwise over broadcast (nu, z), computed
    overflow-safely: scipy's hankel1 where |H_nu| is finite and nonzero,
    else (nu >> z) the Debye asymptotics
    |H_nu(z)| ~ sqrt(2/(pi nu)) (e z / (2 nu))^(-nu).  Scalar inputs give
    a float."""
    nu = np.asarray(nu, dtype=float)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.abs(special.hankel1(nu, z))
        debye = (0.5 * np.log(2 / (np.pi * nu))
                 + nu * np.log(2 * nu / (np.e * z)))
        out = np.where(np.isfinite(a) & (a > 0), np.log(a), debye)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Certified envelope constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HankelBoundCertificate:
    """Smallest sampled constant (times a 5% safety factor) such that on
    z in [z1, z2] and half-integer nu <= nu_max:

        |H_0(z)|^2 <= C^2
        C^-2 E(nu,z) <= |H_nu(z)|^2 <= C^2 E(nu,z),
        E(nu,z) = (4/(pi e z)) (2 nu/(e z))^(2 nu - 1).
    """
    z1: float
    z2: float
    nu_max: float
    C: float
    samples: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(text: str) -> "HankelBoundCertificate":
        return HankelBoundCertificate(**json.loads(text))


def _envelope_log(nu: np.ndarray, z: np.ndarray) -> np.ndarray:
    # log of (4/(pi e z)) (2 nu/(e z))^(2 nu - 1)
    return (np.log(4 / (np.pi * np.e)) - np.log(z)
            + (2 * nu - 1) * (np.log(2 * nu) - 1 - np.log(z)))


def certify_hankel_bounds(z1: float, z2: float, nu_max: float,
                          samples: int = 512,
                          safety: float = 1.05) -> HankelBoundCertificate:
    """Certify the two-sided Hankel envelope constant on a sampled grid."""
    if not (0 < z1 <= z2):
        raise SpecfunError("need 0 < z1 <= z2")
    if nu_max < 0.5:
        raise SpecfunError("nu_max must be at least 1/2")
    if z1 == z2:
        zgrid = np.array([z1])
    else:
        zgrid = np.linspace(z1, z2, samples)
    log_c = np.log(np.abs(special.hankel1(0, zgrid))).max()  # |H_0| <= C
    nus = 0.5 * np.arange(1, int(2 * nu_max + 2e-12) + 1)[:, None]
    log_h2 = 2 * hankel_h1_log_abs(nus, zgrid)
    dev = 0.5 * np.max(np.abs(log_h2 - _envelope_log(nus, zgrid)))
    log_c = max(log_c, dev)
    C = float(np.exp(log_c) * safety)
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
