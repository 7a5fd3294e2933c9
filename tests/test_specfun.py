import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import hankel1, jv, jvp, yv, yvp

from polyscat import specfun


def test_hankel_half_integer_closed_form():
    # H^(1)_{1/2}(z) = -i sqrt(2/(pi z)) e^{iz}
    z = np.pi
    val = hankel1(0.5, z)
    exact = -1j * np.sqrt(2 / (np.pi * z)) * np.exp(1j * z)
    assert abs(val - exact) <= 1e-12 * abs(exact)


def log_abs_h1(nu, z):
    # one entry of the order table: log |H_nu(z)| for integer or
    # half-integer nu
    return specfun.hankel_h1_log_abs(nu % 1, int(nu), [z])[-1, 0]


def test_hankel_against_mpmath():
    from oracles import mp_log_abs_hankel1
    rng = np.random.default_rng(0)
    for _ in range(50):
        nu = rng.integers(0, 40) / 2
        z = rng.uniform(0.1, 50.0)
        ours = log_abs_h1(nu, z)
        ref = mp_log_abs_hankel1(nu, z)
        assert abs(ours - ref) <= 1e-10


def test_hankel_log_abs_against_mpmath():
    from oracles import mp_log_abs_hankel1
    # nu >> z, but hankel1 is still finite at all four pairs (9.1e116 at
    # (60.5, 0.5), 1.2e260 at (150, 2))
    pairs = [(0.5, 1.0), (10.0, 3.0), (60.5, 0.5), (150.0, 2.0)]
    for nu, z in pairs:
        ours = log_abs_h1(nu, z)
        ref = mp_log_abs_hankel1(nu, z)
        assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("nu, z", [(133.0, 0.5), (170.0, 2.0), (300.0, 5.0)])
def test_hankel_log_abs_where_hankel1_overflows(nu, z):
    from oracles import mp_log_abs_hankel1
    assert not np.isfinite(hankel1(nu, z))   # nan here
    ref = mp_log_abs_hankel1(nu, z)
    assert abs(log_abs_h1(nu, z) - ref) <= 1e-13 * abs(ref)


def test_hankel_small_argument_monotone_growth():
    zs = np.linspace(0.1, 1e-3, 40)
    mags = np.abs([hankel1(0.0, z) for z in zs])
    assert np.all(np.diff(mags) > 0)


def test_wronskian_identity():
    # J_nu(z) Y'_nu(z) - J'_nu(z) Y_nu(z) = 2/(pi z)
    rng = np.random.default_rng(1)
    for _ in range(100):
        nu = rng.integers(0, 30) / 2
        z = rng.uniform(0.2, 40.0)
        w = jv(nu, z) * yvp(nu, z) - jvp(nu, z) * yv(nu, z)
        assert abs(w - 2 / (np.pi * z)) <= 1e-8


def test_hankel_large_argument_asymptotics():
    z = 1e3
    val = abs(hankel1(0.0, z)) * np.sqrt(np.pi * z / 2)
    assert abs(val - 1.0) <= 1e-2


def test_certificate_holds_pointwise():
    cert = specfun.certify_hankel_bounds(1.0, 1.0, 0.5)
    assert cert.samples == 1
    z = 1.0
    env = (4 / (np.pi * np.e * z)) * (2 * 0.5 / (np.e * z)) ** (2 * 0.5 - 1)
    h2 = abs(hankel1(0.5, z)) ** 2
    assert h2 <= cert.C ** 2 * env + 1e-14
    assert h2 >= env / cert.C ** 2 - 1e-14
    assert abs(hankel1(0.0, z)) ** 2 <= cert.C ** 2


def test_certificate_two_sided_on_interval():
    cert = specfun.certify_hankel_bounds(1.0, 10.0, 10.0, samples=128)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.uniform(1.0, 10.0)
        nu = rng.integers(1, 21) / 2
        env = np.exp(specfun._envelope_log(nu, np.array([z])))[0]
        h2 = abs(hankel1(nu, z)) ** 2
        # 5% inflation covers off-grid points at these smooth scales
        assert h2 <= cert.C ** 2 * env * 1.001
        assert h2 >= env / cert.C ** 2 / 1.001


def test_certificate_stable_under_refinement():
    c1 = specfun.certify_hankel_bounds(1.0, 10.0, 50.0, samples=256)
    c2 = specfun.certify_hankel_bounds(1.0, 10.0, 50.0, samples=512)
    assert np.isfinite(c1.C) and np.isfinite(c2.C)
    assert abs(c1.C - c2.C) <= 0.1 * c1.C


def test_certificate_roundtrip_and_reproducible():
    c1 = specfun.certify_hankel_bounds(2.0, 8.0, 20.0)
    c2 = specfun.certify_hankel_bounds(2.0, 8.0, 20.0)
    assert c1 == c2
    # `calibrate` writes asdict(cert) as JSON; it reads back unchanged
    text = json.dumps(asdict(c1))
    assert specfun.HankelBoundCertificate(**json.loads(text)) == c1


def test_certificate_against_mpmath_at_scene_radii():
    # the interval [kR, 4kR] the CLI certifies, at two scene radii, checked
    # at its ends and at the extreme orders with 30-digit Hankel values
    import mpmath
    for kR in (1.5, 5.0):
        cert = specfun.certify_hankel_bounds(kR, 4 * kR, nu_max=40)
        with mpmath.workdps(30):
            C = mpmath.mpf(cert.C)
            for z in (cert.z1, cert.z2):
                assert abs(mpmath.hankel1(0, z)) <= C
                for nu in (0.5, cert.nu_max):
                    env = (4 / (mpmath.pi * mpmath.e * z)
                           * (2 * nu / (mpmath.e * z)) ** (2 * nu - 1))
                    h2 = abs(mpmath.hankel1(nu, z)) ** 2
                    assert env / C ** 2 <= h2 <= C ** 2 * env


@pytest.mark.parametrize("order", [5, 37, 81, 200])
def test_bessel_j_orders_against_mpmath(order):
    import mpmath
    rng = np.random.default_rng(order)
    x = np.concatenate([[0.0, 1e-8, 1e-200, float(order)],
                        rng.uniform(0.0, order, 30)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = specfun.bessel_j_orders(order, x)
    with mpmath.workdps(30):
        ref = np.array([[float(mpmath.besselj(n, xi)) for xi in x]
                        for n in range(order + 1)])
    err = np.abs(got - ref)
    assert err.max() <= 1e-15
    # relative accuracy where the recurrence runs on the minimal solution
    n = np.arange(order + 1)[:, None]
    sharp = (n >= x) & (np.abs(ref) > 1e-300)
    assert np.all(err[sharp] <= 1e-14 * np.abs(ref[sharp]))
    with pytest.raises(specfun.SpecfunError):
        specfun.bessel_j_orders(order, [order + 0.5])


@pytest.mark.parametrize("nu0", [0, 0.5])
def test_hankel_factors_log_abs_against_mpmath(nu0):
    # orders up to 200, far past where scipy's hankel1 overflows
    from oracles import mp_log_abs_hankel1
    zs = np.array([0.5, 1.5, 6.0, 20.0, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = specfun.hankel_h1_log_abs(nu0, 200, zs)
    for n in sorted({0, 1, 2, 3, 200, *range(5, 200, 15)}):
        for z, ours in zip(zs, got[n]):
            ref = mp_log_abs_hankel1(nu0 + n, z)
            assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))
    # the pairs of test_hankel_log_abs_against_mpmath in this chain, and
    # one where scipy's hankel1 gives no finite value
    for nu, z in ((60.5, 0.5), (150.0, 2.0), (170.5, 0.5), (200.0, 0.5)):
        if nu % 1 != nu0:
            continue
        ours = specfun.hankel_h1_log_abs(nu0, int(nu), [z])[-1, 0]
        ref = mp_log_abs_hankel1(nu, z)
        assert abs(ours - ref) <= 1e-13 * abs(ref)
        if nu > 160:
            assert not np.isfinite(hankel1(nu, z))


def test_hankel_factors_table_matches_scipy():
    z = np.linspace(0.5, 30.0, 240)
    n = np.arange(121)[:, None]
    got = np.cumprod(specfun.hankel_h1_factors(0, 120, z), axis=0)
    ref = hankel1(n, z)
    finite = np.isfinite(ref)
    assert finite.sum() > 0.8 * ref.size
    err = np.abs(got - ref)[finite]
    assert np.all(err <= 1e-12 * np.abs(ref)[finite])
    # the half-integer chain starts on the closed form
    half = np.cumprod(specfun.hankel_h1_factors(0.5, 30, z), axis=0)
    ref = hankel1(n[:31] + 0.5, z)
    assert np.all(np.abs(half - ref) <= 1e-12 * np.abs(ref))


def pointwise_certificate_constant(z1, z2, nu_max, samples=512):
    # the sampled constant taken point by point: hankel1(0, .) for the H_0
    # bound and hankel1, or Debye where it overflows, on the (nu, z) table
    from oracles import log_abs_hankel1_or_debye
    z = np.linspace(z1, z2, samples)
    log_c = np.log(np.abs(hankel1(0, z))).max()
    nus = 0.5 * np.arange(1, int(2 * nu_max + 2e-12) + 1)[:, None]
    log_h2 = 2 * log_abs_hankel1_or_debye(nus, z)
    dev = 0.5 * np.max(np.abs(log_h2 - specfun._envelope_log(nus, z)))
    return max(1.0, float(np.exp(max(log_c, dev))
                          * specfun.CERTIFICATE_SAFETY))


@pytest.mark.parametrize("kR, nu_max", [(0.5, 40), (1.5, 40), (2.6, 40),
                                        (5.0, 40), (0.5, 200)])
def test_certificate_matches_the_pointwise_constant(kR, nu_max):
    cert = specfun.certify_hankel_bounds(kR, 4 * kR, nu_max)
    ref = pointwise_certificate_constant(kR, 4 * kR, nu_max)
    assert abs(cert.C - ref) <= 1e-13 * ref


def test_incomplete_gamma_closed_form():
    # gamma(1, x) = 1 - e^-x
    val = specfun.lower_incomplete_gamma(1.0, 2.0)
    assert abs(val - (1 - np.exp(-2.0))) <= 1e-12
    assert abs(val - 0.864664716763) <= 1e-9


def test_incomplete_gamma_complementarity():
    from scipy.special import gamma as gamma_fn
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = rng.uniform(0.2, 12.0)
        x = rng.uniform(0.0, 30.0)
        total = (specfun.lower_incomplete_gamma(s, x)
                 + specfun.upper_incomplete_gamma(s, x))
        assert abs(total - gamma_fn(s)) <= 1e-10 * gamma_fn(s)


def test_upper_gamma_exponential_tail_bound():
    # Gamma(s,x) <= 2^s Gamma(s) e^(-x/2)
    from scipy.special import gamma as gamma_fn
    for s in (0.5, 1.0, 2.5, 5.0):
        for x in (0.0, 1.0, 4.0, 20.0):
            lhs = specfun.upper_incomplete_gamma(s, x)
            assert lhs <= 2 ** s * gamma_fn(s) * np.exp(-x / 2) * (1 + 1e-12)


def test_gamma_ordering_bounds():
    # gamma(s,x) <= Gamma(s) <= ceil(s-1)! near integer s
    from math import factorial, ceil
    from scipy.special import gamma as gamma_fn
    for s in (1.0, 2.0, 3.0, 4.7, 6.0):
        x = 3.0
        g = specfun.lower_incomplete_gamma(s, x)
        assert g <= gamma_fn(s) + 1e-12
        assert gamma_fn(s) <= factorial(max(ceil(s - 1), 0)) + 1e-12


def test_gammas_monotone():
    s = 2.3
    xs = np.linspace(0.0, 10.0, 30)
    lo = [specfun.lower_incomplete_gamma(s, x) for x in xs]
    hi = [specfun.upper_incomplete_gamma(s, x) for x in xs]
    assert np.all(np.diff(lo) > 0)
    assert np.all(np.diff(hi) < 0)
    with pytest.raises(specfun.SpecfunError):
        specfun.lower_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(specfun.SpecfunError):
        specfun.upper_incomplete_gamma(1.0, -1.0)
