import numpy as np
import pytest
from scipy.special import jv, jvp, yv, yvp

from polyscat import specfun


def test_hankel_half_integer_closed_form():
    # H^(1)_{1/2}(z) = -i sqrt(2/(pi z)) e^{iz}
    z = np.pi
    val = specfun.hankel_h1(0.5, z)
    exact = -1j * np.sqrt(2 / (np.pi * z)) * np.exp(1j * z)
    assert abs(val - exact) <= 1e-12 * abs(exact)


def test_hankel_against_mpmath():
    from oracles import mp_hankel1
    rng = np.random.default_rng(0)
    for _ in range(50):
        nu = rng.integers(0, 40) / 2
        z = rng.uniform(0.1, 50.0)
        ours = specfun.hankel_h1(nu, z)
        ref = mp_hankel1(nu, z)
        assert abs(ours - ref) <= 1e-10 * abs(ref)


def test_hankel_log_abs_against_mpmath():
    from oracles import mp_log_abs_hankel1
    # includes the overflow regime nu >> z where hankel1 itself is inf
    pairs = [(0.5, 1.0), (10.0, 3.0), (60.5, 0.5), (150.0, 2.0)]
    for nu, z in pairs:
        ours = specfun.hankel_h1_log_abs(nu, z)
        ref = mp_log_abs_hankel1(nu, z)
        assert abs(ours - ref) <= 2e-2 * max(1.0, abs(ref))
    # the array form is elementwise the scalar form
    nus, zs = np.array(pairs).T
    np.testing.assert_array_equal(specfun.hankel_h1_log_abs(nus, zs),
                                  [specfun.hankel_h1_log_abs(nu, z)
                                   for nu, z in pairs])


def test_hankel_domain_errors():
    with pytest.raises(specfun.SpecfunError):
        specfun.hankel_h1(0.5, -1.0)
    with pytest.raises(specfun.SpecfunError):
        specfun.hankel_h1(0.3, 1.0)
    with pytest.raises(specfun.SpecfunError):
        specfun.hankel_h1(specfun.NU_MAX_DEFAULT + 1, 1.0)
    with pytest.raises(specfun.SpecfunError):
        # overflow must be an explicit error, not an inf
        specfun.hankel_h1(190.0, 1e-3)


def test_hankel_small_argument_monotone_growth():
    zs = np.linspace(0.1, 1e-3, 40)
    mags = np.abs([specfun.hankel_h1(0.0, z) for z in zs])
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
    val = abs(specfun.hankel_h1(0.0, z)) * np.sqrt(np.pi * z / 2)
    assert abs(val - 1.0) <= 1e-2


def test_certificate_holds_pointwise():
    cert = specfun.certify_hankel_bounds(1.0, 1.0, 0.5)
    assert cert.samples == 1
    z = 1.0
    env = (4 / (np.pi * np.e * z)) * (2 * 0.5 / (np.e * z)) ** (2 * 0.5 - 1)
    h2 = abs(specfun.hankel_h1(0.5, z)) ** 2
    assert h2 <= cert.C ** 2 * env + 1e-14
    assert h2 >= env / cert.C ** 2 - 1e-14
    assert abs(specfun.hankel_h1(0.0, z)) ** 2 <= cert.C ** 2


def test_certificate_two_sided_on_interval():
    cert = specfun.certify_hankel_bounds(1.0, 10.0, 10.0, samples=128)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.uniform(1.0, 10.0)
        nu = rng.integers(1, 21) / 2
        env = np.exp(specfun._envelope_log(nu, np.array([z])))[0]
        h2 = abs(specfun.hankel_h1(nu, z)) ** 2
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
    back = specfun.HankelBoundCertificate.from_json(c1.to_json())
    assert back == c1


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
