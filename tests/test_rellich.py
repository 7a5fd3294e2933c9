import copy

import numpy as np
import pytest
from scipy.special import hankel1, jv

from polyscat import rellich
from polyscat.solver import FarFieldPattern, default_directions


def circle_pattern(k, values_fn, n=256):
    dirs = default_directions(2, n)
    th = np.arctan2(dirs[:, 1], dirs[:, 0])
    return FarFieldPattern(dirs, values_fn(th), k)


# ---------------------------------------------------------------------------
# Harmonic decomposition
# ---------------------------------------------------------------------------

def test_single_mode_magnitude():
    ff = circle_pattern(2.0, lambda th: np.exp(1j * th))
    dec = rellich.decompose_far_field(ff)
    assert abs(dec.b[1] - np.sqrt(2 * np.pi)) < 1e-10
    others = np.delete(dec.b, 1)
    assert np.max(others) < 1e-10


def test_parseval():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)

    def values(th):
        return sum(c[j] * np.exp(1j * (j - 4) * th) for j in range(9))

    ff = circle_pattern(2.0, values)
    dec = rellich.decompose_far_field(ff)
    assert abs(dec.parseval_total() - ff.l2_norm() ** 2) < 1e-6


def test_decomposition_aliasing_guard():
    ff = circle_pattern(2.0, lambda th: np.exp(1j * th), n=64)
    with pytest.raises(rellich.RellichError):
        rellich.decompose_far_field(ff, J=40)


def test_parseval_3d():
    from scipy.special import sph_harm_y
    dirs = default_directions(3, 1600)
    th = np.arccos(np.clip(dirs[:, 2], -1, 1))
    ph = np.arctan2(dirs[:, 1], dirs[:, 0])
    vals = (0.7 * sph_harm_y(0, 0, th, ph)
            + (0.3 - 0.4j) * sph_harm_y(2, 1, th, ph))
    ff = FarFieldPattern(dirs, vals, 2.0)
    dec = rellich.decompose_far_field(ff, J=3)
    assert abs(dec.b[0] - 0.7) < 2e-2
    assert abs(dec.b[2] - abs(0.3 - 0.4j)) < 2e-2
    assert dec.b[1] < 2e-2 and dec.b[3] < 2e-2
    # the least-squares fit recovers the exact magnitudes: nothing leaks
    # into the other degrees
    full = rellich.decompose_far_field(ff, J=20)
    assert abs(full.b[0] - 0.7) < 1e-13
    assert abs(full.b[2] - 0.5) < 1e-13
    assert np.max(np.delete(full.b, [0, 2])) <= 1e-13


def test_sphere_norm_matches_outgoing_series():
    # w = sum_j a_j H_j(kr) e^{ij theta} has far field
    # sqrt(2/(pi k)) e^{-i pi/4} sum_j a_j (-i)^j e^{ij theta} and
    # ||w||^2 on S_r equal to 2 pi r sum_j |a_j|^2 |H_j(kr)|^2
    k = 2.0
    a = {0: 0.5 + 0.2j, 1: -0.3j, 3: 0.1}
    gamma = np.sqrt(2 / (np.pi * k)) * np.exp(-1j * np.pi / 4)

    def ff_vals(th):
        return gamma * sum(aj * (-1j) ** j * np.exp(1j * j * th)
                           for j, aj in a.items())

    ff = circle_pattern(k, ff_vals)
    dec = rellich.decompose_far_field(ff, J=6)
    for r in (3.0, 7.0, 15.0):
        exact = np.sqrt(2 * np.pi * r * sum(
            abs(aj) ** 2 * abs(hankel1(j, k * r)) ** 2
            for j, aj in a.items()))
        got = rellich.sphere_norm_from_decomposition(dec, r)
        assert abs(got - exact) < 1e-8 * exact


@pytest.fixture(scope="module")
def triangle_solutions():
    from polyscat import fields, geom, solver
    P = geom.convex_polygon([[-0.4, -0.3], [0.45, -0.35], [0.3, 0.4]])
    V = fields.constant_contrast(P, 0.6)
    g = fields.centered_grid(1.0, 192, dim=2)
    return {k: solver.solve_forward(V, k, [1.0, 0.0], g) for k in (2.0, 5.0)}


@pytest.mark.parametrize("k", [2.0, 5.0])
@pytest.mark.parametrize("r", [1.2, 3.0])
def test_sphere_norm_matches_near_field_quadrature(triangle_solutions, k, r):
    # the Rellich oracle: the norm on S_r from the far field's harmonic
    # decomposition against the trapezoid rule on the solved near field;
    # J = None takes the degree cut derived from the rounding floor
    from polyscat import solver
    sol = triangle_solutions[k]
    th = 2 * np.pi * np.arange(512) / 512
    vals = solver.scattered_at_points(
        sol, r * np.stack([np.cos(th), np.sin(th)], axis=1))
    quad = np.sqrt(2 * np.pi * r / 512 * np.sum(np.abs(vals) ** 2))
    for J in (10, None):
        dec = rellich.decompose_far_field(sol.far_field, J=J)
        got = rellich.sphere_norm_from_decomposition(dec, r)
        assert abs(got - quad) < 1e-9 * quad


@pytest.fixture(scope="module")
def cuboid_solutions():
    from polyscat import fields, geom, solver
    rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    P = geom.cuboid([0.03, -0.02, 0.01], [0.3, 0.22, 0.26], rotation=rot)
    V = fields.affine_contrast(P, 0.5, [0.3, -0.2, 0.1])
    g = fields.centered_grid(1.0, 48, dim=3)
    omega = np.array([1.0, 2.0, 2.0]) / 3
    return {k: solver.solve_forward(V, k, omega, g) for k in (1.5, 3.0)}


@pytest.mark.parametrize("k", [1.5, 3.0])
@pytest.mark.parametrize("r", [1.2, 2.0, 4.0])
def test_sphere_norm_matches_near_field_quadrature_3d(cuboid_solutions, k, r):
    # the 3D Rellich oracle: the default decomposition against a
    # Gauss-Legendre (cos theta) x trapezoid (phi) rule on S_r
    from polyscat import solver
    sol = cuboid_solutions[k]
    mu, w_mu = np.polynomial.legendre.leggauss(24)
    z, phi = np.meshgrid(mu, 2 * np.pi * np.arange(48) / 48, indexing="ij")
    rho = np.sqrt(1 - z ** 2)
    pts = r * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)
    vals = solver.scattered_at_points(sol, pts.reshape(-1, 3)).reshape(24, 48)
    quad = np.sqrt(r ** 2 * 2 * np.pi / 48 * np.sum(w_mu[:, None]
                                                   * np.abs(vals) ** 2))
    dec = rellich.decompose_far_field(sol.far_field)
    got = rellich.sphere_norm_from_decomposition(dec, r)
    assert abs(got - quad) < 1e-9 * quad


def sph_harm_table(j_max, directions):
    """Y_j^m rows in the order (0, 0), (1, -1), (1, 0), (1, 1), ... from
    scipy, with theta and phi from the directions."""
    from scipy.special import sph_harm_y
    th = np.arccos(np.clip(directions[:, 2], -1, 1))
    ph = np.arctan2(directions[:, 1], directions[:, 0])
    deg, m = np.array([(j, mj) for j in range(j_max + 1)
                       for mj in range(-j, j + 1)]).T
    return deg, sph_harm_y(deg[:, None], m[:, None], th, ph)


@pytest.mark.parametrize("n", [16, 64, 257, 1024])
def test_spherical_harmonic_recurrence_matches_scipy(n):
    # both poles and a direction at phi = pi ride along with the Fibonacci
    # points
    extra = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.6, 0.0, 0.8], [-1.0, 0.0, 0.0]]
    dirs = np.vstack([default_directions(3, n), extra])
    got = rellich._spherical_harmonics(16, dirs)
    want = sph_harm_table(16, dirs)[1]
    assert np.max(np.abs(got - want)) < 1e-13


def test_decomposition_3d_matches_the_scipy_table(cuboid_solutions):
    # a 256-direction cuboid pattern: the fit on the recurrence's table
    # against the same least-squares fit on scipy's
    for sol in cuboid_solutions.values():
        ff = sol.far_field
        dec = rellich.decompose_far_field(ff)
        deg, ylm = sph_harm_table(8, ff.directions)
        c = np.linalg.lstsq(ylm.T, ff.values, rcond=None)[0]
        want = np.sqrt(np.bincount(deg, np.abs(c) ** 2))[:dec.J + 1]
        assert len(ff.values) == 256 and dec.J >= 4
        assert np.linalg.norm(dec.b - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("r", [0.8, 1.2, 3.0])
def test_sphere_norm_refuses_rounding_level_degrees(triangle_solutions, r):
    # at J = 127 (the highest unaliased degree on 256 angles), b_j sits at
    # rounding level from j ~ 15 on, and |H_j(kr)|^2 would blow that noise
    # up to inf
    ff = triangle_solutions[2.0].far_field
    with pytest.raises(rellich.RellichError):
        rellich.sphere_norm_from_decomposition(
            rellich.decompose_far_field(ff, J=127), r)
    norm = rellich.sphere_norm_from_decomposition(
        rellich.decompose_far_field(ff, J=10), r)
    assert 0 < norm < 1


# ---------------------------------------------------------------------------
# Far field to near field
# ---------------------------------------------------------------------------

def test_ff2nf_worked_example_saturated():
    # k = R = 1, B0 = 2, S = 1, eps = 1e-8: l ~ 10.007, nu0 = 5, and
    # 5 < e B0 k R ~ 5.44 keeps the bound in the saturated regime
    nf = rellich.ff2nf_bound(np.log(1e8), 1.0, 1.0, 1.0, 2.0)
    assert abs(nf.ell - np.sqrt(2 * np.e * np.log(1e8))) < 1e-12
    assert abs(nf.ell - 10.007) < 5e-3
    assert nf.nu0 == 5.0
    assert nf.regime == "saturated"
    assert nf.bound >= 1e-8  # saturates proportionally to epsilon


def test_ff2nf_decay_regime():
    nf = rellich.ff2nf_bound(np.log(1e11), 1.0, 1.0, 1.0, 2.0)
    assert nf.regime == "decay"
    assert nf.nu0 >= np.e * 2.0
    # bound = const * S * B0^(-l/2), checked from the reported pieces
    expect = np.exp(nf.log_constant) * 2.0 ** (-nf.ell / 2)
    assert abs(nf.bound - expect) < 1e-12 * expect
    assert abs(nf.log_bound - np.log(nf.bound)) < 1e-9


def test_ff2nf_monotone_in_epsilon_and_B0():
    eps = 10.0 ** -np.arange(8, 30, 3)
    bounds = [rellich.ff2nf_bound(-np.log(e), 1.0, 1.0, 1.0, 2.0).bound
              for e in eps]
    assert np.all(np.diff(bounds) <= 1e-15)
    b_small = rellich.ff2nf_bound(np.log(1e60), 1.0, 1.0, 1.0, 2.0)
    b_large = rellich.ff2nf_bound(np.log(1e60), 1.0, 1.0, 1.0, 4.0)
    assert b_large.regime == b_small.regime == "decay"
    assert b_large.log_bound < b_small.log_bound


def test_ff2nf_symbolic_log_ratio():
    # epsilon = S e^{-e^{100}} cannot be represented; log_ratio can
    nf = rellich.ff2nf_bound(float(np.exp(100)), 1.0, 1.0, 1.0, 2.0)
    assert nf.regime == "decay"
    assert nf.bound == 0.0            # the float view underflows to 0
    assert nf.log_bound < -1e20       # but the log form stays exact


def test_ff2nf_zero_and_validation():
    # eps = 0, a negative eps and a missing eps are the pipeline's to handle
    cal = small_cal()
    assert rellich.quantitative_rellich(0.0, 1.0, 1.0, 1.0, cal,
                                        1.0).boundary_bound == 0.0
    with pytest.raises(rellich.RellichError):
        rellich.quantitative_rellich(None, 1.0, 1.0, 1.0, cal, 1.0)
    with pytest.raises(rellich.RellichError):
        rellich.quantitative_rellich(-1e-3, 1.0, 1.0, 1.0, cal, 1.0)
    with pytest.raises(rellich.RellichError):
        rellich.ff2nf_bound(np.log(1e3), 1.0, 1.0, 1.0, 0.5)
    with pytest.raises(rellich.RellichError):
        rellich.ff2nf_bound(np.log(1e3), 0.0, 1.0, 1.0, 2.0)


def test_ff2nf_saturated_constant_is_not_capped():
    # at kR = 40 the saturated constant is e^873.85, beyond the float range:
    # its log is reported exactly and its float view is inf
    k, R, B0 = 40.0, 1.0, 2.0
    expect = (1 + 2 * np.e * B0 * k * R) ** 2 / (2 * np.e * k * R)
    assert abs(expect - 873.85) < 5e-3
    for log_ratio in (10.0, 800.0):
        nf = rellich.ff2nf_bound(log_ratio, 3.0, k, R, B0)
        assert nf.regime == "saturated"
        assert abs(nf.log_constant - expect) < 1e-12 * expect
        assert rellich.float_view(nf.log_constant) == np.inf
        # bound = Const * eps with eps = S e^(-log_ratio), in logs
        got = nf.log_bound - (expect + np.log(3.0) - log_ratio)
        assert abs(got) < 1e-12 * expect


# ---------------------------------------------------------------------------
# Three-balls measurements and calibration
# ---------------------------------------------------------------------------

def test_three_spheres_bessel_mode():
    # J_8 mode: strong radial growth makes the norms strictly ordered
    k = 2.0

    def field(pts):
        pts = np.asarray(pts)
        r = np.linalg.norm(pts, axis=-1)
        th = np.arctan2(pts[..., 1], pts[..., 0])
        return jv(8, k * r) * np.exp(8j * th)

    res = rellich.three_spheres_check(field, np.zeros(2), 0.2,
                                      np.random.default_rng(3))
    assert not res.degenerate
    assert res.norm_r < res.norm_2r < res.norm_4r
    assert 0.0 < res.beta_star < 1.0
    # beta* makes the interpolation an identity (C = TS factor removed)
    ident = res.norm_4r ** (1 - res.beta_star) * res.norm_r ** res.beta_star
    assert abs(ident - res.norm_2r) < 1e-9 * res.norm_2r


def test_three_spheres_degenerate_constant_field():
    res = rellich.three_spheres_check(lambda pts: np.ones(len(pts)),
                                      np.zeros(2), 0.1,
                                      np.random.default_rng(0))
    assert res.degenerate and np.isnan(res.beta_star)


@pytest.mark.parametrize("dim", [2, 3])
def test_random_field_matches_the_tensordot_form(dim):
    from oracles import tensordot_helmholtz_field
    rng = np.random.default_rng(dim)
    for _ in range(10):
        ref = tensordot_helmholtz_field(2.2, dim, copy.deepcopy(rng))
        f = rellich.random_helmholtz_field(2.2, dim, rng)
        pts = rng.uniform(-1, 1, (rellich.BALL_SAMPLES + 1, dim))
        np.testing.assert_array_equal(f(pts), ref(pts))
        np.testing.assert_array_equal(f(pts[:7]), ref(pts[:7]))


@pytest.mark.parametrize("dim", [2, 3])
def test_three_spheres_is_three_ball_sups(dim):
    # one field call on the three stacked clouds gives the bits of three
    # ball_sup calls drawing the same clouds in turn
    rng = np.random.default_rng(40 + dim)
    for _ in range(30):
        f = rellich.random_helmholtz_field(3.0, dim, rng)
        x = rng.uniform(-0.5, 0.5, dim)
        r = rng.uniform(0.05, 0.2)
        twin = copy.deepcopy(rng)
        res = rellich.three_spheres_check(f, x, r, rng)
        s0, s1, s2 = (rellich.ball_sup(f, x, radius, twin)
                      for radius in (r, 2 * r, 4 * r))
        assert (res.norm_r, res.norm_2r, res.norm_4r) \
            == (s0, max(s0, s1), max(s0, s1, s2))
        # both generators are left in the same state
        assert rng.uniform() == twin.uniform()


def test_calibrate_certifies_the_sweep():
    cal = rellich.calibrate(2.0, trials=40, seed=7)
    assert 0 < cal.c1 < 1
    assert abs(cal.c2 - cal.c1 / 4) < 1e-15
    assert cal.C >= 1.0
    lo, hi = cal.c1 / 4, 1 - 3 * cal.c1 / 4
    for res in rellich.calibration_sweep(cal.k, 2, cal.R_m, 40, cal.seed):
        if res.degenerate:
            continue
        assert lo <= res.beta_star <= hi
        assert res.lhs <= res.rhs(hi, cal.C) * (1 + 1e-12)


def test_calibration_roundtrip():
    cal = rellich.calibrate(2.0, trials=10, seed=1)
    back = rellich.Calibration.from_json(cal.to_json())
    assert back == cal
    # unknown keys in stored artifacts are ignored
    import json
    data = json.loads(cal.to_json())
    data["manifest_hash"] = "abc"
    assert rellich.Calibration.from_json(json.dumps(data)) == cal


def test_chain_constant_log_safe():
    # c1 = 1e-6 puts C_chain = (C TS)^(4/(3 c1)) far beyond the float range:
    # the log is exact and the float view is inf, not a clamped value
    cal = rellich.Calibration(1.0, 1.0, 10.0, 1e-6, 2.5e-7, 0, 10)
    expect = 4.0 / (3.0 * 1e-6) * np.log(10.0 * rellich.TS_FACTOR)
    assert abs(cal.log_chain_constant - expect) < 1e-14 * expect
    assert rellich.float_view(cal.log_chain_constant) == np.inf


# ---------------------------------------------------------------------------
# Chains of balls
# ---------------------------------------------------------------------------

def small_cal():
    return rellich.Calibration(k=2.0, R_m=1.0, C=2.0, c1=0.8, c2=0.2,
                               seed=0, trials=10)


def test_propagation_path_validation():
    with pytest.raises(rellich.RellichError):
        rellich.PropagationPath(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.5)
    p = rellich.PropagationPath(np.array([[0.0, 0.0], [0.4, 0.0]]), 0.5)
    assert p.K == 2


def test_propagate_chain_single_ball():
    cal = small_cal()
    field = lambda pts: 0.3 * np.ones(len(np.atleast_2d(pts)))
    path = rellich.PropagationPath(np.zeros((1, 2)), 0.1)
    res = rellich.propagate_chain(field, path, 1.0, cal)
    assert abs(res.bound - 0.3) < 1e-12
    assert res.K == 1


def test_propagate_chain_two_balls():
    cal = small_cal()
    field = lambda pts: 0.01 * np.ones(len(np.atleast_2d(pts)))
    path = rellich.PropagationPath(np.array([[0.0, 0.0], [0.1, 0.0]]), 0.1)
    res = rellich.propagate_chain(field, path, 2.0, cal)
    expect = rellich.float_view(cal.log_chain_constant) * 2.0 * 0.01 ** cal.c2
    assert abs(res.bound - expect) < 1e-12 * expect
    assert res.measured_end <= res.bound  # the bound is honest here


def test_propagate_chain_guards():
    cal = small_cal()
    field = lambda pts: np.ones(len(np.atleast_2d(pts)))
    path = rellich.PropagationPath(np.zeros((1, 2)), 0.1)
    with pytest.raises(rellich.RellichError):
        rellich.propagate_chain(field, path, 0.5, cal)       # T < 1
    with pytest.raises(rellich.RellichError):
        rellich.propagate_chain(field,
                                rellich.PropagationPath(np.zeros((1, 2)), 0.3),
                                1.0, cal)                    # 4r >= R_m
    big = lambda pts: 2.0 * np.ones(len(np.atleast_2d(pts)))
    with pytest.raises(rellich.RellichError):
        rellich.propagate_chain(big, path, 1.0, cal)          # start norm > 1
    with pytest.raises(rellich.RellichError):
        rellich.propagate_chain(field, path, 1.0, cal,
                                clearance=lambda c: 0.1)      # too close


def test_propagate_outside_hull():
    from polyscat.geom import convex_polygon
    cal = small_cal()
    Q = convex_polygon([[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]])
    field = lambda pts: 1e-6 * np.ones(len(np.atleast_2d(pts)))
    res = rellich.propagate_outside_hull(field, Q, np.array([0.9, 0.0]),
                                         r=0.1, lam=0.25, delta=1e-4,
                                         T=1.0, cal=cal, R=1.0)
    assert res.bound > 0 and np.isfinite(res.bound)
    assert res.measured_end <= res.bound
    with pytest.raises(rellich.RellichError):
        rellich.propagate_outside_hull(field, Q, np.array([0.25, 0.0]),
                                       r=0.1, lam=0.25, delta=1e-4,
                                       T=1.0, cal=cal, R=1.0)


# ---------------------------------------------------------------------------
# Crossing into the boundary layer
# ---------------------------------------------------------------------------

def test_crossing_independent_recomputation():
    cal = small_cal()
    alpha, A, R, T, delta = 0.5, 2.5, 1.0, 1.0, 1e-20
    res = rellich.cross_into_boundary(np.log(delta), alpha, T, A, cal, R)
    log_c2 = abs(np.log(cal.c2))
    lnln = np.log(abs(np.log(delta)))
    r_delta = A * R * log_c2 / ((1 - alpha) * lnln)
    numer = (8 * A * R * log_c2 / (1 - alpha)) ** alpha + cal.C / cal.c2 ** 2
    bound = numer / lnln ** alpha * T
    assert abs(res.r_delta - r_delta) < 1e-12 * r_delta
    assert abs(res.bound - bound) < 1e-12 * bound


def test_crossing_bound_decreases_in_smallness():
    cal = small_cal()
    deltas = [1e-10, 1e-40, 1e-160]
    bounds = [rellich.cross_into_boundary(np.log(d), 0.5, 1.0, 2.5, cal,
                                          1.0).bound
              for d in deltas]
    assert bounds[0] > bounds[1] > bounds[2]


def test_crossing_symbolic_log_delta():
    cal = small_cal()
    res = rellich.cross_into_boundary(-np.exp(200), 0.5, 1.0, 2.5, cal, 1.0)
    assert res.delta_ok
    # bound scales like (ln|ln delta|)^(-alpha)
    assert abs(res.bound * 200 ** 0.5
               - ((8 * 2.5 * abs(np.log(0.2)) / 0.5) ** 0.5
                  + cal.C / cal.c2 ** 2)) < 1e-9


def test_crossing_validation():
    cal = small_cal()
    with pytest.raises(rellich.RellichError):
        rellich.cross_into_boundary(np.log(1e-20), 1.5, 1.0, 2.5, cal, 1.0)
    with pytest.raises(rellich.RellichError):
        rellich.cross_into_boundary(np.log(1e-20), 0.5, 1.0, 1.0, cal, 1.0)
    with pytest.raises(rellich.RellichError):
        rellich.cross_into_boundary(np.log(0.999), 0.5, 1.0, 2.5, cal, 1.0)


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

def test_pipeline_zero_far_field():
    res = rellich.quantitative_rellich(0.0, 1.0, 2.0, 1.0, small_cal(), 1.0)
    assert res.boundary_bound == 0.0 and res.regime == "zero"


def test_pipeline_saturated_falls_back_to_T():
    res = rellich.quantitative_rellich(1e-3, 1.0, 1.0, 1.0, small_cal(), 7.0)
    assert res.regime == "saturated"
    assert res.boundary_bound == res.capped_bound == 7.0 == res.T


def test_pipeline_falls_back_to_T_when_delta_is_not_below_1_over_e():
    # k = 1.5, eps = 1e-30: the annulus bound decays, but delta ~ 0.87 is
    # too close to 1 for the double-log bridge, so only T survives
    res = rellich.quantitative_rellich(1e-30, 3.0, 1.5, 1.0, small_cal(),
                                       T=3.0)
    assert res.nf.regime == "decay"
    assert -1 <= res.nf.log_bound < 0
    assert res.regime == "saturated"
    assert res.boundary_bound == 3.0
    assert res.delta == res.nf.bound


def test_pipeline_caps_the_decay_bound_at_T():
    # at eps = 1e-200 the theorem's decay-regime bound is about 2e3, far
    # above the a-priori bound T = S = 3: T wins, the theorem's value stays
    cal = rellich.calibrate(1.5, trials=40, seed=0)
    res = rellich.quantitative_rellich(1e-200, 3.0, 1.5, 1.0, cal, T=3.0)
    assert res.regime == "decay"
    assert 1.9e3 < res.boundary_bound < 2.1e3
    assert res.T == 3.0 and res.capped_bound == 3.0 < res.boundary_bound


def test_pipeline_symbolic_double_log_form():
    # for log_ratio = e^q the final bound scales like q^(-alpha)
    cal = small_cal()
    vals = []
    for q in (150.0, 450.0):
        res = rellich.quantitative_rellich(None, 1.0, 1.0, 1.0, cal, 1.0,
                                           log_ratio=float(np.exp(q)))
        assert res.regime == "decay" and res.delta_ok
        vals.append(res.boundary_bound * np.sqrt(q))
    # ln|ln delta| ~ q up to additive constants, so the scaled values agree
    assert abs(vals[0] - vals[1]) < 0.05 * vals[0]
