import numpy as np
import pytest

from polyscat import cgo, fields, geom, solver


def spherical_cone_2d(axis=(1.0, 0.0), half=np.pi / 5, vertex=(0.0, 0.0)):
    return geom.PolyCone(np.asarray(vertex, dtype=float),
                         np.asarray([axis], dtype=float),
                         "spherical", half_angle=half)


def quarter_plane_cone(vertex=(0.0, 0.0)):
    return geom.PolyCone(np.asarray(vertex, dtype=float),
                         np.array([[1.0, 0.0], [0.0, 1.0]]), "polyhedral")


# ---------------------------------------------------------------------------
# Directions on the curve
# ---------------------------------------------------------------------------

def test_direction_worked_example():
    d = cgo.build_direction(spherical_cone_2d(), 4.0, 3.0)
    np.testing.assert_allclose(d.rho, [-3.0, -5.0j], atol=1e-14)
    assert abs(np.linalg.norm(np.real(d.rho)) - 3.0) < 1e-14
    assert abs(d.im_rho_norm - 5.0) < 1e-14


def test_direction_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dim = rng.choice([2, 3])
        ax = rng.standard_normal(dim)
        ax /= np.linalg.norm(ax)
        K = geom.PolyCone(np.zeros(dim), ax[None], "spherical",
                          half_angle=rng.uniform(0.1, 1.4))
        k = rng.uniform(0.5, 6.0)
        tau = rng.uniform(0.5, 30.0)
        d = cgo.build_direction(K, k, tau)
        # zeta.zeta = 0 and rho.rho = -k^2 (so u0 solves Helmholtz exactly
        # when psi = 0)
        assert abs(d.zeta @ d.zeta) < 1e-12
        assert abs(d.rho @ d.rho + k ** 2) < 1e-9
        assert abs(np.linalg.norm(np.real(d.rho)) - tau) < 1e-12
        assert abs(d.im_rho_norm - np.sqrt(tau ** 2 + k ** 2)) < 1e-12


def test_direction_rejects_bad_cones():
    with pytest.raises(cgo.CgoError):
        cgo.build_direction(quarter_plane_cone(), 1.0, 1.0)
    with pytest.raises(cgo.CgoError):
        cgo.build_direction(spherical_cone_2d(half=1.6), 1.0, 1.0)
    with pytest.raises(cgo.CgoError):
        cgo.build_direction(spherical_cone_2d(), 1.0, -1.0)


def test_exponential_decay_in_cone():
    # e^{Re rho . (x - x_c)} <= e^{-delta0 tau |x - x_c|} inside the cone
    K = spherical_cone_2d(axis=(0.6, 0.8), half=0.5, vertex=(0.2, -0.1))
    d = cgo.build_direction(K, 2.0, 7.0)
    rng = np.random.default_rng(1)
    count = 0
    while count < 1000:
        x = K.vertex + rng.uniform(-3, 3, 2)
        if not geom.cone_mask(K, x, tol=1e-10):
            continue
        count += 1
        lhs = np.real(d.rho) @ (x - K.vertex)
        assert lhs <= -d.delta0 * d.tau * np.linalg.norm(x - K.vertex) + 1e-9


# ---------------------------------------------------------------------------
# Cone Laplace transforms
# ---------------------------------------------------------------------------

def test_cone_laplace_quarter_plane_unit():
    # xi = (-1, -1), a = 0: value 1/(xi1 xi2) = 1
    K = quarter_plane_cone()
    t = cgo.cone_laplace(K, np.array([-1.0, -1.0]))
    assert abs(t.value - 1.0) < 1e-14
    assert t.formula == "wedge"
    assert abs(t.a) < 1e-14


def test_cone_laplace_orthant_unit():
    K = geom.PolyCone(np.zeros(3), np.eye(3), "polyhedral")
    t = cgo.cone_laplace(K, np.array([-1.0, -1.0, -1.0]))
    assert abs(t.value - 1.0) < 1e-14
    assert t.formula == "orthant"


def test_cone_laplace_against_quadrature():
    from oracles import cone_laplace_quadrature
    rng = np.random.default_rng(2)
    # 2D wedges
    for _ in range(8):
        t1 = rng.uniform(0, 2 * np.pi)
        span = rng.uniform(0.3, 2.8)
        K = geom.PolyCone(rng.standard_normal(2),
                          np.array([[np.cos(t1), np.sin(t1)],
                                    [np.cos(t1 + span), np.sin(t1 + span)]]),
                          "polyhedral")
        axis = K.axis
        vec = -3.0 * axis + 1j * rng.standard_normal(2)
        try:
            got = cgo.cone_laplace(K, vec).value
        except cgo.CgoError:
            continue
        ref = cone_laplace_quadrature(K, vec)
        assert abs(got - ref) < 1e-6 * abs(ref)
    # 3D orthant
    K = geom.PolyCone(np.zeros(3), np.eye(3), "polyhedral")
    vec = np.array([-1.0 + 2.0j, -2.0 - 1.0j, -0.5 + 0.3j])
    got = cgo.cone_laplace(K, vec).value
    ref = cone_laplace_quadrature(K, vec)
    assert abs(got - ref) < 1e-8 * abs(ref)


def test_cone_laplace_divergence_guard():
    K = quarter_plane_cone()
    with pytest.raises(cgo.CgoError):
        cgo.cone_laplace(K, np.array([1.0, -1.0]))  # grows along x1


def test_check_cone_geometry_guards():
    q = spherical_cone_2d(half=0.6)
    p_in = geom.PolyCone(np.zeros(2),
                         np.array([[np.cos(0.3), np.sin(0.3)],
                                   [np.cos(-0.3), np.sin(-0.3)]]),
                         "polyhedral")
    cgo.check_cone_geometry(p_in, q)  # fine
    p_out = geom.PolyCone(np.zeros(2),
                          np.array([[np.cos(1.0), np.sin(1.0)],
                                    [np.cos(-1.0), np.sin(-1.0)]]),
                          "polyhedral")
    with pytest.raises(geom.GeometryError):
        cgo.check_cone_geometry(p_out, q)
    q_moved = spherical_cone_2d(half=0.6, vertex=(1.0, 0.0))
    with pytest.raises(geom.GeometryError):
        cgo.check_cone_geometry(p_in, q_moved)


def test_check_cone_geometry_opening_angle_bounds():
    # the quarter plane opens pi/2; each bound is strict
    q = spherical_cone_2d(axis=(np.sqrt(0.5), np.sqrt(0.5)), half=0.8)
    p = quarter_plane_cone()
    cgo.check_cone_geometry(p, q, alpha_m=np.pi / 5)
    cgo.check_cone_geometry(p, q, alpha_M=np.pi / 3)
    with pytest.raises(geom.GeometryError, match="lower bound"):
        cgo.check_cone_geometry(p, q, alpha_m=np.pi / 4)
    with pytest.raises(geom.GeometryError, match="upper bound"):
        cgo.check_cone_geometry(p, q, alpha_M=np.pi / 4)


def test_lower_bound_curve_plateau():
    q = spherical_cone_2d(axis=(np.sqrt(0.5), np.sqrt(0.5)), half=0.8)
    p = quarter_plane_cone()
    taus = 2.0 * 2.0 ** np.arange(8)
    curve = cgo.lower_bound_curve(p, q, 2.0, taus)
    # tau^2 |L(rho)| converges to |L(zeta)| from the admissible side
    assert curve.c > 0
    assert abs(curve.values[-1] - abs(curve.zeta_value)) \
        <= 0.05 * abs(curve.zeta_value)
    assert curve.c >= 0.9 * abs(curve.zeta_value) - 1e-12


# ---------------------------------------------------------------------------
# Decay cases
# ---------------------------------------------------------------------------

def test_decay_case_table():
    c2 = cgo.faddeev_decay_case(2)
    assert c2.case == 1 and np.isinf(c2.p)
    assert abs(c2.beta - 2.0 / 3.0) < 1e-12
    c3 = cgo.faddeev_decay_case(3)
    assert c3.case == 3
    assert abs(c3.p - 3.0 / (0.75 - 0.49)) < 1e-9
    assert abs(c3.decay_exponent - 0.5) < 1e-12
    assert abs(c3.beta - (0.5 - 3.0 / c3.p)) < 1e-12
    # equality branch with an exact rational r
    cc = cgo.faddeev_decay_case(3, s=1.5, r=2.0)
    assert cc.case == 2 and abs(cc.p - 3.0) < 1e-9
    with pytest.raises(cgo.CgoError):
        cgo.faddeev_decay_case(3, s=0.2)  # excluded regime


# ---------------------------------------------------------------------------
# The remainder solve
# ---------------------------------------------------------------------------

def test_faddeev_zero_data():
    g = fields.centered_grid(1.0, 32, dim=2)
    rho = cgo.build_direction(spherical_cone_2d(), 2.0, 5.0).rho
    psi = cgo.solve_faddeev(np.zeros(g.shape), np.zeros(g.shape), rho, g)
    assert np.max(np.abs(psi.values)) == 0.0


def test_faddeev_green_residual():
    # psi = G_rho f must satisfy (Lap + 2 rho.grad) psi = f for smooth f
    g = fields.centered_grid(1.0, 64, dim=2)
    h = g.spacing
    rho = cgo.build_direction(spherical_cone_2d(), 2.0, 6.0).rho
    pts = g.points()
    r2 = np.sum(pts ** 2, axis=-1)
    f = np.exp(-40 * r2).astype(complex)
    psi = cgo.solve_faddeev(np.zeros(g.shape), f, rho, g).values
    lap = fields.laplacian_stencil(psi, h)
    grads = np.gradient(psi, h)
    core = (slice(2, -2),) * 2
    res = lap + 2 * (rho[0] * grads[0] + rho[1] * grads[1]) - f
    rel = np.max(np.abs(res[core])) / np.max(np.abs(f))
    assert rel < 0.05


def test_contraction_gate_rejects_large_contrast():
    g = fields.centered_grid(1.0, 32, dim=2)
    rho = cgo.build_direction(spherical_cone_2d(), 2.0, 0.5).rho
    q = np.full(g.shape, 200.0, dtype=complex)
    with pytest.raises(cgo.CgoError):
        cgo.solve_faddeev(q, -q, rho, g)


# ---------------------------------------------------------------------------
# The remainder solve on the support box, and the certified gate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim, n, lo, hi, to_grid", [
    (2, 48, (7, 21), (30, 33), False),
    (3, 20, (2, 5, 9), (10, 16, 14), False),
    (2, 48, (7, 21), (30, 33), True),
], ids=["2d-off-centre", "3d", "2d-off-centre-to-grid"])
def test_restricted_green_matches_full_operator(dim, n, lo, hi, to_grid):
    g = fields.centered_grid(1.0, n, dim=dim)
    axis = np.ones(dim) / np.sqrt(dim)
    K = geom.PolyCone(np.zeros(dim), axis[None], "spherical", half_angle=0.9)
    rho = cgo.build_direction(K, 2.0, 7.3).rho
    green = cgo.FaddeevGreen(g, rho)
    mask = np.zeros(g.shape)
    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = 1.0
    support, box = solver.support_box(mask, g)
    assert box.shape == tuple(b - a for a, b in zip(lo, hi))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape)
    embedded = np.zeros(g.shape, dtype=complex)
    embedded[support] = x
    ref = green.apply(embedded)
    ref = ref if to_grid else ref[support]
    got = cgo.FaddeevGreen(g, rho, box, g if to_grid else box).apply(x)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_multiplier_singularity_on_the_doubled_lattice():
    # rho puts a zero of -|xi|^2 + 2i rho.xi on the half-shifted lattice
    # of 2n points per axis: Re rho.xi = 0 and |xi|^2 + 2 Im rho.xi = 0 at
    # xi = (a, a), a = 7 pi / (2n h); the boxes do not move the lattice
    n, tau = 32, 3.0
    g = fields.centered_grid(1.0, n, dim=2)
    a = 7 * np.pi / (2 * n * g.spacing)
    rho = tau * np.array([1.0, -1.0]) / np.sqrt(2) - 0.5j * a * np.ones(2)
    box = solver.support_box(_disc_q(g, 0.3, 1.0), g)[1]
    for source, target in ((None, None), (box, box), (box, g)):
        with pytest.raises(cgo.MultiplierSingularity) as err:
            cgo.FaddeevGreen(g, rho, source, target)
        assert err.value.suggested_tau == pytest.approx(
            tau + 2 * np.pi / (2 * n * g.spacing), rel=1e-12)


def _cuboid_3d():
    return fields.constant_contrast(
        geom.cuboid([0.1, -0.15, 0.05], [0.25, 0.18, 0.3]), 0.4 + 0.1j)


def _polygon_2d():
    P = geom.convex_polygon([[-0.1, -0.5], [0.55, -0.35], [0.45, 0.2],
                             [0.0, 0.05]])
    return fields.constant_contrast(P, 0.4 + 0.1j)


@pytest.mark.parametrize("make, n, tau", [
    (_polygon_2d, 96, 10.0),
    (_cuboid_3d, 32, 20.0),
], ids=["2d-polygon", "3d-cuboid"])
def test_box_remainder_solve_matches_full_grid(make, n, tau):
    V = make()
    dim = V.polytope.dim
    k = 2.0
    g = fields.centered_grid(1.0, n, dim=dim)
    axis = -np.ones(dim) / np.sqrt(dim)
    K = geom.PolyCone(np.zeros(dim), axis[None], "spherical", half_angle=0.9)
    rho = cgo.build_direction(K, k, tau).rho
    q = k ** 2 * V.evaluate(g)
    psi = cgo.solve_faddeev(q, -q, rho, g).values
    # full-grid reference: GMRES on every grid point
    green = cgo.FaddeevGreen(g, rho)
    ref, _, _ = solver.solve_volume_equation(
        green, q, green.apply(-q), cgo.REMAINDER_TOL, cgo.REMAINDER_MAXITER)
    assert np.linalg.norm(psi - ref) <= 1e-8 * np.linalg.norm(ref)


def _power_estimate(green, q):
    """The six-step full-grid power iteration of the contraction factor."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(green.grid.shape) \
        + 1j * rng.standard_normal(green.grid.shape)
    x /= np.linalg.norm(x)
    rate = 0.0
    for _ in range(6):
        y = green.apply(q * x)
        rate = np.linalg.norm(y)
        x = y / rate
    return rate


def _disc_q(g, radius, value):
    r = np.linalg.norm(g.points(), axis=-1)
    return np.where(r <= radius, value, 0.0).astype(complex)


def test_contraction_gate_decides_as_full_grid_estimate():
    g = fields.centered_grid(1.0, 32, dim=2)
    decisions = set()
    for tau in (0.5, 2.0, 8.0, 32.0):
        green = cgo.FaddeevGreen(
            g, cgo.build_direction(spherical_cone_2d(), 2.0, tau).rho)
        for radius in (0.2, 0.35):
            for value in (1.0, 5.0, 20.0, 60.0):
                q = _disc_q(g, radius, value)
                ref = _power_estimate(green, q)
                got = cgo.contraction_estimate(green, q)
                bound = value / green.min_abs
                certified = bound < cgo.CONTRACTION_LIMIT
                if certified:
                    assert got == bound and ref <= bound
                else:
                    assert got == ref
                rejected = ref >= cgo.CONTRACTION_LIMIT
                assert (got >= cgo.CONTRACTION_LIMIT) == rejected
                decisions.add((certified, rejected))
    # the sweep reaches the certified, the iterated and the rejecting branch
    assert decisions == {(True, False), (False, False), (False, True)}


def test_contraction_gate_rejects_compact_contrast():
    # a compact contrast whose full-grid estimate is just above the limit
    g = fields.centered_grid(1.0, 32, dim=2)
    rho = cgo.build_direction(spherical_cone_2d(), 2.0, 0.5).rho
    q = _disc_q(g, 0.2, 60.0)
    assert 0.9 <= _power_estimate(cgo.FaddeevGreen(g, rho), q) < 0.95
    with pytest.raises(cgo.CgoError, match="contraction factor"):
        cgo.solve_faddeev(q, -q, rho, g)


def test_certified_build_cgo_skips_power_iteration(monkeypatch):
    P = geom.convex_polygon([[-0.35, -0.35], [0.35, -0.35], [0.35, 0.35],
                             [-0.35, 0.35]])
    V = fields.constant_contrast(P, 0.4)
    k = 2.0
    g = fields.centered_grid(1.0, 64, dim=2)
    d = cgo.build_direction(spherical_cone_2d(vertex=(0.0, 0.35)), k, 20.0)
    shapes, rates = [], []
    apply, estimate = cgo.FaddeevGreen.apply, cgo.contraction_estimate

    def counted_apply(self, x):
        shapes.append(self.grid.shape)
        return apply(self, x)

    def recorded_estimate(green, q):
        rates.append((estimate(green, q), np.max(np.abs(q)) / green.min_abs))
        return rates[-1][0]

    monkeypatch.setattr(cgo.FaddeevGreen, "apply", counted_apply)
    monkeypatch.setattr(cgo, "contraction_estimate", recorded_estimate)
    cgo.build_cgo(V, k, d, g)
    assert len(rates) == 1 and rates[0][0] == rates[0][1] < 0.9
    assert shapes.count(g.shape) <= 2
    assert len(shapes) > 2   # the GMRES applies run on the box


def test_build_cgo_zero_contrast():
    P = geom.convex_polygon([[-0.3, -0.3], [0.3, -0.3], [0.0, 0.3]])
    V = fields.constant_contrast(P, 0.0)
    g = fields.centered_grid(1.0, 32, dim=2)
    d = cgo.build_direction(spherical_cone_2d(vertex=(0.0, 0.3)), 2.0, 5.0)
    u0, psi = cgo.build_cgo(V, 2.0, d, g)
    assert np.max(np.abs(psi.values)) == 0.0
    phase = np.tensordot(g.points() - d.vertex, d.rho, axes=1)
    np.testing.assert_allclose(u0.values, np.exp(phase), rtol=1e-12)


def test_build_cgo_solves_helmholtz_with_potential():
    from oracles import helmholtz_residual
    P = geom.convex_polygon([[-0.35, -0.35], [0.35, -0.35], [0.35, 0.35],
                             [-0.35, 0.35]])
    V = fields.constant_contrast(P, 0.4)
    k = 2.0
    g = fields.centered_grid(1.0, 96, dim=2)
    d = cgo.build_direction(spherical_cone_2d(vertex=(0.0, 0.35)), k, 6.0)
    u0, psi = cgo.build_cgo(V, k, d, g)
    Vv = V.evaluate(g)
    # residual away from the contrast jump: for the axis-aligned square the
    # distance to the boundary is |max(|x|, |y|) - 0.35|
    pts = g.points()
    cheb = np.maximum(np.abs(pts[..., 0]), np.abs(pts[..., 1]))
    mask = np.abs(cheb - 0.35) > 0.1
    res = helmholtz_residual(u0, V=Vv, mask=mask)
    scale = np.max(np.abs(u0.values)) * k ** 2
    assert res < 0.05 * scale


def test_psi_norm_decreases_in_tau():
    P = geom.convex_polygon([[-0.35, -0.35], [0.35, -0.35], [0.35, 0.35],
                             [-0.35, 0.35]])
    V = fields.constant_contrast(P, 0.4)
    k = 2.0
    g = fields.centered_grid(1.0, 64, dim=2)
    norms = []
    for tau in (4.0, 8.0, 16.0, 32.0):
        d = cgo.build_direction(spherical_cone_2d(vertex=(0.0, 0.35)), k, tau)
        _, psi = cgo.build_cgo(V, k, d, g)
        norms.append(cgo.lp_norm(psi.values, np.inf, g.cell_volume))
    assert np.all(np.diff(norms) < 0)


def test_lp_norm_basics():
    vals = np.ones((4, 4))
    assert cgo.lp_norm(vals, np.inf, 0.25) == 1.0
    assert abs(cgo.lp_norm(vals, 2.0, 0.25) - 2.0) < 1e-12
