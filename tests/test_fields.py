import numpy as np
import pytest

from polyscat import fields, geom


def test_grid_basics():
    g = fields.centered_grid(1.0, 8, dim=2)
    assert g.dim == 2 and g.n_points == 64
    pts = g.points()
    assert pts.shape == (8, 8, 2)
    # cell centers: symmetric about the origin, spacing 2/8
    np.testing.assert_allclose(pts[0, 0], [-0.875, -0.875])
    np.testing.assert_allclose(pts[-1, -1], [0.875, 0.875])
    assert abs(g.cell_volume - 0.25 ** 2) < 1e-15


def test_grid_validation():
    with pytest.raises(fields.FieldError):
        fields.Grid(np.zeros(2), -0.1, (4, 4))
    with pytest.raises(fields.FieldError):
        fields.Grid(np.zeros(2), 0.1, (4, 4, 4))
    with pytest.raises(fields.FieldError):
        fields.Grid(np.zeros(1), 0.1, (4,))
    with pytest.raises(fields.FieldError):
        fields.centered_grid(1.0, 5000, dim=2)  # exceeds point budget


def test_plane_wave_unimodular_and_direction_check():
    g = fields.centered_grid(1.0, 16, dim=2)
    u = fields.plane_wave(3.0, [1.0, 0.0], g)
    np.testing.assert_allclose(np.abs(u.values), 1.0, atol=1e-14)
    assert u.role == "incident"
    with pytest.raises(fields.FieldError):
        fields.plane_wave(3.0, [1.0, 1.0], g)


def test_plane_wave_residual_second_order():
    # residual of the discrete Helmholtz operator decays like h^2
    k = 4.0
    omega = np.array([np.cos(0.3), np.sin(0.3)])
    res = []
    for n in (32, 64):
        g = fields.centered_grid(1.0, n, dim=2)
        u = fields.plane_wave(k, omega, g)
        res.append(fields.helmholtz_residual(u))
    ratio = res[0] / res[1]
    assert 3.5 <= ratio <= 4.5


def test_residual_3d_and_mask():
    g = fields.centered_grid(0.5, 12, dim=3)
    u = fields.plane_wave(2.0, [0, 0, 1.0], g)
    r_full = fields.helmholtz_residual(u)
    assert r_full < 0.1
    mask = np.zeros(g.shape, dtype=bool)
    mask[5, 5, 5] = True
    assert fields.helmholtz_residual(u, mask=mask) <= r_full
    with pytest.raises(fields.FieldError):
        fields.helmholtz_residual(u, mask=np.zeros(g.shape, dtype=bool))


def test_field_norm_quadrature():
    # ||1||_{L2(ball)} = sqrt(area) = sqrt(pi r^2)
    g = fields.centered_grid(1.0, 256, dim=2)
    u = fields.WaveField(g, np.ones(g.shape, dtype=complex), 1.0)
    ball = fields.Ball(np.zeros(2), 0.7)
    got = fields.field_norm(u, ball)
    assert abs(got - np.sqrt(np.pi * 0.49)) < 5e-3
    assert fields.field_norm(u, ball, norm="Linf") == 1.0
    ann = fields.Annulus(np.zeros(2), 0.3, 0.6)
    exact = np.sqrt(np.pi * (0.36 - 0.09))
    assert abs(fields.field_norm(u, ann) - exact) < 5e-3
    with pytest.raises(fields.FieldError):
        fields.field_norm(u, fields.Ball(np.array([50.0, 0.0]), 0.1))
    with pytest.raises(fields.FieldError):
        fields.field_norm(u, ball, norm="H1")


def test_field_norm_polytope_region():
    g = fields.centered_grid(1.0, 200, dim=2)
    u = fields.WaveField(g, np.ones(g.shape, dtype=complex), 1.0)
    P = geom.convex_polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    assert abs(fields.field_norm(u, P) - 1.0) < 5e-3


def test_wavefield_validation():
    g = fields.centered_grid(1.0, 8, dim=2)
    with pytest.raises(fields.FieldError):
        fields.WaveField(g, np.zeros((4, 4), dtype=complex), 1.0)
    bad = np.zeros(g.shape, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(fields.FieldError):
        fields.WaveField(g, bad, 1.0)


def test_h2_surrogate_plane_wave_scaling():
    # for exp(ik x.omega): |u|=1, |grad u|=k, |lap u|=k^2 pointwise,
    # so the surrogate over a region of area A is ~ sqrt(A (1+k^2+k^4))
    k = 3.0
    g = fields.centered_grid(1.0, 128, dim=2)
    u = fields.plane_wave(k, [1.0, 0.0], g)
    ball = fields.Ball(np.zeros(2), 0.6)
    got = fields.h2_surrogate(u, ball)
    expect = np.sqrt(np.pi * 0.36 * (1 + k ** 2 + k ** 4))
    assert abs(got - expect) < 0.05 * expect


def test_contrast_indicator_support():
    P = geom.convex_polygon([[-0.4, -0.4], [0.4, -0.4], [0.4, 0.4], [-0.4, 0.4]])
    V = fields.constant_contrast(P, 0.5 + 0.1j)
    g = fields.centered_grid(1.0, 64, dim=2)
    vals = V.evaluate(g)
    pts = g.points()
    inside = fields.polytope_mask(P, pts)
    assert np.all(vals[~inside] == 0)
    assert np.allclose(vals[inside], 0.5 + 0.1j)
    assert abs(V.sup_norm(g) - abs(0.5 + 0.1j)) < 1e-14
    np.testing.assert_allclose(V.vertex_values(), 0.5 + 0.1j)


def test_contrast_cache_reuse():
    P = geom.convex_polygon([[-0.4, -0.4], [0.4, -0.4], [0.0, 0.4]])
    V = fields.constant_contrast(P, 1.0)
    g = fields.centered_grid(1.0, 32, dim=2)
    a = V.evaluate(g)
    b = V.evaluate(g)
    assert a is b
    # an equal grid built separately shares the entry
    assert V.evaluate(fields.centered_grid(1.0, 32, dim=2)) is a


def test_affine_contrast_mu_and_values():
    P = geom.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    V = fields.affine_contrast(P, 1.0, [0.5, 0.0])
    np.testing.assert_allclose(sorted(np.abs(V.vertex_values())),
                               [1.0, 1.0, 1.5])
    assert abs(V.mu - 1.0) < 1e-14
    assert V.alpha == 1.0


def test_hoelder_contrast_exponent_witness():
    P = geom.convex_polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    alpha = 0.6
    V = fields.hoelder_bump_contrast(P, [0.0, 0.0], alpha, 1.0)
    q = fields.measured_hoelder_quotient(V, n_pairs=300, seed=1)
    assert q <= V.M * 1.5
    # the same field is NOT Lipschitz near the corner: quotient with
    # exponent 1 blows past the alpha-quotient as pairs approach 0
    V_lip = fields.ContrastField(P, V.phi, alpha=1.0, M=V.M, mu=V.mu)
    rng = np.random.default_rng(2)
    worst = 0.0
    for s in 10.0 ** -np.arange(2, 7):
        x = np.array([s, 0.0])
        num = abs(complex(V.phi(x[None])[0]) - complex(V.phi(np.zeros((1, 2)))[0]))
        worst = max(worst, num / s)
    assert worst > 10 * q


def test_hoelder_exponent_floor_3d():
    P = geom.cuboid([0, 0, 0], [0.5, 0.5, 0.5])
    with pytest.raises(fields.FieldError):
        fields.ContrastField(P, lambda pts: np.ones(pts.shape[:-1]),
                             alpha=0.2, M=1.0, mu=1.0)
