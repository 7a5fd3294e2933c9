import numpy as np
import pytest

from oracles import helmholtz_residual
from polyscat import fields, geom


def test_grid_basics():
    g = fields.centered_grid(1.0, 8, dim=2)
    assert g.dim == 2 and g.shape == (8, 8)
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
    with pytest.raises(fields.FieldError):
        fields.plane_wave(3.0, [1.0, 1.0], g)
    with pytest.raises(fields.FieldError, match="unit vector"):
        fields.plane_wave(3.0, [np.nan, 0.0], g)


def test_plane_wave_residual_second_order():
    # residual of the discrete Helmholtz operator decays like h^2
    k = 4.0
    omega = np.array([np.cos(0.3), np.sin(0.3)])
    res = []
    for n in (32, 64):
        g = fields.centered_grid(1.0, n, dim=2)
        u = fields.plane_wave(k, omega, g)
        res.append(helmholtz_residual(u))
    ratio = res[0] / res[1]
    assert 3.5 <= ratio <= 4.5


def test_residual_3d_and_mask():
    g = fields.centered_grid(0.5, 12, dim=3)
    u = fields.plane_wave(2.0, [0, 0, 1.0], g)
    r_full = helmholtz_residual(u)
    assert r_full < 0.1
    mask = np.zeros(g.shape, dtype=bool)
    mask[5, 5, 5] = True
    assert helmholtz_residual(u, mask=mask) <= r_full
    with pytest.raises(fields.FieldError):
        helmholtz_residual(u, mask=np.zeros(g.shape, dtype=bool))


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
    # so the surrogate over the interior cells, of area ((n-2) h)^2, is
    # ~ sqrt(A (1+k^2+k^4))
    k = 3.0
    g = fields.centered_grid(1.0, 128, dim=2)
    u = fields.plane_wave(k, [1.0, 0.0], g)
    got = fields.h2_surrogate(u)
    expect = np.sqrt(((128 - 2) * g.spacing) ** 2 * (1 + k ** 2 + k ** 4))
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
    assert abs(np.max(np.abs(vals)) - abs(0.5 + 0.1j)) < 1e-14
    np.testing.assert_allclose(V.phi(P.vertices), 0.5 + 0.1j)


def test_contrast_cache_reuse():
    P = geom.convex_polygon([[-0.4, -0.4], [0.4, -0.4], [0.0, 0.4]])
    V = fields.constant_contrast(P, 1.0)
    g = fields.centered_grid(1.0, 32, dim=2)
    a = V.evaluate(g)
    b = V.evaluate(g)
    assert a is b
    # an equal grid built separately shares the entry
    assert V.evaluate(fields.centered_grid(1.0, 32, dim=2)) is a


def test_contrast_cache_holds_one_grid():
    P = geom.convex_polygon([[-0.4, -0.4], [0.4, -0.4], [0.0, 0.4]])
    V = fields.constant_contrast(P, 1.0)
    for n in range(16, 36):
        V.evaluate(fields.centered_grid(1.0, n, dim=2))
    assert len(V._cache) == 1


def full_grid_contrast(V, g):
    """V sampled on every grid point: polytope_mask over the whole grid,
    phi at the inside points."""
    pts = g.points()
    inside = fields.polytope_mask(V.polytope, pts)
    vals = np.zeros(g.shape, dtype=complex)
    vals[inside] = V.phi(pts[inside])
    return vals


def rotated_cuboid():
    rot, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    return geom.cuboid([0.05, -0.1, 0.08], [0.3, 0.2, 0.25], rotation=rot)


@pytest.mark.parametrize("kind", ["constant", "affine", "hoelder"])
def test_reach_box_matches_the_full_grid_on_a_rotated_cuboid(kind):
    P = rotated_cuboid()
    V = {"constant": lambda: fields.constant_contrast(P, 0.4 - 0.1j),
         "affine": lambda: fields.affine_contrast(P, 0.3, [0.1, -0.2, 0.05]),
         "hoelder": lambda: fields.hoelder_bump_contrast(P, P.vertices[0],
                                                         0.6, 0.3)}[kind]()
    g = fields.centered_grid(1.0, 40, dim=3)
    vals = V.evaluate(g)
    assert np.count_nonzero(vals) > 500
    assert np.array_equal(vals, full_grid_contrast(V, g))


def test_reach_box_matches_the_full_grid_off_centre():
    # h = 2/90 is not dyadic, so a box grid of its own origin would not
    # reproduce the grid's points bit for bit
    P = geom.convex_polygon([[0.1, -0.3], [0.55, -0.2], [0.6, 0.3],
                             [0.2, 0.45], [-0.1, 0.1]])
    V = fields.hoelder_bump_contrast(P, P.vertices[2], 0.5, 0.4 + 0.2j)
    g = fields.centered_grid(1.0, 90, dim=2, center=[0.13, -0.07])
    vals = V.evaluate(g)
    assert np.count_nonzero(vals) > 500
    assert np.array_equal(vals, full_grid_contrast(V, g))


def test_reach_box_is_clipped_to_the_grid():
    # vertex bounds past the x = max face (2D) and the y = min face (3D):
    # the reach box is cut at the grid's edge, and the cells on that face
    # carry the contrast
    g2 = fields.centered_grid(1.0, 48, dim=2)
    P2 = geom.convex_polygon([[0.5, -0.2], [1.4, -0.1], [1.3, 0.3], [0.6, 0.2]])
    g3 = fields.centered_grid(1.0, 24, dim=3)
    P3 = geom.cuboid([0.1, -0.9, 0.0], [0.3, 0.4, 0.2])
    for V, g, face in ((fields.affine_contrast(P2, 0.3, [0.1, 0.2]), g2,
                        (slice(-1, None),)),
                       (fields.constant_contrast(P3, 0.5), g3,
                        (slice(None), slice(0, 1)))):
        vals = V.evaluate(g)
        assert np.any(vals[face] != 0)
        assert np.array_equal(vals, full_grid_contrast(V, g))
    # a polytope wholly off the grid gives zeros
    far = geom.convex_polygon([[1.5, 1.5], [2.0, 1.5], [2.0, 2.0]])
    vals = fields.constant_contrast(far, 1.0).evaluate(g2)
    assert vals.shape == g2.shape and not np.any(vals)


def test_reach_box_memory_scales_with_the_box():
    # sampling all 128^3 points peaked near 157 MB; the reach box of this
    # cuboid holds about a tenth of them, and the 34-MB output array is
    # most of the peak
    import tracemalloc
    V = fields.constant_contrast(rotated_cuboid(), 0.4)
    g = fields.centered_grid(1.0, 128, dim=3)
    tracemalloc.start()
    try:
        vals = V.evaluate(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45e6
    assert np.count_nonzero(vals) > 0


def test_affine_contrast_mu_and_values():
    P = geom.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    V = fields.affine_contrast(P, 1.0, [0.5, 0.0])
    np.testing.assert_allclose(sorted(np.abs(V.phi(P.vertices))),
                               [1.0, 1.0, 1.5])
    assert abs(V.mu - 1.0) < 1e-14
    assert V.alpha == 1.0


def _measured_hoelder_quotient(V, n_pairs, seed):
    """Sampled sup |phi(x)-phi(y)| / |x-y|^alpha over random point pairs in P."""
    gen = np.random.default_rng(seed)
    lo = V.polytope.vertices.min(axis=0)
    hi = V.polytope.vertices.max(axis=0)
    best = 0.0
    count = 0
    while count < n_pairs:
        x = gen.uniform(lo, hi)
        y = gen.uniform(lo, hi)
        if not np.all(fields.polytope_mask(V.polytope, [x, y],
                                           geom.MEMBERSHIP_TOL)):
            continue
        count += 1
        d = np.linalg.norm(x - y)
        if d < 1e-12:
            continue
        num = abs(complex(V.phi(x[None, :])[0]) - complex(V.phi(y[None, :])[0]))
        best = max(best, num / d ** V.alpha)
    return best


def test_hoelder_contrast_exponent_witness():
    P = geom.convex_polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    alpha = 0.6
    V = fields.hoelder_bump_contrast(P, [0.0, 0.0], alpha, 1.0)
    q = _measured_hoelder_quotient(V, n_pairs=300, seed=1)
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
