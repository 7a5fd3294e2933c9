import os
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from polyscat import cgo, fields, geom, solver, specfun


def small_square_contrast(value=0.5, side=0.8):
    h = side / 2
    P = geom.convex_polygon([[-h, -h], [h, -h], [h, h], [-h, h]])
    return fields.constant_contrast(P, value)


# ---------------------------------------------------------------------------
# Kernel building blocks
# ---------------------------------------------------------------------------

def test_singular_cell_integral_2d_against_quadrature():
    k, h = 2.0, 0.05
    a = h / np.sqrt(np.pi)
    re = quad(lambda r: np.real(0.25j * solver.hankel1(0, k * r)) * 2 * np.pi * r,
              0, a)[0]
    im = quad(lambda r: np.imag(0.25j * solver.hankel1(0, k * r)) * 2 * np.pi * r,
              0, a)[0]
    got = solver.singular_cell_integral(k, h, 2)
    assert abs(got - (re + 1j * im)) < 1e-10


def test_singular_cell_integral_3d_against_quadrature():
    k, h = 1.5, 0.05
    a = h * (3.0 / (4 * np.pi)) ** (1 / 3)
    re = quad(lambda r: np.cos(k * r) * r, 0, a)[0]
    im = quad(lambda r: np.sin(k * r) * r, 0, a)[0]
    got = solver.singular_cell_integral(k, h, 3)
    assert abs(got - (re + 1j * im)) < 1e-12


GRID_11x14 = fields.Grid(np.array([-0.6, -0.4]), 0.09, (11, 14))
# the points 2..6 x 5..11 of that grid
BOX_11x14 = fields.Grid(GRID_11x14.origin + 0.09 * np.array([2, 5]), 0.09,
                        (5, 7))
GRID_9x7x10 = fields.Grid(np.array([-0.4, -0.3, -0.45]), 0.1, (9, 7, 10))
# the points 1..4 x 3..5 x 2..8 of that grid
BOX_9x7x10 = fields.Grid(GRID_9x7x10.origin + 0.1 * np.array([1, 3, 2]),
                         0.1, (4, 3, 7))


@pytest.mark.parametrize("g, source, target", [
    (fields.centered_grid(0.5, 12, dim=2), None, None),
    # odd and unequal axes: the kernel reads offset |d| per axis
    (GRID_11x14, None, None),
    (fields.Grid(np.array([-0.3, -0.2, -0.35]), 0.1, (5, 6, 7)), None, None),
    # an off-origin box with unequal axes, to the grid and to itself
    (GRID_11x14, BOX_11x14, GRID_11x14),
    (GRID_11x14, BOX_11x14, BOX_11x14),
    (GRID_9x7x10, BOX_9x7x10, GRID_9x7x10),
    (GRID_9x7x10, BOX_9x7x10, BOX_9x7x10),
], ids=["2d-12x12", "2d-11x14", "3d-5x6x7", "2d-box-to-grid",
        "2d-box-to-box", "3d-box-to-grid", "3d-box-to-box"])
def test_green_convolution_matches_direct_sum(g, source, target):
    k = 2.0
    source = g if source is None else source
    target = g if target is None else target
    rng = np.random.default_rng(0)
    x = rng.standard_normal(source.shape) \
        + 1j * rng.standard_normal(source.shape)
    x0 = x.copy()
    conv = solver.GreenConvolution(g, k, source, target)
    got = conv.apply(x)
    # the pruned passes multiply in place, but never into the caller's x
    assert got.shape == target.shape
    assert np.array_equal(x, x0)
    pts = source.points().reshape(-1, g.dim)
    out = target.points().reshape(-1, g.dim)
    diff = np.linalg.norm(out[:, None] - pts[None], axis=-1)
    kernel = np.zeros(diff.shape, dtype=complex)
    nz = diff > g.spacing / 2   # a box's points are the grid's to rounding
    kernel[nz] = solver.fundamental_solution(k, diff[nz], g.dim) * g.cell_volume
    kernel[~nz] = solver.singular_cell_integral(k, g.spacing, g.dim)
    direct = (kernel @ x.ravel()).reshape(target.shape)
    assert np.max(np.abs(got - direct)) < 1e-10 * np.max(np.abs(direct))


def test_2d_kernel_is_phi_on_every_orthant_cell():
    # both dimensions evaluate Phi_k on every cell of the orthant, so the
    # kernel is fundamental_solution cell by cell, float for float
    k = 3.0
    g = fields.centered_grid(1.0, 192, dim=2)
    box = fields.Grid(g.origin + g.spacing * np.array([40, 57]), g.spacing,
                      (70, 81))
    conv = solver.GreenConvolution(g, k, box, g)
    offsets = []
    for c, m, w in zip((-40, -57), conv._pad, g.shape):
        i = np.arange(m)
        offsets.append(c + np.where(i < w, i, i - m))
    got = conv._kernel(g, offsets)
    h = g.spacing
    sizes = [np.abs(d) for d in offsets]
    x, y = np.meshgrid(*[np.arange(s.max() + 1) * h for s in sizes],
                       indexing="ij", sparse=True)
    r = np.sqrt(x ** 2 + y ** 2)
    r[0, 0] = h
    orthant = solver.fundamental_solution(k, r, 2) * g.cell_volume
    orthant[0, 0] = solver.singular_cell_integral(k, h, 2)
    assert np.array_equal(got, orthant[np.ix_(*sizes)])


def test_2d_fundamental_solution_matches_scipy_hankel():
    from scipy.special import jn_zeros, yn_zeros
    kr = np.concatenate([np.geomspace(1e-4, 60.0, 4001),
                         jn_zeros(0, 8), yn_zeros(0, 8)])
    for k in (1.0, 3.0):
        got = solver.fundamental_solution(k, kr / k, 2)
        ref = 0.25j * solver.hankel1(0, kr)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


def test_2d_paths_make_no_amos_hankel_call(monkeypatch):
    # every 2D Hankel table comes from j0/y0, j1/y1 and the order
    # recurrence; only the Graf truncation certificate still calls hankel1
    def amos(*args):
        raise AssertionError("scipy.special.hankel1 called")

    monkeypatch.setattr(solver, "hankel1", amos)
    monkeypatch.setattr(specfun.special, "hankel1", amos)
    g = fields.centered_grid(1.0, 64, dim=2)
    box = fields.Grid(g.origin + g.spacing * np.array([20, 25]), g.spacing,
                      (18, 13))
    solver.GreenConvolution(g, 3.0, box, box)
    solver.GreenConvolution(g, 3.0, box, g)
    rng = np.random.default_rng(3)
    ys = rng.uniform(-0.3, 0.3, (50, 2))
    amps = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    pts = circle(1.0, 40)
    dense = solver._dense_potential(3.0, ys, amps, pts)
    graf = solver._graf_potential(3.0, ys, amps, pts, 60)
    assert np.linalg.norm(graf - dense) <= 1e-10 * np.linalg.norm(dense)
    specfun.certify_hankel_bounds(1.5, 6.0, 40)


def test_default_directions_unit_and_uniform():
    for dim, n in ((2, 64), (3, 200)):
        d = solver.default_directions(dim, n)
        assert d.shape == (n, dim)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    d2 = solver.default_directions(2, 4)
    np.testing.assert_allclose(d2[1], [0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# The forward solve
# ---------------------------------------------------------------------------

def test_zero_contrast_gives_zero_scattering():
    V = small_square_contrast(0.0)
    g = fields.centered_grid(1.0, 48, dim=2)
    sol = solver.solve_forward(V, 2.0, [1.0, 0.0], g)
    assert np.max(np.abs(sol.scattered.values)) < 1e-10
    assert sol.far_field.l2_norm() < 1e-10


def test_support_must_stay_interior():
    h = 1.0
    P = geom.convex_polygon([[-h, -h], [h, -h], [h, h], [-h, h]])
    V = fields.constant_contrast(P, 0.5)
    g = fields.centered_grid(1.0, 32, dim=2)
    with pytest.raises(solver.SolverError):
        solver.solve_forward(V, 2.0, [1.0, 0.0], g)
    # a 3D cuboid reaching only the x = max face of a 16^3 grid
    g3 = fields.centered_grid(1.0, 16, dim=3)
    C = geom.cuboid([0.6, 0.0, 0.0], [0.4, 0.3, 0.3])
    Vvals = fields.constant_contrast(C, 0.5).evaluate(g3)
    nz = np.nonzero(Vvals)
    assert nz[0].max() == 15 and nz[0].min() > 0
    assert all(0 < a.min() and a.max() < 15 for a in nz[1:])
    with pytest.raises(solver.SolverError):
        solver.solve_forward(fields.constant_contrast(C, 0.5), 2.0,
                             [1.0, 0.0, 0.0], g3)
    # a square whose support stays one cell inside every face solves
    s = 1.0 - 1.5 * g.spacing
    P = geom.convex_polygon([[-s, -s], [s, -s], [s, s], [-s, s]])
    V = fields.constant_contrast(P, 0.5)
    nz = np.nonzero(V.evaluate(g))
    assert all(a.min() == 1 and a.max() == 30 for a in nz)
    sol = solver.solve_forward(V, 2.0, [1.0, 0.0], g)
    assert np.all(np.isfinite(sol.far_field.values))


def argwhere_support(values):
    """Support slices by the extremes of np.argwhere: the rule support_box
    followed before it read each axis off a projection."""
    nz = np.argwhere(values)
    if not len(nz):
        return (slice(0, 0),) * values.ndim
    return tuple(slice(a, b + 1) for a, b in zip(nz.min(axis=0), nz.max(axis=0)))


@pytest.mark.parametrize("shape", [(40, 33), (17, 21, 12)],
                         ids=["2d", "3d"])
def test_support_box_matches_argwhere(shape):
    rng = np.random.default_rng(7)
    g = fields.Grid(np.full(len(shape), -0.3), 0.1, shape)
    corner = np.zeros(shape, dtype=complex)
    corner[(-1,) * len(shape)] = 2j
    cases = [np.where(rng.random(shape) < density,
                      rng.standard_normal(shape) + 1j, 0)
             for density in (2e-3, 2e-2, 0.3)]
    cases += [corner, corner != 0, np.zeros(shape)]
    for values in cases:
        support, box = solver.support_box(values, g)
        assert support == argwhere_support(values)
        lo = np.array([s.start for s in support])
        assert box.shape == tuple(s.stop - s.start for s in support)
        assert np.array_equal(box.origin, g.origin + g.spacing * lo)
    assert solver.support_box(np.zeros(shape), g)[1].shape == (0,) * len(shape)


@pytest.mark.parametrize("dim", [2, 3])
def test_support_on_any_face_is_refused(dim):
    # a block of half-width 0.2 centred 0.9 out along one axis reaches the
    # face cells (centres at +-0.9375) of a 16-point grid and no other face
    g = fields.centered_grid(1.0, 16, dim=dim)
    for axis in range(dim):
        for side in (-1.0, 1.0):
            c = np.zeros(dim)
            c[axis] = 0.9 * side
            if dim == 2:
                P = geom.convex_polygon(c + 0.2 * np.array(
                    [[-1, -1], [1, -1], [1, 1], [-1, 1]]))
            else:
                P = geom.cuboid(c, [0.2] * 3)
            V = fields.constant_contrast(P, 0.5)
            with pytest.raises(solver.SolverError, match="grid interior"):
                solver.solve_forward(V, 2.0, np.eye(dim)[0], g)


def test_zero_contrast_has_an_empty_box():
    g = fields.centered_grid(1.0, 32, dim=3)
    V = fields.constant_contrast(geom.cuboid([0.1, 0.0, 0.0], [0.3] * 3), 0.0)
    omega = np.array([0.0, 0.6, 0.8])
    sol = solver.solve_forward(V, 2.0, omega, g)
    assert sol.support == (slice(0, 0),) * 3
    assert sol.box.values.size == 0 and sol.iterations == 0
    assert np.array_equal(sol.total.values,
                          fields.plane_wave(2.0, omega, g).values)
    assert not np.any(sol.far_field.values)


def test_3d_solve_samples_and_scans_only_its_box(monkeypatch):
    # at n = 96 the cuboid's reach box holds about 2 % of the grid; the
    # solve scans the full grid once, for the support box, and never builds
    # the full-grid field
    masked, scanned = [], []
    mask, box_of = fields.polytope_mask, solver.support_box

    def counting_mask(P, pts, *args):
        masked.append(int(np.prod(np.shape(pts)[:-1])))
        return mask(P, pts, *args)

    def recording_box(values, grid):
        scanned.append(values.shape)
        return box_of(values, grid)

    monkeypatch.setattr(fields, "polytope_mask", counting_mask)
    monkeypatch.setattr(solver, "support_box", recording_box)
    V, omega = support_box_scene(3)
    g = fields.centered_grid(1.0, 96, dim=3)
    sol = solver.solve_forward(V, 2.5, omega, g)
    assert 0 < sum(masked) < g.shape[0] ** 3 / 8
    assert scanned == [g.shape, sol.box.grid.shape]
    assert "total" not in vars(sol) and "scattered" not in vars(sol)
    assert np.all(np.isfinite(sol.far_field.values))


def support_box_scene(dim):
    """An off-centre contrast whose support box has unequal axes: a 2D
    quadrilateral, or a rotated 3D cuboid."""
    if dim == 2:
        P = geom.convex_polygon([[0.1, -0.2], [0.6, -0.1], [0.5, 0.15],
                                 [0.2, 0.1]])
        return fields.constant_contrast(P, 0.4), np.array([0.6, 0.8])
    rot, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    P = geom.cuboid([0.2, -0.1, 0.15], [0.3, 0.15, 0.2], rotation=rot)
    return fields.constant_contrast(P, 0.4), np.array([0.0, 0.6, 0.8])


def full_grid_reference(V, k, omega, g):
    """The total field and far field of GMRES on the whole grid."""
    Vv = V.evaluate(g)
    ui = fields.plane_wave(k, omega, g)
    u, _, _ = solver.solve_volume_equation(
        solver.GreenConvolution(g, k), -k ** 2 * Vv, ui.values, 1e-8,
        solver.GMRES_MAXITER)
    ff = solver.far_field_from_volume(Vv, fields.WaveField(g, u, k), k,
                                      solver.default_directions(g.dim, 256))
    return u, ff.values


@pytest.mark.parametrize("dim, n", [(2, 128), (3, 32)],
                         ids=["2d-polygon", "3d-cuboid"])
def test_support_box_solve_matches_full_grid(dim, n):
    k = 2.5
    V, omega = support_box_scene(dim)
    g = fields.centered_grid(1.0, n, dim=dim)
    sol = solver.solve_forward(V, k, omega, g)
    assert len(set(sol.box.grid.shape)) == dim
    assert np.all(np.array(sol.box.grid.shape) < n // 2)
    u, ff = full_grid_reference(V, k, omega, g)
    for got, want in ((sol.far_field.values, ff), (sol.total.values, u)):
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    # the rebuilt field is the solved one on the box, and h = 2/n is
    # dyadic, so the box points are the grid's points exactly and the far
    # field of the rebuilt field is the solve's far field bit for bit
    assert np.array_equal(sol.total.values[sol.support], sol.box.values)
    assert np.array_equal(g.points()[sol.support], sol.box.grid.points())
    again = solver.far_field_from_volume(V.evaluate(g), sol.total, k,
                                         sol.far_field.directions)
    assert np.array_equal(again.values, sol.far_field.values)
    assert np.array_equal(
        sol.scattered.values,
        sol.total.values - fields.plane_wave(k, omega, g).values)


def test_support_box_builds_one_kernel_until_the_grid_is_read(monkeypatch):
    shapes = []
    init = solver.GreenConvolution.__init__

    def counting(self, grid, k, source=None, target=None):
        shapes.append((source.shape, target.shape))
        init(self, grid, k, source, target)

    monkeypatch.setattr(solver.GreenConvolution, "__init__", counting)
    V, omega = support_box_scene(2)
    g = fields.centered_grid(1.0, 128, dim=2)
    sol = solver.solve_forward(V, 2.5, omega, g)
    solver.scattered_at_points(sol, circle(0.9, 32))
    box = sol.box.grid.shape
    assert shapes == [(box, box)]
    assert sol.total.grid is g and sol.scattered.grid is g
    assert shapes == [(box, box), (box, g.shape)]


def test_gmres_non_convergence_is_a_typed_error(monkeypatch):
    # two GMRES iterations cannot reach either tolerance on these scenes
    monkeypatch.setattr(solver, "GMRES_RESTART", 2)
    monkeypatch.setattr(solver, "GMRES_MAXITER", 1)
    monkeypatch.setattr(cgo, "REMAINDER_MAXITER", 1)
    g = fields.centered_grid(1.0, 64, dim=2)
    V = small_square_contrast(1.0)
    with pytest.raises(solver.SolverError, match=r"residual=\d"):
        solver.solve_forward(V, 6.0, [1.0, 0.0], g)
    q = 4.0 * V.evaluate(g)
    rho = np.array([0.0, -4.0]) + 1j * np.sqrt(20.0) * np.array([1.0, 0.0])
    with pytest.raises(cgo.CgoError, match="residual="):
        cgo.solve_faddeev(q, rho, g)


def non_normal_system(seed, n=200):
    """I + A with A complex, seeded and non-normal: a Gaussian part of
    spectral radius about 0.6 plus a strictly upper triangular part."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    a = 0.6 * g[0] / np.sqrt(2 * n) + np.triu(0.3 * g[1] / np.sqrt(2 * n), 1)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.eye(n) + a, b


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gmres_matches_scipy(seed):
    from scipy.sparse.linalg import gmres
    A, b = non_normal_system(seed)
    x, iterations, r = solver.gmres(lambda v: A @ v, b, 1e-10, 50, 20)
    steps = []
    want, info = gmres(A, b, rtol=1e-10, atol=0.0, restart=50, maxiter=20,
                       callback=steps.append, callback_type="pr_norm")
    assert info == 0 and 10 < iterations < 50
    assert iterations == len(steps)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(r, b - A @ x)
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


def test_gmres_restarts_to_the_tolerance():
    A, b = non_normal_system(3)
    calls = []

    def matvec(v):
        calls.append(1)
        return A @ v

    x, iterations, r = solver.gmres(matvec, b, 1e-10, 5, 200)
    cycles = len(calls) - iterations
    assert cycles > 2 and iterations > 5 * (cycles - 1)
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)
    want = np.linalg.solve(A, b)
    assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)


def test_gmres_zero_rhs_and_identity():
    b = np.zeros(200, dtype=complex)
    x, iterations, r = solver.gmres(lambda v: v + 1.0, b, 1e-8, 50, 10)
    assert iterations == 0 and not np.any(x) and np.linalg.norm(r) == 0
    # the identity breaks down at once: A v_0 = v_0 leaves nothing after
    # Gram-Schmidt, and that one step holds the exact solution
    b = non_normal_system(4)[1]
    x, iterations, r = solver.gmres(lambda v: v, b, 1e-14, 50, 10)
    assert iterations == 1
    assert np.linalg.norm(x - b) <= 1e-15 * np.linalg.norm(b)
    # a swap has a zero first Hessenberg diagonal (the rotation with
    # f = 0) and is solved in its second step
    b = np.array([1.0, 0.0])
    x, iterations, r = solver.gmres(lambda v: v[::-1], b, 1e-14, 50, 10)
    assert iterations == 2 and np.allclose(x, [0, 1], rtol=0, atol=1e-15)
    # the zero operator leaves a zero pivot: x stays 0 on every cycle
    x, iterations, r = solver.gmres(lambda v: 0 * v, b, 1e-8, 50, 3)
    assert iterations == 3 and not np.any(x) and np.array_equal(r, b)


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 24)])
def test_solve_takes_one_residual_matvec(dim, n, monkeypatch):
    # GMRES converges in one cycle here, whose true residual is the only
    # matvec besides the iterations'
    shapes = []
    apply = solver.GreenConvolution.apply

    def counting(self, x):
        shapes.append((self.grid.shape, self.target.shape))
        return apply(self, x)

    monkeypatch.setattr(solver.GreenConvolution, "apply", counting)
    V, omega = support_box_scene(dim)
    sol = solver.solve_forward(V, 2.5, omega,
                               fields.centered_grid(1.0, n, dim=dim))
    box = sol.box.grid.shape
    assert 0 < sol.iterations < solver.GMRES_RESTART
    assert shapes == [(box, box)] * (sol.iterations + 1)


def test_forward_chain_loads_no_sparse_interpolate_or_spatial():
    # a fresh interpreter: the solve, near field, far-field decomposition
    # and calibration load none of these; the hull cone and the field
    # interpolator import theirs on first call
    import pathlib
    import subprocess
    import sys
    script = """
import sys
import numpy as np
import polyscat
from polyscat import fields, geom, rellich, solver, stability
P = geom.convex_polygon([[0.1, -0.2], [0.6, -0.1], [0.5, 0.15], [0.2, 0.1]])
sol = solver.solve_forward(fields.constant_contrast(P, 0.4), 2.5, [0.6, 0.8],
                           fields.centered_grid(1.0, 64, dim=2))
assert np.all(np.isfinite(solver.scattered_at_points(sol, [[0.9, 0.0]])))
rellich.decompose_far_field(sol.far_field)
C = geom.cuboid([0.1, 0.0, 0.0], [0.2, 0.15, 0.1])
sol3 = solver.solve_forward(fields.constant_contrast(C, 0.4), 2.0,
                            [0.0, 0.6, 0.8], fields.centered_grid(1.0, 24, 3))
solver.scattered_at_points(sol3, [[0.9, 0.0, 0.0]])
rellich.decompose_far_field(sol3.far_field)
rellich.calibrate(2.5, dim=2, trials=4, seed=0)
heavy = ("scipy.sparse", "scipy.linalg", "scipy.interpolate", "scipy.spatial")
print(sorted(m for m in heavy if m in sys.modules))
Q = geom.convex_polygon([[0.1, -0.2], [0.7, -0.1], [0.5, 0.15], [0.2, 0.1]])
print(geom.check_q_angle(P, Q).vertex_ok, "scipy.spatial" in sys.modules)
f = stability.field_interpolator(sol.total)
x = sol.total.grid.points()[32, 48]
print(abs(f(x) - sol.total.values[32, 48]) < 1e-12,
      "scipy.interpolate" in sys.modules)
"""
    src = pathlib.Path(solver.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split("\n")[:3] == ["[]", "True True", "True True"]


def test_born_regime_agreement():
    # for small contrast the relative gap to the Born far field is O(||V||)
    from oracles import born_far_field_quadrature
    k = 2.0
    eps = 0.02
    V = small_square_contrast(eps)
    g = fields.centered_grid(1.0, 96, dim=2)
    sol = solver.solve_forward(V, k, [1.0, 0.0], g)
    born = born_far_field_quadrature(V.evaluate(g), g, k, [1.0, 0.0],
                                     sol.far_field.directions)
    rel = (np.max(np.abs(sol.far_field.values - born))
           / np.max(np.abs(born)))
    assert rel <= 5 * eps


def test_disc_far_field_against_mode_matching():
    from oracles import DiscContrast, mie_far_field
    k, a, phi = 2.0, 0.5, 0.8
    g = fields.centered_grid(1.0, 256, dim=2)
    V = DiscContrast(a, phi)
    sol = solver.solve_forward(V, k, [1.0, 0.0], g, n_directions=128)
    th = np.arctan2(sol.far_field.directions[:, 1], sol.far_field.directions[:, 0])
    ref = mie_far_field(k, a, phi, th)
    rel = np.linalg.norm(sol.far_field.values - ref) / np.linalg.norm(ref)
    assert rel < 0.01


def test_disc_far_field_converges_under_refinement():
    # the staircase error of a disc is erratic in n, so the order is a
    # least-squares fit over n = 64 ... 512: about 2.2 at a = 0.38 and 1.6
    # at a = 0.40, with errors near 1e-4 and 4e-4 at n = 512
    from oracles import DiscContrast, mie_far_field
    k, phi = 4.0, 0.3
    ns = (64, 128, 256, 512)
    for a in (0.38, 0.40):
        errs = []
        for n in ns:
            g = fields.centered_grid(1.0, n, dim=2)
            ff = solver.solve_forward(DiscContrast(a, phi), k, [1.0, 0.0],
                                      g).far_field
            d = ff.directions
            ref = mie_far_field(k, a, phi, np.arctan2(d[:, 1], d[:, 0]))
            errs.append(np.linalg.norm(ff.values - ref) / np.linalg.norm(ref))
        order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert order >= 1.0
        assert errs[-1] <= 1e-3


def test_scattered_matches_mode_matching_off_grid():
    from oracles import DiscContrast, mie_scattered_field
    k, a, phi = 2.0, 0.5, 0.8
    g = fields.centered_grid(1.0, 256, dim=2)
    sol = solver.solve_forward(DiscContrast(a, phi), k, [1.0, 0.0], g)
    th = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    pts = 1.8 * np.stack([np.cos(th), np.sin(th)], axis=1)
    got = solver.scattered_at_points(sol, pts)
    ref = mie_scattered_field(k, a, phi, pts)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 0.01


def test_far_field_consistent_with_large_radius():
    # u^s(r xhat) ~ e^{ikr}/sqrt(r) A(xhat) in 2D
    k = 2.0
    V = small_square_contrast(0.5)
    g = fields.centered_grid(1.0, 128, dim=2)
    sol = solver.solve_forward(V, k, [1.0, 0.0], g, n_directions=32)
    r = 400.0
    pts = r * sol.far_field.directions
    us = solver.scattered_at_points(sol, pts)
    approx = us * np.sqrt(r) * np.exp(-1j * k * r)
    rel = (np.linalg.norm(approx - sol.far_field.values)
           / np.linalg.norm(sol.far_field.values))
    assert rel < 0.02


def test_scattered_radial_decay_rate():
    # |u^s| ~ r^(-1/2) in 2D: fitted log-log slope within 5%
    k = 2.0
    V = small_square_contrast(0.5)
    g = fields.centered_grid(1.0, 128, dim=2)
    sol = solver.solve_forward(V, k, [1.0, 0.0], g)
    radii = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
    th = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    circ = np.stack([np.cos(th), np.sin(th)], axis=1)
    amps = []
    for r in radii:
        vals = solver.scattered_at_points(sol, r * circ)
        amps.append(np.sqrt(np.mean(np.abs(vals) ** 2)))
    slope = np.polyfit(np.log(radii), np.log(amps), 1)[0]
    assert abs(slope + 0.5) < 0.05 * 0.5


def test_reciprocity():
    # A(xhat; omega) = A(-omega; -xhat)
    k = 2.0
    P = geom.convex_polygon([[-0.4, -0.3], [0.45, -0.35], [0.3, 0.4]])
    V = fields.constant_contrast(P, 0.6)
    g = fields.centered_grid(1.0, 128, dim=2)
    omega = np.array([1.0, 0.0])
    xhat = np.array([np.cos(2.1), np.sin(2.1)])
    s1 = solver.solve_forward(V, k, omega, g)
    s2 = solver.solve_forward(V, k, -xhat, g)
    Vv = V.evaluate(g)
    a1 = solver.far_field_from_volume(Vv, s1.total, k, xhat[None]).values[0]
    a2 = solver.far_field_from_volume(Vv, s2.total, k, -omega[None]).values[0]
    assert abs(a1 - a2) < 1e-3 * abs(a1)


def test_optical_theorem_2d():
    # real contrast conserves energy:
    # int |A|^2 dtheta = sqrt(8 pi / k) Im(e^{-i pi/4} A(omega))
    k = 2.0
    V = small_square_contrast(0.5)
    g = fields.centered_grid(1.0, 192, dim=2)
    sol = solver.solve_forward(V, k, [1.0, 0.0], g, n_directions=256)
    sigma = sol.far_field.l2_norm() ** 2
    Vv = V.evaluate(g)
    fwd = solver.far_field_from_volume(Vv, sol.total, k,
                                       np.array([[1.0, 0.0]])).values[0]
    rhs = np.sqrt(8 * np.pi / k) * np.imag(np.exp(-1j * np.pi / 4) * fwd)
    assert abs(sigma - rhs) < 0.05 * sigma


def test_annulus_near_field_guard():
    V = small_square_contrast(0.5)
    g = fields.centered_grid(1.0, 96, dim=2)
    sol = solver.solve_forward(V, 2.0, [1.0, 0.0], g)
    with pytest.raises(solver.SolverError):
        solver.near_field_on_annulus(sol, 0.2, 0.5)
    sampled, w = solver.near_field_on_annulus(sol, 1.2, 1.6, n_radial=8,
                                              n_angular=64)
    assert sampled.l2_norm(1.0) > 0
    assert len(w) == len(sampled.points)


# ---------------------------------------------------------------------------
# Graf expansion of the exterior 2D near field against the dense sum
# ---------------------------------------------------------------------------

def regular_polygon_solution(k, vertex_radius=0.65, m=3, n=192):
    th = 2 * np.pi * np.arange(m) / m + 0.3
    P = geom.convex_polygon(vertex_radius * np.stack([np.cos(th), np.sin(th)],
                                                     axis=1))
    g = fields.centered_grid(1.0, n, dim=2)
    return solver.solve_forward(fields.constant_contrast(P, 0.5), k,
                                [1.0, 0.0], g)


def dense_reference(sol, pts):
    ys, amps = solver._volume_sources(sol)
    return solver._dense_potential(sol.total.k, ys, amps, pts)


def source_radius(sol):
    ys, _ = solver._volume_sources(sol)
    return float(np.max(np.linalg.norm(ys, axis=1)))


def circle(r, n, phase=0.0):
    th = 2 * np.pi * np.arange(n) / n + phase
    return r * np.stack([np.cos(th), np.sin(th)], axis=1)


def assert_matches_dense(sol, pts, tol=1e-10):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver.scattered_at_points(sol, pts)
    ref = dense_reference(sol, pts)
    assert np.all(np.isfinite(got.view(float)))
    assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)
    return got


def spy_graf_orders(monkeypatch):
    orders = []
    graf = solver._graf_potential

    def spy(k, ys, amps, points, order):
        orders.append((len(points), order))
        return graf(k, ys, amps, points, order)

    monkeypatch.setattr(solver, "_graf_potential", spy)
    return orders


@pytest.mark.parametrize("k", [2.0, 6.0])
def test_graf_matches_dense_on_corner_chain_annulus(k, monkeypatch):
    orders = spy_graf_orders(monkeypatch)
    sol = regular_polygon_solution(k)
    pts, _ = solver.annulus_sampling(0.7, 1.4, 2, n_radial=8, n_angular=96)
    assert_matches_dense(sol, pts)
    # the expansion serves at least the outer seven circles
    assert len(orders) == 1 and orders[0][0] >= 7 * 96


@pytest.mark.parametrize("n", [127, 255])
def test_graf_with_a_source_cell_at_the_origin(n, monkeypatch):
    # odd n puts a cell centre at r = 0 (n = 255) or within rounding of it
    # (n = 127): there the Bessel table takes its x = 0 column and the
    # phase factor is z = 1
    orders = spy_graf_orders(monkeypatch)
    sol = regular_polygon_solution(2.0, n=n)
    ys, _ = solver._volume_sources(sol)
    assert np.linalg.norm(ys, axis=1).min() <= 1e-15
    pts, _ = solver.annulus_sampling(0.7, 1.4, 2, n_radial=2, n_angular=48)
    assert_matches_dense(sol, pts)
    assert len(orders) == 1 and orders[0][0] == len(pts)


def test_graf_near_the_source_circle_is_finite():
    sol = regular_polygon_solution(2.0)
    R = source_radius(sol)
    for f in (1.001, 1.01, 1.05, 1.1, 1.2):
        assert_matches_dense(sol, circle(f * R, 64, phase=0.1))


def test_graf_route_split_keeps_the_order(monkeypatch):
    orders = spy_graf_orders(monkeypatch)
    sol = regular_polygon_solution(2.0)
    R = source_radius(sol)
    ring = circle(0.5, 64, phase=0.05)
    inside = ring[~geom.polytope_mask(sol.contrast.polytope, ring)][:24]
    assert len(inside) == 24 and 0.5 < R
    outside = circle(1.5 * R, 24)
    pts = np.empty((48, 2))
    pts[0::2], pts[1::2] = inside, outside
    assert_matches_dense(sol, pts)
    assert [n for n, _ in orders] == [24]


def test_graf_order_follows_the_source_not_the_far_points(monkeypatch):
    orders = spy_graf_orders(monkeypatch)
    k = 2.0
    V = small_square_contrast(0.5)
    sol = solver.solve_forward(V, k, [1.0, 0.0], fields.centered_grid(
        1.0, 128, dim=2))
    kR = k * source_radius(sol)
    assert_matches_dense(sol, circle(400.0, 32))
    assert_matches_dense(sol, np.vstack([circle(1.2, 16), circle(400.0, 16)]))
    (_, far), (_, mixed) = orders
    # k|x| = 800 at the far points: the order stays near k R_src ~ 1.1
    assert far < kR + 20
    assert mixed == solver._graf_order(kR, k * 1.2) < 100


def test_solver_3d_born_regime():
    from oracles import born_far_field_quadrature
    k = 1.5
    eps = 0.05
    P = geom.cuboid([0, 0, 0], [0.3, 0.3, 0.3])
    V = fields.constant_contrast(P, eps)
    g = fields.centered_grid(0.8, 40, dim=3)
    sol = solver.solve_forward(V, k, [0.0, 0.0, 1.0], g, n_directions=64)
    born = born_far_field_quadrature(V.evaluate(g), g, k, [0.0, 0.0, 1.0],
                                     sol.far_field.directions)
    rel = (np.max(np.abs(sol.far_field.values - born))
           / np.max(np.abs(born)))
    assert rel <= 5 * eps


def load_mie3d():
    """perfbench/mie3d.py, loaded by path so the sphere series has one copy."""
    import importlib.util
    import os
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "mie3d.py")
    spec = importlib.util.spec_from_file_location("polyscat_mie3d", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sphere_against_mie_series_3d():
    # a = 0.3, contrast 0.4, k = 2 at n = 48: the far field on the default
    # directions and the scattered field at 32 points on |x| = 0.8 each
    # agree with the separation-of-variables series to 1 %
    mie3d = load_mie3d()
    k, a, phi = 2.0, 0.3, 0.4
    omega = np.array([0.0, 0.6, 0.8])
    g = fields.centered_grid(1.0, 48, dim=3)
    sol = solver.solve_forward(mie3d.BallContrast(a, phi), k, omega, g)
    ff = sol.far_field
    ref = mie3d.sphere_far_field(k, a, phi, omega, ff.directions)
    probe = 0.8 * solver.default_directions(3, 32)
    near = solver.scattered_at_points(sol, probe)
    ref_near = mie3d.sphere_scattered_field(k, a, phi, omega, probe)
    for got, want in ((ff.values, ref), (near, ref_near)):
        assert np.linalg.norm(got - want) <= 0.01 * np.linalg.norm(want)


def test_far_field_memory_stays_blocked():
    # a 1.2-wide cube at n = 48 has 21,952 source cells; building the
    # whole 256-direction phase matrix at once peaks near 180 MB
    import tracemalloc
    k = 2.0
    V = fields.constant_contrast(geom.cuboid([0, 0, 0], [0.6, 0.6, 0.6]), 0.3)
    g = fields.centered_grid(1.0, 48, dim=3)
    Vv = V.evaluate(g)
    assert np.count_nonzero(Vv) == 21952
    ui = fields.plane_wave(k, [0.0, 0.0, 1.0], g)
    dirs = solver.default_directions(3, 256)
    tracemalloc.start()
    try:
        ff = solver.far_field_from_volume(Vv, ui, k, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.all(np.isfinite(ff.values))


def test_ball_solve_memory_stays_on_the_support_box():
    # a radius-0.34 ball at n = 64 covers 3 % of the 262,144 cells; GMRES
    # over the whole grid keeps 50 Krylov vectors of every cell and peaked
    # near 411 MB, while the 22^3 support box peaks near 39 MB
    import tracemalloc
    mie3d = load_mie3d()
    g = fields.centered_grid(1.0, 64, dim=3)
    tracemalloc.start()
    try:
        sol = solver.solve_forward(mie3d.BallContrast(0.34, 0.4), 2.5,
                                   [0.0, 0.6, 0.8], g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.all(np.isfinite(sol.far_field.values))


def test_ball_rebuild_memory_stays_on_the_target_lines():
    # the full-grid rebuild of a radius-0.34 ball at n = 64 convolves the
    # 22^3 support box onto the 64^3 grid on an 88^3 lattice; inverse
    # passes over the whole lattice before the crop peaked near 48 MB,
    # cropping each axis after its pass near 29 MB
    import tracemalloc
    mie3d = load_mie3d()
    g = fields.centered_grid(1.0, 64, dim=3)
    sol = solver.solve_forward(mie3d.BallContrast(0.34, 0.4), 2.5,
                               [0.0, 0.6, 0.8], g)
    tracemalloc.start()
    try:
        u = sol.total
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert u.values.shape == g.shape
    assert np.all(np.isfinite(u.values))


def far_field_case(name):
    """A contrast, a seeded random total field and directions on which the
    per-axis far field is checked against the dense phase-matrix sum."""
    from oracles import DiscContrast
    k = 3.0
    if name == "2d-disc":
        g = fields.centered_grid(1.0, 96, dim=2)
        Vv = DiscContrast(0.4, 0.3).evaluate(g)
    elif name == "2d-polygon-off-centre":
        g = fields.centered_grid(1.0, 80, dim=2, center=[0.13, -0.07])
        Vv = support_box_scene(2)[0].evaluate(g)
    elif name == "3d-sphere":
        g = fields.centered_grid(1.0, 32, dim=3)
        Vv = load_mie3d().BallContrast(0.34, 0.4).evaluate(g)
    elif name == "3d-rotated-cuboid":
        g = fields.centered_grid(1.0, 32, dim=3)
        Vv = support_box_scene(3)[0].evaluate(g)
    else:   # a full-grid field, or one arbitrary direction
        g = fields.centered_grid(0.6, 20, dim=3)
        Vv = np.full(g.shape, 0.3 + 0.1j)
    rng = np.random.default_rng(14)
    u = fields.WaveField(g, rng.standard_normal(g.shape)
                         + 1j * rng.standard_normal(g.shape), k)
    dirs = solver.default_directions(g.dim, 64)
    if name == "single-direction":
        dirs = np.array([[0.48, -0.6, 0.64]])
    return Vv, u, k, dirs


@pytest.mark.parametrize("name", [
    "2d-disc", "2d-polygon-off-centre", "3d-sphere", "3d-rotated-cuboid",
    "full-grid", "single-direction"])
def test_far_field_matches_dense_phase_sum(name):
    from oracles import dense_far_field
    Vv, u, k, dirs = far_field_case(name)
    box = solver.support_box(Vv * u.values, u.grid)[1].shape
    if name == "2d-polygon-off-centre":
        assert box[0] != box[1]
    if name == "full-grid":
        assert box == u.grid.shape
    got = solver.far_field_from_volume(Vv, u, k, dirs).values
    want = dense_far_field(Vv, u, k, dirs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_far_field_blocks_over_directions(monkeypatch):
    Vv, u, k, dirs = far_field_case("3d-rotated-cuboid")
    whole = solver.far_field_from_volume(Vv, u, k, dirs).values
    box = solver.support_box(Vv * u.values, u.grid)[1].shape
    # 64 directions in blocks of 5 rows
    monkeypatch.setattr(solver, "BLOCK_ELEMENTS", 5 * box[1] * box[2])
    assert len(list(solver._blocks(len(dirs), box[1] * box[2]))) == 13
    blocked = solver.far_field_from_volume(Vv, u, k, dirs).values
    assert np.array_equal(blocked, whole)
