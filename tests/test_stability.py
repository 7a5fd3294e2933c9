import csv
import io

import numpy as np
import pytest

from polyscat import cgo, fields, geom, rellich, stability
from polyscat.solver import SolverError


def square_contrast(value=0.5, side=0.7, center=(0.0, 0.0)):
    c = np.asarray(center, dtype=float)
    h = side / 2
    P = geom.convex_polygon(c + np.array([[-h, -h], [h, -h], [h, h], [-h, h]]))
    return fields.constant_contrast(P, value)


def top_vertex_cones(P, vertex):
    """Polyhedral cone of the square at its top-left vertex plus an
    enclosing spherical cone, both at `vertex`."""
    v = np.asarray(vertex, dtype=float)
    p_cone = geom.PolyCone(v, np.array([[1.0, 0.0], [0.0, -1.0]]),
                           "polyhedral")
    axis = np.array([1.0, -1.0]) / np.sqrt(2)
    q_cone = geom.PolyCone(v, axis[None], "spherical",
                           half_angle=0.45 * np.pi)
    return p_cone, q_cone


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------

def test_cone_boundary_quadrature_2d_closure():
    # sum of w * normal over a closed Lipschitz boundary vanishes, and the
    # total length is 2h + h*span
    K = geom.PolyCone(np.array([0.3, -0.1]),
                      np.array([[1.0, 0.0], [0.0, 1.0]]), "polyhedral")
    h = 0.4
    pts, nrm, wts = stability.cone_boundary_quadrature(K, h, 256)
    np.testing.assert_allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-12)
    assert abs(np.sum(wts) - (2 * h + h * np.pi / 2)) < 1e-12
    flux = nrm.T @ wts
    assert np.max(np.abs(flux)) < 1e-12


def test_cone_boundary_quadrature_3d_area():
    K = geom.PolyCone(np.zeros(3), np.eye(3), "polyhedral")
    h = 0.5
    pts, nrm, wts = stability.cone_boundary_quadrature(K, h, 1024)
    # three quarter discs + octant sphere patch
    exact = 3 * (np.pi * h ** 2 / 4) + 4 * np.pi * h ** 2 / 8
    assert abs(np.sum(wts) - exact) < 1e-3 * exact


def test_divergence_theorem_on_truncated_cone():
    # int_Q div F = int_dQ F.n for F = (x^2, y^2): checks points, normals
    # and weights jointly
    K = geom.PolyCone(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0]]),
                      "polyhedral")
    h = 0.5
    pts, nrm, wts = stability.cone_boundary_quadrature(K, h, 2048)
    F = np.stack([pts[:, 0] ** 2, pts[:, 1] ** 2], axis=1)
    surf = np.sum(np.sum(F * nrm, axis=1) * wts)
    n_vol = 700
    cell = h / n_vol
    ax = cell * (np.arange(n_vol) + 0.5)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    inside = X ** 2 + Y ** 2 <= h ** 2
    vol = np.sum(2 * (X + Y) * inside) * cell ** 2
    assert abs(surf - vol) < 2e-4 * abs(vol)


XI = np.array([0.7, -0.4, 1.1])


def _rotated_orthant(vertex):
    rot, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    return geom.PolyCone(vertex, rot, "polyhedral")


def _exp_volume_integral(K, h):
    """Reference int_{Q_h} e^(xi.x) dx: r^(d-1) e^(r xi.omega) over
    [0, h] by 64-node Gauss-Legendre and omega over the cone's directions
    at 96 nodes, in 2D by Gauss-Legendre in the polar angle, in 3D over
    the spherical triangle, far finer than the rules under test."""
    d = K.dim
    xi = XI[:d]
    if d == 2:
        lo, hi = np.arctan2(K.generators[:, 1], K.generators[:, 0])
        x, w = np.polynomial.legendre.leggauss(96)
        span = (hi - lo) % (2 * np.pi)
        theta = lo + 0.5 * span * (x + 1)
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = 0.5 * span * w
    else:
        omega, w = geom.cone_directions(K.generators, 96)
    x, wr = np.polynomial.legendre.leggauss(64)
    r, wr = 0.5 * h * (x + 1), 0.5 * h * wr
    radial = np.exp(np.outer(omega @ xi, r)) @ (wr * r ** (d - 1))
    return np.exp(xi @ K.vertex) * np.sum(w * radial)


def _exp_flux_error(rule, K, h, n):
    """Relative error of the flux of e^(xi.x) n through dQ_h against xi
    times its volume integral, by the divergence theorem."""
    xi = XI[:K.dim]
    ref = xi * _exp_volume_integral(K, h)
    pts, nrm, wts = rule(K, h, n)
    flux = (np.exp(pts @ xi) * wts) @ nrm
    return np.linalg.norm(flux - ref) / np.linalg.norm(ref)


def _orthant_midpoint_rule(K, h, n):
    """A reference boundary rule for rotated orthants only: quarter discs
    and the octant patch on midpoint (theta, phi) grids."""
    v, g = K.vertex, K.generators
    m = max(8, int(np.sqrt(n)))
    ang = (np.arange(m) + 0.5) / m * (np.pi / 2)
    pts, nrm, wts = [], [], []
    for k_out in range(3):
        gi, gj = g[(k_out + 1) % 3], g[(k_out + 2) % 3]
        S, PHI = np.meshgrid((np.arange(m) + 0.5) / m * h, ang, indexing="ij")
        P = v + S[..., None] * (np.cos(PHI)[..., None] * gi
                                + np.sin(PHI)[..., None] * gj)
        pts.append(P.reshape(-1, 3))
        nrm.append(np.tile(-g[k_out], (m * m, 1)))
        wts.append((S * (h / m) * (np.pi / 2 / m)).ravel())
    TH, PH = np.meshgrid(ang, ang, indexing="ij")
    rad = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                    np.cos(TH)], axis=-1).reshape(-1, 3) @ g
    pts.append(v + h * rad)
    nrm.append(rad)
    wts.append((h ** 2 * np.sin(TH) * (np.pi / 2 / m) ** 2).ravel())
    return np.vstack(pts), np.vstack(nrm), np.concatenate(wts)


@pytest.mark.parametrize("gens", [None, [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0],
                                         [0.2, 0.4, 1.0]]],
                         ids=["rotated-orthant", "verify-trihedral"])
def test_divergence_theorem_on_truncated_trihedral(gens):
    vertex = np.array([0.1, -0.2, 0.3])
    K = (_rotated_orthant(vertex) if gens is None
         else geom.PolyCone(vertex, gens, "polyhedral"))
    coarse, fine = (_exp_flux_error(stability.cone_boundary_quadrature,
                                    K, 0.4, n) for n in (256, 1024))
    assert coarse <= 1e-9
    assert fine <= coarse / 3


@pytest.mark.parametrize("gens", [[[1.0, 0.0], [0.0, 1.0]],
                                  [[1.0, 0.0], [-0.19, 0.98]]],
                         ids=["quarter-plane", "wedge-101-degrees"])
def test_divergence_theorem_on_truncated_wedge(gens):
    K = geom.PolyCone(np.array([0.1, -0.2]), gens, "polyhedral")
    for n in (16, 64, 256):
        assert _exp_flux_error(stability.cone_boundary_quadrature,
                               K, 0.4, n) <= 1e-12


def test_trihedral_boundary_beats_the_orthant_midpoint_rule():
    K = _rotated_orthant(np.array([0.1, -0.2, 0.3]))
    for n in (256, 1024, 4096):
        new = _exp_flux_error(stability.cone_boundary_quadrature, K, 0.4, n)
        old = _exp_flux_error(_orthant_midpoint_rule, K, 0.4, n)
        assert new <= old / 5


def test_cone_boundary_quadrature_needs_three_generators():
    # and so does the volume rule: a spherical cone has one generator, a
    # square pyramid's apex four
    spherical = geom.PolyCone(np.zeros(3), [[0.0, 0.0, 1.0]], "spherical",
                              half_angle=0.5)
    pyramid = geom.PolyCone(np.zeros(3), [[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
                                          [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0]],
                            "polyhedral")
    for K in (spherical, pyramid):
        for rule in (stability.cone_boundary_quadrature,
                     stability.cone_volume_quadrature):
            with pytest.raises(stability.StabilityError):
                rule(K, 0.3, 256)


TRUNCATED_CONES = {
    "quarter-plane": geom.PolyCone(np.array([0.1, -0.2]),
                                   [[1.0, 0.0], [0.0, 1.0]], "polyhedral"),
    "wedge-101-degrees": geom.PolyCone(np.array([0.1, -0.2]),
                                       [[1.0, 0.0], [-0.19, 0.98]],
                                       "polyhedral"),
    "rotated-orthant": _rotated_orthant(np.array([0.1, -0.2, 0.3])),
    "verify-trihedral": geom.PolyCone(np.array([0.1, -0.2, 0.3]),
                                      [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0],
                                       [0.2, 0.4, 1.0]], "polyhedral"),
}


@pytest.mark.parametrize("name", list(TRUNCATED_CONES))
def test_cone_volume_quadrature(name):
    # the weights sum to |Q_h|: opening h^2/2 in 2D, Omega h^3/3 in 3D with
    # the solid angle Omega of Van Oosterom and Strackee (1983); and the
    # rule integrates e^(xi.x) over Q_h to the polar reference (the rotated
    # orthant's angular error at m = 16 is 2e-12, the others' 1e-14)
    K, h = TRUNCATED_CONES[name], 0.4
    pts, wts = stability.cone_volume_quadrature(K, h, 64)
    if K.dim == 2:
        size = K.opening_angle() * h ** 2 / 2
    else:
        g0, g1, g2 = K.generators
        size = 2 * np.arctan2(abs(g0 @ np.cross(g1, g2)),
                              1 + g0 @ g1 + g1 @ g2 + g2 @ g0) * h ** 3 / 3
    assert abs(np.sum(wts) - size) <= 1e-12 * size
    np.testing.assert_array_less(np.linalg.norm(pts - K.vertex, axis=1), h)
    ref = _exp_volume_integral(K, h)
    assert abs(np.exp(pts @ XI[:K.dim]) @ wts - ref) <= 1e-11 * abs(ref)


# ---------------------------------------------------------------------------
# Orthogonality identity
# ---------------------------------------------------------------------------

def test_orthogonality_trivial_zero_contrast():
    V = square_contrast(0.0)
    k = 2.0
    g = fields.centered_grid(1.0, 96, dim=2)
    u = fields.plane_wave(k, [1.0, 0.0], g)
    p_cone, _ = top_vertex_cones(V.polytope, [-0.35, 0.35])
    rep = stability.check_orthogonality(V, u, u, u, p_cone, h=0.2, k=k,
                                        n_volume=96, n_boundary=128)
    assert abs(rep.volume_term) < 1e-12
    assert rep.relative_mismatch < 1e-10 or abs(rep.boundary_term) < 1e-10


def test_orthogonality_total_field_identity():
    from polyscat.solver import solve_forward
    k = 2.0
    V = square_contrast(0.4)
    Vp = square_contrast(0.0)  # V' = 0: u' is the free incident wave
    g = fields.centered_grid(1.0, 256, dim=2)
    sol = solve_forward(V, k, [1.0, 0.0], g)
    u_prime = fields.plane_wave(k, [1.0, 0.0], g)
    vertex = np.array([-0.35, 0.35])
    p_cone, _ = top_vertex_cones(V.polytope, vertex)
    h = 0.1
    rep = stability.check_orthogonality(V, sol.total, u_prime, sol.total,
                                        p_cone, h=h, k=k, n_volume=256,
                                        n_boundary=512, fd_step=h / 32)
    assert rep.relative_mismatch < 0.02


def test_orthogonality_mismatch_shrinks_under_refinement():
    from polyscat.solver import solve_forward
    k = 2.0
    V = square_contrast(0.4)
    u_prime_dir = [1.0, 0.0]
    vertex = np.array([-0.35, 0.35])
    p_cone, _ = top_vertex_cones(V.polytope, vertex)
    h = 0.1
    mismatches = []
    for n, nb, fs in ((128, 256, h / 16), (256, 512, h / 32)):
        g = fields.centered_grid(1.0, n, dim=2)
        sol = solve_forward(V, k, u_prime_dir, g)
        up = fields.plane_wave(k, u_prime_dir, g)
        rep = stability.check_orthogonality(V, sol.total, up, sol.total,
                                            p_cone, h=h, k=k, n_volume=n,
                                            n_boundary=nb, fd_step=fs)
        mismatches.append(rep.relative_mismatch)
    assert mismatches[1] < mismatches[0] / 1.8


def test_orthogonality_volume_term_is_converged():
    # criterion 6's square at n = 192: the volume term does not move when
    # the volume rule is refined eightfold
    from polyscat.solver import solve_forward
    k, h = 2.0, 0.1
    V = square_contrast(0.4)
    g = fields.centered_grid(1.0, 192, dim=2)
    sol = solve_forward(V, k, [1.0, 0.0], g)
    up = fields.plane_wave(k, [1.0, 0.0], g)
    p_cone, _ = top_vertex_cones(V.polytope, [-0.35, 0.35])
    coarse, fine = (stability.check_orthogonality(
        V, sol.total, up, sol.total, p_cone, h=h, k=k, n_volume=n,
        n_boundary=256, fd_step=h / 128).volume_term for n in (96, 768))
    assert abs(coarse - fine) <= 1e-9 * abs(fine)


def test_orthogonality_one_interpolant_one_pass(monkeypatch):
    # the three fields share one interpolant, evaluated once on the volume
    # points, the boundary points and both normal shifts together
    counts = {"built": 0, "calls": 0}
    base = stability.field_interpolator

    def counting(*ws):
        counts["built"] += 1
        f = base(*ws)

        def evaluate(pts):
            counts["calls"] += 1
            return f(pts)
        return evaluate

    monkeypatch.setattr(stability, "field_interpolator", counting)
    V = square_contrast(0.4)
    k = 2.0
    g = fields.centered_grid(1.0, 64, dim=2)
    u, up, u0 = (fields.plane_wave(k, d, g)
                 for d in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]))
    p_cone, _ = top_vertex_cones(V.polytope, [-0.35, 0.35])
    rep = stability.check_orthogonality(V, u, up, u0, p_cone, h=0.2, k=k,
                                        n_volume=32, n_boundary=64)
    assert rep.volume_term != 0
    assert counts == {"built": 1, "calls": 1}


def test_orthogonality_mismatch_shrinks_under_refinement_3d():
    # total-field identity at a cuboid vertex, probed by the orthant cone
    # pointing into the cuboid
    from polyscat.solver import solve_forward
    k = 2.0
    V = fields.constant_contrast(geom.cuboid([0, 0, 0], [0.3, 0.3, 0.3]), 0.4)
    omega = [1.0, 0.0, 0.0]
    p_cone = geom.PolyCone(np.full(3, 0.3), -np.eye(3), "polyhedral")
    mismatches = []
    for n in (48, 64):
        g = fields.centered_grid(1.0, n, dim=3)
        sol = solve_forward(V, k, omega, g)
        up = fields.plane_wave(k, omega, g)
        rep = stability.check_orthogonality(V, sol.total, up, sol.total,
                                            p_cone, h=0.15, k=k, n_volume=64,
                                            n_boundary=256)
        mismatches.append(rep.relative_mismatch)
    assert mismatches[1] <= mismatches[0] / 2
    assert mismatches[1] <= 0.06


def test_cgo_orthogonality_mismatch_shrinks_under_refinement_3d():
    # the identity at the cuboid vertex with u0 the tau = 20 CGO solution
    # whose q-cone axis points into the cuboid
    from polyscat.solver import solve_forward
    k = 2.0
    V = fields.constant_contrast(geom.cuboid([0, 0, 0], [0.3, 0.3, 0.3]), 0.4)
    omega = [1.0, 0.0, 0.0]
    vertex = np.full(3, 0.3)
    p_cone = geom.PolyCone(vertex, -np.eye(3), "polyhedral")
    q_cone = geom.PolyCone(vertex, (-np.ones(3) / np.sqrt(3))[None],
                           "spherical", half_angle=0.99)
    d = cgo.build_direction(q_cone, k, 20.0)
    mismatches = []
    for n in (48, 64):
        g = fields.centered_grid(1.0, n, dim=3)
        sol = solve_forward(V, k, omega, g)
        up = fields.plane_wave(k, omega, g)
        u0, _ = cgo.build_cgo(V, k, d, g)
        rep = stability.check_orthogonality(V, sol.total, up, u0, p_cone,
                                            h=0.15, k=k, n_volume=64,
                                            n_boundary=256)
        mismatches.append(rep.relative_mismatch)
    assert mismatches[1] <= mismatches[0] / 2
    assert mismatches[1] <= 0.10


# ---------------------------------------------------------------------------
# Budgets and the decay-rate choice
# ---------------------------------------------------------------------------

def test_optimize_tau_worked_example():
    # n = 2, m = 0.5, h = 0.1, delta = 1e-6:
    # tau_e = (1e7 * 1e6)^(1/7.5) ~ 54.1
    t = stability.optimize_tau(0.1, 1e-6, 0.5, 2)
    assert abs(t.tau_e - (1e13) ** (1 / 7.5)) < 1e-9
    assert abs(t.tau_e - 54.1) < 0.1
    assert not t.clamped


def test_optimize_tau_clamps_at_floor():
    t = stability.optimize_tau(1.0, 2.0, 0.5, 2)
    assert t.tau_e == 1.0 and t.clamped
    assert stability.optimize_tau(1.0, 1.0, 0.5, 2).tau_e == 1.0


def test_optimize_tau_monotone():
    taus = [stability.optimize_tau(0.1, d, 0.5, 2).tau_e
            for d in (1e-2, 1e-4, 1e-8, 1e-16)]
    assert np.all(np.diff(taus) > 0)
    taus_h = [stability.optimize_tau(h, 1e-6, 0.5, 2).tau_e
              for h in (0.5, 0.2, 0.05)]
    assert np.all(np.diff(taus_h) > 0)
    with pytest.raises(stability.StabilityError):
        stability.optimize_tau(2.0, 1e-6, 0.5, 2)
    with pytest.raises(stability.StabilityError):
        stability.optimize_tau(0.1, 0.0, 0.5, 2)


def test_gammas():
    assert abs(stability.support_stability_gamma(0.5, 2) - 0.5 / 98) < 1e-15
    assert abs(stability.corner_gamma(0.5, 2) - 0.5 / 49) < 1e-15
    assert stability.corner_gamma(0.5, 2) == 2 * stability.support_stability_gamma(0.5, 2)


def test_assemble_budget_terms():
    V = square_contrast(0.5)
    vertex = np.array([-0.35, 0.35])
    p_cone, q_cone = top_vertex_cones(V.polytope, vertex)
    d = cgo.build_direction(q_cone, 2.0, 20.0)
    b = stability.assemble_budget(V, vertex, 0.1, d, p_cone,
                                  u_prime_at_xc=1.0 + 0.0j, psi_lp=0.1,
                                  psi_h2=0.05, boundary_sup=1e-3,
                                  u_h2_sum=2.0, p=np.inf)
    assert b.total > 0 and np.isfinite(b.total)
    assert b.lhs > 0
    assert b.fitted_C == b.total / b.lhs
    for term in (b.tail, b.hoelder, b.remainder, b.boundary_near,
                 b.boundary_sphere):
        assert term >= 0
    d2 = b.to_dict()
    assert "total" in d2 and "fitted_C" in d2
    with pytest.raises(stability.StabilityError):
        stability.assemble_budget(V, vertex, 0.1, d, p_cone, 0.0,
                                  0.1, 0.05, 1e-3, 2.0, np.inf)


def test_budget_tail_decreases_in_tau():
    V = square_contrast(0.5)
    vertex = np.array([-0.35, 0.35])
    p_cone, q_cone = top_vertex_cones(V.polytope, vertex)
    totals = []
    for tau in (5.0, 20.0, 80.0):
        d = cgo.build_direction(q_cone, 2.0, tau)
        b = stability.assemble_budget(V, vertex, 0.1, d, p_cone, 1.0,
                                      0.1, 0.05, 0.0, 2.0, np.inf)
        totals.append(b.tail + b.hoelder + b.remainder)
    assert np.all(np.diff(totals) < 0)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def test_support_stability_experiment_smoke():
    k = 2.0
    cal = rellich.Calibration(k=k, R_m=1.0, C=2.0, c1=0.8, c2=0.2,
                              seed=0, trials=10)
    g = fields.centered_grid(1.0, 96, dim=2)
    pairs = [(square_contrast(0.4), square_contrast(0.4, center=(0.05, 0.0))),
             (square_contrast(0.4), square_contrast(0.4, side=0.74))]
    recs = stability.run_support_stability_experiment(pairs, k, [1.0, 0.0],
                                                      g, cal,
                                                      n_directions=64, R=1.0)
    assert len(recs) == 2
    for r in recs:
        assert r.epsilon > 0
        assert r.hausdorff > 0
        assert np.isfinite(r.bound_value)
        assert r.S >= 1.0
    C = stability.fit_stability_constant(recs)
    assert np.isfinite(C) and C > 0
    for r in recs:
        assert r.hausdorff <= C * r.bound_value * (1 + 1e-12)


def test_support_experiment_labels_a_zero_epsilon_record_zero():
    # two distinct but identical squares give exactly eps = 0; the
    # record carries the pipeline's "zero" regime, not "saturated"
    cal = rellich.Calibration(k=2.0, R_m=1.0, C=2.0, c1=0.8, c2=0.2,
                              seed=0, trials=10)
    g = fields.centered_grid(1.0, 64, dim=2)
    pairs = [(square_contrast(0.4), square_contrast(0.4))]
    (r,) = stability.run_support_stability_experiment(pairs, 2.0, [1.0, 0.0],
                                                      g, cal, n_directions=64)
    assert r.epsilon == 0.0 and r.hausdorff == 0.0
    assert r.regime == "zero"
    assert r.bound_value == np.inf and np.isnan(r.tau_used)


def _outer_layer_triangle():
    # an edge at x = 0.999 lies in the last cell layer of a half-width-1 grid
    P = geom.convex_polygon([[0.5, 0.0], [0.999, -0.04], [0.999, 0.04]])
    return fields.constant_contrast(P, 0.4)


def test_support_experiment_raises_on_a_failed_solve():
    cal = rellich.Calibration(k=2.0, R_m=1.0, C=2.0, c1=0.8, c2=0.2,
                              seed=0, trials=10)
    g = fields.centered_grid(1.0, 192, dim=2)
    pairs = [(square_contrast(0.4), _outer_layer_triangle())]
    with pytest.raises(SolverError, match="grid interior"):
        stability.run_support_stability_experiment(pairs, 2.0, [1.0, 0.0],
                                                   g, cal, n_directions=64)


def test_stability_records_serialize():
    r = stability.StabilityRecord(1e-3, 0.1, 5.0, 0.8, "decay", 0.01, 0.5, 2.0)
    csv = stability.records_to_csv([r])
    assert csv.startswith("epsilon,")
    assert stability.records_to_csv([]) == ""


def test_noise_floor_is_roundoff(born_ladder_records):
    for r in born_ladder_records:
        assert r.noise_floor == stability.NOISE_FLOOR == 1e-12


def test_corner_experiment_born_monotone():
    # at small contrast the far-field norm grows with |phi| (Born linearity)
    # and clears the noise floor by a wide margin
    k = 2.0
    g = fields.centered_grid(1.0, 96, dim=2)
    scenes = [square_contrast(phi) for phi in (0.01, 0.02, 0.04, 0.08)]
    recs = stability.run_corner_lower_bound_experiment(scenes, k, [1.0, 0.0],
                                                       g, n_directions=64)
    norms = [r.ff_norm for r in recs]
    assert np.all(np.diff(norms) > 0)
    for r in recs:
        assert r.separation > 10.0
        assert r.ff_norm >= r.bound  # the double-exponential floor holds
    # Born linearity: doubling phi doubles the response
    ratios = np.array(norms[1:]) / np.array(norms[:-1])
    assert np.all(np.abs(ratios - 2.0) < 0.2)


@pytest.fixture(scope="module")
def born_ladder_records():
    g = fields.centered_grid(1.0, 96, dim=2)
    scenes = [square_contrast(phi) for phi in (0.01, 0.02, 0.04, 0.08)]
    return stability.run_corner_lower_bound_experiment(scenes, 2.0, [1.0, 0.0],
                                                       g, n_directions=64)


def test_corner_records_csv_rows_match_header(born_ladder_records):
    rows = list(csv.reader(io.StringIO(
        stability.records_to_csv(born_ladder_records))))
    header, body = rows[0], rows[1:]
    assert len(body) == 4
    for row, r in zip(body, born_ladder_records):
        assert len(row) == len(header)
        assert float(row[3]) == r.phi_re  # gnuplot's column 4
    assert header[3:5] == ["phi_re", "phi_im"] and header[-1] == "lnln_ratio"


def test_corner_lnln_ratio_is_finite(born_ladder_records):
    for r in born_ladder_records:
        assert np.isfinite(r.lnln_ratio)
    # still finite where inner = ln(S/bound) would overflow a float: a
    # square of side ell = 0.01 with phi = 0.01
    s = 0.005
    P = geom.convex_polygon(np.array([[-s, -s], [s, -s], [s, s], [-s, s]]))
    [r] = stability.run_corner_lower_bound_experiment(
        [fields.constant_contrast(P, 0.01)], 2.0, [1.0, 0.0],
        fields.centered_grid(0.05, 24, dim=2), n_directions=64)
    assert r.ell == pytest.approx(0.01)
    assert np.log(np.finfo(float).max) < r.lnln_ratio < np.inf
    assert r.bound == 0.0 and r.ff_norm >= r.bound


def test_corner_experiment_rejects_inadmissible():
    # a square of half-side 0.8 leaves B(0, 1), the ball of a grid of
    # half-width 1
    g = fields.centered_grid(1.0, 48, dim=2)
    with pytest.raises(stability.StabilityError, match="radius"):
        stability.run_corner_lower_bound_experiment(
            [square_contrast(0.4, side=1.6)], 2.0, [1.0, 0.0], g,
            n_directions=64)


def test_field_interpolator_roundtrip():
    g = fields.centered_grid(1.0, 64, dim=2)
    u = fields.plane_wave(2.0, [1.0, 0.0], g)
    f = stability.field_interpolator(u)
    pts = np.array([[0.1, 0.2], [-0.3, 0.4]])
    exact = np.exp(2j * pts[:, 0])
    assert np.max(np.abs(f(pts) - exact)) < 1e-6
    # the grid's end points lie half a spacing inside its half-width
    lo, hi = g.axes()[0][[0, -1]]
    assert np.isfinite(f(np.array([[lo, hi], [hi, lo]]))).all()
    for bad in ([5.0, 0.0], [1.0, 0.0], [hi + 1e-9, 0.0], [0.0, lo - 1e-9]):
        with pytest.raises(ValueError):
            f(np.array([[0.0, 0.0], bad]))


def _ball_points(rng, center, radius, m):
    d = rng.normal(size=(m, len(center)))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return np.asarray(center) + radius * rng.uniform(size=(m, 1)) * d


def test_field_interpolator_is_the_exact_spline():
    # the interpolant must be the not-a-knot spline that a direct sparse
    # solve of the whole tensor collocation system gives, on three fields:
    # criterion 6's tau = 20 CGO field, which spans many decades near the
    # vertex; a 3D harmonic exp(rho . x) that grows e^12 across its grid,
    # as the 3D CGO solutions do; and a plane wave at points within one
    # cell of each end of each axis, where the not-a-knot rows decide
    from scipy.interpolate import RegularGridInterpolator
    from scipy.sparse.linalg import spsolve
    rng = np.random.default_rng(6)
    k, vertex = 2.0, np.array([-0.35, 0.35])
    V = square_contrast(0.4)
    _, q_cone = top_vertex_cones(V.polytope, vertex)
    g = fields.centered_grid(1.0, 96, dim=2)
    u0, _ = cgo.build_cgo(V, k, cgo.build_direction(q_cone, k, 20.0), g)
    cases = [(u0, _ball_points(rng, vertex, 0.1, 400))]
    g = fields.centered_grid(1.0, 16, dim=3)
    rho = 6.0 * (np.array([0.6, 0.0, 0.8]) + 1j * np.array([0.0, 1.0, 0.0]))
    harmonic = np.exp(np.tensordot(g.points(), rho, axes=1))
    cases.append((fields.WaveField(g, harmonic, k),
                  _ball_points(rng, [0.2, -0.1, 0.3], 0.3, 300)))
    g = fields.centered_grid(1.0, 24, dim=2)
    lo, hi = g.axes()[0][[0, -1]]
    ends = np.concatenate([lo + g.spacing * rng.uniform(size=40),
                           hi - g.spacing * rng.uniform(size=40)])
    mid = rng.uniform(lo, hi, 80)
    cases.append((fields.plane_wave(7.0, [0.6, 0.8], g),
                  np.concatenate([np.stack([ends, mid], 1),
                                  np.stack([mid, ends], 1),
                                  np.stack([ends, rng.permutation(ends)], 1)])))
    for w, pts in cases:
        ref = RegularGridInterpolator(tuple(w.grid.axes()), w.values,
                                      method="cubic", solver=spsolve)(pts)
        got = stability.field_interpolator(w)(pts)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_field_interpolator_allocates_less_than_one_field():
    # the corner data are built on the box of nodes the points reach, so a
    # window of radius 0.1 on a 64^3 grid never copies the field
    import tracemalloc
    g = fields.centered_grid(1.0, 64, dim=3)
    w = fields.plane_wave(2.0, [0.0, 0.6, 0.8], g)
    pts = _ball_points(np.random.default_rng(9), [0.2, -0.1, 0.3], 0.1, 500)
    tracemalloc.start()
    try:
        vals = stability.field_interpolator(w)(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.values.nbytes
    exact = np.exp(2j * pts @ np.array([0.0, 0.6, 0.8]))
    assert np.max(np.abs(vals - exact)) < 1e-6


def test_field_interpolator_stacks_fields():
    g = fields.centered_grid(1.0, 32, dim=2)
    ws = [fields.plane_wave(2.0, d, g)
          for d in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8])]
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, (5, 3, 2))
    stacked = stability.field_interpolator(*ws)(pts)
    assert stacked.shape == (5, 3, 3)
    for i, w in enumerate(ws):
        np.testing.assert_array_equal(stacked[..., i],
                                      stability.field_interpolator(w)(pts))
    shifted = fields.Grid(g.origin + g.spacing / 2, g.spacing, g.shape)
    for other in (fields.centered_grid(1.0, 33, dim=2), shifted):
        with pytest.raises(stability.StabilityError, match="one grid"):
            stability.field_interpolator(
                ws[0], fields.plane_wave(2.0, [1.0, 0.0], other))


def test_gradient_and_normal_derivative():
    f = lambda pts: np.asarray(pts)[..., 0] ** 2 + 3 * np.asarray(pts)[..., 1]
    pts = np.array([[0.5, 1.0]])
    grad = stability.gradient_at(f, pts, 1e-5)
    np.testing.assert_allclose(grad[0], [1.0, 3.0], atol=1e-8)
