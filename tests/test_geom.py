import json

import numpy as np
import pytest

from polyscat import cli, geom


def square(side=1.0, center=(0.0, 0.0)):
    c = np.asarray(center, dtype=float)
    h = side / 2
    return geom.convex_polygon(c + np.array([[-h, -h], [h, -h], [h, h], [-h, h]]))


def triangle():
    return geom.convex_polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# Constructors and validation
# ---------------------------------------------------------------------------

def test_polygon_requires_ccw_convex():
    with pytest.raises(geom.GeometryError):
        geom.convex_polygon([[0, 0], [0, 1], [1, 0]])  # clockwise
    with pytest.raises(geom.GeometryError):
        geom.convex_polygon([[0, 0], [1, 0], [2, 0], [1, 1]])  # collinear
    with pytest.raises(geom.GeometryError):
        geom.convex_polygon([[0, 0], [1, 0]])


def test_cuboid_roundtrip_and_validation():
    rot = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    P = geom.cuboid([1.0, 2.0, 3.0], [0.5, 0.25, 1.0], rotation=rot)
    assert len(P.vertices) == 8
    assert geom.polytope_mask(P, [1.0, 2.0, 3.0], geom.MEMBERSHIP_TOL)
    bad = P.vertices.copy()
    bad[0] += 0.3
    with pytest.raises(geom.GeometryError):
        geom.Polytope(3, bad, "cuboid")


def test_polytope_json_roundtrip():
    # a scene file holds to_json's dict, which the CLI reads back
    for P in (square(2.0, (0.3, -0.1)), geom.cuboid([0.1, 0, 0], [0.2, 0.3, 0.1])):
        back = cli.polytope_from_dict(json.loads(P.to_json()))
        assert (back.dim, back.kind) == (P.dim, P.kind)
        assert np.array_equal(back.vertices, P.vertices)


def test_containment_and_ball():
    P = square(2.0)
    tol = geom.MEMBERSHIP_TOL
    assert geom.polytope_mask(P, [0.0, 0.0], tol)
    assert geom.polytope_mask(P, [1.0, 1.0], tol)   # closed set: corner included
    assert not geom.polytope_mask(P, [1.0001, 0.0], tol)
    assert P.contained_in_ball(np.sqrt(2) + 1e-12)
    assert not P.contained_in_ball(1.0)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def test_point_polytope_distance_cases():
    P = square(2.0)
    assert geom.polytope_distance(P, [0.2, -0.3]) == 0.0
    assert abs(geom.polytope_distance(P, [2.0, 0.0]) - 1.0) < 1e-14
    # corner region: diagonal distance
    assert abs(geom.polytope_distance(P, [2.0, 2.0]) - np.sqrt(2)) < 1e-14


def _point_segment_distance(x, a, b) -> float:
    """Reference: one point to one segment."""
    x, a, b = (np.asarray(p, dtype=float) for p in (x, a, b))
    ab = b - a
    t = np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return float(np.linalg.norm(x - (a + t * ab)))


def _point_polytope_distance(x, P) -> float:
    """Reference: one point at a time, a loop over the polygon edges."""
    x = np.asarray(x, dtype=float)
    if geom.polytope_mask(P, x, geom.MEMBERSHIP_TOL):
        return 0.0
    if P.dim == 2:
        v = P.vertices
        nxt = np.roll(v, -1, axis=0)
        return min(_point_segment_distance(x, a, b) for a, b in zip(v, nxt))
    center, axes, half = geom._cuboid_frame(P.vertices)
    y = (x - center) @ axes.T
    outside = np.maximum(np.abs(y) - half, 0.0)
    return float(np.linalg.norm(outside))


def _random_polygons(rng, count):
    from scipy.spatial import ConvexHull
    polys = []
    while len(polys) < count:
        pts = rng.uniform(-1, 1, (int(rng.integers(3, 12)), 2))
        try:
            polys.append(geom.convex_polygon(pts[ConvexHull(pts).vertices]))
        except (geom.GeometryError, ValueError):
            continue
    return polys


def test_polytope_distance_matches_scalar_reference():
    rng = np.random.default_rng(21)
    for P in _random_polygons(rng, 20):
        v = P.vertices
        nxt = np.roll(v, -1, axis=0)
        edge = nxt - v
        normal = np.stack([edge[:, 1], -edge[:, 0]], axis=1)   # outward
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        t = rng.uniform(0, 1, (len(v), 1))
        s = rng.uniform(0.01, 1.5, (len(v), 1))
        w = rng.dirichlet(np.ones(len(v)), 10)
        pts = np.vstack([
            w @ v,                                        # inside
            v + t * edge + s * normal,                    # edge regions
            v + s * normal + rng.uniform(0.01, 1.5, (len(v), 1))
            * np.roll(normal, 1, axis=0),                 # corner regions
        ])
        ref = [_point_polytope_distance(x, P) for x in pts]
        np.testing.assert_allclose(geom.polytope_distance(P, pts), ref,
                                   rtol=0, atol=1e-15)
        assert np.all(geom.polytope_distance(P, v + t * edge) == 0)
        assert np.all(geom.polytope_distance(P, v) == 0)
    for _ in range(10):
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        half = rng.uniform(0.1, 0.5, 3)
        P = geom.cuboid(rng.uniform(-0.3, 0.3, 3), half, rotation=rot)
        # inside, and past 1, 2 or 3 faces: face, edge and corner regions
        y = rng.uniform(-1, 1, (200, 3)) * half
        past = rng.uniform(size=(200, 3)) < 0.5
        y[past] = np.sign(y[past]) * (half + rng.uniform(0, 1, (200, 3)))[past]
        pts = P.frame[0] + y @ rot.T
        ref = [_point_polytope_distance(x, P) for x in pts]
        np.testing.assert_allclose(geom.polytope_distance(P, pts), ref,
                                   rtol=0, atol=1e-15)
        assert np.all(geom.polytope_distance(P, P.vertices) == 0)
    # broadcast input keeps the leading shape
    d = geom.polytope_distance(P, pts.reshape(20, 10, 3))
    assert d.shape == (20, 10)
    np.testing.assert_array_equal(d.ravel(), geom.polytope_distance(P, pts))
    Q = square(2.0)
    assert geom.polytope_distance(
        Q, rng.uniform(-3, 3, (4, 5, 2))).shape == (4, 5)


def test_hausdorff_translation_and_scaling():
    P = square(2.0)
    t = np.array([0.7, -0.2])
    Q = square(2.0, center=t)
    # translate: d_H = |t| for identical convex bodies
    assert abs(geom.hausdorff_distance(P, Q) - np.linalg.norm(t)) < 1e-12
    # scale about the center: d_H = (s-1) * circumradius
    S = square(3.0)
    assert abs(geom.hausdorff_distance(P, S) - 0.5 * np.sqrt(2)) < 1e-12


def test_hausdorff_metric_properties():
    rng = np.random.default_rng(5)
    polys = []
    while len(polys) < 6:
        pts = rng.uniform(-1, 1, (10, 2))
        try:
            from scipy.spatial import ConvexHull
            hull = ConvexHull(pts)
            polys.append(geom.convex_polygon(pts[hull.vertices]))
        except geom.GeometryError:
            continue
    for P in polys:
        assert geom.hausdorff_distance(P, P) == 0.0
    for P in polys:
        for Q in polys:
            dpq = geom.hausdorff_distance(P, Q)
            assert abs(dpq - geom.hausdorff_distance(Q, P)) < 1e-12
            for S in polys:
                assert dpq <= (geom.hausdorff_distance(P, S)
                               + geom.hausdorff_distance(S, Q)) + 1e-12


def test_hausdorff_against_dense_sampling():
    from oracles import sampled_hausdorff
    rng = np.random.default_rng(6)
    from scipy.spatial import ConvexHull
    for _ in range(10):
        pts1 = rng.uniform(-1, 1, (12, 2))
        pts2 = rng.uniform(-1, 1, (12, 2))
        P = geom.convex_polygon(pts1[ConvexHull(pts1).vertices])
        Q = geom.convex_polygon(pts2[ConvexHull(pts2).vertices])
        exact = geom.hausdorff_distance(P, Q)
        approx = sampled_hausdorff(P, Q, n=300)
        assert abs(exact - approx) <= 1e-3 * max(exact, 0.01)


def test_hausdorff_cuboids():
    P = geom.cuboid([0, 0, 0], [1, 1, 1])
    Q = geom.cuboid([0.5, 0, 0], [1, 1, 1])
    assert abs(geom.hausdorff_distance(P, Q) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

def test_polycone_stores_wedges_counterclockwise():
    # the quarter plane given counterclockwise and clockwise, then random
    # wedges in both orders: stored counterclockwise with their opening
    for gens in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
        K = geom.PolyCone(np.zeros(2), np.array(gens), "polyhedral")
        assert abs(geom._angle_between(*K.generators) - np.pi / 2) < 1e-12
        np.testing.assert_array_equal(K.generators, [[1.0, 0.0], [0.0, 1.0]])
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, span = rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 3.0)
        g = np.array([[np.cos(a), np.sin(a)],
                      [np.cos(a + span), np.sin(a + span)]])
        for gens in (g, g[::-1]):
            K = geom.PolyCone(rng.uniform(-1, 1, 2), gens, "polyhedral")
            assert geom._cross2(*K.generators) > 0
            np.testing.assert_allclose(K.generators, g, atol=1e-15)
            assert abs(geom._angle_between(*K.generators) - span) < 1e-12


def _conic_hull_contains(g, d, tol=1e-9) -> bool:
    """Reference: every row of d is sum lambda_i g_i with lambda >= 0, as
    one small LP over a block-diagonal system."""
    from scipy.optimize import linprog
    from scipy.sparse import kron, identity
    d = np.atleast_2d(d)
    lp = dict(c=np.zeros(len(d) * len(g)),
              A_eq=kron(identity(len(d)), np.asarray(g).T, format="csr"),
              b_eq=d.ravel(), bounds=(0, None), method="highs")
    if linprog(**lp).status == 0:
        return True
    # retry with slack for boundary points
    res = linprog(**lp, options={"primal_feasibility_tolerance": tol})
    return res.status == 0


def _rotation(rng):
    return np.linalg.qr(rng.standard_normal((3, 3)))[0]


def test_coordinate_sums_match_numpy_reductions():
    # the explicit coordinate sums of the segment distance against the
    # np.sum / norm forms they replace, bit for bit: random points and the
    # segments' ends and midpoints
    rng = np.random.default_rng(17)
    a, b = rng.uniform(-1, 1, (2, 7, 2))
    x = np.vstack([rng.uniform(-1, 1, (200, 2)), a, b,
                   0.5 * (a + b)])[:, None, :]
    ab = b - a
    t = np.clip(np.sum((x - a) * ab, axis=-1) / np.sum(ab * ab, axis=-1),
                0.0, 1.0)
    want = np.linalg.norm(x - (a + t[..., None] * ab), axis=-1)
    np.testing.assert_array_equal(geom._segment_distance(x, a, b), want)


def test_cone_rejects_non_pointed_or_flat_3d():
    half_space = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                           [0, -1.0, 0], [0, 0, 1.0]])
    flat = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
    axes = np.vstack([np.eye(3), -np.eye(3)])
    # full-dimensional, but holding the line along the first axis
    wedge = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 1.0]])
    turned = wedge @ _rotation(np.random.default_rng(3))
    with pytest.raises(geom.GeometryError, match="not full-dimensional"):
        geom.PolyCone(np.zeros(3), flat, "polyhedral")
    for g in (half_space, axes, wedge, turned):
        with pytest.raises(geom.GeometryError, match="not pointed"):
            geom.PolyCone(np.zeros(3), g, "polyhedral")


def test_cone_rejects_too_wide_2d():
    with pytest.raises(geom.GeometryError):
        geom.PolyCone(np.zeros(2), np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      "polyhedral")


def _random_polygon(rng, scale=1.0):
    from scipy.spatial import ConvexHull
    while True:
        pts = rng.uniform(-1, 1, (8, 2)) * scale
        try:
            return geom.convex_polygon(pts[ConvexHull(pts).vertices])
        except geom.GeometryError:
            continue


def test_cone_directions_solid_angle():
    # the weights sum to the solid angle, tan(Omega/2) =
    # |g0.(g1 x g2)| / (1 + g0.g1 + g1.g2 + g2.g0) for unit generators
    # (Van Oosterom and Strackee 1983); the directions are unit vectors
    # inside the cone
    rng = np.random.default_rng(4)
    for g in [np.eye(3), [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.2, 0.4, 1.0]],
              np.array([0.0, 0.0, 1.0]) + 0.4 * rng.standard_normal((3, 3))]:
        K = geom.PolyCone(np.zeros(3), g, "polyhedral")
        g0, g1, g2 = K.generators
        omega, w = geom.cone_directions(K.generators, 24)
        solid = 2 * np.arctan2(abs(g0 @ np.cross(g1, g2)),
                               1 + g0 @ g1 + g1 @ g2 + g2 @ g0)
        assert omega.shape == (576, 3) and w.shape == (576,)
        assert abs(np.sum(w) - solid) <= 1e-12 * solid
        np.testing.assert_allclose(np.linalg.norm(omega, axis=1), 1.0,
                                   atol=1e-15)
        assert _conic_hull_contains(K.generators, omega)


@pytest.mark.parametrize("g", [[[1.0, 0.0], [-0.19, 0.98]],
                               [[1.0, 0.0, 0.0], [0.3, 1.0, 0.2]]],
                         ids=["2d", "3d"])
def test_cone_directions_arc(g):
    # two generators: unit directions on the arc from g0 to g1, whose
    # weights sum to the opening angle
    g = np.asarray(g) / np.linalg.norm(g, axis=1)[:, None]
    omega, w = geom.cone_directions(g, 16)
    assert omega.shape == (16, len(g[0])) and w.shape == (16,)
    assert abs(np.sum(w) - np.arccos(g[0] @ g[1])) <= 1e-14
    np.testing.assert_allclose(np.linalg.norm(omega, axis=1), 1.0,
                               atol=1e-15)
    # each direction lies in the plane of g0 and g1, between them
    coef = np.linalg.lstsq(g.T, omega.T, rcond=None)[0]
    np.testing.assert_allclose(coef.T @ g, omega, atol=1e-14)
    assert np.all(coef > 0)


def test_cone_directions_single_generator():
    g = np.array([[0.6, 0.0, 0.8]])
    omega, w = geom.cone_directions(g, 16)
    np.testing.assert_array_equal(omega, g)
    np.testing.assert_array_equal(w, [1.0])


def test_gauss_legendre_is_cached_and_read_only(monkeypatch):
    geom.gauss_legendre.cache_clear()
    calls = []
    base = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda m: calls.append(m) or base(m))
    x, w = geom.gauss_legendre(24)
    assert geom.gauss_legendre(24)[0] is x and calls == [24]
    nodes, weights = base(24)
    np.testing.assert_array_equal(x, 0.5 * (nodes + 1))
    np.testing.assert_array_equal(w, 0.5 * weights)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_minimal_enclosing_cone():
    dirs = np.array([[1.0, 0.0, 0.1], [1.0, 0.1, 0.0],
                     [1.0, -0.1, 0.0], [1.0, 0.0, -0.1]])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    axis, half = geom.minimal_enclosing_cone(dirs)
    assert abs(np.linalg.norm(axis) - 1.0) < 1e-12
    cos = dirs @ axis
    assert np.all(cos >= np.cos(half) - 1e-9)
    # optimality: shrinking the angle excludes a direction
    assert np.min(cos) <= np.cos(half * 0.999) + 1e-9
    # four directions at angle theta about a rotated axis: half-angle theta
    theta, rot = 0.7, _rotation(np.random.default_rng(5))
    phi = np.pi / 2 * np.arange(4)
    dirs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.full(4, np.cos(theta))], axis=1) @ rot.T
    axis, half = geom.minimal_enclosing_cone(dirs)
    assert abs(half - theta) <= 1e-12
    np.testing.assert_allclose(axis, rot[:, 2], rtol=0, atol=1e-12)
    # +-e_i: the hull holds the origin, so no cone below pi/2 fits
    with pytest.raises(geom.GeometryError, match="too wide"):
        geom.minimal_enclosing_cone(np.vstack([np.eye(3), -np.eye(3)]))


# ---------------------------------------------------------------------------
# Enclosing angle at the farthest vertex
# ---------------------------------------------------------------------------

def test_q_angle_random_pairs_2d():
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        pts1 = rng.uniform(-1, 1, (8, 2))
        pts2 = rng.uniform(-1, 1, (8, 2)) * rng.uniform(0.3, 1.0)
        try:
            P = geom.convex_polygon(pts1[ConvexHull(pts1).vertices])
            Q = geom.convex_polygon(pts2[ConvexHull(pts2).vertices])
        except geom.GeometryError:
            continue
        rep = geom.check_q_angle(P, Q)
        assert rep.vertex_ok, (P.vertices, Q.vertices, rep)
        checked += 1


def _farthest_vertex(P, Q):
    """check_q_angle's x_c: the vertex of P or Q farthest from the other,
    P's on ties, the lowest index among equals."""
    d_pq = geom.polytope_distance(Q, P.vertices)
    d_qp = geom.polytope_distance(P, Q.vertices)
    if np.max(d_qp) > np.max(d_pq):
        return Q.vertices[np.argmax(d_qp)]
    return P.vertices[np.argmax(d_pq)]


def _lattice_polygon(rng):
    # hulls of lattice points: pairs share vertices and put vertices on
    # each other's edges and on the edges of their joint hull
    from scipy.spatial import ConvexHull, QhullError
    while True:
        pts = 0.25 * rng.integers(-3, 4, (int(rng.integers(3, 10)), 2))
        try:
            return geom.convex_polygon(pts[ConvexHull(pts).vertices])
        except (QhullError, geom.GeometryError):
            continue


def _compare_with_qhull_neighbours(P, Q) -> bool:
    # reference: the hull of P and Q by qhull, counterclockwise in 2D; the
    # cone at x_c opens to the angle between its two hull neighbours
    from scipy.spatial import ConvexHull
    if geom.hausdorff_distance(P, Q) <= geom.ANGLE_TOL:
        return False
    rep = geom.check_q_angle(P, Q)
    pts = np.vstack([P.vertices, Q.vertices])
    hull = ConvexHull(pts).vertices
    x_c = _farthest_vertex(P, Q)
    j = np.flatnonzero(np.all(pts[hull] == x_c, axis=1))
    assert len(j) == 1
    a, b = pts[hull[[j[0] - 1, (j[0] + 1) % len(hull)]]] - x_c
    want = np.arccos(a @ b / np.linalg.norm(a) / np.linalg.norm(b))
    assert abs(rep.angle_actual - want) <= 1e-12
    return True


def test_q_angle_2d_is_the_angle_between_the_qhull_neighbours():
    rng = np.random.default_rng(19)
    compared = sum(_compare_with_qhull_neighbours(
        _random_polygon(rng), _random_polygon(rng, 0.6)) for _ in range(300))
    assert compared == 300


def test_hull_2d_matches_qhull_on_collinear_and_repeated_points():
    # lattice pairs: x_c often has repeated points (a vertex shared by P
    # and Q) and points on its hull edges, which must not change the angle
    rng = np.random.default_rng(17)
    compared = sum(_compare_with_qhull_neighbours(
        _lattice_polygon(rng), _lattice_polygon(rng)) for _ in range(300))
    assert compared > 250


def test_convex_hull_cone_skips_points_on_a_hull_edge():
    # all four distances tie at 2, so x_c is P's first vertex (0, 0); P's
    # corner (1, 0) and Q's corner (2, 0) lie on the hull edge from x_c to
    # (3, 0): the cone opens to the right angle between (3, 0) and (0, 1)
    P = geom.convex_polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    Q = geom.convex_polygon([[2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]])
    np.testing.assert_array_equal(_farthest_vertex(P, Q), [0.0, 0.0])
    rep = geom.check_q_angle(P, Q)
    assert rep.vertex_ok and not rep.degenerate
    assert abs(rep.angle_actual - np.pi / 2) <= 1e-12


def test_convex_hull_cone_2d_opens_to_the_widest_pair():
    # reference without the hull: at a hull vertex x_c the cone's opening
    # angle is the largest angle between two directions from x_c
    rng = np.random.default_rng(21)
    for _ in range(200):
        P = _random_polygon(rng)
        Q = _random_polygon(rng, rng.uniform(0.3, 1.0))
        if geom.hausdorff_distance(P, Q) <= geom.ANGLE_TOL:
            continue
        pts = np.vstack([P.vertices, Q.vertices])
        x_c = _farthest_vertex(P, Q)
        d = pts[np.any(pts != x_c, axis=1)] - x_c
        d /= np.linalg.norm(d, axis=1)[:, None]
        widest = np.max(np.arccos(np.clip(d @ d.T, -1.0, 1.0)))
        rep = geom.check_q_angle(P, Q)
        assert abs(rep.angle_actual - widest) <= 1e-12


def test_q_angle_3d_is_the_cone_of_the_qhull_neighbours():
    # reference: x_c's neighbours on the triangles of qhull's hull of P
    # and Q, whose directions span the hull's cone at x_c
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(13)
    for _ in range(100):
        P, Q = [geom.cuboid(rng.uniform(-0.3, 0.3, 3),
                            rng.uniform(0.1, 0.4, 3), rotation=_rotation(rng))
                for _ in range(2)]
        pts = np.vstack([P.vertices, Q.vertices])
        hull = ConvexHull(pts)
        x_c = _farthest_vertex(P, Q)
        i = int(np.flatnonzero(np.all(pts == x_c, axis=1))[0])
        around = hull.simplices[np.any(hull.simplices == i, axis=1)]
        d = pts[np.setdiff1d(around, i)] - x_c
        _, want = geom.minimal_enclosing_cone(
            d / np.linalg.norm(d, axis=1)[:, None])
        rep = geom.check_q_angle(P, Q)
        assert rep.vertex_ok and abs(rep.angle_actual - want) <= 1e-12


def test_q_angle_identical_is_degenerate():
    P = square(2.0)
    rep = geom.check_q_angle(P, P)
    assert rep.vertex_ok and rep.degenerate


def test_q_angle_3d():
    P = geom.cuboid([0, 0, 0], [1, 1, 1])
    Q = geom.cuboid([0.2, 0.1, 0.0], [0.9, 1.0, 1.1])
    rep = geom.check_q_angle(P, Q)
    assert rep.vertex_ok
    assert rep.angle_actual < np.pi / 2


# ---------------------------------------------------------------------------
# Admissibility and triangulation cost
# ---------------------------------------------------------------------------

def test_admissibility_square():
    rep = geom.admissibility_report(square(2.0), R=2.0)
    assert rep.ok
    assert abs(rep.ell - 1.0) < 1e-12        # min distance capped at 1
    assert abs(rep.alpha_min - np.pi / 4) < 1e-12
    assert rep.n_boundary_planes == 4
    rep2 = geom.admissibility_report(square(2.0), R=1.0)
    assert not rep2.ok and rep2.violations


def test_admissibility_cuboid():
    rep = geom.admissibility_report(geom.cuboid([0, 0, 0], [0.3, 0.5, 0.7]))
    assert rep.ok
    assert abs(rep.ell - 0.6) < 1e-12
    assert rep.n_boundary_planes == 6


def test_admissibility_ell_matches_double_loop():
    rng = np.random.default_rng(22)
    for P in _random_polygons(rng, 30):
        v = P.vertices
        m = len(v)
        ell = min(_point_segment_distance(v[i], v[j], v[(j + 1) % m])
                  for i in range(m) for j in range(m)
                  if j != i and (j + 1) % m != i)
        assert abs(geom.admissibility_report(P).ell - min(ell, 1.0)) <= 1e-15


def test_next_vertices_give_the_np_roll_results():
    # a polygon holds v[i + 1] per vertex from when it is built; mask,
    # distance, admissibility and the convexity test read it and give the
    # bits of their former np.roll forms, written out here
    rng = np.random.default_rng(31)
    for P in _random_polygons(rng, 40):
        v = P.vertices
        nxt = np.roll(v, -1, axis=0)
        assert np.array_equal(P.next_vertices, nxt)
        pts = rng.uniform(-1.2, 1.2, (5, 40, 2))
        pts[0, :len(v)] = v
        pts[1, :len(v)] = 0.5 * (v + nxt)
        for tol in (0.0, geom.MEMBERSHIP_TOL):
            ok = np.ones(pts.shape[:-1], dtype=bool)
            for a, b in zip(v, nxt):
                edge = b - a
                ok &= (edge[0] * (pts[..., 1] - a[1])
                       - edge[1] * (pts[..., 0] - a[0])) >= -tol
            assert np.array_equal(geom.polytope_mask(P, pts, tol), ok)
        d = np.min(geom._segment_distance(pts[..., None, :], v, nxt), axis=-1)
        want = np.where(geom.polytope_mask(P, pts, geom.MEMBERSHIP_TOL),
                        0.0, d)
        assert np.array_equal(geom.polytope_distance(P, pts), want)
        d = geom._segment_distance(v[:, None, :], v, nxt)
        i = np.arange(len(v))
        d[i, i] = d[i, i - 1] = np.inf
        assert geom.admissibility_report(P).ell == min(float(np.min(d)), 1.0)
    for _ in range(200):
        v = rng.uniform(-1, 1, (int(rng.integers(3, 7)), 2))
        turn = geom._cross2(v - np.roll(v, 1, axis=0),
                            np.roll(v, -1, axis=0) - v)
        if np.all(turn > 0):
            geom.convex_polygon(v)
        else:
            with pytest.raises(geom.GeometryError):
                geom.convex_polygon(v)
