"""Convex polytopes, cones and the geometric machinery of shape comparison.

Supports two families of scatterer supports: convex polygons in 2D and
rectangular cuboids in 3D.  Provides exact Hausdorff distances (convexity
makes vertex/edge projections sufficient), cones at a vertex, and the
enclosing-angle checks used by the stability arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

MEMBERSHIP_TOL = 1e-12   # closed-set slack of point-in-polytope tests
ANGLE_TOL = 1e-9         # slack of the enclosing-angle checks


class GeometryError(ValueError):
    pass


def _cross2(a, b):
    """Scalar 2D cross product, elementwise over trailing axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def coord_dot(a, b) -> np.ndarray:
    """a . b over a trailing axis of 2 or 3 coordinates, broadcast over the
    leading axes: the same bits as np.sum(a * b, axis=-1), which also sums
    left to right, without numpy's per-row reduction overhead."""
    s = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    if a.shape[-1] == 3:
        s += a[..., 2] * b[..., 2]
    return s


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Convex polygon (2D) or rectangular cuboid (3D), given by vertices.

    2D vertices must be in counterclockwise order and strictly convex.
    3D vertices must be the 8 corners of a rectangular box (any order).
    frame: a cuboid's (center, axis rows, half-extents); None in 2D.
    next_vertices: a polygon's vertex i + 1 (cyclically) for each vertex
    i, the far end of edge i; None in 3D.
    """

    dim: int
    vertices: np.ndarray  # (m, dim)
    kind: str             # "convex-polygon" | "cuboid"
    frame: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    next_vertices: np.ndarray | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if self.dim == 2:
            if self.kind != "convex-polygon":
                raise GeometryError(f"unsupported 2D kind {self.kind!r}")
            object.__setattr__(self, "next_vertices",
                               _ccw_strictly_convex_next(v))
        elif self.dim == 3:
            if self.kind != "cuboid":
                raise GeometryError(f"unsupported 3D kind {self.kind!r}")
            object.__setattr__(self, "frame", _cuboid_frame(v))
        else:
            raise GeometryError(f"dimension must be 2 or 3, got {self.dim}")

    def contained_in_ball(self, radius: float) -> bool:
        """Whether every vertex lies in the closed ball B(0, radius)."""
        return bool(np.all(np.linalg.norm(self.vertices, axis=1) <= radius))

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "kind": self.kind,
                           "vertices": self.vertices.tolist()})


def polytope_mask(P: Polytope, pts, tol: float = 0.0) -> np.ndarray:
    """Vectorized closed-set membership for point arrays (..., dim)."""
    pts = np.asarray(pts, dtype=float)
    if P.dim == 2:
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for a, b in zip(P.vertices, P.next_vertices):
            edge = b - a
            cross = edge[0] * (pts[..., 1] - a[1]) - edge[1] * (pts[..., 0] - a[0])
            ok &= cross >= -tol
        return ok
    center, axes, half = P.frame
    y = np.tensordot(pts - center, axes.T, axes=1)
    return np.all(np.abs(y) <= half + tol, axis=-1)


def convex_polygon(vertices) -> Polytope:
    return Polytope(2, np.asarray(vertices, dtype=float), "convex-polygon")


def cuboid(center, half_extents, rotation=None) -> Polytope:
    """Build a cuboid from its center, half-extents and optional rotation."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half_extents, dtype=float)
    rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                        for sz in (-1, 1)], dtype=float)
    verts = center + (corners * half) @ rot.T
    return Polytope(3, verts, "cuboid")


def _ccw_strictly_convex_next(v: np.ndarray) -> np.ndarray:
    """Each vertex's successor v[i + 1] (cyclically), after checking that
    the polygon is counterclockwise and strictly convex."""
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise GeometryError("2D polytope needs an (m,2) vertex array, m >= 3")
    i = np.arange(len(v))
    nxt = v[(i + 1) % len(v)]
    cross = _cross2(v - v[i - 1], nxt - v)
    if not np.all(cross > 0):
        raise GeometryError("vertices must be counterclockwise and strictly convex")
    return nxt


def _cuboid_frame(v: np.ndarray):
    """Recover (center, orthonormal axes rows, half_extents) of a box, and
    check that every vertex is one of its 8 corners."""
    if v.shape != (8, 3):
        raise GeometryError("3D polytope must be a cuboid with 8 vertices")
    tol = 1e-9
    center = v.mean(axis=0)
    d = v - center
    # Greedy edge recovery at vertex 0: the shortest difference vector is an
    # edge, and each next edge is the shortest difference orthogonal to the
    # ones found so far (face/space diagonals are never orthogonal to all
    # previously selected edges of their face).
    diffs = v[1:] - v[0]
    dist = np.linalg.norm(diffs, axis=1)
    if np.any(dist < tol):
        raise GeometryError("degenerate cuboid (coincident vertices)")
    units = diffs / dist[:, None]
    picked = []
    for idx in np.argsort(dist):
        if all(abs(units[idx] @ u) < 1e-7 for u in picked):
            picked.append(units[idx])
        if len(picked) == 3:
            break
    if len(picked) != 3:
        raise GeometryError("cuboid edges are not pairwise orthogonal")
    axes = np.vstack(picked)
    gram = axes @ axes.T
    if np.max(np.abs(gram - np.eye(3))) > 1e-7:
        raise GeometryError("cuboid edges are not pairwise orthogonal")
    y = d @ axes.T
    half = np.max(y, axis=0)
    # Round-trip: every vertex maps to a (+-hx, +-hy, +-hz) corner.
    if np.max(np.abs(np.abs(y) - half)) > tol * (1 + np.max(half)):
        raise GeometryError("vertices do not form a rectangular box")
    if len({tuple(np.sign(row).astype(int)) for row in y}) != 8:
        raise GeometryError("vertices do not cover all 8 box corners")
    return center, axes, half


# ---------------------------------------------------------------------------
# Point-to-set distances and the Hausdorff distance
# ---------------------------------------------------------------------------

def _segment_distance(x, a, b) -> np.ndarray:
    """Distance from points x to the segments [a, b], broadcast over the
    leading axes of all three."""
    ab = b - a
    t = np.clip(coord_dot(x - a, ab) / coord_dot(ab, ab), 0.0, 1.0)
    e = x - (a + t[..., None] * ab)
    return np.sqrt(coord_dot(e, e))


def polytope_distance(P: Polytope, pts) -> np.ndarray:
    """Euclidean distance from point arrays (..., dim) to the closed
    polytope: 0 inside, else the nearest edge (2D) or the box excess (3D)."""
    pts = np.asarray(pts, dtype=float)
    if P.dim == 2:
        d = np.min(_segment_distance(pts[..., None, :], P.vertices,
                                     P.next_vertices), axis=-1)
    else:
        center, axes, half = P.frame
        y = np.tensordot(pts - center, axes.T, axes=1)
        d = np.linalg.norm(np.maximum(np.abs(y) - half, 0.0), axis=-1)
    return np.where(polytope_mask(P, pts, MEMBERSHIP_TOL), 0.0, d)


def directed_hausdorff(P: Polytope, Q: Polytope) -> float:
    """sup_{x in P} d(x, Q).  Attained at a vertex of P by convexity of d(., Q)."""
    return float(np.max(polytope_distance(Q, P.vertices)))


def hausdorff_distance(P: Polytope, Q: Polytope) -> float:
    """Hausdorff distance max(sup_{x in P} d(x,Q), sup_{x' in Q} d(x',P))."""
    if P.dim != Q.dim:
        raise GeometryError("dimension mismatch")
    return max(directed_hausdorff(P, Q), directed_hausdorff(Q, P))


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyCone:
    """Cone with a vertex: either polyhedral (conic hull of generators) or
    spherical (axis = generators[0], given opening half-angle).  A 2D wedge
    is stored counterclockwise; a 3D polyhedral cone must be pointed and
    full-dimensional."""

    vertex: np.ndarray
    generators: np.ndarray     # (g, dim) unit vectors
    kind: str                  # "polyhedral" | "spherical"
    half_angle: float = 0.0    # spherical cones only

    def __post_init__(self):
        v = np.asarray(self.vertex, dtype=float)
        g = np.atleast_2d(np.asarray(self.generators, dtype=float))
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms < 1e-14):
            raise GeometryError("zero-length cone generator")
        g = g / norms[:, None]
        if self.kind not in ("polyhedral", "spherical"):
            raise GeometryError(f"unknown cone kind {self.kind!r}")
        if self.kind == "spherical" and not (0 < self.half_angle < np.pi):
            raise GeometryError("spherical cone needs half-angle in (0, pi)")
        if self.kind == "polyhedral" and v.size == 2:
            if len(g) != 2 or not (0 < _angle_between(g[0], g[1]) < np.pi):
                raise GeometryError("2D polyhedral cone must be two generators "
                                    "spanning an angle in (0, pi)")
            if _cross2(g[0], g[1]) < 0:
                g = g[::-1].copy()
        elif self.kind == "polyhedral":
            _check_pointed_3d(g)
        object.__setattr__(self, "vertex", v)
        object.__setattr__(self, "generators", g)

    @property
    def dim(self) -> int:
        return self.vertex.size

    @property
    def axis(self) -> np.ndarray:
        if self.kind == "spherical":
            return self.generators[0]
        m = self.generators.sum(axis=0)
        return m / np.linalg.norm(m)


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the m-node Gauss-Legendre rule on
    [0, 1], computed once per m."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    x, w = 0.5 * (nodes + 1), 0.5 * weights
    x.flags.writeable = w.flags.writeable = False
    return x, w


def cone_directions(generators, m: int):
    """Unit directions omega (p, dim) and weights (p,) over the directions
    of the simplicial cone on 1, 2 or 3 unit generators, by `gauss_legendre`
    at m nodes.  One generator: itself, weight 1.  Two: the arc from g0 to
    g1 in the plane of g0 and the unit part e of g1 orthogonal to g0, in
    the angle.  Three: the spherical triangle, by the unit triangle's
    point p = g0 + u(g1 - g0) + v(g2 - g0), projected to omega = p/|p| with
    solid-angle Jacobian |p.((g1 - g0) x (g2 - g0))| / |p|^3; the collapsed
    (Duffy) map u = s(1 - t), v = st of the unit square adds the factor s."""
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    if len(g) == 1:
        return g.copy(), np.ones(1)
    x, w = gauss_legendre(m)
    if len(g) == 2:
        e = g[1] - (g[0] @ g[1]) * g[0]
        span = np.arctan2(np.linalg.norm(e), g[0] @ g[1])
        return (np.outer(np.cos(span * x), g[0])
                + np.outer(np.sin(span * x), e / np.linalg.norm(e)), span * w)
    g0, g1, g2 = g
    s, t = np.meshgrid(x, x, indexing="ij")
    p = g0 + (s * (1 - t))[..., None] * (g1 - g0) \
        + (s * t)[..., None] * (g2 - g0)
    size = np.linalg.norm(p, axis=-1)
    jac = np.abs(p @ np.cross(g1 - g0, g2 - g0)) / size ** 3
    return ((p / size[..., None]).reshape(-1, 3),
            (np.outer(w, w) * s * jac).ravel())


def _check_pointed_3d(g: np.ndarray) -> None:
    """Raise unless the 3D cone on generators g is full-dimensional and
    pointed.  By Gordan's alternative it is pointed iff some a has
    a.g > 0 for every generator, i.e. iff the hull of g misses the
    origin: its nearest point to the origin is not 0."""
    if np.linalg.matrix_rank(g, tol=1e-9) < 3:
        raise GeometryError("3D polyhedral cone generators are not "
                            "full-dimensional")
    if np.linalg.norm(_nearest_hull_point(g)) < ANGLE_TOL:
        raise GeometryError("3D polyhedral cone is not pointed")


def _angle_between(a, b) -> float:
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return float(np.arccos(c))


def polygon_vertex_angle(P: Polytope, index: int) -> float:
    """Interior angle of a 2D polygon at the given vertex index."""
    v = P.vertices
    a = v[(index - 1) % len(v)] - v[index]
    b = v[(index + 1) % len(v)] - v[index]
    return _angle_between(a / np.linalg.norm(a), b / np.linalg.norm(b))


# ---------------------------------------------------------------------------
# Minimal enclosing spherical cone (3D)
# ---------------------------------------------------------------------------

def _nearest_hull_point(g: np.ndarray) -> np.ndarray:
    """The point p of the hull of the unit 3-vectors g nearest the origin,
    or 0 if the hull holds the origin: the shortest of the origin's
    projections onto the points, segments and triangles of g that land
    inside them, kept if every g.p >= |p|^2 - ANGLE_TOL |p|.  Each is
    taken from a corner, so it is a hull point even where a nearly flat
    triangle makes it inexact; degenerate segments and triangles are
    skipped."""
    i, j = np.triu_indices(len(g), 1)
    e = g[j] - g[i]
    ee = coord_dot(e, e)
    t = np.divide(-coord_dot(g[i], e), ee, out=np.full_like(ee, -1.0),
                  where=ee > 0)
    a, b, c = np.array(list(combinations(range(len(g)), 3)),
                       dtype=int).reshape(-1, 3).T
    e1, e2 = g[b] - g[a], g[c] - g[a]
    # minimise |g_a + u e1 + v e2|^2 by Cramer's rule on the normal equations
    g11, g12, g22 = coord_dot(e1, e1), coord_dot(e1, e2), coord_dot(e2, e2)
    a1, a2 = coord_dot(g[a], e1), coord_dot(g[a], e2)
    det = g11 * g22 - g12 * g12
    u, v = np.divide([a2 * g12 - a1 * g22, a1 * g12 - a2 * g11], det,
                     out=np.full((2, len(a)), -1.0), where=det > 0)
    pts = np.vstack([g, g[i] + t[:, None] * e,
                     g[a] + u[:, None] * e1 + v[:, None] * e2])
    pts = pts[np.concatenate([np.ones(len(g), bool), (t >= 0) & (t <= 1),
                              (u >= 0) & (v >= 0) & (u + v <= 1)])]
    p = pts[np.argmin(coord_dot(pts, pts))]
    if np.all(g @ p >= p @ p - ANGLE_TOL * np.linalg.norm(p)):
        return p
    return np.zeros(3)


def minimal_enclosing_cone(directions: np.ndarray):
    """Axis and half-angle of the smallest spherical cone containing the
    given unit directions g, when its half-angle is below pi/2.  With p
    the point of their hull nearest the origin, max over unit a of
    min a.g is |p|, attained at a = p/|p|."""
    g = np.asarray(directions, dtype=float)
    p = _nearest_hull_point(g)
    size = np.linalg.norm(p)
    if size < ANGLE_TOL:
        raise GeometryError("directions span too wide a fan for a proper cone")
    axis = p / size
    return axis, float(np.arccos(np.min(np.clip(g @ axis, -1.0, 1.0))))


# ---------------------------------------------------------------------------
# Enclosing-angle checks at the farthest vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QAngleReport:
    vertex_ok: bool
    angle_actual: float
    degenerate: bool = False


def check_q_angle(P: Polytope, Q: Polytope) -> QAngleReport:
    """Check the enclosing-cone angle at the vertex x_c of P realizing the
    Hausdorff distance: in 2D the hull angle there is at most (alpha+pi)/2
    with alpha the angle of P at the vertex; in 3D the hull fits in a
    spherical cone of half-angle < pi/2.  The hull's cone at x_c is the
    conic hull of the directions d from x_c to the other vertices of P
    and Q (those within 1e-9 dropped).  In 2D it opens by 2 pi - G, with
    G the widest gap between the angles of d; G <= pi means x_c is no
    hull vertex, as does `minimal_enclosing_cone` raising in 3D.

    The 3D branch holds at any vertex of the hull: the hull's cone there
    is pointed, so the nearest point p of the hull of the unit d is not 0
    and every d.p >= |p|^2 > 0.  Criterion 11's 3D half is therefore a
    consistency check, not a test that can fail.

    The roles of P and Q are swapped when the other polytope realizes
    the Hausdorff distance, so that d(x_c, Q) always equals it."""
    d_pq = polytope_distance(Q, P.vertices)
    d_qp = polytope_distance(P, Q.vertices)
    if np.max(d_qp) > np.max(d_pq):
        P, Q, d_pq = Q, P, d_qp
    index = int(np.argmax(d_pq))   # the farthest vertex, lowest index on ties
    if d_pq[index] <= ANGLE_TOL:
        # Degenerate P' = P style case: the hull cone equals P's own cone.
        alpha = polygon_vertex_angle(P, index) if P.dim == 2 else np.pi / 2
        return QAngleReport(True, alpha, degenerate=True)
    d = np.vstack([P.vertices, Q.vertices]) - P.vertices[index]
    size = np.sqrt(coord_dot(d, d))
    d, size = d[size >= 1e-9], size[size >= 1e-9]
    if P.dim == 2:
        theta = np.sort(np.arctan2(d[:, 1], d[:, 0]))
        gap = np.max(np.diff(theta, append=theta[0] + 2 * np.pi))
        if gap <= np.pi:
            return QAngleReport(False, np.nan)
        alpha = polygon_vertex_angle(P, index)
        bound = (alpha + np.pi) / 2
        actual = 2 * np.pi - gap
        degenerate = abs(actual - bound) <= ANGLE_TOL
        return QAngleReport(actual <= bound + ANGLE_TOL, actual,
                            degenerate=degenerate)
    try:
        _, half = minimal_enclosing_cone(d / size[:, None])
    except GeometryError:
        return QAngleReport(False, np.nan)
    return QAngleReport(half < np.pi / 2, half)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    ell: float
    alpha_min: float
    ok: bool
    violations: tuple = ()
    n_boundary_planes: int = 0


def admissibility_report(P: Polytope, R: float | None = None) -> AdmissibilityReport:
    """Minimal vertex-to-nonadjacent-edge distance (capped at 1), half-angle
    bounds and violation list for an admissible scatterer support."""
    violations = []
    if P.dim == 2:
        v = P.vertices
        m = len(v)
        # vertex i to edge j, which runs v[j] -> v[j+1]; edges i and i-1
        # are the two adjacent to vertex i
        d = _segment_distance(v[:, None, :], v, P.next_vertices)
        i = np.arange(m)
        d[i, i] = d[i, i - 1] = np.inf
        ell = np.min(d)
        angles = np.array([polygon_vertex_angle(P, i) for i in range(m)])
        alpha_min = float(angles.min() / 2)
        if angles.min() <= 0:
            violations.append("vanishing interior angle")
        if angles.max() >= np.pi:
            violations.append("interior angle >= pi")
        planes = m
    else:
        _, _, half = P.frame
        ell = float(2 * np.min(half))  # vertex to opposite face pair
        alpha_min = np.pi / 4
        if np.min(half) <= 0:
            violations.append("degenerate cuboid extent")
        planes = 6
    ell = float(min(ell, 1.0))
    if R is not None and not P.contained_in_ball(R):
        violations.append(f"not contained in the ball of radius {R}")
    return AdmissibilityReport(ell, alpha_min, not violations,
                               tuple(violations), planes)
