"""Convex polytopes, cones and the geometric machinery of shape comparison.

Supports two families of scatterer supports: convex polygons in 2D and
rectangular cuboids in 3D.  Provides exact Hausdorff distances (convexity
makes vertex/edge projections sufficient), cones generated by convex hulls
at a vertex, and the enclosing-angle checks used by the stability
arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Convex polygon (2D) or rectangular cuboid (3D), given by vertices.

    2D vertices must be in counterclockwise order and strictly convex.
    3D vertices must be the 8 corners of a rectangular box (any order).
    frame: a cuboid's (center, axis rows, half-extents); None in 2D.
    """

    dim: int
    vertices: np.ndarray  # (m, dim)
    kind: str             # "convex-polygon" | "cuboid"
    frame: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if self.dim == 2:
            if self.kind != "convex-polygon":
                raise GeometryError(f"unsupported 2D kind {self.kind!r}")
            _check_ccw_strictly_convex(v)
        elif self.dim == 3:
            if self.kind != "cuboid":
                raise GeometryError(f"unsupported 3D kind {self.kind!r}")
            object.__setattr__(self, "frame", _cuboid_frame(v))
        else:
            raise GeometryError(f"dimension must be 2 or 3, got {self.dim}")

    def contained_in_ball(self, radius: float, center=None) -> bool:
        c = np.zeros(self.dim) if center is None else np.asarray(center)
        return bool(np.all(np.linalg.norm(self.vertices - c, axis=1) <= radius))

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "kind": self.kind,
                           "vertices": self.vertices.tolist()})

    @staticmethod
    def from_json(text: str) -> "Polytope":
        d = json.loads(text)
        return Polytope(d["dim"], np.asarray(d["vertices"], dtype=float), d["kind"])


def polytope_mask(P: Polytope, pts, tol: float = 0.0) -> np.ndarray:
    """Vectorized closed-set membership for point arrays (..., dim)."""
    pts = np.asarray(pts, dtype=float)
    if P.dim == 2:
        v = P.vertices
        nxt = np.roll(v, -1, axis=0)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for a, b in zip(v, nxt):
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


def _check_ccw_strictly_convex(v: np.ndarray):
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise GeometryError("2D polytope needs an (m,2) vertex array, m >= 3")
    nxt = np.roll(v, -1, axis=0)
    prv = np.roll(v, 1, axis=0)
    cross = _cross2(v - prv, nxt - v)
    if not np.all(cross > 0):
        raise GeometryError("vertices must be counterclockwise and strictly convex")


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
    t = np.clip(np.sum((x - a) * ab, axis=-1) / np.sum(ab * ab, axis=-1),
                0.0, 1.0)
    return np.linalg.norm(x - (a + t[..., None] * ab), axis=-1)


def polytope_distance(P: Polytope, pts) -> np.ndarray:
    """Euclidean distance from point arrays (..., dim) to the closed
    polytope: 0 inside, else the nearest edge (2D) or the box excess (3D)."""
    pts = np.asarray(pts, dtype=float)
    if P.dim == 2:
        v = P.vertices
        d = np.min(_segment_distance(pts[..., None, :], v,
                                     np.roll(v, -1, axis=0)), axis=-1)
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
    full-dimensional.  facet_normals: inward unit normals of the facets."""

    vertex: np.ndarray
    generators: np.ndarray     # (g, dim) unit vectors
    kind: str                  # "polyhedral" | "spherical"
    half_angle: float = 0.0    # spherical cones only
    facet_normals: np.ndarray = field(init=False, repr=False, compare=False)

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
        normals = np.zeros((0, v.size))
        if self.kind == "polyhedral" and v.size == 2:
            if len(g) != 2 or not (0 < _angle_between(g[0], g[1]) < np.pi):
                raise GeometryError("2D polyhedral cone must be two generators "
                                    "spanning an angle in (0, pi)")
            if _cross2(g[0], g[1]) < 0:
                g = g[::-1].copy()
            normals = np.array([[-g[0, 1], g[0, 0]], [g[1, 1], -g[1, 0]]])
        elif self.kind == "polyhedral":
            normals = _facet_normals_3d(g)
        object.__setattr__(self, "vertex", v)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "facet_normals", normals)

    @property
    def dim(self) -> int:
        return self.vertex.size

    @property
    def axis(self) -> np.ndarray:
        if self.kind == "spherical":
            return self.generators[0]
        m = self.generators.sum(axis=0)
        return m / np.linalg.norm(m)

    @property
    def is_orthant(self) -> bool:
        """True for a rotated 3D orthant: three orthonormal generators."""
        g = self.generators
        return (self.kind == "polyhedral" and g.shape == (3, 3)
                and np.max(np.abs(g @ g.T - np.eye(3))) <= 1e-9)

    def opening_angle(self) -> float:
        """Full opening angle (2D polyhedral) or 2x half-angle (spherical)."""
        if self.kind == "spherical":
            return 2.0 * self.half_angle
        if self.dim == 2:
            return _angle_between(self.generators[0], self.generators[1])
        raise GeometryError("opening angle of a 3D polyhedral cone is not scalar")


def _facet_normals_3d(g: np.ndarray) -> np.ndarray:
    """Inward unit normals of the planes through two generators that leave
    every generator on one side: the facets of a pointed 3D cone."""
    if np.linalg.matrix_rank(g, tol=1e-9) < 3:
        raise GeometryError("3D polyhedral cone generators are not "
                            "full-dimensional")
    i, j = np.triu_indices(len(g), 1)
    n = np.cross(g[i], g[j])
    size = np.linalg.norm(n, axis=1)
    n = n[size > 1e-9] / size[size > 1e-9, None]
    side = n @ g.T
    sign = np.where(np.all(side >= -1e-10, axis=1), 1.0,
                    np.where(np.all(side <= 1e-10, axis=1), -1.0, 0.0))
    normals = sign[sign != 0, None] * n[sign != 0]
    if len(normals) == 0 or np.linalg.matrix_rank(normals, tol=1e-9) < 3:
        raise GeometryError("3D polyhedral cone is not pointed")
    return normals


def _angle_between(a, b) -> float:
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return float(np.arccos(c))


def cone_mask(K: PolyCone, pts, tol: float = 0.0) -> np.ndarray:
    """Vectorized closed-cone membership for point arrays (..., dim).

    The vertex belongs to the cone.  With d the unit direction from the
    vertex, a spherical cone holds d when d . axis >= cos(half_angle) - tol,
    a polyhedral one when d . n >= -tol for every inward facet normal n."""
    d = np.asarray(pts, dtype=float) - K.vertex
    r = np.linalg.norm(d, axis=-1)
    if K.kind == "spherical":
        cosang = np.tensordot(d, K.axis, axes=1) / np.where(r > 0, r, 1.0)
        return (r <= tol) | (cosang >= np.cos(K.half_angle) - tol)
    ok = np.ones(r.shape, dtype=bool)
    for n in K.facet_normals:
        ok &= np.sum(d * n, axis=-1) >= -tol * r
    return ok | (r <= tol)


def polygon_vertex_angle(P: Polytope, index: int) -> float:
    """Interior angle of a 2D polygon at the given vertex index."""
    v = P.vertices
    a = v[(index - 1) % len(v)] - v[index]
    b = v[(index + 1) % len(v)] - v[index]
    return _angle_between(a / np.linalg.norm(a), b / np.linalg.norm(b))


def convex_hull_cone(P: Polytope, Q: Polytope, x_c) -> PolyCone:
    """Polyhedral cone at x_c generated by the convex hull of P union Q,
    read off the hull's adjacency: the generators point from x_c to the
    hull vertices beside it (2D) or sharing a facet with it (3D).  Every
    other point of P and Q lies in the cone these span.

    scipy.spatial is imported here, on first call, so that building
    polytopes and solving on them does not load it."""
    from scipy.spatial import ConvexHull

    x_c = np.asarray(x_c, dtype=float)
    pts = np.vstack([P.vertices, Q.vertices])
    hull = ConvexHull(pts)
    dist = np.linalg.norm(pts[hull.vertices] - x_c, axis=1)
    j = int(np.argmin(dist))
    if dist[j] >= 1e-9:
        raise GeometryError("x_c is not a vertex of the convex hull of P and Q")
    if P.dim == 2:
        # qhull lists a 2D hull's vertices counterclockwise
        nbrs = hull.vertices[[j - 1, (j + 1) % len(hull.vertices)]]
    else:
        # scipy runs qhull with Qt, so every facet is a triangle
        v = hull.vertices[j]
        faces = hull.simplices[np.any(hull.simplices == v, axis=1)]
        nbrs = np.setdiff1d(faces, v)
    return PolyCone(x_c, pts[nbrs] - x_c, "polyhedral")


# ---------------------------------------------------------------------------
# Minimal enclosing spherical cone (3D)
# ---------------------------------------------------------------------------

def minimal_enclosing_cone(directions: np.ndarray):
    """Axis and half-angle of the smallest spherical cone containing the
    given unit directions.  Uses the minimal enclosing ball of the direction
    points (Welzl); valid whenever the result has half-angle < pi/2."""
    pts = np.asarray(directions, dtype=float)
    center, _ = _welzl_ball(pts)
    nc = np.linalg.norm(center)
    if nc < ANGLE_TOL:
        raise GeometryError("directions span too wide a fan for a proper cone")
    axis = center / nc
    cosines = np.clip(pts @ axis, -1.0, 1.0)
    half = float(np.arccos(np.min(cosines)))
    return axis, half


def _welzl_ball(points: np.ndarray):
    """Minimal enclosing ball (center, radius) by Welzl's algorithm."""
    rng = np.random.default_rng(0)
    pts = [np.asarray(p, dtype=float) for p in points]
    order = rng.permutation(len(pts))
    return _welzl([pts[i] for i in order], [])


def _welzl(pts, boundary):
    if not pts or (boundary and len(boundary) == boundary[0].size + 1):
        return _ball_from_boundary(boundary)
    p = pts[-1]
    c, r = _welzl(pts[:-1], boundary)
    if np.linalg.norm(p - c) <= r * (1 + 1e-12) + 1e-14:
        return c, r
    return _welzl(pts[:-1], boundary + [p])


def _ball_from_boundary(boundary):
    if not boundary:
        return np.zeros(3), 0.0
    if len(boundary) == 1:
        return boundary[0].copy(), 0.0
    a = boundary[0]
    A = 2.0 * np.array([q - a for q in boundary[1:]])
    b = np.array([np.dot(q - a, q - a) for q in boundary[1:]])
    # Solve for the offset from a: the min-norm solution then lies in the
    # span of the q - a, i.e. the center in the affine span of the points.
    y, *_ = np.linalg.lstsq(A, b, rcond=None)
    c = a + y
    r = max(np.linalg.norm(p - c) for p in boundary)
    return c, float(r)


# ---------------------------------------------------------------------------
# Enclosing-angle checks at the farthest vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QAngleReport:
    vertex_ok: bool
    angle_actual: float
    degenerate: bool = False
    detail: str = ""


def check_q_angle(P: Polytope, Q: Polytope) -> QAngleReport:
    """Check the enclosing-cone angle at the vertex of P realizing the
    Hausdorff distance: in 2D the hull angle there is at most (alpha+pi)/2
    with alpha the angle of P at the vertex; in 3D the hull fits in a
    spherical cone of half-angle < pi/2.

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
        return QAngleReport(True, alpha, degenerate=True,
                            detail="zero Hausdorff distance")
    try:
        cone = convex_hull_cone(P, Q, P.vertices[index])
    except GeometryError as exc:
        return QAngleReport(False, np.nan, detail=str(exc))
    if P.dim == 2:
        alpha = polygon_vertex_angle(P, index)
        bound = (alpha + np.pi) / 2
        actual = cone.opening_angle()
        degenerate = abs(actual - bound) <= ANGLE_TOL
        return QAngleReport(actual <= bound + ANGLE_TOL, actual,
                            degenerate=degenerate)
    _, half = minimal_enclosing_cone(cone.generators)
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
        d = _segment_distance(v[:, None, :], v, np.roll(v, -1, axis=0))
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
