"""Convex polytopes, cones and the geometric machinery of shape comparison.

Supports two families of scatterer supports: convex polygons in 2D and
rectangular cuboids in 3D.  Provides exact Hausdorff distances (convexity
makes vertex/edge projections sufficient), cones generated by convex hulls
at a vertex, the enclosing-angle checks used by the stability arguments,
and a fan-triangulation surrogate for the half-space multiplier cost of a
polytope.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull


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
    """

    dim: int
    vertices: np.ndarray  # (m, dim)
    kind: str             # "convex-polygon" | "cuboid"

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
            _check_cuboid(v)
        else:
            raise GeometryError(f"dimension must be 2 or 3, got {self.dim}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def contained_in_ball(self, radius: float, center=None) -> bool:
        c = np.zeros(self.dim) if center is None else np.asarray(center)
        return bool(np.all(np.linalg.norm(self.vertices - c, axis=1) <= radius))

    def contains(self, x, tol: float = 1e-12) -> bool:
        """Closed-set membership test."""
        return bool(polytope_mask(self, x, tol))

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
    center, axes, half = _cuboid_frame(P.vertices)
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


def _check_cuboid(v: np.ndarray, tol: float = 1e-9):
    if v.shape != (8, 3):
        raise GeometryError("3D polytope must be a cuboid with 8 vertices")
    center, axes, half = _cuboid_frame(v, tol=tol)
    # Round-trip: every vertex maps to a (+-hx, +-hy, +-hz) corner.
    y = (v - center) @ axes.T
    expected = np.abs(y) - half
    if np.max(np.abs(expected)) > tol * (1 + np.max(half)):
        raise GeometryError("vertices do not form a rectangular box")
    signs = {tuple(np.sign(row).astype(int)) for row in y}
    if len(signs) != 8:
        raise GeometryError("vertices do not cover all 8 box corners")


def _cuboid_frame(v: np.ndarray, tol: float = 1e-9):
    """Recover (center, orthonormal axes rows, half_extents) of a box."""
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
    half = np.max(d @ axes.T, axis=0)
    return center, axes, half


# ---------------------------------------------------------------------------
# Point-to-set distances and the Hausdorff distance
# ---------------------------------------------------------------------------

def point_segment_distance(x, a, b) -> float:
    x, a, b = (np.asarray(p, dtype=float) for p in (x, a, b))
    ab = b - a
    t = np.clip(np.dot(x - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return float(np.linalg.norm(x - (a + t * ab)))


def point_polytope_distance(x, P: Polytope) -> float:
    """Euclidean distance from a point to the closed polytope."""
    x = np.asarray(x, dtype=float)
    if P.contains(x):
        return 0.0
    if P.dim == 2:
        v = P.vertices
        nxt = np.roll(v, -1, axis=0)
        return min(point_segment_distance(x, a, b) for a, b in zip(v, nxt))
    center, axes, half = _cuboid_frame(P.vertices)
    y = (x - center) @ axes.T
    outside = np.maximum(np.abs(y) - half, 0.0)
    return float(np.linalg.norm(outside))


def directed_hausdorff(P: Polytope, Q: Polytope) -> float:
    """sup_{x in P} d(x, Q).  Attained at a vertex of P by convexity of d(., Q)."""
    return max(point_polytope_distance(v, Q) for v in P.vertices)


def hausdorff_distance(P: Polytope, Q: Polytope) -> float:
    """Hausdorff distance max(sup_{x in P} d(x,Q), sup_{x' in Q} d(x',P))."""
    if P.dim != Q.dim:
        raise GeometryError("dimension mismatch")
    return max(directed_hausdorff(P, Q), directed_hausdorff(Q, P))


@dataclass(frozen=True)
class FarthestVertexResult:
    vertex: np.ndarray
    index: int
    distance: float
    realizes_hausdorff: bool  # True iff d(vertex, Q) == d_H(P, Q)


def farthest_vertex(P: Polytope, Q: Polytope) -> FarthestVertexResult:
    """Vertex of P farthest from Q; ties broken by lowest vertex index."""
    dists = np.array([point_polytope_distance(v, Q) for v in P.vertices])
    idx = int(np.argmax(dists))  # argmax returns first (= lowest-index) maximum
    d = float(dists[idx])
    return FarthestVertexResult(P.vertices[idx].copy(), idx, d,
                                realizes_hausdorff=d >= directed_hausdorff(Q, P) - 1e-14)


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyCone:
    """Cone with a vertex: either polyhedral (conic hull of generators) or
    spherical (axis = generators[0], given opening half-angle)."""

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
        object.__setattr__(self, "vertex", v)
        object.__setattr__(self, "generators", g)
        if self.kind not in ("polyhedral", "spherical"):
            raise GeometryError(f"unknown cone kind {self.kind!r}")
        if self.kind == "spherical" and not (0 < self.half_angle < np.pi):
            raise GeometryError("spherical cone needs half-angle in (0, pi)")
        if self.kind == "polyhedral" and len(g) == 2 and v.size == 2:
            span = _angle_between(g[0], g[1])
            if not (0 < span < np.pi):
                raise GeometryError("2D polyhedral cone must span an angle in (0, pi)")

    @property
    def dim(self) -> int:
        return self.vertex.size

    @property
    def axis(self) -> np.ndarray:
        if self.kind == "spherical":
            return self.generators[0]
        m = self.generators.sum(axis=0)
        return m / np.linalg.norm(m)

    def opening_angle(self) -> float:
        """Full opening angle (2D polyhedral) or 2x half-angle (spherical)."""
        if self.kind == "spherical":
            return 2.0 * self.half_angle
        if self.dim == 2:
            return _angle_between(self.generators[0], self.generators[1])
        raise GeometryError("opening angle of a 3D polyhedral cone is not scalar")


def _angle_between(a, b) -> float:
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return float(np.arccos(c))


def cone_membership(K: PolyCone, x, tol: float = 1e-10) -> bool:
    """Closed-cone membership.  The vertex itself belongs to the cone."""
    d = np.asarray(x, dtype=float) - K.vertex
    r = np.linalg.norm(d)
    if r <= tol:
        return True
    d = d / r
    if K.kind == "spherical":
        return bool(np.dot(d, K.generators[0]) >= np.cos(K.half_angle) - tol)
    if K.dim == 2:
        g0, g1 = K.generators
        return bool(_cross2(g0, d) >= -tol and _cross2(d, g1) >= -tol)
    # 3D conic hull: d = sum lambda_i g_i with lambda >= 0, via a small LP.
    g = K.generators
    res = linprog(c=np.zeros(len(g)), A_eq=g.T, b_eq=d,
                  bounds=[(0, None)] * len(g), method="highs")
    if res.status == 0:
        return True
    # Retry with slack for boundary points.
    res = linprog(c=np.zeros(len(g)), A_eq=g.T, b_eq=d,
                  bounds=[(0, None)] * len(g), method="highs",
                  options={"primal_feasibility_tolerance": max(tol, 1e-9)})
    return res.status == 0


def polygon_vertex_angle(P: Polytope, index: int) -> float:
    """Interior angle of a 2D polygon at the given vertex index."""
    v = P.vertices
    a = v[(index - 1) % len(v)] - v[index]
    b = v[(index + 1) % len(v)] - v[index]
    return _angle_between(a / np.linalg.norm(a), b / np.linalg.norm(b))


def convex_hull_cone(P: Polytope, Q: Polytope, x_c) -> PolyCone:
    """Polyhedral cone at x_c generated by the convex hull of P union Q."""
    x_c = np.asarray(x_c, dtype=float)
    pts = np.vstack([P.vertices, Q.vertices])
    hull = ConvexHull(pts)
    hull_pts = pts[hull.vertices]
    on_hull = np.min(np.linalg.norm(hull_pts - x_c, axis=1)) < 1e-9
    if not on_hull:
        raise GeometryError("x_c is not a vertex of the convex hull of P and Q")
    dirs = pts - x_c
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 1e-12] / norms[norms > 1e-12, None]
    if P.dim == 2:
        return _two_generator_cone(x_c, dirs)
    return PolyCone(x_c, dirs, "polyhedral")


def _two_generator_cone(x_c, dirs: np.ndarray) -> PolyCone:
    """Reduce a 2D direction fan to its two extreme generators."""
    mean = dirs.sum(axis=0)
    mean = mean / np.linalg.norm(mean)
    ang = np.arctan2(_cross2(mean, dirs), dirs @ mean)
    lo, hi = int(np.argmin(ang)), int(np.argmax(ang))
    spread = float(ang[hi] - ang[lo])
    if spread >= np.pi:
        raise GeometryError("direction fan spans a half-plane or more")
    return PolyCone(x_c, np.vstack([dirs[lo], dirs[hi]]), "polyhedral")


# ---------------------------------------------------------------------------
# Minimal enclosing spherical cone (3D)
# ---------------------------------------------------------------------------

def minimal_enclosing_cone(directions: np.ndarray, tol: float = 1e-9):
    """Axis and half-angle of the smallest spherical cone containing the
    given unit directions.  Uses the minimal enclosing ball of the direction
    points (Welzl); valid whenever the result has half-angle < pi/2."""
    pts = np.asarray(directions, dtype=float)
    center, _ = _welzl_ball(pts)
    nc = np.linalg.norm(center)
    if nc < tol:
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
    angle_bound: float
    angle_actual: float
    degenerate: bool = False
    detail: str = ""


def check_q_angle(P: Polytope, Q: Polytope, tol: float = 1e-9) -> QAngleReport:
    """Check the enclosing-cone angle at the vertex of P realizing the
    Hausdorff distance: in 2D the hull angle there is at most (alpha+pi)/2
    with alpha the angle of P at the vertex; in 3D the hull fits in a
    spherical cone of half-angle < pi/2.

    The roles of P and Q are swapped when the other polytope realizes
    the Hausdorff distance, so that d(x_c, Q) always equals it."""
    if directed_hausdorff(Q, P) > directed_hausdorff(P, Q):
        P, Q = Q, P
    fv = farthest_vertex(P, Q)
    x_c = fv.vertex
    if fv.distance <= tol:
        # Degenerate P' = P style case: the hull cone equals P's own cone.
        alpha = polygon_vertex_angle(P, fv.index) if P.dim == 2 else np.pi / 2
        return QAngleReport(True, (alpha + np.pi) / 2 if P.dim == 2 else np.pi / 2,
                            alpha, degenerate=True, detail="zero Hausdorff distance")
    try:
        cone = convex_hull_cone(P, Q, x_c)
    except GeometryError as exc:
        return QAngleReport(False, np.nan, np.nan, detail=str(exc))
    if P.dim == 2:
        alpha = polygon_vertex_angle(P, fv.index)
        bound = (alpha + np.pi) / 2
        actual = cone.opening_angle()
        degenerate = abs(actual - bound) <= tol
        return QAngleReport(actual <= bound + tol, bound, actual,
                            degenerate=degenerate)
    _, half = minimal_enclosing_cone(cone.generators, tol=tol)
    return QAngleReport(half < np.pi / 2, np.pi / 2, half)


# ---------------------------------------------------------------------------
# Admissibility and the triangulation-cost surrogate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    ell: float
    alpha_min: float
    alpha_max: float
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
        ell = np.inf
        for i in range(m):
            for j in range(m):
                # Edge j runs v[j] -> v[j+1]; skip the two edges adjacent to vertex i.
                if j == i or (j + 1) % m == i:
                    continue
                ell = min(ell, point_segment_distance(v[i], v[j], v[(j + 1) % m]))
        angles = np.array([polygon_vertex_angle(P, i) for i in range(m)])
        alpha_min = float(angles.min() / 2)
        alpha_max = float(angles.max() / 2)
        if angles.min() <= 0:
            violations.append("vanishing interior angle")
        if angles.max() >= np.pi:
            violations.append("interior angle >= pi")
        planes = m
    else:
        _, _, half = _cuboid_frame(P.vertices)
        ell = float(2 * np.min(half))  # vertex to opposite face pair
        alpha_min = alpha_max = np.pi / 4
        if np.min(half) <= 0:
            violations.append("degenerate cuboid extent")
        planes = 6
    ell = float(min(ell, 1.0))
    if R is not None and not P.contained_in_ball(R):
        violations.append(f"not contained in the ball of radius {R}")
    return AdmissibilityReport(ell, alpha_min, alpha_max, not violations,
                               tuple(violations), planes)


def triangulation_cost(P: Polytope, C: float) -> float:
    """Fan-triangulation upper bound for the half-space multiplier cost:
    J * C**(n+1) with J = n_vertices - 2 simplices, each an intersection of
    n+1 half-spaces.  Upper bound, not the infimum over triangulations."""
    if C < 1:
        raise GeometryError("multiplier constant must be >= 1")
    J = P.n_vertices - 2
    return float(J * C ** (P.dim + 1))
