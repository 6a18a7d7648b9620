"""Voronoi diagrams extracted as duals of Delaunay meshes of integer points.

Vertices are the circumcentres of the finite triangles, each kept as
integer numerators over a positive integer denominator with its correctly
rounded floats (`RationalPoint`); the exact Fraction pair is built only
when an exact step reads it.  Edges dual to hull edges are rays (a vertex
and an integer direction); when the mesh is a collinear chain every dual
edge is a full line, carried as a base point (the edge's midpoint, also a
`RationalPoint`) plus a direction with the ``double`` flag set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .delaunay import INFINITE, TriangulationMesh

RPoint = Tuple[Fraction, Fraction]


class RationalPoint:
    """The point (x / d, y / d) of integers x, y and d > 0.

    fx and fy are x / d and y / d rounded to the nearest float, +-inf past
    the float range: integer true division rounds correctly, so they equal
    `predicates.to_float` of the exact coordinates.  `exact` is the pair of
    Fractions, built on first use and kept."""

    __slots__ = ("x", "y", "d", "fx", "fy", "_exact")

    def __init__(self, x: int, y: int, d: int):
        self.x, self.y, self.d = x, y, d
        try:
            self.fx = x / d
        except OverflowError:
            self.fx = math.inf if x > 0 else -math.inf
        try:
            self.fy = y / d
        except OverflowError:
            self.fy = math.inf if y > 0 else -math.inf
        self._exact = None

    @property
    def exact(self) -> RPoint:
        if self._exact is None:
            self._exact = (Fraction(self.x, self.d), Fraction(self.y, self.d))
        return self._exact


@dataclass(frozen=True)
class ClipConfig:
    """Clipping setup of `min_width_annulus`: centres of arcs below
    min_arc_angle are left out, so the diagram can be cut at radius
    data_radius / sin(alpha / 2)."""

    min_arc_angle: float  # radians
    data_radius: float  # same units as the coordinates

    def __post_init__(self):
        if not 0 < self.min_arc_angle < 2 * math.pi:
            raise ValueError("min_arc_angle out of range")
        if not math.isfinite(self.clip_radius):
            raise ValueError("clip radius not finite: min_arc_angle too small")

    @property
    def clip_radius(self) -> float:
        s = math.sin(self.min_arc_angle / 2)
        return self.data_radius / s if s else math.inf


def data_radius(points) -> float:
    """The `ClipConfig.data_radius` of a point set: half the diagonal of its
    bounding box, plus one."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1


@dataclass
class VoronoiEdge:
    site_a: int
    site_b: int
    p0: RationalPoint  # segment start, or ray/line base point
    p1: Optional[RationalPoint]  # segment end; None for rays and lines
    direction: Optional[Tuple[int, int]] = None  # ray direction
    double: bool = False  # full line (both directions from p0)

    @property
    def is_segment(self) -> bool:
        return self.p1 is not None


@dataclass
class VoronoiDiagram:
    kind: str
    vertices: List[RationalPoint]
    edges: List[VoronoiEdge]


def voronoi_from_delaunay(mesh: TriangulationMesh) -> VoronoiDiagram:
    """The Voronoi diagram dual to a closest or farthest Delaunay mesh of
    integer points.

    Each face of the mesh is walked once, the first time a finite primal
    edge meets it, and every edge of its cycle records the face's vertex
    index, or None for a face that is not a finite triangle.  Vertices are
    the circumcentres of the finite triangles, in the order they are first
    met: primal edges in `primal_edges` order, the left face of each
    before its right face (`tests/oracles.vertex_triangles` mirrors that
    order).  The circumcentre of (a, b, c) is a + (ux, uy) / d with
    d = 2 (b - a) x (c - a), ux = (cy - ay)|b - a|^2 - (by - ay)|c - a|^2
    and uy = (bx - ax)|c - a|^2 - (cx - ax)|b - a|^2, all integers, and is
    kept as such (`RationalPoint`), its sign moved to the numerators when
    d < 0.  An edge between two triangles becomes a segment, one with no
    triangle on either side (a collinear chain) a full line through the
    edge's midpoint, and any other a ray from its one circumcentre.  The
    ray runs along the edge's perpendicular perp = (ay - by, bx - ax),
    away from the third vertex c of the triangle (towards it on a farthest
    mesh).  Which way that is, is the sign of perp . (2c - a - b), twice
    perp . (c - midpoint), taken in the points' integers.
    """
    store = mesh.store
    org = store.org
    pts = mesh.points
    unseen = -1
    face_vertex: List[Optional[int]] = [unseen] * len(org)  # edge -> left face's vertex
    vertices: List[RationalPoint] = []
    vertex_tris: List[Tuple[int, int, int]] = []
    edges: List[VoronoiEdge] = []
    toward_apex = mesh.kind == "farthest"
    for e in store.primal_edges():
        a, b = org[e], org[e ^ 2]
        if a == INFINITE or b == INFINITE:
            continue
        for d in (e, e ^ 2):
            if face_vertex[d] == unseen:
                cyc = store.face_cycle(d)
                vi = None
                if len(cyc) == 3:
                    tri = (org[cyc[0]], org[cyc[1]], org[cyc[2]])
                    if INFINITE not in tri:
                        vi = len(vertices)
                        (ax, ay), (bx, by), (cx, cy) = pts[tri[0]], pts[tri[1]], pts[tri[2]]
                        bx -= ax
                        by -= ay
                        cx -= ax
                        cy -= ay
                        bn = bx * bx + by * by
                        cn = cx * cx + cy * cy
                        den = 2 * (bx * cy - by * cx)
                        ux = cy * bn - by * cn + ax * den
                        uy = bx * cn - cx * bn + ay * den
                        vertices.append(RationalPoint(ux, uy, den) if den > 0
                                        else RationalPoint(-ux, -uy, -den))
                        vertex_tris.append(tri)
                for c in cyc:
                    face_vertex[c] = vi
        li, ri = face_vertex[e], face_vertex[e ^ 2]
        if li is not None and ri is not None:
            edges.append(VoronoiEdge(a, b, vertices[li], vertices[ri]))
            continue
        pa, pb = pts[a], pts[b]
        perp = (pa[1] - pb[1], pb[0] - pa[0])
        if li is None and ri is None:
            mid = RationalPoint(pa[0] + pb[0], pa[1] + pb[1], 2)
            edges.append(VoronoiEdge(a, b, mid, None, perp, double=True))
            continue
        ci = li if li is not None else ri
        ap = pts[next(v for v in vertex_tris[ci] if v != a and v != b)]
        side2 = perp[0] * (2 * ap[0] - pa[0] - pb[0]) + perp[1] * (2 * ap[1] - pa[1] - pb[1])
        outward = perp if (side2 < 0) != toward_apex else (-perp[0], -perp[1])
        edges.append(VoronoiEdge(a, b, vertices[ci], None, outward))

    return VoronoiDiagram(kind=mesh.kind, vertices=vertices, edges=edges)
