"""Voronoi diagrams extracted as duals of Delaunay meshes.

Vertices are exact rational circumcenters.  Edges dual to hull edges are
rays (a vertex and an integer direction); when the mesh is a collinear
chain every dual edge is a full line, carried as a base point plus a
direction with the ``double`` flag set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .delaunay import INFINITE, TriangulationMesh
from .predicates import circumcircle
from .quadedge import sym

RPoint = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ClipConfig:
    """Clipping setup: arcs below min_arc_angle never matter, so the diagram
    can be cut at radius data_radius / sin(alpha / 2)."""

    min_arc_angle: float  # radians
    data_radius: float  # same units as the coordinates

    def __post_init__(self):
        if not 0 < self.min_arc_angle < 2 * math.pi:
            raise ValueError("min_arc_angle out of range")

    @property
    def clip_radius(self) -> float:
        return self.data_radius / math.sin(self.min_arc_angle / 2)


@dataclass
class VoronoiEdge:
    site_a: int
    site_b: int
    p0: Optional[RPoint]  # segment start, or ray/line base point
    p1: Optional[RPoint]  # segment end; None for rays and lines
    direction: Optional[Tuple[int, int]] = None  # ray direction
    double: bool = False  # full line (both directions from p0)

    @property
    def is_segment(self) -> bool:
        return self.p1 is not None


@dataclass
class VoronoiDiagram:
    kind: str
    sites: List[int]
    vertices: List[RPoint]
    vertex_triangles: List[Tuple[int, int, int]]
    edges: List[VoronoiEdge]
    cells: Dict[int, List[int]] = field(default_factory=dict)


def voronoi_from_delaunay(mesh: TriangulationMesh) -> VoronoiDiagram:
    store = mesh.store
    pts = mesh.points

    face_center: Dict[int, int] = {}  # canonical face edge -> vertex index
    vertices: List[RPoint] = []
    vertex_tris: List[Tuple[int, int, int]] = []

    def face_of(e: int):
        cyc = store.face_cycle(e)
        vs = [store.org[c] for c in cyc]
        if len(vs) != 3 or INFINITE in vs:
            return None, None
        return min(cyc), tuple(vs)

    def center_index(e: int) -> Optional[int]:
        key, vs = face_of(e)
        if key is None:
            return None
        if key not in face_center:
            c = circumcircle(pts[vs[0]], pts[vs[1]], pts[vs[2]])
            face_center[key] = len(vertices)
            vertices.append(c.center)
            vertex_tris.append(vs)
        return face_center[key]

    edges: List[VoronoiEdge] = []
    toward_apex = mesh.kind == "farthest"
    for e in store.primal_edges():
        a, b = store.org[e], store.dest(e)
        if a == INFINITE or b == INFINITE:
            continue
        li = center_index(e)
        ri = center_index(sym(e))
        pa, pb = pts[a], pts[b]
        if li is not None and ri is not None:
            edges.append(VoronoiEdge(a, b, vertices[li], vertices[ri]))
            continue
        mid = (Fraction(pa[0] + pb[0], 2), Fraction(pa[1] + pb[1], 2))
        perp = (-(pb[1] - pa[1]), pb[0] - pa[0])
        if li is None and ri is None:
            edges.append(VoronoiEdge(a, b, mid, None, perp, double=True))
            continue
        ci = li if li is not None else ri
        # third vertex of the one finite triangle fixes the ray direction
        tri = vertex_tris[ci]
        apex = next(v for v in tri if v != a and v != b)
        ap = pts[apex]
        side = perp[0] * (ap[0] - mid[0]) + perp[1] * (ap[1] - mid[1])
        outward = perp if side < 0 else (-perp[0], -perp[1])
        if toward_apex:
            outward = (-outward[0], -outward[1])
        edges.append(VoronoiEdge(a, b, vertices[ci], None, outward))

    cells: Dict[int, List[int]] = {s: [] for s in mesh.site_indices}
    for i, ve in enumerate(edges):
        cells[ve.site_a].append(i)
        cells[ve.site_b].append(i)

    return VoronoiDiagram(
        kind=mesh.kind,
        sites=list(mesh.site_indices),
        vertices=vertices,
        vertex_triangles=vertex_tris,
        edges=edges,
        cells=cells,
    )
