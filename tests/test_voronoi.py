import math
import random
from fractions import Fraction

from arcline.delaunay import build_closest, build_farthest
from arcline.predicates import dist_sq
from arcline.voronoi import ClipConfig, voronoi_from_delaunay

from oracles import circumcircle, triangles, vertex_triangles


def test_clip_radius_formula():
    clip = ClipConfig(math.radians(0.1), 1.0)
    assert abs(clip.clip_radius - 1146) < 1  # R = r / sin(alpha/2)


def test_two_sites_single_bisector_line():
    m = build_closest([(0, 0), (4, 0)])
    d = voronoi_from_delaunay(m)
    assert len(d.edges) == 1
    e = d.edges[0]
    assert not e.is_segment and e.double
    assert e.p0 == (2, 0)


def test_dual_vertices_are_circumcenters():
    random.seed(20)
    for _ in range(30):
        pts = list({(random.randint(0, 60), random.randint(0, 60)) for _ in range(25)})
        m = build_closest(pts)
        d = voronoi_from_delaunay(m)
        assert len(d.vertices) == len(triangles(m))
        for v, tri in zip(d.vertices, vertex_triangles(m)):
            c = circumcircle(*(pts[i] for i in tri))
            assert v == c.center


def test_farthest_cells_hull_sites_only():
    pts = [(0, 0), (10, 0), (10, 10), (0, 10), (5, 5)]
    mesh = build_farthest(pts)
    d = voronoi_from_delaunay(mesh)
    assert 4 not in mesh.site_indices
    assert set(mesh.site_indices) == {0, 1, 2, 3}
    assert {s for e in d.edges for s in (e.site_a, e.site_b)} == {0, 1, 2, 3}


def test_ray_directions_point_into_the_correct_cells():
    # walk a little along each infinite edge: the two owning sites stay
    # equidistant and remain extreme (nearest or farthest) among all sites
    random.seed(21)
    for kind in ("closest", "farthest"):
        for _ in range(15):
            pts = list({(random.randint(0, 40), random.randint(0, 40)) for _ in range(12)})
            if len(pts) < 4:
                continue
            mesh = build_closest(pts) if kind == "closest" else build_farthest(pts)
            diag = voronoi_from_delaunay(mesh)
            for e in diag.edges:
                if e.is_segment or e.double:
                    continue
                t = Fraction(10 ** 6)
                q = (e.p0[0] + t * e.direction[0], e.p0[1] + t * e.direction[1])
                da = dist_sq(q, pts[e.site_a])
                db = dist_sq(q, pts[e.site_b])
                assert da == db
                others = [dist_sq(q, pts[s]) for s in mesh.site_indices if s not in (e.site_a, e.site_b)]
                if not others:
                    continue
                if kind == "closest":
                    assert all(da <= o for o in others)
                else:
                    assert all(da >= o for o in others)
