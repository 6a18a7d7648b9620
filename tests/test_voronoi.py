import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcline.clipping import _inside, _inside_rational
from arcline.delaunay import INFINITE, build_closest, build_farthest
from arcline.predicates import dist_sq, orientation, to_float
from arcline.quadedge import sym
from arcline.voronoi import ClipConfig, RationalPoint, voronoi_from_delaunay

from oracles import circumcenter, circumcircle, triangles, vertex_triangles


def test_clip_radius_formula():
    clip = ClipConfig(math.radians(0.1), 1.0)
    assert abs(clip.clip_radius - 1146) < 1  # R = r / sin(alpha/2)


def test_two_sites_single_bisector_line():
    m = build_closest([(0, 0), (4, 0)])
    d = voronoi_from_delaunay(m)
    assert len(d.edges) == 1
    e = d.edges[0]
    assert not e.is_segment and e.double
    assert e.p0.exact == (2, 0)


def test_dual_vertices_are_circumcenters():
    random.seed(20)
    for _ in range(30):
        pts = list({(random.randint(0, 60), random.randint(0, 60)) for _ in range(25)})
        m = build_closest(pts)
        d = voronoi_from_delaunay(m)
        assert len(d.vertices) == len(triangles(m))
        for v, tri in zip(d.vertices, vertex_triangles(m)):
            c = circumcircle(*(pts[i] for i in tri))
            assert v.exact == c.center


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
                p0 = e.p0.exact
                q = (p0[0] + t * e.direction[0], p0[1] + t * e.direction[1])
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


def _dual_edges(mesh):
    """The Voronoi edges of the mesh rebuilt from its face cycles, as
    (site_a, site_b, p0, p1, direction, double) in `primal_edges` order:
    a segment between the circumcentres of two finite triangles, a full
    line along the perpendicular through the midpoint when neither side is
    one, and otherwise a ray from the one circumcentre, pointing away from
    the triangle's third vertex (towards it for the farthest kind), decided
    on the rational midpoint."""
    store, pts = mesh.store, mesh.points

    def triangle(e):
        vs = tuple(store.org[c] for c in store.face_cycle(e))
        return vs if len(vs) == 3 and INFINITE not in vs else None

    def centre(tri):
        return circumcircle(*(pts[i] for i in tri)).center

    out = []
    for e in store.primal_edges():
        a, b = store.org[e], store.dest(e)
        if INFINITE in (a, b):
            continue
        left, right = triangle(e), triangle(sym(e))
        if left and right:
            out.append((a, b, centre(left), centre(right), None, False))
            continue
        pa, pb = pts[a], pts[b]
        mid = (Fraction(pa[0] + pb[0], 2), Fraction(pa[1] + pb[1], 2))
        perp = (-(pb[1] - pa[1]), pb[0] - pa[0])
        if left is None and right is None:
            out.append((a, b, mid, None, perp, True))
            continue
        tri = left or right
        ap = pts[next(v for v in tri if v not in (a, b))]
        side = perp[0] * (ap[0] - mid[0]) + perp[1] * (ap[1] - mid[1])
        outward = perp if side < 0 else (-perp[0], -perp[1])
        if mesh.kind == "farthest":
            outward = (-outward[0], -outward[1])
        out.append((a, b, centre(tri), None, outward, False))
    return out


def _collinear_chain(n):
    return [(2 + 3 * i, -1 + 2 * i) for i in range(n)]


def _dual_cases():
    """Random small integer sets, a 4x4 grid (every unit square
    cocircular), the lattice points of two circles, and collinear chains
    of 3-6 sites."""
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(1, 30)
        yield list({(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(n)})
    yield [(x, y) for x in range(4) for y in range(4)]
    for r_sq, (cx, cy) in ((25, (0, 0)), (65, (3, -2))):
        r = math.isqrt(r_sq)
        yield [(cx + x, cy + y) for x in range(-r, r + 1) for y in range(-r, r + 1)
               if x * x + y * y == r_sq]
    for n in range(3, 7):
        yield _collinear_chain(n)


@pytest.mark.parametrize("build", [build_closest, build_farthest])
def test_edges_match_the_dual_of_the_triangles(build):
    for pts in _dual_cases():
        mesh = build(pts)
        d = voronoi_from_delaunay(mesh)
        assert [v.exact for v in d.vertices] == [circumcircle(*(pts[i] for i in tri)).center
                                                 for tri in vertex_triangles(mesh)]
        got = [(e.site_a, e.site_b, e.p0.exact, e.p1 and e.p1.exact, e.direction, e.double)
               for e in d.edges]
        assert got == _dual_edges(mesh)
        if len(pts) >= 3 and pts == _collinear_chain(len(pts)):
            assert d.vertices == [] and got
            for a, b, p0, p1, _, double in got:
                assert double and p1 is None
                assert p0 == (Fraction(pts[a][0] + pts[b][0], 2),
                              Fraction(pts[a][1] + pts[b][1], 2))


# -- the vertices as integer circumcentres ----------------------------------

_SCALES = (1, 2 ** 53 + 1, 10 ** 200)  # small, past 2^53, past the float range
_small = st.integers(-60, 60)


@st.composite
def _triangles(draw):
    """Three non-collinear integer points: small points times a scale plus
    small offsets.  Collinear small points make nearly collinear
    triangles, whose circumcentres lie far out, past the float range at
    the largest scale."""
    s = draw(st.sampled_from(_SCALES))
    pts = [(draw(_small) * s + draw(st.integers(-3, 3)), draw(_small) * s + draw(st.integers(-3, 3)))
           for _ in range(3)]
    assume(orientation(*pts) != 0)
    return pts


def _same_float(a: float, b: float) -> bool:
    return a.hex() == b.hex()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_triangles())
def test_vertex_floats_are_the_rounded_exact_circumcentre(tri):
    (v,) = voronoi_from_delaunay(build_closest(tri)).vertices
    assert v.d > 0
    assert v.exact == circumcenter(*tri)
    assert v.exact is v.exact  # built once
    assert _same_float(v.fx, to_float(v.exact[0])) and _same_float(v.fy, to_float(v.exact[1]))


def test_vertex_floats_past_the_float_range():
    # a flat triangle at 10^200: its circumcentre is about 10^400 out
    tri = [(0, 0), (10 ** 200, 1), (2 * 10 ** 200, 0)]
    for pts in (tri, [(-x, -y) for x, y in tri]):
        (v,) = voronoi_from_delaunay(build_closest(pts)).vertices
        assert v.exact == circumcenter(*pts)
        assert abs(v.fy) == math.inf and v.fy == to_float(v.exact[1])
        assert _same_float(v.fx, to_float(v.exact[0]))
    for x, y, d in ((10 ** 400, -(10 ** 400), 3), (1, -1, 10 ** 400), (0, -(10 ** 320), 7)):
        p = RationalPoint(x, y, d)
        assert _same_float(p.fx, to_float(Fraction(x, d))) and _same_float(p.fy, to_float(Fraction(y, d)))


@st.composite
def _centred_triangles(draw):
    """A right triangle inscribed in a circle about an integer centre, so
    that its circumcentre is that centre, and half sides h equal to |x| or
    |y| of it or next to them."""
    s = draw(st.sampled_from(_SCALES))
    cx, cy = draw(_small) * s + draw(st.integers(-3, 3)), draw(_small) * s + draw(st.integers(-3, 3))
    r = draw(st.integers(1, 40))
    tri = [(cx + r, cy), (cx - r, cy), (cx, cy + r)]
    h = abs(draw(st.sampled_from((cx, cy)))) + draw(st.sampled_from((0, 0, -1, 1)))
    return tri, max(h, 0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_centred_triangles())
def test_vertex_in_square_equals_exact_inside(case):
    tri, h = case
    (v,) = voronoi_from_delaunay(build_closest(tri)).vertices
    assert v.exact == ((tri[0][0] + tri[1][0]) // 2, tri[0][1])
    fh = to_float(h)
    assert _inside_rational(v, h, fh) == _inside(v.exact, h, fh)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_triangles(), st.sampled_from(_SCALES), st.integers(-2, 2))
def test_vertex_in_square_equals_exact_inside_near_its_coordinates(tri, scale, delta):
    # h around the largest coordinate of the circumcentre, rounded both ways
    (v,) = voronoi_from_delaunay(build_closest(tri)).vertices
    x, y = v.exact
    m = max(abs(x), abs(y))
    for h in {math.floor(m), math.ceil(m), max(0, math.floor(m) + delta), scale}:
        fh = to_float(h)
        assert _inside_rational(v, h, fh) == _inside(v.exact, h, fh), h
