import math
import random
from fractions import Fraction

import pytest

from arcline import delaunay
from arcline.delaunay import (INFINITE, build_closest, build_convex_ordered,
                              build_farthest, convex_hull_indices)
from arcline.predicates import circumcircle, dist_sq, incircle, invert_point
from arcline.quadedge import sym


def check_structure(mesh):
    """Edge-count law and all faces triangular once the infinite point is in."""
    n = mesh.n_sites
    expect = 1 if n == 1 else 3 * (n - 1)
    assert mesh.edge_count() == expect
    store = mesh.store
    seen = set()
    for e in store.primal_edges():
        for d in (e, sym(e)):
            if d in seen:
                continue
            cyc = store.face_cycle(d)
            seen.update(cyc)
            if n > 1:
                assert len(cyc) == 3


def check_circle_property(mesh):
    pts = mesh.points
    sign = 1 if mesh.kind == "closest" else -1
    for t in mesh.triangles():
        for d in mesh.site_indices:
            if d in t:
                continue
            assert sign * incircle(pts[t[0]], pts[t[1]], pts[t[2]], pts[d]) <= 0


def test_three_points_edge_count():
    m = build_closest([(0, 0), (4, 0), (2, 3)])
    assert m.edge_count() == 6
    assert len(m.triangles()) == 1


def test_collinear_chain_edge_count():
    m = build_closest([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    assert m.edge_count() == 12  # 3 * (5 - 1)
    assert m.triangles() == []
    finite = m.finite_edges()
    assert len(finite) == 4
    ghosts = sum(1 for a, b in m.edges() if INFINITE in (a, b))
    assert ghosts == 8


def test_single_point():
    m = build_closest([(7, 7)])
    assert m.edge_count() == 1


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        build_closest([(0, 0), (0, 0), (1, 1)])
    with pytest.raises(ValueError):
        build_closest([])


def test_empty_circle_random():
    random.seed(10)
    delaunay.DEBUG_CHECK_SELECTION = True
    try:
        for _ in range(60):
            n = random.randint(2, 80)
            pts = list({(random.randint(0, 50), random.randint(0, 50)) for _ in range(n)})
            m = build_closest(pts)
            check_structure(m)
            check_circle_property(m)
    finally:
        delaunay.DEBUG_CHECK_SELECTION = False


def test_full_circle_random_farthest():
    random.seed(11)
    for _ in range(60):
        n = random.randint(1, 60)
        pts = list({(random.randint(0, 60), random.randint(0, 60)) for _ in range(n)})
        m = build_farthest(pts)
        check_structure(m)
        check_circle_property(m)


def test_farthest_excludes_interior():
    pts = [(0, 0), (10, 0), (10, 10), (0, 10), (5, 5)]
    m = build_farthest(pts)
    assert m.n_sites == 4
    assert 4 not in m.site_indices


def test_cocircular_square():
    m = build_closest([(0, 0), (2, 0), (2, 2), (0, 2)])
    check_structure(m)
    assert m.cocircular_ties >= 1
    assert len(m.triangles()) == 2
    mf = build_farthest([(0, 0), (2, 0), (2, 2), (0, 2)])
    check_structure(mf)
    for t in mf.triangles():
        c = circumcircle(*(mf.points[i] for i in t))
        for d in mf.site_indices:
            assert dist_sq(c.center, mf.points[d]) <= c.radius_sq


def test_hull_neighbors_separated_by_infinite_edges():
    random.seed(12)
    pts = list({(random.randint(0, 40), random.randint(0, 40)) for _ in range(30)})
    m = build_closest(pts)
    hull = set(m.hull)
    for a, b in m.edges():
        if b == INFINITE:
            assert a in hull


def test_convex_ordered_matches_general():
    random.seed(13)
    for trial in range(40):
        pts = list({(random.randint(-500, 500), random.randint(-500, 500)) for _ in range(40)})
        hull_idx = convex_hull_indices(pts)
        if len(hull_idx) < 3:
            continue
        hull_pts = [pts[i] for i in hull_idx]
        if trial % 2:
            hull_pts.reverse()  # clockwise input is normalized internally
        for kind, builder in (("closest", build_closest), ("farthest", build_farthest)):
            mo = build_convex_ordered(hull_pts, kind)
            check_structure(mo)
            check_circle_property(mo)
            mg = builder(hull_pts)
            if mo.cocircular_ties == 0 and mg.cocircular_ties == 0:
                assert mo.triangle_set() == mg.triangle_set()
            else:
                def circles(m):
                    return sorted(
                        (circumcircle(*(m.points[i] for i in t)).center,
                         circumcircle(*(m.points[i] for i in t)).radius_sq)
                        for t in m.triangles())
                assert circles(mo) == circles(mg)


def test_convex_ordered_rejects_non_convex():
    with pytest.raises(ValueError):
        build_convex_ordered([(0, 0), (10, 0), (2, 1), (0, 10)])
    with pytest.raises(ValueError):
        build_convex_ordered([(0, 0), (1, 0), (2, 0)])


def test_merge_collinear_submeshes():
    # the top-level split puts (0,0), (1,0) left of (2,0), (5,0), (6,0)
    m = build_closest([(0, 0), (1, 0), (2, 0), (5, 0), (6, 0)])
    check_structure(m)
    assert m.triangles() == []
    assert len(m.finite_edges()) == 4


def test_merge_random():
    # two random clusters separated by a gap in x, unlike the uniform draws above
    random.seed(14)
    for _ in range(40):
        nl = random.randint(1, 14)
        nr = random.randint(1, 14)
        lp = list({(random.randint(0, 20), random.randint(0, 40)) for _ in range(nl)})
        rp = list({(random.randint(30, 50), random.randint(0, 40)) for _ in range(nr)})
        m = build_closest(lp + rp)
        check_structure(m)
        check_circle_property(m)


def test_merge_case_b_candidate_rejected_by_sign():
    # Fig-1-case-b style: the left half has an edge whose far endpoint sits
    # below the merge base; the determinant-only candidate rule must leave
    # it in place and the merge must still satisfy the empty-circle check.
    # The top-level split falls between the two halves.
    left = [(-6, 0), (-4, -6), (-2, -1)]
    right = [(2, -1), (4, -6), (6, 0)]
    m = build_closest(left + right)
    check_structure(m)
    check_circle_property(m)
    finite = {tuple(sorted((m.points[a], m.points[b]))) for a, b in m.finite_edges()}
    assert tuple(sorted(((-6, 0), (-4, -6)))) in finite


def test_farthest_duality_via_inversion():
    # farthest triangles = inverted-space closest triangles whose
    # circumcircles strictly contain the inversion center
    random.seed(15)
    done = 0
    while done < 25:
        pts = list({(random.randint(-400, 400), random.randint(-400, 400)) for _ in range(24)})
        hull_idx = convex_hull_indices(pts)
        if len(hull_idx) < 4:
            continue
        hull_pts = [pts[i] for i in hull_idx]
        ox = sum(p[0] for p in hull_pts) // len(hull_pts)
        oy = sum(p[1] for p in hull_pts) // len(hull_pts)
        o = (ox, oy)
        if o in hull_pts:
            o = (ox + 1, oy)
            if o in hull_pts:
                continue
        mf = build_farthest(hull_pts)
        inv = [invert_point(p, o) for p in hull_pts]
        try:
            mc = build_closest(inv)
        except ValueError:
            continue
        of = (Fraction(o[0]), Fraction(o[1]))
        kept = set()
        for t in mc.triangles():
            if incircle(inv[t[0]], inv[t[1]], inv[t[2]], of) > 0:
                kept.add(tuple(sorted(t)))
        if mf.cocircular_ties or mc.cocircular_ties:
            continue  # tie choices may legitimately differ
        assert mf.triangle_set() == kept
        done += 1


def test_rational_coordinates_supported():
    pts = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3)),
           (Fraction(-1, 2), Fraction(0)), (Fraction(1, 5), Fraction(1, 7))]
    m = build_closest(pts)
    check_structure(m)
