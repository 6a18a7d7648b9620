import math
import random
from fractions import Fraction

import pytest

from arcline.delaunay import convex_hull_indices
from arcline.hulltree import HullTree, RangeHull
from arcline.predicates import dist_sq


def test_paper_cover_fixture():
    # N = 21, range [3, 17]: blocks {3}, {4..7}, {8..15}, {16, 17}
    t = HullTree([(i, (i * i) % 7) for i in range(21)])
    assert [(h.lo, h.hi) for h in t.query_cover(3, 17)] == [(3, 3), (4, 7), (8, 15), (16, 17)]


def test_cover_singleton_and_properties():
    random.seed(80)
    for _ in range(200):
        n = random.randint(1, 70)
        t = HullTree([(random.randint(0, 50), random.randint(0, 50)) for _ in range(n)])
        i = random.randint(0, n - 1)
        assert [(h.lo, h.hi) for h in t.query_cover(i, i)] == [(i, i)]
        j = random.randint(i, n - 1)
        cov = [(h.lo, h.hi) for h in t.query_cover(i, j)]
        assert cov[0][0] == i and cov[-1][1] == j
        for a, b in zip(cov, cov[1:]):
            assert a[1] + 1 == b[0]
        assert len(cov) <= 2 * math.ceil(math.log2(j - i + 2)) + 1


def test_stored_hulls_match_direct_hulls():
    random.seed(81)
    for _ in range(60):
        n = random.randint(1, 64)
        pts = [(random.randint(0, 30), random.randint(0, 30)) for _ in range(n)]
        t = HullTree(pts)
        q = 0
        while (1 << q) <= n:
            for k in range(n >> q):
                hull = t._block(q, k)
                rng = pts[hull.lo:hull.hi + 1]
                assert set(hull.vertices()) == {rng[i] for i in convex_hull_indices(rng)}
            q += 1


def test_extreme_matches_brute_force():
    random.seed(83)
    for _ in range(800):
        pts = sorted({(random.randint(-20, 20), random.randint(-20, 20))
                      for _ in range(random.randint(1, 40))})
        h = RangeHull(0, len(pts) - 1, list(pts))
        dx, dy = random.randint(-9, 9), random.randint(-9, 9)
        if dx == dy == 0:
            continue
        got = h.extreme(dx, dy)
        assert dx * got[0] + dy * got[1] == max(dx * p[0] + dy * p[1] for p in pts)


def brute_segment_check(pts, i, j, a, b, tol):
    t2 = Fraction(tol) ** 2
    if dist_sq(pts[i], a) > t2 or dist_sq(pts[j], b) > t2:
        return False
    dx, dy = b[0] - a[0], b[1] - a[1]
    len_sq = dx * dx + dy * dy
    if len_sq == 0:
        return all(dist_sq(p, a) <= t2 for p in pts[i:j + 1])
    return all((dx * (p[1] - a[1]) - dy * (p[0] - a[0])) ** 2 <= t2 * len_sq
               for p in pts[i:j + 1])


def test_segment_tolerance_examples():
    pts = [(i, 0) for i in range(10)]
    t = HullTree(pts)
    assert t.segment_within_tolerance(0, 9, (0, 0), (9, 0), 0)
    bumped = [(i, 0) for i in range(10)]
    bumped[5] = (5, 4)
    t2 = HullTree(bumped)
    assert not t2.segment_within_tolerance(0, 9, (0, 0), (9, 0), 2)
    assert t2.segment_within_tolerance(0, 9, (0, 0), (9, 0), 4)


def test_segment_tolerance_matches_brute_force():
    random.seed(84)
    for _ in range(500):
        n = random.randint(2, 40)
        pts = [(random.randint(0, 60), random.randint(0, 60)) for _ in range(n)]
        t = HullTree(pts)
        i = random.randint(0, n - 1)
        j = random.randint(i, n - 1)
        a = pts[i] if random.random() < 0.5 else (random.randint(0, 60), random.randint(0, 60))
        b = pts[j] if random.random() < 0.5 else (random.randint(0, 60), random.randint(0, 60))
        tol = random.choice([0, 1, 2, 5, 30])
        assert t.segment_within_tolerance(i, j, a, b, tol) == brute_segment_check(pts, i, j, a, b, tol)


def brute_width_exceeds(pts, thr):
    idx = convex_hull_indices(pts)
    verts = [pts[k] for k in idx]
    if len(verts) < 3:
        return False
    best = None
    m = len(verts)
    for a in range(m):
        b = (a + 1) % m
        dx = verts[b][0] - verts[a][0]
        dy = verts[b][1] - verts[a][1]
        w = max(Fraction((dx * (p[1] - verts[a][1]) - dy * (p[0] - verts[a][0])) ** 2,
                         dx * dx + dy * dy) for p in verts)
        best = w if best is None else min(best, w)
    return best > Fraction(thr) ** 2


def test_min_width_examples():
    t = HullTree([(i, 0) for i in range(8)])
    assert not t.range_min_width_exceeds(0, 7, 1)  # collinear: width 0
    sq = HullTree([(0, 0), (10, 0), (10, 10), (0, 10)])
    assert sq.range_min_width_exceeds(0, 3, 5)  # width = side = 10
    assert not sq.range_min_width_exceeds(0, 3, 10)


def test_min_width_matches_brute_force():
    random.seed(85)
    for _ in range(300):
        n = random.randint(1, 30)
        pts = [(random.randint(0, 40), random.randint(0, 40)) for _ in range(n)]
        t = HullTree(pts)
        i = random.randint(0, n - 1)
        j = random.randint(i, n - 1)
        thr = random.choice([0, 1, 3, 10])
        assert t.range_min_width_exceeds(i, j, thr) == brute_width_exceeds(pts[i:j + 1], thr)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        HullTree([])
