import math
import statistics

import pytest

from arcline import delaunay
from arcline.predicates import incircle, orientation
from arcline.randomhull import (finalize_hull, gen_directions_hull,
                                gen_fdt_hull, gen_random_walk_hull)

from oracles import triangles


def is_strictly_convex(pts):
    n = len(pts)
    if n < 3:
        return False
    turn = 0
    for i in range(n):
        o = orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n])
        if o == 0 or (turn and o != turn):
            return False
        turn = o
    return True


def test_walk_hull_basics():
    h = gen_random_walk_hull(3, seed=1)
    assert len(h.vertices) == 3
    h = gen_random_walk_hull(200, seed=2)
    assert len(h.vertices) >= 3
    with pytest.raises(ValueError):
        gen_random_walk_hull(2)


def test_walk_hull_mean_size_two_log_n():
    n = 400
    expect = 2 * math.log(n)
    sizes = [len(gen_random_walk_hull(n, seed).vertices) for seed in range(400)]
    mean = statistics.mean(sizes)
    assert abs(mean - expect) <= 0.15 * expect


def test_directions_conditions():
    for n in (3, 8, 128):
        h = gen_directions_hull(n, seed=n)
        vs = h.vertices
        m = len(vs)
        edges = [(vs[(i + 1) % m][0] - vs[i][0], vs[(i + 1) % m][1] - vs[i][1])
                 for i in range(m)]
        assert abs(sum(ex * ex + ey * ey for ex, ey in edges) - 1) < 1e-9
        sx = sum(e[0] for e in edges)
        sy = sum(e[1] for e in edges)
        assert math.hypot(sx, sy) < 1e-10 * n


def test_directions_convex_after_finalize():
    for n in (3, 8, 128, 1024):
        q = finalize_hull(gen_directions_hull(n, seed=5 + n)).quantized
        assert is_strictly_convex(q)


def test_fdt_hull_in_unit_disk_and_full_circle():
    for seed in (1, 9):
        h = gen_fdt_hull(48, seed)
        assert all(x * x + y * y <= 1 + 1e-9 for x, y in h.vertices)
        q = finalize_hull(h, grid_scale=10 ** 7).quantized
        m = delaunay.build_farthest(q)
        for t in triangles(m):
            for d in m.site_indices:
                if d in t:
                    continue
                assert incircle(m.points[t[0]], m.points[t[1]], m.points[t[2]],
                                m.points[d]) >= 0


def test_finalize_removes_reflex_artifacts():
    h = gen_directions_hull(16, seed=3)
    vs = list(h.vertices)
    # inject a rounding-style artifact: a point just inside an edge midpoint
    mx = (vs[0][0] + vs[1][0]) / 2
    my = (vs[0][1] + vs[1][1]) / 2
    cx = sum(p[0] for p in vs) / len(vs)
    cy = sum(p[1] for p in vs) / len(vs)
    vs.insert(1, (mx + (cx - mx) * 1e-4, my + (cy - my) * 1e-4))
    h.vertices[:] = vs
    q = finalize_hull(h).quantized
    assert is_strictly_convex(q)


def test_finalize_degenerate_raises():
    h = gen_directions_hull(4, seed=7)
    h.vertices[:] = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    with pytest.raises(ValueError):
        finalize_hull(h)


def test_generators_feed_convex_ordered():
    # quantized outlines are in strictly convex position and in hull order:
    # every vertex is on the strict hull, met in the outline's cyclic order,
    # and the farthest builder takes them all as sites
    for gen, seed in ((gen_random_walk_hull, 1), (gen_directions_hull, 2), (gen_fdt_hull, 3)):
        q = finalize_hull(gen(48, seed), grid_scale=10 ** 6).quantized
        n = len(q)
        hull = delaunay.convex_hull_indices(q)
        assert sorted(hull) == list(range(n))
        step = (hull[1] - hull[0]) % n
        assert step in (1, n - 1)
        assert all((b - a) % n == step for a, b in zip(hull, hull[1:]))
        assert delaunay.build_farthest(q).site_indices == hull


def test_deterministic_per_seed():
    a = gen_directions_hull(32, seed=11).vertices
    b = gen_directions_hull(32, seed=11).vertices
    assert a == b
    c = gen_fdt_hull(32, seed=11).vertices
    d = gen_fdt_hull(32, seed=11).vertices
    assert c == d
