"""The edge bound of `min_width_annulus`: finite Voronoi edges whose every
point is certainly wider than a vertex in hand are left out of the sweep.
Dropping them must not change the result, and every dropped edge must be
really wider than the optimum, checked exactly."""

import math
import random

from arcline import annulus
from arcline.annulus import _radii_sq, min_width_annulus
from arcline.radicals import width_compare
from arcline.randomhull import finalize_hull, gen_directions_hull, gen_random_walk_hull
from arcline.voronoi import ClipConfig, data_radius


def _ring(rng, n):
    radius = rng.uniform(50, 5000)
    width = radius * rng.uniform(0.005, 0.05)
    cx, cy = rng.randint(-10 ** 4, 10 ** 4), rng.randint(-10 ** 4, 10 ** 4)
    start, sweep = rng.uniform(0, 2 * math.pi), rng.uniform(math.pi / 2, 2 * math.pi)
    pts = []
    for k in range(n):
        t = start + sweep * k / n
        r = radius + rng.uniform(-width / 2, width / 2)
        pts.append((round(cx + r * math.cos(t)), round(cy + r * math.sin(t))))
    return pts


def _hull(rng, n):
    gen = rng.choice((gen_directions_hull, gen_random_walk_hull))
    return finalize_hull(gen(n, seed=rng.randrange(1 << 30)), grid_scale=float(1 << 12)).quantized


def _cocircular_grid(rng, n):
    # integer points of x^2 + y^2 = 625 and of a small grid: many cocircular
    # quadruples, so many candidates tie
    circle = [(x, y) for x in range(-25, 26) for y in range(-25, 26) if x * x + y * y == 625]
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    return rng.sample(circle, min(n, len(circle))) + rng.sample(grid, rng.randint(0, 4))


def _nearly_collinear(rng, n):
    dx, dy = rng.randint(1, 40), rng.randint(-40, 40)
    return [(k * dx + rng.randint(-2, 2), k * dy + rng.randint(-2, 2)) for k in range(n)]


KINDS = (_ring, _hull, _cocircular_grid, _nearly_collinear)
CERTAINLY_WIDER = annulus._certainly_wider


def _run(monkeypatch, pts, bound: bool):
    """The annulus of pts with the edge bound on or off, and the edges it
    dropped, in square-centred coordinates."""
    dropped = []

    def spy(p, q, bounds, upper):
        wider = bound and CERTAINLY_WIDER(p, q, bounds, upper)
        if wider:
            dropped.append((p, q))
        return wider

    monkeypatch.setattr(annulus, "_certainly_wider", spy)
    return min_width_annulus(pts), dropped


def _centred(pts):
    upts = list(dict.fromkeys(pts))
    xs = [x for x, _ in upts]
    ys = [y for _, y in upts]
    cx, cy = (min(xs) + max(xs)) // 2, (min(ys) + max(ys)) // 2
    return [(x - cx, y - cy) for x, y in upts]


def test_dropping_edges_keeps_the_result_and_drops_only_wider_edges(monkeypatch):
    rng = random.Random(131)
    dropped_total = checked = 0
    for i in range(120):
        pts = KINDS[i % len(KINDS)](rng, rng.randint(5, 60))
        if len(set(pts)) < 3:
            continue
        got, dropped = _run(monkeypatch, pts, True)
        want, none = _run(monkeypatch, pts, False)
        assert not none
        assert (got.center, got.r_inner_sq, got.r_outer_sq) == \
            (want.center, want.r_inner_sq, want.r_outer_sq), pts
        dropped_total += len(dropped)
        if len(set(pts)) > 24:
            continue
        upts = _centred(pts)
        for p, q in dropped:
            mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
            for c in (p, q, mid):
                lo, hi = _radii_sq(c, upts)
                assert width_compare(hi, lo, got.r_outer_sq, got.r_inner_sq) > 0, (pts, c)
                checked += 1
    assert dropped_total > 0 and checked > 0


def test_no_vertex_in_the_square_drops_nothing(monkeypatch):
    # a shallow zigzag: every circumcentre lies far beyond a square of about
    # one data radius, so no vertex gives an upper bound
    pts = [(100 * k, k % 2) for k in range(8)]
    uppers = []

    def spy(p, q, bounds, upper):
        uppers.append(upper)
        return CERTAINLY_WIDER(p, q, bounds, upper)

    monkeypatch.setattr(annulus, "_certainly_wider", spy)
    min_width_annulus(pts, ClipConfig(math.pi, data_radius(pts)))
    assert uppers and all(u == math.inf for u in uppers)
