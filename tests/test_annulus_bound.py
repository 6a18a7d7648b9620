"""The prune of `min_width_annulus`: the far-field cut (`_far_half_side`)
and the Lipschitz bisection of every Voronoi edge (`_kept_runs`,
`_line_certainly_wider`) leave out of the sweep only centres certainly
wider than a vertex in hand.  Leaving them out must not change the result,
and every left-out point must be really wider than the optimum, checked
exactly."""

import math
import random
from fractions import Fraction

from arcline import annulus
from arcline.annulus import BISECT_DEPTH, _radii_sq, min_width_annulus
from arcline.clipping import clip_ray
from arcline.radicals import width_compare
from arcline.randomhull import finalize_hull, gen_directions_hull, gen_random_walk_hull
from arcline.voronoi import ClipConfig, data_radius

FULL = 1 << BISECT_DEPTH


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


def _huge(rng, n):
    # a ring or a scatter, scaled past the float range of the squared radii
    pts = rng.choice((_ring, _cocircular_grid))(rng, n)
    scale = rng.choice((10 ** 150, 10 ** 200))
    return [(x * scale + rng.randint(-9, 9), y * scale + rng.randint(-9, 9)) for x, y in pts]


KINDS = (_ring, _hull, _cocircular_grid, _nearly_collinear)
FAR_HALF_SIDE = annulus._far_half_side
VORONOI_SEGMENTS = annulus._voronoi_segments


def _pieces(diag, half_side):
    """Each edge of the diagram as the exact piece the prune starts from:
    a finite edge whole, a ray or line cut at the square; with its sites."""
    out = []
    for e in diag.edges:
        p0 = e.p0.exact
        ends = (p0, e.p1.exact) if e.is_segment else clip_ray(p0, e.direction, half_side, e.double)
        if ends is not None:
            out.append((frozenset((e.site_a, e.site_b)), ends))
    return out


def _parameter(a, b, p):
    """t with p = a + t(b - a), for p on the line through a != b."""
    axis = 0 if a[0] != b[0] else 1
    return Fraction(p[axis] - a[axis]) / (b[axis] - a[axis])


def _dropped_blocks(kept):
    """The parameter ranges [k0, k1] (units of 1/FULL) of the piece left out
    around the kept ranges, each split into aligned dyadic blocks, largest
    first: the sub-pieces the bisection drops, or unions of them."""
    blocks = []
    k = 0
    while k < FULL:
        if any(t0 <= Fraction(k, FULL) and Fraction(k + 1, FULL) <= t1 for t0, t1 in kept):
            k += 1
            continue
        size = FULL
        while k % size or k + size > FULL or any(
                t0 < Fraction(k + size, FULL) and Fraction(k, FULL) < t1 for t0, t1 in kept):
            size //= 2
        blocks.append((k, k + size))
        k += size
    return blocks


def _run(monkeypatch, pts, prune: bool, sampled: bool):
    """The annulus of pts with the prune on or off, every (h, hc) pair, and
    when sampled, the ends and midpoint of every dropped block of every
    piece (`_dropped_blocks`), in square-centred coordinates."""
    left_out, squares = [], []

    def far(upts, sample, h, upper):
        hc = FAR_HALF_SIDE(upts, sample, h, upper) if prune else h
        squares.append((h, hc))
        return hc

    def segments(diag, half_side, bounds, upper, sample, reach):
        if not prune:
            monkeypatch.setattr(annulus, "_kept_runs", lambda *args: [[0, FULL]])
            monkeypatch.setattr(annulus, "_line_certainly_wider", lambda *args: False)
        out = VORONOI_SEGMENTS(diag, half_side, bounds, upper, sample, reach)
        for sites, (a, b) in _pieces(diag, half_side) if sampled else ():
            if a == b:
                continue
            kept = [sorted((_parameter(a, b, s.p0), _parameter(a, b, s.p1)))
                    for s in out if (s.closest or s.farthest) == sites]
            for k0, k1 in _dropped_blocks(kept):
                for t in (Fraction(k0, FULL), Fraction(k0 + k1, 2 * FULL), Fraction(k1, FULL)):
                    left_out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
        return out

    monkeypatch.setattr(annulus, "_far_half_side", far)
    monkeypatch.setattr(annulus, "_voronoi_segments", segments)
    result = min_width_annulus(pts, ClipConfig(math.radians(0.1), data_radius(pts)))
    monkeypatch.undo()
    return result, left_out, squares


def _centred(pts):
    upts = list(dict.fromkeys(pts))
    xs = [x for x, _ in upts]
    ys = [y for _, y in upts]
    cx, cy = (min(xs) + max(xs)) // 2, (min(ys) + max(ys)) // 2
    return [(x - cx, y - cy) for x, y in upts]


def _outline(hc, k=16):
    """k points on each side of the square of half side hc."""
    steps = [Fraction(2 * i - k, k) * hc for i in range(k)]
    return ([(hc, s) for s in steps] + [(-hc, -s) for s in steps]
            + [(-s, hc) for s in steps] + [(s, -hc) for s in steps])


def _sets():
    rng = random.Random(131)
    for i in range(120):
        yield KINDS[i % len(KINDS)](rng, rng.randint(5, 60))
    for i in range(12):
        yield _huge(rng, rng.randint(5, 16))
        yield _nearly_collinear(rng, rng.randint(5, 24))


def test_dropping_edges_keeps_the_result_and_drops_only_wider_edges(monkeypatch):
    dropped_total = cut = checked = 0
    for pts in _sets():
        if len(set(pts)) < 3:
            continue
        small = len(set(pts)) <= 24
        got, left_out, squares = _run(monkeypatch, pts, True, small)
        want, none, full = _run(monkeypatch, pts, False, small)
        assert not none and all(h == hc for h, hc in full)
        assert (got.center, got.r_inner_sq, got.r_outer_sq) == \
            (want.center, want.r_inner_sq, want.r_outer_sq), pts
        dropped_total += len(left_out)
        cut += sum(hc < h for h, hc in squares)
        if not small:
            continue
        upts = _centred(pts)
        outside = [c for h, hc in squares if hc < h for c in _outline(hc) + _outline(hc + 1)]
        for c in left_out + outside:
            lo, hi = _radii_sq(c, upts)
            assert width_compare(hi, lo, got.r_outer_sq, got.r_inner_sq) > 0, (pts, c)
            checked += 1
    assert dropped_total > 0 and cut > 0 and checked > 0


def test_no_vertex_in_the_square_drops_nothing(monkeypatch):
    # a shallow zigzag: every circumcentre lies far beyond a square of about
    # one data radius, so no vertex gives an upper bound
    pts = [(100 * k, k % 2) for k in range(8)]
    uppers = []
    kept_runs = annulus._kept_runs

    def spy(fa, fb, err, upper, sample, reach):
        uppers.append(upper)
        runs = kept_runs(fa, fb, err, upper, sample, reach)
        assert runs == [[0, FULL]]
        return runs

    monkeypatch.setattr(annulus, "_kept_runs", spy)
    h = int(math.ceil(ClipConfig(math.pi, data_radius(pts)).clip_radius)) + 2
    assert FAR_HALF_SIDE(_centred(pts), _centred(pts), h, math.inf) == h
    min_width_annulus(pts, ClipConfig(math.pi, data_radius(pts)))
    assert uppers and all(u == math.inf for u in uppers)


def test_overflowed_floats_prune_nothing():
    # a piece whose end bounds overflowed keeps everything, whatever upper
    inf = (math.inf, 0.0, -math.inf)
    assert annulus._kept_runs(inf, (0.0, 0.0, 5.0), 0.0, 1.0, [(0.0, 0.0), (1.0, 0.0)], 2.0) \
        == [[0, FULL]]
    assert annulus._strip_width_floor([(0, 0), (10 ** 400, 0), (0, 10 ** 400)]) == 0.0
