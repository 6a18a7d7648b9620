import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arcline.arcfit import (INF, MAX_DENSIFIED, _build_arc, _chord_frame, arc_within_tolerance,
                            densify, direction_and_endpoint_check, fit_arc_by_tolerance,
                            fit_arc_least_squares, tolerance_intervals_point)
from arcline.compress import _Moments


def deviation(a, b, p, s):
    """Radial deviation of p from the arc through a, b centered at bisector
    parameter s (signed distance from the chord midpoint)."""
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    dx, dy = b[0] - a[0], b[1] - a[1]
    ln = math.hypot(dx, dy)
    u = (-dy / ln, dx / ln)
    c = (mid[0] + s * u[0], mid[1] + s * u[1])
    r = math.hypot(ln / 2, s)
    return abs(math.dist(p, c) - r)


def sampled_feasible_set(a, b, p, tol, span=200.0, n=4001):
    xs = [-span + 2 * span * k / (n - 1) for k in range(n)]
    return [s for s in xs if deviation(a, b, p, s) <= tol]


def test_point_near_endpoint_full_line():
    ivs = tolerance_intervals_point((0, 0), (10, 0), (1, 0), 1.5)
    assert ivs == [(-INF, INF)]


def test_point_on_circle_interval_contains_center_param():
    # p on the circle through a, b centered at s0 = 0 (radius = half chord)
    a, b = (-10.0, 0.0), (10.0, 0.0)
    p = (0.0, 10.0)
    ivs = tolerance_intervals_point(a, b, p, 0.01)
    assert any(lo <= 0 <= hi for lo, hi in ivs)


# Centres whose decimal deviation is within this fraction of tol are not
# judged: the library finds the interval ends from double-precision
# coefficients (unit roundoff 2**-53), and its ends lie within about 1e-15
# of tol in relative deviation on these cases.
GRID_ORACLE_MARGIN = Decimal("1e-9")
GRID = 2 ** 18


def decimal_deviation(a, b, p, s) -> Decimal:
    """Distance of p from the arc through a, b centred at bisector parameter
    s (along the chord's left normal, from its midpoint), in 50-digit
    decimal arithmetic from the exact inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        ax, ay, bx, by, px, py = map(Decimal, (*a, *b, *p))
        dx, dy = bx - ax, by - ay
        ln = (dx * dx + dy * dy).sqrt()
        s = Decimal(s)
        cx = (ax + bx) / 2 - s * dy / ln
        cy = (ay + by) / 2 + s * dx / ln
        r = ((ax - cx) ** 2 + (ay - cy) ** 2).sqrt()
        d = ((px - cx) ** 2 + (py - cy) ** 2).sqrt()
        return abs(d - r)


def _grid_interval_case(rng):
    """Integer anchors and point within +-GRID, tol in [1024, 2048); half
    of the points lie at a normal offset of tol*(1 +- delta) from the chord."""
    while True:
        a = (rng.randint(-GRID, GRID), rng.randint(-GRID, GRID))
        reach = 2 ** rng.uniform(0, 18)
        turn = rng.uniform(0, 2 * math.pi)
        b = (round(a[0] + reach * math.cos(turn)), round(a[1] + reach * math.sin(turn)))
        if a == b or max(map(abs, b)) > GRID:
            continue
        if rng.random() < 0.5:
            return a, b, (rng.randint(-GRID, GRID), rng.randint(-GRID, GRID)), rng.uniform(1024, 2048)
        (mx, my), (ux, uy), ln = _chord_frame(a, b)
        offset = rng.uniform(1100, 1900) * rng.choice((-1, 1))
        along = rng.uniform(-1, 1) * (ln / 2 + 8192)
        p = (round(mx + offset * ux - along * uy), round(my + offset * uy + along * ux))
        if max(map(abs, p)) > GRID:
            continue
        e = (p[0] - mx) * ux + (p[1] - my) * uy
        delta = rng.choice((-1, 1)) * 10.0 ** -rng.choice((4, 6, 8))
        return a, b, p, abs(e) / (1 + delta)


def test_intervals_match_sampling_oracle():
    random.seed(70)
    for _ in range(150):
        a = (random.uniform(-30, 30), random.uniform(-30, 30))
        b = (random.uniform(-30, 30), random.uniform(-30, 30))
        if math.dist(a, b) < 1:
            continue
        p = (random.uniform(-30, 30), random.uniform(-30, 30))
        tol = random.uniform(0.1, 5)
        ivs = tolerance_intervals_point(a, b, p, tol)
        for s in sampled_feasible_set(a, b, p, tol):
            ok = any(lo - 1e-6 <= s <= hi + 1e-6 for lo, hi in ivs)
            assert ok, (a, b, p, tol, s, ivs)
        # and interval midpoints really satisfy the tolerance
        for lo, hi in ivs:
            mid = max(min((lo + hi) / 2 if math.isfinite(lo) and math.isfinite(hi)
                          else (lo + 1 if math.isfinite(lo) else hi - 1), 1e8), -1e8)
            assert deviation(a, b, p, mid) <= tol + 1e-6
    # the scale `compress_polyline` works at: integer coordinates up to
    # 2**18, tol in [1024, 2048), half of the points at a normal offset of
    # tol*(1 +- delta) from the chord, delta from 1e-4 down to 1e-8
    rng = random.Random(75)
    judged = 0
    for _ in range(200):
        a, b, p, tol = _grid_interval_case(rng)
        ivs = tolerance_intervals_point(a, b, p, tol)
        ln = math.dist(a, b)
        samples = [0.0] + [sign * ln * 10 ** (-3 + 9 * k / 59) for k in range(60) for sign in (1, -1)]
        samples += [x + sign * 10 ** -j * (abs(x) + ln) for iv in ivs for x in iv if math.isfinite(x)
                    for j in range(2, 10) for sign in (1, -1)]
        for s in samples:
            if abs(s) > 1e6 * ln:
                continue
            dev = decimal_deviation(a, b, p, s)
            if abs(dev - Decimal(tol)) <= GRID_ORACLE_MARGIN * Decimal(tol):
                continue
            judged += 1
            inside = any(lo <= s <= hi for lo, hi in ivs)
            assert inside == (dev < tol), (a, b, p, tol, s, float(dev), ivs)
    assert judged > 20000


def test_interval_kept_when_the_offset_barely_exceeds_tol():
    # the point's normal offset from the chord exceeds tol by about 1e-4:
    # its centres fill (55161.3, 1.9e12), and the centre at s = 71264.11
    # puts it about 1035.7 from the arc
    a, b, p, tol = (-8589, -7122), (14338, -13338), (25966, -14597), 1827.6191355923056
    assert 1035 < decimal_deviation(a, b, p, 71264.11) < 1036
    ivs = tolerance_intervals_point(a, b, p, tol)
    assert any(lo <= 71264.11 <= hi for lo, hi in ivs)


def test_intervals_symmetric_in_endpoints():
    random.seed(71)
    for _ in range(60):
        a = (random.uniform(-20, 20), random.uniform(-20, 20))
        b = (random.uniform(-20, 20), random.uniform(-20, 20))
        if math.dist(a, b) < 1:
            continue
        p = (random.uniform(-20, 20), random.uniform(-20, 20))
        tol = random.uniform(0.1, 3)
        iv1 = tolerance_intervals_point(a, b, p, tol)
        iv2 = tolerance_intervals_point(b, a, p, tol)
        # swapping endpoints flips the bisector parameter sign
        flipped = sorted((-hi, -lo) for lo, hi in iv2)
        for (l1, h1), (l2, h2) in zip(sorted(iv1), flipped):
            assert math.isclose(l1, l2, rel_tol=1e-9, abs_tol=1e-9) or (l1 == l2)
            assert math.isclose(h1, h2, rel_tol=1e-9, abs_tol=1e-9) or (h1 == h2)


def _circle_points(cx, cy, r, angles):
    return [(cx + r * math.cos(t), cy + r * math.sin(t)) for t in angles]


def test_fit_exact_circle():
    pts = _circle_points(3, -2, 50, [0.1 * k for k in range(12)])
    arc = fit_arc_least_squares(pts)
    assert math.isclose(arc.radius, 50, rel_tol=1e-9)
    assert math.isclose(arc.center[0], 3, abs_tol=1e-6)
    assert math.isclose(arc.center[1], -2, abs_tol=1e-6)
    assert arc.sse < 1e-12


def test_fit_symmetric_points_center_on_axis():
    pts = [(-10.0, 0.0), (-6.0, 3.0), (0.0, 4.0), (6.0, 3.0), (10.0, 0.0)]
    arc = fit_arc_least_squares(pts)
    assert math.isclose(arc.center[0], 0, abs_tol=1e-9)


def test_fit_sse_close_to_golden_section_optimum():
    random.seed(72)
    for _ in range(40):
        r = random.uniform(20, 200)
        t0 = random.uniform(0, 5)
        pts = [(r * math.cos(t0 + 0.15 * k) + random.gauss(0, 0.5),
                r * math.sin(t0 + 0.15 * k) + random.gauss(0, 0.5)) for k in range(12)]
        arc = fit_arc_least_squares(pts)

        a, b = pts[0], pts[-1]
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        dx, dy = b[0] - a[0], b[1] - a[1]
        ln = math.hypot(dx, dy)
        u = (-dy / ln, dx / ln)

        def true_sse(s):
            c = (mid[0] + s * u[0], mid[1] + s * u[1])
            rr = math.hypot(ln / 2, s)
            return sum((math.dist(p, c) - rr) ** 2 for p in pts)

        lo, hi = -10 * r, 10 * r
        phi = (math.sqrt(5) - 1) / 2
        for _ in range(200):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if true_sse(m1) <= true_sse(m2):
                hi = m2
            else:
                lo = m1
        best = true_sse((lo + hi) / 2)
        s_arc = (arc.center[0] - mid[0]) * u[0] + (arc.center[1] - mid[1]) * u[1]
        assert true_sse(s_arc) <= best * 1.01 + 1e-12


def test_collinear_is_segment_like():
    pts = [(float(i), 0.0) for i in range(6)]
    arc = fit_arc_least_squares(pts)
    assert arc.segment_like
    assert fit_arc_by_tolerance(pts, tol=0.0) is None or fit_arc_by_tolerance(pts, tol=0.0).segment_like


def test_fit_by_tolerance_exact_circle():
    pts = _circle_points(0, 0, 40, [0.2 * k for k in range(10)])
    arc = fit_arc_by_tolerance(pts, tol=0.5)
    assert arc is not None and math.isclose(arc.radius, 40, rel_tol=1e-6)


def test_fit_by_tolerance_soundness_and_oracle_agreement():
    random.seed(73)
    agree = 0
    for _ in range(200):
        r = random.uniform(10, 80)
        t0 = random.uniform(0, 5)
        noise = random.uniform(0, 2.0)
        pts = [(r * math.cos(t0 + 0.2 * k) + random.gauss(0, noise),
                r * math.sin(t0 + 0.2 * k) + random.gauss(0, noise)) for k in range(10)]
        tol = random.uniform(0.3, 3)
        arc = fit_arc_by_tolerance(pts, tol=tol)
        a, b = pts[0], pts[-1]
        # sampling oracle over the bisector: `deviation` at 10001 centres,
        # vectorized
        span = 40 * r
        n = 10001
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        dx, dy = b[0] - a[0], b[1] - a[1]
        ln = math.hypot(dx, dy)
        s = -span + 2 * span * np.arange(n) / (n - 1)
        cx = mid[0] + s * (-dy / ln)
        cy = mid[1] + s * (dx / ln)
        P = np.array(pts)
        dev = np.abs(np.hypot(P[:, 0, None] - cx, P[:, 1, None] - cy) - np.hypot(ln / 2, s))
        feas_samples = dev.max(axis=0) <= tol
        oracle_feasible = bool(feas_samples.any())
        if arc is not None:
            # returned arcs satisfy the radial tolerance
            assert arc_within_tolerance(arc, pts, tol * (1 + 1e-9), check_span=False)
            if not oracle_feasible:
                continue  # oracle grid can miss a feasible sliver; fit proves it
            agree += 1
        else:
            assert not oracle_feasible, "fit said infeasible but oracle found a center"
            agree += 1
    assert agree >= 150


def test_arc_within_tolerance_examples():
    pts = _circle_points(0, 0, 30, [0.2 * k for k in range(8)])
    arc = fit_arc_least_squares(pts)
    assert arc_within_tolerance(arc, pts, 0.01)
    moved = list(pts)
    moved[3] = (moved[3][0] + 1.0, moved[3][1])
    assert not arc_within_tolerance(arc, moved, 0.4)


def test_arc_span_check_rejects_complement():
    # a point diametrically opposite the arc is radially fine but lies on
    # the complement arc
    pts = _circle_points(0, 0, 10, [0.0, 0.3, 0.6, 0.9])
    arc = fit_arc_least_squares(pts)
    bad = pts + [(-10.0, 0.0)]
    assert arc_within_tolerance(arc, pts, 0.1)
    assert not arc_within_tolerance(arc, bad, 0.1)


def test_densify():
    out = densify([(0, 0), (10, 0)], 5)
    assert out == [(0, 0), (5.0, 0.0), (10, 0)]
    dense = [(0, 0), (1, 0), (2, 0)]
    assert densify(dense, 5) == [(0, 0), (1, 0), (2, 0)]
    random.seed(74)
    for _ in range(50):
        pts = [(random.uniform(0, 50), random.uniform(0, 50)) for _ in range(6)]
        step = random.uniform(0.5, 5)
        out = densify(pts, step)
        for q, p in zip(out, out[1:]):
            assert math.dist(q, p) <= step + 1e-9
        assert all(p in out for p in [tuple(p) for p in pts])
    with pytest.raises(ValueError):
        densify([(0, 0)], 0)
    # a step far below the gaps is an error, not an endless list
    for pts, step in (([(0, 0), (MAX_DENSIFIED, 0)], 1), ([(0, 0), (1, 0), (2, 0)], 2 / MAX_DENSIFIED),
                      ([(0, 0), (1e10, 0)], 1e-300)):
        with pytest.raises(ValueError, match="densifying"):
            densify(pts, step)


def test_direction_check():
    pts = _circle_points(0, 0, 20, [0.1 * k for k in range(10)])
    arc = fit_arc_least_squares(pts)
    assert direction_and_endpoint_check(pts, arc)
    assert not direction_and_endpoint_check(list(reversed(pts)), arc)
    seg = ((0.0, 0.0), (10.0, 0.0))
    assert direction_and_endpoint_check([(0, 0), (3, 1), (7, -1), (10, 0)], seg)
    assert not direction_and_endpoint_check([(0, 0), (7, 1), (3, -1), (10, 0)], seg)


def test_fallback_accepts_when_least_squares_violates():
    # instances where the least-squares optimum misses the tolerance but a
    # feasible interval-endpoint center exists (deterministic seeds)
    hit = 0
    for seed, tol in ((5, 1.223586), (10, 1.539972), (15, 1.638093)):
        rng = random.Random(seed)
        r = rng.uniform(20, 60)
        t0 = rng.uniform(0, 5)
        pts = [(r * math.cos(t0 + 0.25 * k) + rng.gauss(0, 1.0),
                r * math.sin(t0 + 0.25 * k) + rng.gauss(0, 1.0)) for k in range(8)]
        ls = fit_arc_least_squares(pts)
        assert not arc_within_tolerance(ls, pts, tol, check_span=False)
        arc = fit_arc_by_tolerance(pts, tol=tol)
        assert arc is not None
        assert arc_within_tolerance(arc, pts, tol * (1 + 1e-9), check_span=False)
        hit += 1
    assert hit == 3


@st.composite
def _floor_windows(draw):
    """Integer windows where the SSE floor is hardest to certify: nearly
    exact arcs (E*G close to P^2, so the bound is mostly cancellation),
    arcs whose chord is short against their extent, nearly straight walks,
    all optionally far from the origin."""
    n = draw(st.integers(4, 80))
    kind = draw(st.sampled_from(("arc", "short_chord", "straight")))
    offset = draw(st.sampled_from((0, -(2 ** 20), 2 ** 40)))
    noise = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "straight":
        dx, dy = rng.randint(-400, 400), rng.randint(1, 400)
        bend = rng.randint(-3, 3)
        pts = [(k * dx - bend * k * k // 8, k * dy + bend * k * k // 8) for k in range(n)]
    else:
        radius = draw(st.integers(30, 10 ** 6))
        span = rng.uniform(0.05, 6.0) if kind == "arc" else rng.uniform(5.6, 6.25)
        t0 = rng.uniform(0, 2 * math.pi)
        pts = [(round(radius * math.cos(t0 + span * k / (n - 1))),
                round(radius * math.sin(t0 + span * k / (n - 1)))) for k in range(n)]
    pts = [(offset + x + rng.randint(-noise, noise), offset + y + rng.randint(-noise, noise))
           for x, y in pts]
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    assume(len(pts) >= 4 and pts[0] != pts[-1])
    return pts, draw(st.floats(0.3, 3.0))


def _sse_minimiser(pts):
    """The bisector parameter where the approximate SSE is least,
    recomputed independently of the library in floats."""
    (mx, my), (ux, uy), length = _chord_frame(pts[0], pts[-1])
    h = (length / 2) ** 2
    g = [(x - mx) ** 2 + (y - my) ** 2 - h for x, y in pts]
    e = [(x - mx) * ux + (y - my) * uy for x, y in pts]
    gg = sum(v * v for v in g)
    gh = sum(v * w for v, w in zip(g, e))
    hh = sum(w * w for w in e)
    lam = ((gg + 4 * h * hh) - math.sqrt((gg - 4 * h * hh) ** 2 + 16 * h * gh * gh)) / (8 * h)
    return gh / (2 * (hh - lam)) if hh > lam else INF


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_floor_windows())
def test_sse_floor_bounds_every_arc_through_the_anchors(case):
    pts, factor = case
    quick = fit_arc_least_squares(pts, polish=False)
    floor = _Moments(pts).arc_floor(0, len(pts) - 1)
    assert 0.0 <= floor
    a, b = pts[0], pts[-1]
    worst = max(abs(math.dist(p, quick.center) - quick.radius) for p in pts)
    tol = max(0.5, worst * factor)
    arcs = [quick, fit_arc_least_squares(pts)]
    fitted = fit_arc_by_tolerance(pts, tol=tol, seed_arc=quick)
    if fitted is not None:
        arcs.append(fitted)
    # the interval fit picks its centre among these endpoints (nudged)
    params = [s for p in pts for iv in tolerance_intervals_point(a, b, p, tol) for s in iv]
    params += [_sse_minimiser(pts), 0.0]
    arcs += [_build_arc(a, b, s, pts) for s in params if math.isfinite(s)]
    sses = [arc.sse for arc in arcs if not arc.segment_like]
    assert all(floor <= sse for sse in sses), (floor, min(sses))


@st.composite
def _moment_windows(draw):
    """A grid-scale polyline with coordinates up to +-2^40, spread over the
    whole range or clustered far from the origin, and a vertex range i..j
    of it (anchors may coincide)."""
    if draw(st.booleans()):
        corner = st.sampled_from((2 ** 40 - 2 ** 12, -(2 ** 40) + 2 ** 12))
        ox, oy = draw(corner), draw(corner)
        coord = st.integers(-(2 ** 12), 2 ** 12)
    else:
        ox = oy = 0
        coord = st.integers(-(2 ** 40), 2 ** 40)
    pts = [(ox + x, oy + y) for x, y in draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=30))]
    i = draw(st.integers(0, len(pts) - 2))
    return pts, i, draw(st.integers(i + 1, len(pts) - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_moment_windows())
def test_moment_arc_sums_match_direct_fraction_sums(case):
    # G = sum g^2, L*P = sum g*(e*L) and L^2*E = sum (e*L)^2 with
    # g = |p - m|^2 - (L/2)^2 and e*L = (p - m).n about the exact chord
    # midpoint m, summed directly in Fractions
    pts, i, j = case
    (ax, ay), (bx, by) = pts[i], pts[j]
    mx, my = Fraction(ax + bx, 2), Fraction(ay + by, 2)
    nx, ny = ay - by, bx - ax
    quarter_l_sq = Fraction(nx * nx + ny * ny, 4)
    g_sum = lp_sum = l2e_sum = 0
    for x, y in pts[i:j + 1]:
        g = (x - mx) ** 2 + (y - my) ** 2 - quarter_l_sq
        el = (x - mx) * nx + (y - my) * ny
        g_sum += g * g
        lp_sum += g * el
        l2e_sum += el * el
    assert _Moments(pts).arc_sums(i, j) == (g_sum, lp_sum, l2e_sum)
