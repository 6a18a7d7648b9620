import importlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arcline.arcfit import (INF, MAX_DENSIFIED, SEGMENT_LIKE_RADIUS_FACTOR, FittedArc, _arc_cost,
                            _build_arc, _chord_frame, _feasible_centres, _intersect_sorted,
                            _Moments, _sse_minimum, _turns_in_floats,
                            arc_within_tolerance, densify, direction_and_endpoint_check,
                            fit_arc_by_tolerance, fit_arc_least_squares, tolerance_intervals_point)

import oracles

compress_module = importlib.import_module("arcline.compress")


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



@st.composite
def _bisector_cases(draw):
    """Integer anchors and points, and a tol among small integers and their
    halves.  Besides free points, the points are drawn onto each branch of
    a point's set: within tol of an anchor; at exactly tol from one, where
    the discriminant, 16*tol^2*(|p - a|^2 - tol^2)*(|p - b|^2 - tol^2), is
    zero; at normal offset exactly tol from an axis-aligned chord, where
    e*e == tol*tol (qa == 0); on the chord's line, where the set is two rays;
    and mirrored across an axis-aligned chord, which often empties the
    intersection."""
    tol = draw(st.integers(1, 12)) / 2
    coord = st.integers(-40, 40)
    a = (draw(coord), draw(coord))
    axis = draw(st.sampled_from((None, 0, 1)))  # the coordinate the chord runs along
    if axis is None:
        b = (draw(coord), draw(coord))
        assume(b != a)
    else:
        step = draw(st.integers(1, 40)) * draw(st.sampled_from((1, -1)))
        b = (a[0] + step, a[1]) if axis == 0 else (a[0], a[1] + step)
    g = math.gcd(b[0] - a[0], b[1] - a[1])
    pts = []
    for kind in draw(st.lists(st.sampled_from(("free", "near", "rim", "offset", "line", "mirror")),
                              min_size=1, max_size=10)):
        anchor = draw(st.sampled_from((a, b)))
        if kind == "near":
            r = int(tol)
            p = (anchor[0] + draw(st.integers(-r, r)), anchor[1] + draw(st.integers(-r, r)))
        elif kind == "rim" and tol.is_integer():
            t = int(tol)
            dx, dy = draw(st.sampled_from(((t, 0), (0, t), (3 * t // 5, 4 * t // 5))
                                          if t % 5 == 0 else ((t, 0), (0, t))))
            p = (anchor[0] + draw(st.sampled_from((dx, -dx))), anchor[1] + draw(st.sampled_from((dy, -dy))))
        elif kind == "offset" and axis is not None and tol.is_integer():
            along, off = draw(coord), anchor[1 - axis] + draw(st.sampled_from((-1, 1))) * int(tol)
            p = (along, off) if axis == 0 else (off, along)
        elif kind == "line":
            k = draw(st.integers(-g, 2 * g))
            p = (a[0] + k * (b[0] - a[0]) // g, a[1] + k * (b[1] - a[1]) // g)
        elif kind == "mirror" and axis is not None and pts:
            q = pts[-1]
            line = a[1 - axis]
            p = (q[0], 2 * line - q[1]) if axis == 0 else (2 * line - q[0], q[1])
        else:
            p = (draw(coord), draw(coord))
        pts.append(p)
    return a, b, pts, tol


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_bisector_cases())
@example(((0, 0), (10, 0), [(1, 0)], 1.5))  # within tol of an anchor
@example(((0, 0), (10, 0), [(13, 4), (10, 5)], 5.0))  # at exactly tol from one
@example(((0, 0), (10, 0), [(5, 2), (-3, -2)], 2.0))  # e*e == tol*tol
@example(((0, 0), (20, 0), [(10, 0), (-5, 0)], 1.0))  # two rays
@example(((0, 0), (40, 0), [(20, 3), (20, -3), (7, 7)], 1.0))  # empty after two points
def test_feasible_centres_are_the_fold_of_the_per_point_sets(case):
    # the inline sets of `_feasible_centres` against the per-point
    # reference: the same floats (compared by repr, so the sign of a zero
    # counts), intersected one point at a time with the same early exit and
    # the same count of points used
    a, b, pts, tol = case
    want, used = [(-INF, INF)], 0
    for p in pts:
        used += 1
        want = _intersect_sorted(want, oracles.bisector_intervals(a, b, p, tol))
        if not want:
            break
    assert repr(_feasible_centres(a, b, pts, tol)) == repr((want, used))
    for p in pts:
        assert repr(tolerance_intervals_point(a, b, p, tol)) == repr(oracles.bisector_intervals(a, b, p, tol))


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
            assert arc_within_tolerance(arc, pts, tol * (1 + 1e-9))
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
    # the complement arc; inside a window from anchor to anchor, the only
    # windows the DP builds, the direction check rejects it
    pts = _circle_points(0, 0, 10, [0.0, 0.3, 0.6, 0.9])
    arc = fit_arc_least_squares(pts)
    bad = pts[:2] + [(-10.0, 0.0)] + pts[2:]
    assert arc_within_tolerance(arc, bad, 0.1)
    assert direction_and_endpoint_check(pts, arc)
    assert not direction_and_endpoint_check(bad, arc)


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


def test_segment_direction_check_is_exact_past_the_float_range():
    # a backward step of 1 at 2^60, where the floats of the positions tie
    chord = ((0, 0), (2 ** 61, 0))
    assert not direction_and_endpoint_check([(0, 0), (2 ** 60 + 1, 0), (2 ** 60, 0), (2 ** 61, 0)], chord)
    assert direction_and_endpoint_check([(0, 0), (2 ** 60, 0), (2 ** 60 + 1, 0), (2 ** 61, 0)], chord)
    # coincident anchors accept any order
    assert direction_and_endpoint_check([(0, 0), (5, 1), (-3, 2), (0, 0)], ((0, 0), (0, 0)))


# the 20 integer points on the circle x^2 + y^2 = 25^2, counterclockwise
# from (25, 0)
_RING = sorted({(sx * a, sy * b) for a, b in ((25, 0), (24, 7), (20, 15), (15, 20), (7, 24), (0, 25))
                for sx in (1, -1) for sy in (1, -1)},
               key=lambda p: math.atan2(p[1], p[0]) % (2 * math.pi))


def _arc(points, centre, orientation, radius=None):
    radius = math.dist(points[0], centre) if radius is None else radius
    return FittedArc(tuple(points[0]), tuple(points[-1]), centre, radius, orientation, 0.0)


def _turns(points, centre=(0.0, 0.0), orientation="ccw"):
    """The direction check on the arc about `centre`, asserted equal to the
    exact oracle."""
    got = direction_and_endpoint_check(points, _arc(points, centre, orientation))
    assert got == oracles.turns_forward(points, centre, orientation)
    return got


def test_direction_check_both_orientations():
    assert len(_RING) == 20
    quarter = _RING[:6]
    assert _turns(quarter, orientation="ccw")
    assert not _turns(quarter, orientation="cw")
    assert _turns(quarter[::-1], orientation="cw")
    assert not _turns(quarter[::-1], orientation="ccw")


def test_direction_check_long_spans_and_full_turns():
    assert _turns(_RING[:14])  # 0 to 252 degrees, past a half-turn
    assert _turns(_RING)  # 0 to 343.7 degrees
    assert _turns(_RING[::-1][:-1] + [_RING[0]], orientation="cw")
    assert not _turns(_RING + [_RING[0]])  # back at the start: a full turn
    assert not _turns(_RING + [_RING[1]])
    # just short of the start ray after 359.8 degrees, and just past it
    assert _turns(_RING + [(250, -1)])
    assert not _turns(_RING + [(250, 1)])
    assert not _turns(_RING + [(250, -1), (250, 1)])


def test_direction_check_backward_steps():
    ring = list(_RING[:10])
    ring[4], ring[5] = ring[5], ring[4]
    assert not _turns(ring)
    # a point just behind the start, then the arc
    assert not _turns([_RING[0], (250, -1)] + _RING[1:6])
    assert not _turns([_RING[0], (250, 1)] + _RING[1:6], orientation="cw")
    assert _turns([_RING[0], (250, 1)] + _RING[1:6])


def test_direction_check_half_turn_counts_as_forward():
    # a step of exactly a half-turn goes forward in either orientation; a
    # second one completes the turn
    for orientation in ("ccw", "cw"):
        assert _turns([(25, 0), (-25, 0)], orientation=orientation)
        assert _turns([(0, 25), (3, 4), (0, -25)], orientation=orientation) == (orientation == "cw")
        assert not _turns([(25, 0), (-25, 0), (25, 0)], orientation=orientation)
        assert not _turns([(25, 0), (-25, 0), (50, 0)], orientation=orientation)
    assert _turns([(25, 0), (0, 25), (0, -25)])
    assert not _turns([(25, 0), (0, 25), (0, -25)], orientation="cw")
    assert _turns([(25, 0), (-25, 0), (0, -25)])
    assert not _turns([(25, 0), (-25, 0), (0, 25)])


def test_direction_check_exact_ties_fall_back():
    # a step along the radius, a point at the centre (the direction (1, 0)
    # of atan2(0, 0)) and a half-turn leave the float bound unsure
    for pts in ([(25, 0), (50, 0), (0, 25)], [(0, 25), (0, 0), (25, 0)],
                [(25, 0), (-25, 0), (0, -25)]):
        assert _turns_in_floats(pts, _arc(pts, (0.0, 0.0), "ccw")) is None
    assert _turns([(25, 0), (50, 0), (0, 25)])
    assert not _turns([(0, 25), (0, 0), (25, 0)])
    assert _turns([(0, 25), (0, 0), (0, -25)], orientation="cw")
    assert _turns_in_floats(_RING[:6], _arc(_RING[:6], (0.0, 0.0), "ccw")) is True


def test_direction_check_float_centres():
    # the ring about float centres a little off the origin, and four points
    # about (0.5, 0.1) that turn 327.6 degrees, then one more 1.5 degrees
    # past the start ray
    for centre in ((0.1, -0.3), (-0.25, 0.125), (1e-9, 3e-9)):
        assert _turns(_RING, centre)
        assert not _turns(_RING + [_RING[1]], centre)
        assert _turns(_RING[::-1], centre, "cw")
    assert _turns([(2, 0), (3, 5), (-4, -1), (2, -1)], (0.5, 0.1))
    assert not _turns([(2, 0), (3, 5), (-4, -1), (2, -1), (3, 0)], (0.5, 0.1))


def test_direction_check_near_the_float_range_of_ints():
    # coordinates near +-2^53 take the exact path; the verdicts are the
    # oracle's
    for base in (2 ** 53 - 40, -(2 ** 53) + 40, 2 ** 53):
        pts = [(base + x, base + y) for x, y in _RING[:12]]
        centre = (float(base), float(base))
        arc = _arc(pts, centre, "ccw")
        assert _turns_in_floats(pts, arc) is None
        assert _turns(pts, centre)
        assert not _turns(pts[::-1], centre)
        assert not _turns(pts + [pts[0]], centre)
    # a centre rounded to a float: the exact check decides from it as it is
    base = 2 ** 52 + 1
    pts = [(base + 3 * x, 3 * y) for x, y in _RING[:12]]
    assert _turns(pts, (float(base) + 0.5, 0.0))
    # ints past the float range go to the exact check as well
    far = [(10 ** 400, 0), (10 ** 400, 1), (10 ** 400 - 1, 2)]
    arc = _arc(far, (1e300, 0.0), "ccw", radius=1.0)
    assert _turns_in_floats(far, arc) is None
    assert direction_and_endpoint_check(far, arc) == oracles.turns_forward(far, arc.center, "ccw")


def test_direction_check_matches_oracle_on_random_lattices():
    # small grids make exact ties common: points on a common ray or at the
    # centre, opposite points, repeated points; centres on the grid, on
    # half-integers and off them
    rng = random.Random(21)
    fell_back = 0
    for _ in range(3000):
        n = rng.randint(2, 8)
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
        centre = rng.choice(((0.0, 0.0), (0.5, -0.5), (rng.uniform(-2, 2), rng.uniform(-2, 2)),
                             (float(rng.randint(-2, 2)), float(rng.randint(-2, 2)))))
        orientation = rng.choice(("ccw", "cw"))
        radius = rng.choice((math.dist(pts[0], centre), rng.uniform(0.01, 20)))
        arc = _arc(pts, centre, orientation, radius)
        fell_back += _turns_in_floats(pts, arc) is None
        assert direction_and_endpoint_check(pts, arc) == oracles.turns_forward(pts, centre, orientation)
    assert fell_back > 300


def _golden_cases():
    import test_golden
    return test_golden._cases()


def test_direction_check_matches_references_on_the_dp_arcs(monkeypatch):
    # every arc `_evaluate_arc` checks on the golden inputs (seeds 1 and 2):
    # the exact oracle and the former atan2 check agree with the check
    calls = []
    check = direction_and_endpoint_check

    def recorded(points, primitive):
        got = check(points, primitive)
        if isinstance(primitive, FittedArc):
            calls.append(got)
            assert got == oracles.turns_forward(points, primitive.center, primitive.orientation)
            assert got == oracles.turns_forward_by_atan2(points, primitive)
        return got

    monkeypatch.setattr(compress_module, "direction_and_endpoint_check", recorded)
    from arcline.pipeline import compress_polyline
    for _, case in _golden_cases():
        compress_polyline(case.points, case.tolerance)
    assert len(calls) > 5000 and 0 < calls.count(False) < len(calls) // 5


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
        assert not arc_within_tolerance(ls, pts, tol)
        arc = fit_arc_by_tolerance(pts, tol=tol)
        assert arc is not None
        assert arc_within_tolerance(arc, pts, tol * (1 + 1e-9))
        hit += 1
    assert hit == 3


@st.composite
def _floor_windows(draw):
    """Integer windows where the closed-form cost is hardest to get right:
    nearly exact arcs (E*G close to P^2, so the minimum is mostly
    cancellation), arcs whose chord is short against their extent, nearly
    straight walks, all optionally far from the origin."""
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
    recomputed independently of the library: the sums G, P and E about the
    exact chord midpoint in rationals, then the smaller root lam of
    4*h*lam^2 - (G + 4*h*E)*lam + (E*G - P^2) = 0 and P/(2*(E - lam)) in
    120-digit decimals; inf when f is least at infinity."""
    (ax, ay), (bx, by) = pts[0], pts[-1]
    mx, my = Fraction(ax + bx, 2), Fraction(ay + by, 2)
    nx, ny = ay - by, bx - ax  # the chord's normal, of length L
    l_sq = nx * nx + ny * ny
    h = Fraction(l_sq, 4)
    gg = ge = ee = 0  # ge and ee carry the factors L and L^2
    for x, y in pts:
        g = (x - mx) ** 2 + (y - my) ** 2 - h
        el = (x - mx) * nx + (y - my) * ny
        gg += g * g
        ge += g * el
        ee += el * el

    def dec(q):
        return Decimal(q.numerator) / Decimal(q.denominator)

    with localcontext() as ctx:
        ctx.prec = 120
        length = Decimal(l_sq).sqrt()
        G, P, E, H = dec(gg), dec(ge) / length, dec(ee) / l_sq, dec(h)
        bq = G + 4 * H * E
        lam = (bq - (bq * bq - 16 * H * (E * G - P * P)).sqrt()) / (8 * H)
        if E - lam <= 0:
            return INF
        return float(P / (2 * (E - lam)))


def _bisector_param(arc):
    """The arc's centre as a signed distance along the chord's unit normal
    from the chord midpoint."""
    (mx, my), (ux, uy), _ = _chord_frame(arc.start, arc.end)
    return (arc.center[0] - mx) * ux + (arc.center[1] - my) * uy


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_floor_windows())
def test_sse_floor_bounds_every_arc_through_the_anchors(case):
    # the floor is the cost of the least-squares arc, exactly, and every
    # other arc priced from the same sums costs at least that: the interval
    # fit's arc, every interval endpoint, s* recomputed independently, the
    # chord midpoint and far out on either side
    pts, factor = case
    moments = _Moments(pts)
    sums = moments.arc_sums(0, len(pts) - 1)
    floor = moments.arc_floor(0, len(pts) - 1, sums)
    assert 0.0 <= floor
    fit = fit_arc_least_squares(pts, sums)
    assert fit.sse == floor
    a, b = pts[0], pts[-1]
    worst = max(abs(math.dist(p, fit.center) - fit.radius) for p in pts)
    tol = max(0.5, worst * factor)
    arcs = [fit_arc_least_squares(pts)]
    fitted = fit_arc_by_tolerance(pts, tol=tol, seed_arc=fit, sums=sums)
    if fitted is not None:
        arcs.append(fitted)
    params = [s for p in pts for iv in tolerance_intervals_point(a, b, p, tol) for s in iv]
    length = _chord_frame(a, b)[2]
    params += [_sse_minimiser(pts), 0.0, 1e3 * length, -1e3 * length]
    fit_sums = _sse_minimum(*sums)
    l_sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    arcs += [_build_arc(a, b, s, pts, _arc_cost(fit_sums, s / length, l_sq))
             for s in params if math.isfinite(s)]
    assert all(floor <= arc.sse for arc in arcs), (floor, min(arc.sse for arc in arcs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_floor_windows(), st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4))
def test_arc_cost_matches_exact_sum(case, sigmas):
    # the closed-form cost against the sum of ((d^2 - r^2)/(2r))^2 in
    # rationals about the same centre, at s*, near it and elsewhere
    pts, _ = case
    fit = _sse_minimum(*_Moments(pts).arc_sums(0, len(pts) - 1))
    a, b = pts[0], pts[-1]
    l_sq = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    s_star = fit[1]
    if math.isfinite(s_star):
        sigmas = sigmas + [s_star, s_star * (1 + 1e-6) + 1e-9, s_star * (1 - 1e-3)]
    for sigma in sigmas:
        want = float(oracles.arc_cost(pts, sigma))
        assert abs(_arc_cost(fit, sigma, l_sq) - want) <= 1e-9 * want, (sigma, s_star)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_floor_windows())
def test_least_squares_fit_is_the_sse_minimiser(case):
    # the centre of `fit_arc_least_squares` is the minimiser s* of the
    # approximate SSE, from the prefix sums and from the window's own sums
    # alike, up to the rounding of a centre far from the origin
    pts, _ = case
    want = _sse_minimiser(pts)
    (mx, my), _, length = _chord_frame(pts[0], pts[-1])
    exact = fit_arc_least_squares(pts, _Moments(pts).arc_sums(0, len(pts) - 1))
    for arc in (exact, fit_arc_least_squares(pts)):
        if not abs(want) < SEGMENT_LIKE_RADIUS_FACTOR * length:
            assert arc.segment_like
            continue
        slack = 1e-9 * (abs(want) + length) + 1e-15 * (abs(mx) + abs(my))
        assert abs(_bisector_param(arc) - want) <= slack, (_bisector_param(arc), want)
    # and no arc through the anchors, at s* itself or elsewhere, is
    # cheaper than the floor
    moments = _Moments(pts)
    floor = moments.arc_floor(0, len(pts) - 1, moments.arc_sums(0, len(pts) - 1))
    if not exact.segment_like:
        assert floor <= exact.sse


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_moment_windows(), st.booleans())
def test_moment_range_sse_matches_direct_fraction_sum(case, coincide):
    # the squared distances to the line through pts[i] and pts[j], or to
    # pts[i] when the two coincide, summed directly in Fractions: integer
    # true division rounds correctly, so the float is the exact sum's
    pts, i, j = case
    if coincide:
        pts[j] = pts[i]
    (ax, ay), (bx, by) = pts[i], pts[j]
    dx, dy = bx - ax, by - ay
    len_sq = dx * dx + dy * dy
    total = Fraction(0)
    for x, y in pts[i:j + 1]:
        if len_sq:
            total += Fraction((dx * (y - ay) - dy * (x - ax)) ** 2, len_sq)
        else:
            total += (x - ax) ** 2 + (y - ay) ** 2
    assert _Moments(pts).range_sse(i, j) == float(total)
