"""The DP arc scan's anchored cut: the lemma behind `_no_circle_through` in
exact rationals, and the soundness of the cut against the DP's own arc set
(`_evaluate_arc` without a blocker cache, the fit the reference DP uses):
no start at or below a certified cut may have an arc.  Also the one-line
witness the window test runs before the same cut: exact where it
certifies, so it never settles a window the cut would reject."""

import importlib
import math
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from arcline.arcfit import (CHECK_ALLOWANCE, _anchor_sample, _inverted, _line_meets_discs,
                            _no_circle_through, _no_transversal, arc_exists_within_tolerance)
from arcline.compress import CompressionParams, _AnchoredCut, _evaluate_arc, compress
from arcline.pipeline import archimedean_spiral, choose_scale, compress_polyline, quantize_points

from oracles import exactly_within, within
from reference_dp import reference_compress

_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _unit(rng):
    """A rational unit vector in a random direction from a Pythagorean triple."""
    a, b, c = rng.choice(_TRIPLES)
    if rng.random() < 0.5:
        a, b = b, a
    return Fraction(rng.choice((-a, a)), c), Fraction(rng.choice((-b, b)), c)


def test_lemma_in_exact_rationals():
    # a circle through b with centre b + n/kappa: a point p with |p - b| > t
    # is within t of it iff |(p - b).n - kappa*w| <= t, w = (|p - b|^2 - t^2)/2;
    # a point within t of b is within t of every circle through b
    rng = random.Random(15)
    near = far_in = far_out = 0
    for _ in range(4000):
        b = (Fraction(rng.randint(-50, 50)), Fraction(rng.randint(-50, 50)))
        n = _unit(rng)
        kappa = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 600))
        centre = (b[0] + n[0] / kappa, b[1] + n[1] / kappa)
        r = 1 / abs(kappa)
        t = Fraction(rng.randint(1, 60), 10)
        if rng.random() < 0.2:  # a point close to b
            u = _unit(rng)
            s = t * Fraction(rng.randint(0, 30), 20)
            p = (b[0] + s * u[0], b[1] + s * u[1])
        else:  # a point pushed off the circle radially by up to 2t
            u = _unit(rng)
            s = r + t * Fraction(rng.randint(-40, 40), 20)
            p = (centre[0] + s * u[0], centre[1] + s * u[1])
        q = (p[0] - b[0], p[1] - b[1])
        q_sq = q[0] ** 2 + q[1] ** 2
        inside = within(p, centre, r, t)
        if q_sq <= t * t:
            assert inside
            near += 1
            continue
        w = (q_sq - t * t) / 2
        assert (abs(q[0] * n[0] + q[1] * n[1] - kappa * w) <= t) == inside
        far_in += inside
        far_out += not inside
    assert near > 100 and far_in > 500 and far_out > 500


@st.composite
def _polylines(draw):
    """Noisy arcs, spiral pieces, zigzags, nearly collinear runs and runs
    with repeated points, of 8-28 integer points, scaled by up to 2^40, with
    a tolerance around the noise."""
    kind = draw(st.sampled_from(("arc", "spiral", "zigzag", "collinear", "duplicates")))
    n = draw(st.integers(8, 28))
    scale = 2 ** draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "arc":
        r = rng.uniform(50, 5000)
        t0, sweep = rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 5.0)
        base = [(r * math.cos(t0 + sweep * i / n), r * math.sin(t0 + sweep * i / n)) for i in range(n)]
    elif kind == "spiral":
        sp = archimedean_spiral(1.0, 4.0, 0.3)
        s = rng.randrange(0, len(sp) - n)
        base = [(300 * x, 300 * y) for x, y in sp[s:s + n]]
    elif kind == "zigzag":
        step, amp = rng.uniform(5, 40), rng.uniform(2, 30)
        base = [(step * i, amp * (i % 2)) for i in range(n)]
    elif kind == "collinear":
        angle = rng.uniform(0, math.pi)
        base = [(20 * i * math.cos(angle) + rng.uniform(-1, 1), 20 * i * math.sin(angle) + rng.uniform(-1, 1))
                for i in range(n)]
    else:
        base = [(rng.choice((0, 10, 30)), rng.choice((0, 20))) for _ in range(n)]
    noise = rng.choice((0, 1, 3))
    pts = [(round(x * scale) + scale * rng.randint(-noise, noise),
            round(y * scale) + scale * rng.randint(-noise, noise)) for x, y in base]
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    tol = scale * rng.choice((0.5, 1.0, 2.0, 4.0)) * max(1, noise)
    return pts, tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_polylines())
def test_no_start_at_or_below_a_certified_cut_has_an_arc(case):
    # for every end vertex k, the highest m that the test certifies for k
    # (the searched cut is one of them) leaves no arc from any kp <= m
    pts, tol = case
    cut = _AnchoredCut(pts, tol)
    for k in range(3, len(pts)):
        m = max([m for m in range(k - 2) if cut.rejects(m, k)], default=-1)
        assert cut.below(k, 0, k - 3) <= m
        for kp in range(m + 1):
            assert _evaluate_arc(pts, kp, k, tol) is None, (kp, k, m)


def test_the_cut_removes_the_arcs_that_are_too_long():
    # a spiral: most start indices of the arc scans are cut, with the result
    # of the DP unchanged (the golden results pin that on the benchmark)
    pts = [(round(1000 * x), round(1000 * y)) for x, y in archimedean_spiral(1.0, 4.0, 0.3)]
    res = compress(pts, CompressionParams(tolerance=60))
    assert res.stats["arc_anchor_cut"] > res.stats["arc_evaluations"] > 0
    assert 0 < res.stats["anchor_tests"] < 3 * len(pts)


def test_large_radius_repro_keeps_its_one_arc():
    big_r, chord, n = 2e7, 2e4, 12
    h = math.asin(chord / 2 / big_r)
    pts = [(big_r * math.sin(t), big_r * math.cos(t) - big_r)
           for t in (-h + 2 * h * i / (n - 1) for i in range(n))]
    res = compress_polyline(pts, 1.0)
    assert res.t_count == 3 and [p.kind for p in res.primitives] == ["arc"]
    assert res.grid.stats["arc_anchor_cut"] == 0


def _wide_arc(zigzag: int):
    """12 integer points on an arc of radius 5e5 chords (chord 4e7), the
    inner ones moved alternately by +-zigzag across the chord."""
    chord, n = 4e7, 12
    big_r = 5e5 * chord
    h = math.asin(chord / 2 / big_r)
    pts = []
    for i in range(n):
        t = -h + 2 * h * i / (n - 1)
        off = 0 if i in (0, n - 1) else zigzag * (-1) ** i
        pts.append((round(big_r * math.sin(t)), round(big_r * math.cos(t) - big_r) + off))
    return pts


def _arcs_within_exactly(res, tol) -> bool:
    """`exactly_within` for every arc of a `compress` result and the
    vertices it covers."""
    return all(exactly_within(res.points[prim.start_idx:prim.end_idx + 1], prim.center, prim.radius, tol)
               for prim in res.primitives if prim.kind == "arc")


def test_wide_arc_is_not_cut():
    # radius about 5e5 chords: the one-arc result stands, and with the
    # zigzag the window gets no arc or one within the tolerance, exactly,
    # and the cut takes out no start that has an arc
    res = compress(_wide_arc(0), CompressionParams(tolerance=1.0))
    assert res.total[0] == 3 and [p.kind for p in res.primitives] == ["arc"]
    assert 4e5 < res.primitives[0].radius / 4e7 < 6e5
    assert res.stats["arc_anchor_cut"] == 0
    pts = _wide_arc(3)
    arc = _evaluate_arc(pts, 0, len(pts) - 1, 1.0)
    assert arc is None or exactly_within(pts, arc.center, arc.radius, 1.0)
    cut = _AnchoredCut(pts, 1.0).below(len(pts) - 1, 0, len(pts) - 4)
    assert all(_evaluate_arc(pts, kp, len(pts) - 1, 1.0) is None for kp in range(cut + 1))


def _large_radius_zigzag(scale):
    """30 integer points on an arc of radius 9e5 chords (chord 4e9), the
    inner ones moved alternately by +-8 across the chord, divided by
    `scale`."""
    big_r = 9e5 * 4e9
    h = math.asin(4e9 / 2 / big_r)
    pts = []
    for i in range(30):
        t = -h + 2 * h * i / 29
        off = 0 if i in (0, 29) else 8 * (-1) ** i
        x, y = round(big_r * math.sin(t)), round(big_r * math.cos(t) - big_r) + off
        pts.append((x / scale, y / scale))
    return pts


def test_large_radius_arcs_stay_within_tolerance_exactly():
    # radii of 5e5-9e5 chords: a check with a radius-proportional slack
    # accepted arcs up to 65 tolerances off on these (1.95 on _wide_arc(1),
    # 8.1 through compress_polyline on the zigzag, whose result had 55
    # penalty units then).  Every window's arc, and every arc of a result,
    # is checked
    grid = [(int(x), int(y)) for x, y in _large_radius_zigzag(1)]
    for pts in [_wide_arc(zigzag) for zigzag in range(9)] + [grid]:
        for k in range(3, len(pts)):
            for kp in range(k - 2):
                arc = _evaluate_arc(pts, kp, k, 1.0)
                assert arc is None or exactly_within(pts[kp:k + 1], arc.center, arc.radius, 1.0)
        assert _arcs_within_exactly(compress(pts, CompressionParams(tolerance=1.0)), 1.0)
    res = compress_polyline(_large_radius_zigzag(8), 1.0)
    assert _arcs_within_exactly(res.grid, res.scale)
    assert res.t_count == 58


@st.composite
def _wide_noisy_arcs(draw):
    """8 to 30 integer points within a few units of a nearly straight arc:
    chord 2^10 to 2^40 units, radius 10^2 to 10^6 chords, turned by a random
    angle, every point moved by up to +-8; coordinates up to about 2^40."""
    n = draw(st.integers(8, 30))
    chord = 2 ** draw(st.floats(10, 40))
    big_r = chord * 10 ** draw(st.floats(2, 6))
    turn = draw(st.floats(0, 2 * math.pi))
    noise = draw(st.integers(0, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    h = math.asin(chord / 2 / big_r)
    c, s = math.cos(turn), math.sin(turn)
    pts = []
    for i in range(n):
        t = -h + 2 * h * i / (n - 1)
        x, y = big_r * math.sin(t), big_r * math.cos(t) - big_r
        pts.append((round(c * x - s * y) + rng.randint(-noise, noise),
                    round(s * x + c * y) + rng.randint(-noise, noise)))
    return pts, draw(st.sampled_from((0.5, 1.0, 2.0, 4.0)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_wide_noisy_arcs())
def test_wide_noisy_arcs_within_tolerance_exactly_and_optimal(case):
    # every arc of the result covers its vertices within tol*(1 + 1e-9),
    # in rationals, and the pruned DP reaches the unpruned reference's totals
    pts, tol = case
    res = compress(pts, CompressionParams(tolerance=tol))
    assert _arcs_within_exactly(res, tol)
    want_total, _, _ = reference_compress(pts, tol)
    assert res.total[0] == want_total[0]
    assert abs(res.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))


def test_long_spiral_arc_evaluations_stay_bounded():
    # scale guard, counted rather than timed: the 1 507-vertex spiral made
    # 177 371 arc evaluations before the anchored cut and 3 290 with it
    res = compress_polyline(archimedean_spiral(1, 10, 0.25), 0.1)
    assert len(res.grid.points) == 1507
    assert res.grid.stats["arc_evaluations"] <= 10_000


def _window(rng):
    """A window of integer points and its t: a noisy arc with its noise
    near t, a nearly collinear run, or either with points within 2t of its
    last point b, at t from tiny to huge."""
    n = rng.randint(5, 40)
    size = 10.0 ** rng.uniform(1, 8)
    t = size * 10.0 ** rng.choice((-12, -4, -3, -2, -1, 0))
    noise = t * rng.uniform(0.2, 1.6)
    if rng.random() < 0.5:  # an arc of a circle, pushed off it radially
        r = size * 10.0 ** rng.uniform(-0.5, 2)
        t0, sweep = rng.uniform(0, 2 * math.pi), size / r * rng.uniform(0.5, 3)
        pts = [(r + rng.uniform(-noise, noise), t0 + sweep * i / (n - 1)) for i in range(n)]
        pts = [(round(d * math.cos(a)), round(d * math.sin(a))) for d, a in pts]
    else:  # a line, pushed off it
        angle = rng.uniform(0, math.pi)
        ux, uy = math.cos(angle), math.sin(angle)
        pts = [(size * i / (n - 1), rng.uniform(-noise, noise)) for i in range(n)]
        pts = [(round(x * ux - y * uy), round(x * uy + y * ux)) for x, y in pts]
    if rng.random() < 0.3:  # points close to b
        bx, by = pts[-1]
        for i in rng.sample(range(n - 1), rng.randint(1, 3)):
            pts[i] = (bx + round(rng.uniform(-2 * t, 2 * t)), by + round(rng.uniform(-2 * t, 2 * t)))
    return pts, t


def _line_meets_exactly(b, points, t, direction) -> bool:
    """Some line with the direction (dx, dy) meets every disc of the exact
    inversion about b, in rationals, of the points `_inverted` keeps."""
    t_exact = Fraction(t)
    dx, dy = map(Fraction, direction)
    m_sq = dx * dx + dy * dy
    discs = []
    for x, y in points:
        qx, qy = x - b[0], y - b[1]
        if qx * qx + qy * qy > 4 * (t * t):  # the far points, as `_inverted` picks them
            w = (Fraction(qx * qx + qy * qy) - t_exact * t_exact) / 2
            discs.append((dx * qy / w - dy * qx / w, t_exact / w))
    # one line meets every disc iff every pair has |e_i - e_j| <= (d_i + d_j)*|m|
    return all((e_i - e_j) ** 2 <= (d_i + d_j) ** 2 * m_sq
               for (e_i, d_i), (e_j, d_j) in combinations(discs, 2))


def test_witness_certifies_only_what_the_pairwise_cut_leaves_feasible():
    rng = random.Random(2024)
    certified = rejected = 0
    for _ in range(2000):
        pts, t = _window(rng)
        k = len(pts) - 1
        sample = _anchor_sample(pts, 0, k)
        inverted = _inverted(pts[k], sample, t)
        if _line_meets_discs(*inverted, t):
            certified += 1
            xs, ys, _ = inverted
            direction = (xs[-1] - xs[0], ys[-1] - ys[0]) if len(xs) > 1 else (1.0, 0.0)
            assert _line_meets_exactly(pts[k], sample, t, direction)
            assert not _no_transversal(*inverted, t)
            assert not _no_circle_through(pts[k], sample, t)
        else:
            rejected += _no_transversal(*inverted, t)
    assert certified > 600 and rejected > 300


def test_window_verdicts_are_the_pairwise_cuts_on_the_benchmark_inputs(monkeypatch):
    # every window the arc table tests on the seed-1 and seed-2 spiral,
    # tracks and contours inputs gets the verdict of the cut alone
    feasibility = importlib.import_module("arcline.feasibility")
    import test_golden
    windows = []

    def compared(points, tol):
        got = arc_exists_within_tolerance(points, tol)
        k = len(points) - 1
        t = 2 * float(tol) * (1 + 2 * CHECK_ALLOWANCE)
        assert got == (not _no_circle_through(points[k], _anchor_sample(points, 0, k), t))
        windows.append(got)
        return got

    monkeypatch.setattr(feasibility, "arc_exists_within_tolerance", compared)
    for _, case in test_golden._cases():
        scale = choose_scale(case.tolerance)
        grid = quantize_points(case.points, scale)
        grid = [p for i, p in enumerate(grid) if i == 0 or p != grid[i - 1]]
        feasibility.test_arcs(grid, case.tolerance * scale)
    assert len(windows) > 10_000 and 0 < windows.count(False) < len(windows) // 10
