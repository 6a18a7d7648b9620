import math
import random

import pytest

from arcline.compress import CompressionParams, compress
from arcline.pipeline import archimedean_spiral, choose_scale, compress_polyline

from reference_dp import reference_compress


def test_empty_rejected():
    with pytest.raises(ValueError):
        compress([], CompressionParams(tolerance=1))


def test_single_point():
    res = compress([(5, 5)], CompressionParams(tolerance=1))
    assert res.primitives == [] and res.total == (0, 0.0)


def test_collinear_single_segment():
    res = compress([(i, 0) for i in range(20)], CompressionParams(tolerance=3))
    assert res.total == (2, 0.0)
    assert [(p.kind, p.start_idx, p.end_idx) for p in res.primitives] == [("segment", 0, 19)]


def test_circle_single_arc():
    scale = 10 ** 5
    pts = [(round(scale * math.cos(a)), round(scale * math.sin(a)))
           for a in [k * 2 * math.pi / 40 for k in range(25)]]
    res = compress(pts, CompressionParams(tolerance=50))
    assert len(res.primitives) == 1
    assert res.primitives[0].kind == "arc"
    assert res.total[0] == 3
    assert res.total[1] < 1e-9 * scale ** 2


def test_segment_preferred_on_tie():
    # both a segment and an arc can cover collinear-ish points; the cheaper
    # segment must win
    pts = [(i * 100, 0) for i in range(6)]
    res = compress(pts, CompressionParams(tolerance=10))
    assert res.total[0] == 2 and res.primitives[0].kind == "segment"


def test_l_shape_two_segments():
    pts = [(i, 0) for i in range(10)] + [(9, i) for i in range(1, 10)]
    res = compress(pts, CompressionParams(tolerance=1))
    assert res.total[0] == 4
    kinds = [p.kind for p in res.primitives]
    assert kinds == ["segment", "segment"]
    assert res.primitives[0].end_idx == res.primitives[1].start_idx


def test_chain_structure_and_total_recomputation():
    random.seed(110)
    for _ in range(20):
        n = random.randint(2, 30)
        pts = [(random.randint(0, 300), random.randint(0, 300)) for _ in range(n)]
        res = compress(pts, CompressionParams(tolerance=20))
        assert res.primitives[0].start_idx == 0
        assert res.primitives[-1].end_idx == len(res.points) - 1
        for a, b in zip(res.primitives, res.primitives[1:]):
            assert a.end_idx == b.start_idx
        count = sum(2 if p.kind == "segment" else 3 for p in res.primitives)
        assert count == res.total[0]


def test_matches_unpruned_reference():
    random.seed(111)
    checked = 0
    for trial in range(60):
        n = random.randint(2, 24)
        style = trial % 3
        if style == 0:
            pts = [(random.randint(0, 400), random.randint(0, 400)) for _ in range(n)]
        elif style == 1:
            pts = [(0, 0)]
            for _ in range(n - 1):
                pts.append((pts[-1][0] + random.randint(5, 60),
                            pts[-1][1] + random.randint(-30, 30)))
        else:
            r = random.randint(100, 800)
            a0 = random.uniform(0, 6)
            pts = [(round(r * math.cos(a0 + 0.2 * i)) + random.randint(-3, 3),
                    round(r * math.sin(a0 + 0.2 * i)) + random.randint(-3, 3))
                   for i in range(n)]
        tol = random.choice([3, 10, 40])
        got = compress(pts, CompressionParams(tolerance=tol))
        want_total, _, _ = reference_compress(pts, tol)
        assert got.total[0] == want_total[0], (pts, tol)
        assert abs(got.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))
        checked += 1
    assert checked == 60


def test_pruning_reduces_evaluations_not_totals():
    random.seed(112)
    for _ in range(12):
        n = random.randint(8, 24)
        pts = [(random.randint(0, 300), random.randint(0, 300)) for _ in range(n)]
        pruned = compress(pts, CompressionParams(tolerance=15, pruned=True))
        full = compress(pts, CompressionParams(tolerance=15, pruned=False))
        assert pruned.total[0] == full.total[0]
        assert abs(pruned.total[1] - full.total[1]) <= 1e-9 * max(1.0, abs(full.total[1]))
        n_pruned = pruned.stats["segment_evaluations"] + pruned.stats["arc_evaluations"]
        n_full = full.stats["segment_evaluations"] + full.stats["arc_evaluations"]
        assert n_pruned <= n_full


def test_consecutive_duplicates_collapse():
    res = compress([(0, 0), (0, 0), (5, 0), (5, 0), (9, 0)], CompressionParams(tolerance=1))
    assert res.total == (2, 0.0)
    assert len(res.points) == 3


def test_vertices_within_tolerance_of_primitive():
    random.seed(113)
    for _ in range(10):
        n = random.randint(5, 40)
        pts = [(random.randint(0, 500), random.randint(0, 500)) for _ in range(n)]
        tol = 30
        res = compress(pts, CompressionParams(tolerance=tol))
        gp = res.points
        for prim in res.primitives:
            for i in range(prim.start_idx, prim.end_idx + 1):
                p = gp[i]
                if prim.kind == "segment":
                    a, b = gp[prim.start_idx], gp[prim.end_idx]
                    dx, dy = b[0] - a[0], b[1] - a[1]
                    l2 = dx * dx + dy * dy
                    if l2 == 0:
                        d = math.dist(p, a)
                    else:
                        t = min(1, max(0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / l2))
                        d = math.dist(p, (a[0] + t * dx, a[1] + t * dy))
                else:
                    d = abs(math.dist(p, prim.center) - prim.radius)
                assert d <= tol * (1 + 1e-9) + 1e-6


def test_mode_segments_densifies():
    pts = [(0, 0), (100000, 0), (100000, 100000)]
    res = compress(pts, CompressionParams(tolerance=500, mode="segments"))
    assert len(res.points) > 3  # densified
    assert res.total[0] == 4  # still two clean segments


def test_float_pipeline_and_spiral_property():
    sp = archimedean_spiral(1.0, 3.0, 0.3)
    res = compress_polyline(sp, 0.1)
    assert res.t_count == res.grid.total[0]
    assert len(res.primitives) < len(sp) / 4
    arcs = [p for p in res.primitives if p.kind == "arc"]
    assert len(arcs) >= len(res.primitives) - 2
    radii = [p.radius for p in arcs]
    assert all(b > a * 0.8 for a, b in zip(radii, radii[1:]))  # radii grow outward


def test_choose_scale():
    assert choose_scale(1.0) == 1024
    assert choose_scale(0.1) == 16384
    assert choose_scale(2048.0) == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        CompressionParams(tolerance=0)
    with pytest.raises(ValueError):
        CompressionParams(tolerance=1, penalty_segment=0)
    with pytest.raises(ValueError):
        CompressionParams(tolerance=1, mode="nope")
    with pytest.raises(ValueError):
        CompressionParams(tolerance=1, min_arc_points=3)
    with pytest.raises(ValueError):
        CompressionParams(tolerance=1, min_arc_points=8, max_arc_points=5)
    CompressionParams(tolerance=1, min_arc_points=8, max_arc_points=0)  # 0 = unlimited


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_rejected(bad):
    with pytest.raises(ValueError, match="non-finite coordinate"):
        compress_polyline([(0.0, 0.0), (1.0, bad), (2.0, 0.0)], 0.1)


def test_closed_polylines_match_reference():
    # a polyline that returns to an earlier vertex: an arc never starts and
    # ends on the same vertex, and the result is still the optimum
    square = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    rng = random.Random(114)
    circle = [(math.cos(2 * math.pi * k / 24) + rng.gauss(0, 0.002),
               math.sin(2 * math.pi * k / 24) + rng.gauss(0, 0.002)) for k in range(24)]
    circle.append(circle[0])
    for pts, tol in ((square, 0.1), (circle, 0.01)):
        res = compress_polyline(pts, tol)
        want_total, want_count, _ = reference_compress(res.grid.points, tol * res.scale)
        assert res.t_count == want_total[0] and len(res.primitives) == want_count
        assert abs(res.grid.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))
        assert res.primitives[-1].end == res.primitives[0].start
        assert all(p.start != p.end for p in res.primitives if p.kind == "arc")


def test_arc_accepted_via_tolerance_fallback_in_dp():
    # a noisy arc whose least-squares fit misses the tolerance: the DP can
    # only produce a single arc through the interval-fit fallback
    rng = random.Random(5)
    r = rng.uniform(20, 60)
    t0 = rng.uniform(0, 5)
    scale = 1000
    pts = [(round(scale * (r * math.cos(t0 + 0.25 * k) + rng.gauss(0, 1.0))),
            round(scale * (r * math.sin(t0 + 0.25 * k) + rng.gauss(0, 1.0))))
           for k in range(8)]
    tol = 1.223586 * scale
    res = compress(pts, CompressionParams(tolerance=tol))
    assert res.total[0] == 3
    assert [p.kind for p in res.primitives] == ["arc"]
