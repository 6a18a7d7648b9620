import importlib
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arcline import annulus
from arcline.arcfit import FittedArc, _Moments, fit_arc_by_tolerance, fit_arc_least_squares
from arcline.compress import (PROBE_POINTS, CompressionParams, _BlockerCache, _evaluate_arc,
                              compress)
from arcline.feasibility import InfeasiblePairList
from arcline.feasibility import test_segments as scan_segments
from arcline.hulltree import HullTree
from arcline.pipeline import archimedean_spiral, choose_scale, compress_polyline, quantize_points
from arcline.voronoi import ClipConfig

from reference_dp import reference_compress
from test_acceptance import assert_within_tolerance
from test_golden import _cases

# the module itself: the package exports the function `compress` by that name
compress_module = importlib.import_module("arcline.compress")


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
        pruned = compress(pts, CompressionParams(tolerance=15))
        full_total, _, n_full = reference_compress(pts, 15)
        assert pruned.total[0] == full_total[0]
        assert abs(pruned.total[1] - full_total[1]) <= 1e-9 * max(1.0, abs(full_total[1]))
        n_pruned = pruned.stats["segment_evaluations"] + pruned.stats["arc_evaluations"]
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


@pytest.mark.parametrize("tol", [10 ** 400, Fraction(10 ** 400, 3), math.nan, math.inf])
def test_tolerance_past_the_float_range_rejected(tol):
    # a tolerance whose float is not finite is a documented error, not an
    # OverflowError from deep inside the compressor
    with pytest.raises(ValueError, match="tolerance"):
        compress([(0, 0), (5, 3), (9, 0)], CompressionParams(tolerance=tol))


@pytest.mark.parametrize("tol", ["1", None, 1j], ids=["str", "None", "complex"])
def test_tolerance_not_a_real_number_rejected(tol):
    # a documented ValueError naming the tolerance, not a TypeError from `<`
    with pytest.raises(ValueError, match="tolerance"):
        CompressionParams(tolerance=tol)
    with pytest.raises(ValueError, match="tolerance"):
        choose_scale(tol)
    for scale in (None, 1024.0):
        with pytest.raises(ValueError, match="tolerance"):
            compress_polyline([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], tol, scale=scale)


@pytest.mark.parametrize("vertex", [(2,), ("a", 1), (1, None), (1, 2, 3), 5, "ab", (1, 1j)],
                         ids=repr)
def test_vertex_not_a_pair_of_real_numbers_rejected(vertex):
    # a ValueError that gives the vertex's index, not Python's own message
    pts = [(0.0, 0.0), (1.0, 1.0), vertex, (3.0, 0.0)]
    with pytest.raises(ValueError, match=r"^vertex 2 is not a pair of real numbers"):
        compress_polyline(pts, 0.1)


def test_vertex_past_the_float_range_rejected():
    with pytest.raises(ValueError, match="^vertex 1: coordinate past the float range"):
        compress_polyline([(0, 0), (10 ** 400, 0), (2, 0)], 0.1)


@pytest.mark.parametrize("name, value", [("min_arc_points", 4.5), ("min_arc_points", math.inf),
                                         ("min_arc_points", "5"), ("penalty_arc", math.nan),
                                         ("penalty_arc", 2.5), ("penalty_segment", 2.0)])
def test_non_integer_or_small_counts_rejected(name, value):
    # penalties and min_arc_points are integers: a float would give a float
    # t_count, and a nan penalty would pass every comparison
    with pytest.raises(ValueError, match=name):
        compress_polyline(archimedean_spiral(1, 2, 0.2), 0.1, **{name: value})


def test_integral_params_are_stored_as_ints():
    # numpy's integers count, and become ints that `MergeTree` can index with
    params = CompressionParams(penalty_arc=np.int64(3), min_arc_points=np.int64(5))
    assert type(params.penalty_arc) is int and type(params.min_arc_points) is int
    spiral = archimedean_spiral(1, 2, 0.2)
    assert (compress_polyline(spiral, 0.1, min_arc_points=np.int64(5)).t_count
            == compress_polyline(spiral, 0.1, min_arc_points=5).t_count)


@pytest.mark.parametrize("kind", ["float32", "float64", "int64", "int", "float", "Fraction",
                                  "longdouble"])
def test_tolerance_of_any_real_type_gives_the_equal_python_numbers_results(kind):
    # numpy scalars are read through their exact ratio: no TypeError from
    # Fraction(numpy.float32), no OverflowError from numpy.int64 times a
    # big int, and no overflow warning from comparing with the float limit;
    # a long double that no float holds becomes the equal Fraction
    numpy = pytest.importorskip("numpy")
    if kind == "longdouble" and numpy.finfo(numpy.longdouble).nmant < 60:
        pytest.skip("numpy.longdouble is no wider than a float here")
    value = {"float32": 0.75, "float64": 0.3, "int64": 2, "int": 2, "float": 0.3,
             "Fraction": Fraction(3, 4), "longdouble": 1 + Fraction(1, 2 ** 60)}[kind]
    tol = {"float32": numpy.float32, "float64": numpy.float64, "int64": numpy.int64,
           "int": int, "float": float, "Fraction": Fraction,
           "longdouble": lambda v: numpy.longdouble(1) + numpy.longdouble(2) ** -60}[kind](value)
    spiral = archimedean_spiral(3, 2, 0.5)
    grid = quantize_points(spiral, 2.0)
    # a chord 5 * 2^39 long, its middle vertex 0, 5 or 10 off the line
    far = (3 * 2 ** 39, 4 * 2 ** 39)
    trees = [HullTree([(0, 0), (3 * 2 ** 38 - 4 * k, 4 * 2 ** 38 + 3 * k), far]) for k in (0, 1, 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compress(grid, CompressionParams(tolerance=tol))
        want = compress(grid, CompressionParams(tolerance=value))
        assert (got.primitives, got.total, got.stats) == (want.primitives, want.total, want.stats)
        assert scan_segments(grid, tol).verdicts == scan_segments(grid, value).verdicts
        got = compress_polyline(spiral, tol)
        want = compress_polyline(spiral, value)
        assert got.primitives == want.primitives and got.t_sse == want.t_sse
        assert got.scale == want.scale == choose_scale(tol)
        assert len(want.primitives) > 1
        assert ([t.segment_within_tolerance(0, 2, (0, 0), far, tol * 3) for t in trees]
                == [t.segment_within_tolerance(0, 2, (0, 0), far, value * 3) for t in trees])
    stored = CompressionParams(tolerance=tol).tolerance
    assert stored == value and type(stored) is type(value)


@pytest.mark.parametrize("scale", [0, -1.0, math.nan, math.inf,
                                   pytest.param(10 ** 400, id="10**400"),
                                   pytest.param(2 ** 1100, id="2**1100")])
def test_scale_not_positive_and_finite_rejected(scale):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        compress_polyline([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], 0.1, scale=scale)


def test_empty_polyline_rejected():
    with pytest.raises(ValueError, match="empty polyline"):
        compress_polyline([], 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_rejected(bad):
    with pytest.raises(ValueError, match="non-finite coordinate"):
        compress_polyline([(0.0, 0.0), (1.0, bad), (2.0, 0.0)], 0.1)


@pytest.mark.parametrize("angle", [1e-320, math.nan])
def test_tiny_or_nan_min_arc_angle_rejected(angle):
    # 1e-320 rad leaves no finite clip radius; NaN is out of every range
    with pytest.raises(ValueError, match="min_arc_angle"):
        ClipConfig(angle, 1.0)


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


def test_collinear_window_is_arc_feasible():
    # the last four points are collinear: their strip width is 0, so no
    # certificate can reject the window, and an arc of large radius covers it
    pts = [(-26, 29), (-31, 26), (-33, 22), (-35, 18), (-37, 14)]
    res = compress(pts, CompressionParams(tolerance=2))
    want_total, want_count, _ = reference_compress(pts, 2)
    assert res.total == want_total and len(res.primitives) == want_count == 1
    assert res.primitives[0].kind == "arc"


@pytest.mark.parametrize("pts, tol", [([(0, 0), (1e300, 0), (2e300, 1)], 1.0),
                                      ([(0, 0), (1, 1), (2, 0), (3, 1)], 1e-200),
                                      ([(0, 0), (1, 1), (2, 0), (3, 1)], 1e-300),
                                      ([(0, 0), (1, 1), (2, 0), (3, 1)], 1e-310)])
def test_coordinates_beyond_the_grid_rejected(pts, tol):
    with pytest.raises(ValueError, match=r"2\*\*53|scale overflows"):
        compress_polyline(pts, tol)


def test_grid_bound_and_huge_tolerance():
    with pytest.raises(ValueError, match=r"2\*\*53"):
        compress([(0, 0), (2 ** 53 + 1, 0)], CompressionParams(tolerance=1))
    assert compress([(0, 0), (2 ** 53, 1)], CompressionParams(tolerance=1)).total == (2, 0.0)
    # both points share one grid point, whose scale squared underflows
    res = compress_polyline([(0, 0), (1, 1)], 1e300)
    assert (res.t_count, res.t_sse, res.primitives) == (0, 0.0, [])


@pytest.mark.parametrize("bad", [0.5, 1e-300, math.inf, math.nan, Fraction(1, 2), "3"])
def test_non_integer_grid_coordinates_rejected(bad):
    # the grid API takes integers (floats with an integral value count as
    # those integers); anything else is a documented ValueError, not a
    # TypeError from deep inside the exact arithmetic
    pts = [(0, 0), (1, bad), (2, 0), (3, 1), (4, 0)]
    with pytest.raises(ValueError, match="must be integers"):
        compress(pts, CompressionParams(tolerance=1.0))
    with pytest.raises(ValueError, match="must be integers"):
        compress([(bad, 0), (1, 1)], CompressionParams(tolerance=1.0, mode="segments"))


def test_integral_float_grid_coordinates_taken_as_integers():
    pts = [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0), (5, 1)]
    floats = [(float(x), float(y)) for x, y in pts]
    want = compress(pts, CompressionParams(tolerance=1.0))
    got = compress(floats, CompressionParams(tolerance=1.0))
    assert got.total == want.total and got.points == want.points == pts
    assert all(type(c) is int for p in got.points for c in p)


def test_segment_with_coincident_anchors_charged_its_deviation():
    # a chord from a vertex back to itself has no line: every vertex it
    # covers is charged its squared distance from the shared anchor
    square = [(0, 0), (3, 0), (3, 3), (0, 3), (0, 0)]
    for pts, want in ((square, (2, 36.0)), ([(0, 0), (3, 0), (0, 0)], (2, 9.0))):
        res = compress(pts, CompressionParams(tolerance=5))
        assert res.total == want
        assert reference_compress(pts, 5)[0] == want


def test_segment_whose_vertices_step_backwards_rejected():
    # vertex 2 lies one unit behind vertex 1 on a chord 2^54 long: float
    # positions along it round the step away, the exact direction check
    # does not, so no segment covers both
    pts = [(-2 ** 53, 0), (2 ** 53 - 44, 0), (2 ** 53 - 45, 0), (2 ** 53, 0)]
    res = compress(pts, CompressionParams(tolerance=1.0))
    assert [(p.kind, p.start_idx, p.end_idx) for p in res.primitives] == [
        ("segment", 0, 1), ("segment", 1, 2), ("segment", 2, 3)]
    assert res.total == (6, 0.0) == reference_compress(pts, 1.0)[0]


def test_noisy_straight_run_scans_few_segment_candidates():
    # 700 vertices within +-0.3 of a line, tol 0.5: the cone walk opens each
    # segment scan at the first start whose chord can still pass, where the
    # hull-width scan it replaced admitted nearly every start, and decides
    # every candidate without the exact checks
    rng = random.Random(5)
    pts = [(float(x), rng.uniform(-0.3, 0.3)) for x in range(700)]
    res = compress_polyline(pts, 0.5)
    assert (res.t_count, res.t_sse) == (2, 27.754987838132973)
    assert res.grid.stats["segment_evaluations"] <= 15_000
    assert res.grid.stats["segment_fallbacks"] == 0


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


def _noisy_arcs(rng, n):
    # tangent-continuous arcs of random curvature, about 30 vertices each
    x = y = 0.0
    heading = rng.uniform(0, 6)
    pts = []
    for i in range(n):
        if i % 30 == 0:
            curvature = rng.choice((-1, 1)) * rng.uniform(1 / 4000, 1 / 1000)
        pts.append((round(x) + rng.randint(-3, 3), round(y) + rng.randint(-3, 3)))
        x += 100 * math.cos(heading)
        y += 100 * math.sin(heading)
        heading += 100 * curvature
    return pts


def _spiral_piece(rng, n):
    sp = archimedean_spiral(1.0, 4.0, 0.3)
    s = rng.randrange(0, len(sp) - n)
    return [(round(1000 * x), round(1000 * y)) for x, y in sp[s:s + n]]


def _summary(res):
    return (res.total, [(p.kind, p.start_idx, p.end_idx, p.center, p.radius) for p in res.primitives])


def test_blocker_probe_matches_unpruned_reference_on_long_inputs(monkeypatch):
    # the blocker probe rejects arc candidates before any fit; the reference
    # evaluates every candidate without a blocker cache, so it is an oracle
    # independent of the probe.  The scan evaluates only the candidates
    # whose SSE floor still lets them win or tie, and ends exactly where the
    # eager scan (every floor 0: candidates in ascending order of their
    # accumulated cost) ends
    rng = random.Random(115)
    rejections = drops = 0
    zero_floors = []

    def zero_floor(moments, kp, k, sums):
        zero_floors.append((kp, k))
        return 0.0

    for make, n, tol in ((_noisy_arcs, 60, 6), (_noisy_arcs, 90, 8), (_noisy_arcs, 120, 5),
                         (_spiral_piece, 60, 100), (_spiral_piece, 90, 60),
                         (_spiral_piece, 120, 100)):
        pts = make(rng, n)
        got = compress(pts, CompressionParams(tolerance=tol))
        rejections += got.stats["arc_probe_rejections"]
        drops += got.stats["arc_floor_drops"]
        with monkeypatch.context() as m:
            m.setattr(compress_module._Moments, "arc_floor", zero_floor)
            eager = compress(pts, CompressionParams(tolerance=tol))
        # the scan prices its floors through the patched seam, so the eager
        # run is a different scan and not the same one twice
        assert zero_floors, (make.__name__, n)
        zero_floors.clear()
        assert got.stats["arc_evaluations"] <= eager.stats["arc_evaluations"], (make.__name__, n)
        assert _summary(got) == _summary(eager)
        want_total, want_count, _ = reference_compress(pts, tol)
        assert got.total[0] == want_total[0] and len(got.primitives) == want_count, (make.__name__, n)
        assert abs(got.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))
    assert rejections > 0 and drops > 0


def test_floor_is_the_least_squares_arcs_cost_and_bounds_every_evaluated_arc():
    # every arc `_evaluate_arc` returns for a candidate is priced from the
    # same sums as the candidate's floor: the least-squares arc costs the
    # floor exactly, an interval-end arc at least as much
    rng = random.Random(20)
    exact = above = 0
    for make, n, tol in ((_noisy_arcs, 50, 6), (_noisy_arcs, 50, 3), (_spiral_piece, 50, 60)):
        pts = make(rng, n)
        moments = _Moments(pts)
        for k in range(3, n):
            for kp in range(max(0, k - 30), k - 2):
                sums = moments.arc_sums(kp, k)
                arc = _evaluate_arc(pts, kp, k, tol, None, sums)
                if arc is None:
                    continue
                floor = moments.arc_floor(kp, k, sums)
                assert floor <= arc.sse, (make.__name__, kp, k)
                if arc.center == fit_arc_least_squares(pts[kp:k + 1]).center:
                    assert arc.sse == floor
                    exact += 1
                else:
                    above += arc.sse > floor
    assert exact > 0 and above > 0


def test_evaluate_arc_gives_the_same_arc_from_the_scans_sums():
    # the sums the scan computed for a candidate's floor stand in for the
    # window's own: the same exact integers, so the same arc, whether the
    # least-squares arc passes or the interval fit takes over
    rng = random.Random(21)
    fitted = {"least_squares": 0, "interval": 0}
    for make, n, tol in ((_noisy_arcs, 40, 6), (_noisy_arcs, 40, 3), (_spiral_piece, 40, 60)):
        pts = make(rng, n)
        moments = _Moments(pts)
        for k in range(3, n):
            for kp in range(max(0, k - 25), k - 2):
                arc = _evaluate_arc(pts, kp, k, tol, None, moments.arc_sums(kp, k))
                assert arc == _evaluate_arc(pts, kp, k, tol), (make.__name__, kp, k)
                if arc is not None:
                    least_squares = arc.center == fit_arc_least_squares(pts[kp:k + 1]).center
                    fitted["least_squares" if least_squares else "interval"] += 1
    assert all(fitted.values()), fitted


@st.composite
def _arc_tables(draw):
    """A zigzag that no segment longer than one step covers, and a table of
    made-up arc candidates with dyadic SSEs and floors, so that costs tie
    often: per (kp, k) a floor and the SSE of the evaluated arc, None when
    the evaluation rejects the candidate."""
    n = draw(st.integers(6, 16))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [(4 * i, 8 * (i % 2)) for i in range(n)]
    table = {}
    for k in range(3, n):
        for kp in range(k - 2):
            sse = rng.choice((None, None, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
            if sse is None:
                floor = rng.choice((0.0, 0.5, 2.0))
            else:
                floor = rng.choice((sse, sse, sse / 2, 0.0))
            table[kp, k] = (floor, sse)
    return pts, table


def _polish_scans(pts, table):
    """The chains the best-first scan and the eager scan (every floor 0)
    choose on `pts` with the made-up arc candidates of `table`, with the
    anchored cut off: it changes only the work, and the table's arcs are
    not real arcs of pts."""
    def run(floors: bool):
        calls = {"floor": 0, "evaluate": 0}

        def arc_floor(moments, kp, k, sums):
            calls["floor"] += 1
            return table[kp, k][0] if floors else 0.0

        def evaluate_arc(pts, kp, k, tol, blockers=None, sums=None):
            calls["evaluate"] += 1
            sse = table[kp, k][1]
            return None if sse is None else FittedArc(pts[kp], pts[k], (0.0, 0.0), 1.0, "ccw", sse)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(compress_module._Moments, "arc_floor", arc_floor)
            m.setattr(compress_module, "_evaluate_arc", evaluate_arc)
            # no window is infeasible and no start is cut: the table's arcs
            # stand for themselves
            m.setattr(compress_module, "test_arcs",
                      lambda pts, *args: InfeasiblePairList.from_pairs([], len(pts)))
            m.setattr(compress_module._AnchoredCut, "below", lambda self, k, lo, hi: lo - 1)
            got = compress(pts, CompressionParams(tolerance=0.5, penalty_arc=1))
        # the patched seams are the ones the scan calls
        assert calls["floor"] > 0 and calls["evaluate"] > 0, calls
        return got

    return run(True), run(False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_arc_tables())
def test_best_first_polish_matches_eager_scan_on_cost_ties(case):
    # made-up arc evaluations whose costs tie often: every candidate that
    # the eager scan would have evaluated and whose floor can still win or
    # tie is evaluated, so T, the back pointers and the primitives all match
    got, eager = _polish_scans(*case)
    assert _summary(got) == _summary(eager)


def test_cost_tie_goes_to_the_larger_start_in_either_scan():
    # a candidate whose bound equals the incumbent ties it when its own SSE
    # is 0, and wins the tie when its k' is larger, whatever the order the
    # scan meets it in: here the arcs 0-7 and 7-10 tie the arcs 0-4 and 4-10
    # at (2, 1.5), and the eager scan meets 0-4 first
    pts = [(4 * i, 8 * (i % 2)) for i in range(11)]
    table = {(kp, k): (0.0, None) for k in range(3, 11) for kp in range(k - 2)}
    table.update({(0, 4): (0.25, 0.5), (0, 7): (1.5, 1.5), (4, 10): (1.0, 1.0), (7, 10): (0.0, 0.0)})
    for res in _polish_scans(pts, table):
        assert [(p.kind, p.start_idx, p.end_idx) for p in res.primitives] == [("arc", 0, 7), ("arc", 7, 10)]


@st.composite
def _probe_cases(draw):
    """A noisy integer arc or spiral window of 6-64 points inside a longer
    run of the same curve, a tolerance around the window's least-squares
    fit, and a blocker cache holding nothing, distinct random points of the
    run or the blockers of a real interval fit."""
    n = draw(st.integers(6, 64))
    before = draw(st.integers(0, 3))
    after = draw(st.integers(0, 3))
    total = before + n + after
    r0 = draw(st.integers(300, 30000))
    growth = draw(st.sampled_from((0.0, 0.002, 0.01)))  # 0: circular arc
    sweep = draw(st.floats(0.3, 4.0))
    noise = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    t0 = rng.uniform(0, 2 * math.pi)
    pts = []
    for i in range(total):
        t = t0 + sweep * i / (total - 1)
        r = r0 * (1 + growth * i)
        pts.append((round(r * math.cos(t)) + rng.randint(-noise, noise),
                    round(r * math.sin(t)) + rng.randint(-noise, noise)))
    kp, k = before, before + n - 1
    window = pts[kp:k + 1]
    assume(window[0] != window[-1])
    fit = fit_arc_least_squares(window)
    worst = max(abs(math.dist(p, fit.center) - fit.radius) for p in window)
    tol = max(0.5, worst * draw(st.floats(0.3, 1.5)))
    cache = _BlockerCache()
    if draw(st.booleans()):
        cache.blockers = draw(st.lists(st.integers(0, total - 1), max_size=12, unique=True))
    shift = draw(st.sampled_from((None, 0, 1, 2)))  # blockers of window[shift:]
    own = None
    if shift is not None and n - shift >= 4:
        blocked = []
        fit_arc_by_tolerance(window[shift:], tol=tol, blockers=blocked)
        if blocked:
            own = [kp + shift + i for i in blocked]
            if draw(st.booleans()):  # the last rejection, or an older one since replaced
                cache.blockers = own
    return pts, kp, k, tol, cache, own if shift == 0 else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_probe_cases())
def test_blocker_probe_rejects_only_windows_the_interval_fit_rejects(case):
    pts, kp, k, tol, cache, own = case
    newest = cache.blockers
    got = _evaluate_arc(pts, kp, k, tol, cache)
    if cache.probe_rejections:
        assert fit_arc_by_tolerance(pts[kp:k + 1], tol=tol) is None
    if cache.blockers is not newest:
        # an empty interval fit recorded its blockers as indices into pts
        assert got is None and all(kp <= j <= k for j in cache.blockers)
    assert got == _evaluate_arc(pts, kp, k, tol)
    if own is not None and own is newest and len([j for j in own if kp < j < k]) <= PROBE_POINTS:
        # the blockers of this very window, tested first, empty the probe
        assert cache.probe_rejections == 1


@st.composite
def _awkward_polylines(draw):
    """At most 20 integer vertices from moves that step, revisit an earlier
    vertex, repeat the last one, run on along a line or turn back."""
    _coord = st.integers(-60, 60)
    pts = [draw(st.tuples(_coord, _coord))]
    size = draw(st.integers(2, 20))
    while len(pts) < size:
        move = draw(st.sampled_from(["step", "revisit", "repeat", "line", "back"]))
        x, y = pts[-1]
        if move == "step" or len(pts) < 2:
            pts.append((x + draw(st.integers(-12, 12)), y + draw(st.integers(-12, 12))))
            continue
        px, py = pts[-2]
        if move == "revisit":
            pts.append(draw(st.sampled_from(pts)))
        elif move == "repeat":
            pts += [(x, y)] * draw(st.integers(1, 3))
        elif move == "line":
            pts += [(x + k * (x - px), y + k * (y - py)) for k in range(1, draw(st.integers(2, 5)))]
        else:
            pts += [(x - k * (x - px), y - k * (y - py)) for k in range(1, draw(st.integers(2, 4)))]
    return pts[:20]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_awkward_polylines(), st.sampled_from([1, 3, 10, 40]))
def test_awkward_polylines_within_tolerance_and_optimal(pts, tol):
    # the feasibility tables and every certificate in front of them may only
    # drop arcs that cannot be optimal: the pruned DP must reach the totals
    # of the unpruned reference
    res = compress(pts, CompressionParams(tolerance=tol))
    assert_within_tolerance(res, tol)
    want_total, _, _ = reference_compress(pts, tol)
    assert res.total[0] == want_total[0]
    assert abs(res.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))


@st.composite
def _penalty_cases(draw):
    """A random walk or a noisy circle arc of 2-22 integer vertices, a
    tolerance, and penalties and a least arc size drawn from their small
    values."""
    n = draw(st.integers(2, 22))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        pts = [(0, 0)]
        for _ in range(n - 1):
            pts.append((pts[-1][0] + rng.randint(-20, 60), pts[-1][1] + rng.randint(-30, 30)))
    else:
        r = rng.randint(60, 800)
        a0 = rng.uniform(0, 2 * math.pi)
        step = rng.uniform(0.05, 0.4)
        noise = rng.randint(0, 4)
        pts = [(round(r * math.cos(a0 + step * i)) + rng.randint(-noise, noise),
                round(r * math.sin(a0 + step * i)) + rng.randint(-noise, noise)) for i in range(n)]
    params = CompressionParams(tolerance=draw(st.sampled_from([2, 5, 15, 40])),
                               penalty_segment=draw(st.integers(1, 5)),
                               penalty_arc=draw(st.integers(1, 5)),
                               min_arc_points=draw(st.sampled_from((4, 5, 6))))
    return pts, params


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_penalty_cases())
def test_matches_unpruned_reference_under_any_penalties(case):
    # the arc scan's floors, cut and probe are bounds that depend on p_arc
    # and min_arc_points: under any penalties the pruned DP must reach the
    # totals of the unpruned reference
    pts, params = case
    got = compress(pts, params)
    want_total, _, _ = reference_compress(pts, params.tolerance, params.penalty_segment,
                                          params.penalty_arc, params.min_arc_points)
    assert got.total[0] == want_total[0]
    assert abs(got.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))


def test_arc_over_600_vertices_is_one_arc():
    # an arc may cover any number of vertices: 3/4 of an integer circle of
    # radius 1000 fits one arc
    n = 600
    pts = [(round(1000 * math.cos(1.5 * math.pi * i / (n - 1))),
            round(1000 * math.sin(1.5 * math.pi * i / (n - 1)))) for i in range(n)]
    res = compress(pts, CompressionParams(tolerance=1.0))
    assert [p.kind for p in res.primitives] == ["arc"]
    assert res.total[0] == 3
    assert_within_tolerance(res, 1.0)


def test_large_radius_arc_is_found():
    # an arc of radius 2e7 tolerances over a chord of 2e4: its centre lies
    # far beyond any square around the data, and the window test must still
    # leave the one-arc optimum to the DP
    big_r, chord, n = 2e7, 2e4, 12
    h = math.asin(chord / 2 / big_r)
    pts = [(big_r * math.sin(t), big_r * math.cos(t) - big_r)
           for t in (-h + 2 * h * i / (n - 1) for i in range(n))]
    res = compress_polyline(pts, 1.0)
    assert res.t_count == 3 and [p.kind for p in res.primitives] == ["arc"]
    assert reference_compress(res.grid.points, res.scale)[0][0] == 3


@st.composite
def _large_radius_arcs(draw):
    """5 to 14 integer points, within tol/2 of an arc of radius 10^6 to 10^9
    tol whose chord is 10^3 to 10^5 tol, turned by a random angle."""
    tol = 4
    radius = tol * 10 ** draw(st.floats(6, 9))
    chord = tol * 10 ** draw(st.floats(3, 5))
    n = draw(st.integers(5, 14))
    noise = draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n))
    turn = draw(st.floats(0, 2 * math.pi))
    h = math.asin(chord / 2 / radius)
    c, s = math.cos(turn), math.sin(turn)
    pts = []
    for i in range(n):
        t = -h + 2 * h * i / (n - 1)
        x, y = radius * math.sin(t), radius * math.cos(t) - radius
        pts.append((round(c * x - s * y) + noise[2 * i], round(s * x + c * y) + noise[2 * i + 1]))
    return pts, tol


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_large_radius_arcs())
def test_large_radius_arcs_match_reference(case):
    pts, tol = case
    res = compress(pts, CompressionParams(tolerance=tol))
    want_total, _, _ = reference_compress(pts, tol)
    assert res.total[0] == want_total[0]
    assert abs(res.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))


def _rounded_rect(n, w, h, r, turn):
    """A closed rectangle with quarter-circle corners of radius r, n
    vertices at equal arc length, turned by `turn` radians."""
    per = 2 * (w + h) - 8 * r + 2 * math.pi * r
    corners = ((w / 2 - r, -h / 2 + r, -math.pi / 2, 0, 1, h - 2 * r),
               (w / 2 - r, h / 2 - r, 0.0, -1, 0, w - 2 * r),
               (-w / 2 + r, h / 2 - r, math.pi / 2, 0, -1, h - 2 * r),
               (-w / 2 + r, -h / 2 + r, math.pi, 1, 0, w - 2 * r))
    pts = []
    for i in range(n):
        s = per * i / n
        for cx, cy, a0, sx, sy, length in corners:
            if s < math.pi / 2 * r:
                pts.append((cx + r * math.cos(a0 + s / r), cy + r * math.sin(a0 + s / r)))
                break
            s -= math.pi / 2 * r
            if s < length:
                pts.append((cx + r * math.cos(a0 + math.pi / 2) + sx * s,
                            cy + r * math.sin(a0 + math.pi / 2) + sy * s))
                break
            s -= length
    c, s = math.cos(turn), math.sin(turn)
    pts = [(c * x - s * y, s * x + c * y) for x, y in pts]
    return pts + pts[:1]


def _noisy_track(rng, n, tol):
    """Unit steps through straight runs and gentle and tight turns, each
    vertex moved by up to tol/2."""
    x = y = 0.0
    heading = 0.3
    pts = []
    for i in range(n):
        heading += (0.0, 1 / 30, -1 / 8)[i // 25 % 3] + rng.gauss(0, 0.01)
        x += math.cos(heading)
        y += math.sin(heading)
        r = tol / 2 * math.sqrt(rng.random())
        a = rng.uniform(0, 2 * math.pi)
        pts.append((x + r * math.cos(a), y + r * math.sin(a)))
    return pts


def test_compress_builds_no_minimum_width_annulus(monkeypatch):
    # the window test decides every window without the Voronoi annulus
    def no_annulus(*args):
        raise AssertionError("compress built a minimum-width annulus")

    monkeypatch.setattr(annulus, "min_width_annulus", no_annulus)
    for pts, tol in ((archimedean_spiral(1.0, 2.0, 0.25), 0.1),
                     (_noisy_track(random.Random(7), 120, 0.2), 0.2),
                     (_rounded_rect(60, 20.0, 11.0, 2.5, 0.7), 0.05)):
        assert compress_polyline(pts, tol).t_count > 0


def test_each_scan_opens_one_range_heap(monkeypatch):
    # the benchmark's seed-1 150-vertex spiral: the segment scan and the
    # arc scan open at most one range heap each per end vertex, and
    # counting the opens changes no counter
    case, = [case for _, case in _cases(("spiral",), (1,)) if case.size == 150]
    want = compress_polyline(case.points, case.tolerance)
    opens = []

    class CountingMergeTree(compress_module.MergeTree):
        def open_range(self, *args):
            opens.append(args)
            return super().open_range(*args)

    monkeypatch.setattr(compress_module, "MergeTree", CountingMergeTree)
    got = compress_polyline(case.points, case.tolerance)
    assert got.grid.stats == want.grid.stats
    assert got.grid.stats["arc_evaluations"] > 0
    assert 0 < len(opens) <= 2 * (len(got.grid.points) - 1)
