"""Fast checks of the benchmark itself: seeded inputs, the output checker
and the tracer.  Run with `python3 -m pytest perfbench`."""

import copy
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import KNOWN_DEFECT, WORKLOADS, Case, known_defect_cases, make_cases  # noqa: E402

pkg = run.import_library()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = make_cases(workload, 7, pkg)
    again = make_cases(workload, 7, pkg)
    other = make_cases(workload, 8, pkg)
    assert [(c.label, c.points, c.tolerance) for c in first] == \
        [(c.label, c.points, c.tolerance) for c in again]
    assert [c.points for c in first] != [c.points for c in other]


def test_known_defect_inputs_are_not_timed():
    timed = {c.label for c in make_cases("contours", 7, pkg)}
    known = {c.label for c in known_defect_cases("contours", 7, pkg)}
    assert known == set(KNOWN_DEFECT["contours"])
    assert len(timed) == 18 and not timed & known


def _small_spiral():
    return Case("small", pkg.archimedean_spiral(1.0, 1.5, 0.25), 0.1)


def _compressed(case):
    _, call = run.make_call("spiral", pkg)
    return call(case)


def test_checker_accepts_library_output():
    case = _small_spiral()
    summary = _compressed(case)
    assert summary["primitive_count"] >= 2
    assert checker.check_compress(case.points, case.tolerance, summary) == []


def test_checker_rejects_vertex_moved_by_twice_tol():
    case = _small_spiral()
    summary = _compressed(case)
    prim = next(p for p in summary["primitives"] if p["end_idx"] - p["start_idx"] >= 2)
    grid, index = checker.grid_indices(case.points, summary["scale"])
    i = next(i for i, g in enumerate(index) if prim["start_idx"] < g < prim["end_idx"])
    x, y = case.points[i]
    if prim["kind"] == "arc":
        nx, ny = x - prim["center"][0], y - prim["center"][1]
    else:
        (ax, ay), (bx, by) = prim["start"], prim["end"]
        nx, ny = ay - by, bx - ax
    norm = math.hypot(nx, ny)
    moved = list(case.points)
    moved[i] = (x + 2 * case.tolerance * nx / norm, y + 2 * case.tolerance * ny / norm)
    problems = checker.check_compress(moved, case.tolerance, summary)
    assert any(f"vertex {i} " in p for p in problems)


def test_checker_rejects_shifted_primitive_index():
    case = _small_spiral()
    summary = _compressed(case)
    bad = copy.deepcopy(summary)
    bad["primitives"][1]["start_idx"] += 1
    assert checker.check_compress(case.points, case.tolerance, bad)
    bad = copy.deepcopy(summary)
    bad["primitives"][-1]["end_idx"] -= 1
    assert checker.check_compress(case.points, case.tolerance, bad)


def test_checker_rejects_wrong_t_count_and_annulus():
    case = _small_spiral()
    bad = _compressed(case)
    bad["t_count"] += 1
    assert checker.check_compress(case.points, case.tolerance, bad)
    points = [(0, 0), (40, 3), (21, 30), (-7, 25), (5, -13), (17, 11)]
    _, call = run.make_call("annulus", pkg)
    summary = call(Case("pts", points))
    assert checker.check_annulus(points, summary) == []
    assert checker.check_annulus(points + [(1000, 1000)], summary)
    cx, cy = (Fraction(c) for c in summary["center"])
    inside = [p for p in points
              if (p[0] - cx) ** 2 + (p[1] - cy) ** 2 != Fraction(summary["r_outer_sq"])]
    assert checker.check_annulus(inside, summary)  # outer radius no longer attained


def test_traced_results_match_untraced():
    compress_case = Case("track", make_cases("tracks", 3, pkg)[-1].points[:120], 0.2)
    annulus_case = make_cases("annulus", 3, pkg)[-1]
    _, compress_call = run.make_call("tracks", pkg)
    _, annulus_call = run.make_call("annulus", pkg)
    originals = (pkg.compress_polyline, pkg.min_width_annulus)
    untraced = (compress_call(compress_case), annulus_call(annulus_case))
    tracer = Tracer()
    tracer.install()
    try:
        traced = (compress_call(compress_case), annulus_call(annulus_case))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert (pkg.compress_polyline, pkg.min_width_annulus) == originals
    m = tracer.metrics(1)
    assert m["compress.arc_evals"] > 0 and m["feasibility.arc_windows"] > 0
    assert m["annulus.mwa_calls"] >= 1 and m["sweep.events"] > 0
    assert m["annulus.lsq_accept"] + m["annulus.subset_reject"] + m["annulus.full"] \
        == m["feasibility.arc_windows"]
    assert 0 <= m["compress.self_s"] <= tracer.spans["compress"][1]
