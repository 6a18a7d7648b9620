"""Results of `compress_polyline` on the benchmark's spiral, tracks and
contours inputs of seeds 1 and 2, pinned exactly: `t_count`, `repr(t_sse)`
and every primitive (kind, indices, `repr` of centre and radius,
orientation).  Results of `min_width_annulus` on the benchmark's annulus
inputs of seeds 1 to 3 (seed 3 is the seed of the traced benchmark test),
with the benchmark's clip (0.1 degrees about the data radius), pinned as
the `str` of both centre coordinates and both squared radii.  The
`compress` counters (`CompressedPolyline.stats`) of the compress inputs,
pinned in `golden_stats.json`, guard the work the scan does.  The inputs
come from `perfbench/workloads.py`, which this test only reads.  A change
that is meant to keep results and work identical must pass it unchanged;
one that changes them on purpose rewrites `golden_results.json`,
`golden_annulus.json` and `golden_stats.json` with
`python tests/test_golden.py` (from the repo root, `src` on the path),
which first prints, per file, how many inputs changed in each field (in
each counter for the stats), the summed total of each integer field
before -> after, and the largest relative `t_sse` change, and says why.
"""

import functools
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import arcline
from arcline.annulus import min_width_annulus
from arcline.pipeline import compress_polyline
from arcline.voronoi import ClipConfig, data_radius

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_results.json"
GOLDEN_ANNULUS = HERE / "golden_annulus.json"
GOLDEN_STATS = HERE / "golden_stats.json"
WORKLOADS = ("spiral", "tracks", "contours")
SEEDS = (1, 2)
ANNULUS_SEEDS = (1, 2, 3)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_golden_workloads", HERE.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _cases(names=WORKLOADS, seeds=SEEDS):
    workloads = _workloads()
    return [(f"{name}-{seed}-{case.label}", case)
            for name in names for seed in seeds
            for case in workloads.all_cases(name, seed, arcline)]


@functools.lru_cache(maxsize=None)
def _compress(points, tolerance):
    """`compress_polyline`, run once per input for the results and the
    stats."""
    return compress_polyline(points, tolerance)


def _summary(case) -> dict:
    result = _compress(tuple(case.points), case.tolerance)
    return {"t_count": result.t_count, "t_sse": repr(result.t_sse),
            "primitives": [[p.kind, p.start_idx, p.end_idx, repr(p.center), repr(p.radius),
                            p.orientation] for p in result.primitives]}


def _stats(case) -> dict:
    return _compress(tuple(case.points), case.tolerance).grid.stats


def _annulus_summary(case) -> dict:
    clip = ClipConfig(math.radians(0.1), data_radius(case.points))
    result = min_width_annulus(case.points, clip)
    return {"center": [str(v) for v in result.center],
            "r_inner_sq": str(result.r_inner_sq), "r_outer_sq": str(result.r_outer_sq)}


def _check(golden, cases, summary):
    want = json.loads(golden.read_text())
    assert sorted(key for key, _ in cases) == sorted(want)
    for key, case in cases:
        assert summary(case) == want[key], key


def test_results_match_the_recorded_golden_file():
    _check(GOLDEN, _cases(), _summary)


def test_stats_match_the_recorded_golden_file():
    _check(GOLDEN_STATS, _cases(), _stats)


def test_annulus_results_match_the_recorded_golden_file():
    _check(GOLDEN_ANNULUS, _cases(("annulus",), ANNULUS_SEEDS), _annulus_summary)


def _relative_change(old: str, new: str) -> float:
    old, new = float(old), float(new)
    return abs(new - old) / abs(old) if old else (0.0 if new == old else math.inf)


def _report(golden, results) -> str:
    """What rewriting `golden` with `results` changes: per field the number
    of inputs whose value moves, per integer field its summed total before
    -> after, and the largest relative `t_sse` change."""
    want = json.loads(golden.read_text()) if golden.exists() else {}
    fields = sorted({name for value in results.values() for name in value})
    counts = {name: sum(want.get(key, {}).get(name) != value[name] for key, value in results.items())
              for name in fields}
    moved = ", ".join(f"{name} {count}" for name, count in counts.items())
    line = (f"{golden.name}: {len(results)} inputs ({len(results.keys() - want.keys())} new, "
            f"{len(want.keys() - results.keys())} gone); changed: {moved}")
    totals = ", ".join(f"{name} {sum(value.get(name, 0) for value in want.values())} -> "
                       f"{sum(value[name] for value in results.values())}"
                       for name in fields
                       if all(type(value[name]) is int for value in results.values()))
    if totals:
        line += f"; totals: {totals}"
    if "t_sse" in fields:
        worst = max((_relative_change(want[key]["t_sse"], value["t_sse"])
                     for key, value in results.items() if key in want), default=0.0)
        line += f"; largest relative t_sse change {worst:.3g}"
    return line


if __name__ == "__main__":
    for golden, cases, summary in ((GOLDEN, _cases(), _summary), (GOLDEN_STATS, _cases(), _stats),
                                   (GOLDEN_ANNULUS, _cases(("annulus",), ANNULUS_SEEDS), _annulus_summary)):
        results = {key: summary(case) for key, case in cases}
        print(_report(golden, results))
        golden.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
