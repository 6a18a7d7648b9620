"""Results of `compress_polyline` on the benchmark's spiral, tracks and
contours inputs of seeds 1 and 2, pinned exactly: `t_count`, `repr(t_sse)`
and every primitive (kind, indices, `repr` of centre and radius,
orientation).  The inputs come from `perfbench/workloads.py`, which this
test only reads.  A change that is meant to keep results identical must
pass it unchanged; one that changes results on purpose rewrites
`golden_results.json` with `python tests/test_golden.py` (from the repo
root, `src` on the path) and says why.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import arcline
from arcline.pipeline import compress_polyline

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_results.json"
WORKLOADS = ("spiral", "tracks", "contours")
SEEDS = (1, 2)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_golden_workloads", HERE.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _cases():
    workloads = _workloads()
    return [(f"{name}-{seed}-{case.label}", case)
            for name in WORKLOADS for seed in SEEDS
            for case in workloads.all_cases(name, seed, arcline)]


def _summary(case) -> dict:
    result = compress_polyline(case.points, case.tolerance)
    return {"t_count": result.t_count, "t_sse": repr(result.t_sse),
            "primitives": [[p.kind, p.start_idx, p.end_idx, repr(p.center), repr(p.radius),
                            p.orientation] for p in result.primitives]}


def test_results_match_the_recorded_golden_file():
    want = json.loads(GOLDEN.read_text())
    cases = _cases()
    assert sorted(key for key, _ in cases) == sorted(want)
    for key, case in cases:
        assert _summary(case) == want[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: _summary(case) for key, case in _cases()},
                                 indent=1, sort_keys=True) + "\n")
    sys.exit(0)
