"""Output checks that do not use the library.

Results arrive as plain summaries (see `run.summarize_*`).  Each check
returns a list of problems; an empty list means the result is accepted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

PENALTY = {"segment": 2, "arc": 3}


def grid_indices(source: Sequence[Tuple[float, float]], scale: float) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The quantized polyline with consecutive duplicates collapsed, and the
    index in it of every source vertex."""
    grid: List[Tuple[int, int]] = []
    index = []
    for x, y in source:
        g = (round(x * scale), round(y * scale))
        if not grid or grid[-1] != g:
            grid.append(g)
        index.append(len(grid) - 1)
    return grid, index


def _dist_to_segment(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    len_sq = dx * dx + dy * dy
    if len_sq == 0:
        return math.dist(p, a)
    t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / len_sq
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def _dist_to_arc(p, prim) -> float:
    """Distance from p to the arc as a point set: radial deviation when p
    lies in the arc's angular span, else the distance to the nearer end."""
    cx, cy = prim["center"]
    r = prim["radius"]
    a, b = prim["start"], prim["end"]
    ta = math.atan2(a[1] - cy, a[0] - cx)
    tb = math.atan2(b[1] - cy, b[0] - cx)
    tp = math.atan2(p[1] - cy, p[0] - cx)
    sign = 1.0 if prim["orientation"] == "ccw" else -1.0
    span = (sign * (tb - ta)) % (2 * math.pi)
    rel = (sign * (tp - ta)) % (2 * math.pi)
    if rel <= span + 1e-12:
        return abs(math.hypot(p[0] - cx, p[1] - cy) - r)
    return min(math.dist(p, a), math.dist(p, b))


def check_compress(source: Sequence[Tuple[float, float]], tol: float, result: Dict) -> List[str]:
    """The primitives chain over 0..n-1 of the quantized polyline, start and
    end on its vertices, keep every source vertex within tol, and cost
    t_count in total."""
    problems: List[str] = []
    scale = result["scale"]
    grid, index = grid_indices(source, scale)
    prims = result["primitives"]
    n = len(grid)
    if n == 1:
        return [] if not prims and result["t_count"] == 0 else ["single vertex with primitives"]
    if not prims:
        return ["no primitives"]
    # one grid unit of slack for quantization, plus float dust
    slack = 1.0 / scale + 1e-9 * max(1.0, tol)
    expect = 0
    owner: List[List[int]] = [[] for _ in range(n)]
    for k, p in enumerate(prims):
        s, e = p["start_idx"], p["end_idx"]
        if s != expect or e <= s:
            problems.append(f"primitive {k} spans {s}..{e}, expected start {expect}")
            return problems
        expect = e
        if p["kind"] not in PENALTY:
            problems.append(f"primitive {k} has unknown kind {p['kind']!r}")
            return problems
        for end, idx in (("start", s), ("end", e)):
            want = (grid[idx][0] / scale, grid[idx][1] / scale)
            if math.dist(p[end], want) > 1e-9 * max(1.0, abs(want[0]) + abs(want[1])):
                problems.append(f"primitive {k} {end} is not vertex {idx}")
        if p["kind"] == "arc":
            for end in ("start", "end"):
                dev = abs(math.dist(p[end], p["center"]) - p["radius"])
                if dev > slack:
                    problems.append(f"arc {k} {end} is off its circle by {dev}")
        for i in range(s, e + 1):
            owner[i].append(k)
    if expect != n - 1:
        problems.append(f"chain ends at {expect}, polyline at {n - 1}")
        return problems
    for i, p in enumerate(source):
        best = math.inf
        for k in owner[index[i]]:
            prim = prims[k]
            if prim["kind"] == "segment":
                d = _dist_to_segment(p, prim["start"], prim["end"])
            else:
                d = _dist_to_arc(p, prim)
            best = min(best, d)
        if best > tol + slack:
            problems.append(f"vertex {i} is {best} from its primitive (tol {tol})")
            break
    total = sum(PENALTY[p["kind"]] for p in prims)
    if total != result["t_count"]:
        problems.append(f"t_count {result['t_count']} != sum of penalties {total}")
    return problems


def check_annulus(points: Sequence[Tuple[int, int]], result: Dict) -> List[str]:
    """Every point lies in the closed annulus, decided exactly, and both
    circles touch a point (the radii are the extreme distances)."""
    cx = Fraction(result["center"][0])
    cy = Fraction(result["center"][1])
    r_in = Fraction(result["r_inner_sq"])
    r_out = Fraction(result["r_outer_sq"])
    if r_in > r_out:
        return ["inner radius exceeds outer radius"]
    lo = hi = None
    for x, y in points:
        d = (x - cx) ** 2 + (y - cy) ** 2
        if d < r_in or d > r_out:
            return [f"point {(x, y)} lies outside the annulus"]
        lo = d if lo is None or d < lo else lo
        hi = d if hi is None or d > hi else hi
    if lo != r_in or hi != r_out:
        return ["annulus radii are not attained by the points"]
    return []


def check_reference(result: Dict, expected: Dict) -> List[str]:
    """Compare against values recorded for the default seed."""
    problems = []
    for key, want in expected.items():
        got = result.get(key)
        if got != want:
            problems.append(f"{key} is {got!r}, recorded {want!r}")
    return problems
