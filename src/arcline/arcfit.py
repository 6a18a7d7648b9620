"""Fitting circular arcs through two fixed endpoints.

The center of any arc through A and B lies on their perpendicular bisector,
parameterized here by the signed distance s from the chord midpoint.  For a
single point p, the centers whose arc passes within tol of p form up to two
intervals on that line, bounded by intersections of the bisector with the
hyperbola |dist(p, c) - dist(A, c)| = tol.  Intersecting the per-point
interval sets yields all tolerance-feasible centers; the returned arc is
either the least-squares optimum (when feasible) or the best interval
endpoint by approximate squared deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

INF = math.inf

# radius beyond this multiple of the chord length is reported segment-like
SEGMENT_LIKE_RADIUS_FACTOR = 1e6


@dataclass
class FittedArc:
    start: Tuple[float, float]
    end: Tuple[float, float]
    center: Tuple[float, float]
    radius: float
    orientation: str  # "ccw" | "cw"
    sse: float  # approximate sum of squared radial deviations
    segment_like: bool = False


def _chord_frame(a, b):
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    length = math.hypot(dx, dy)
    if length == 0:
        raise ValueError("arc endpoints coincide")
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    u = (-dy / length, dx / length)  # unit normal of the chord
    return mid, u, length


def _point_params(mid, u, p):
    px = p[0] - mid[0]
    py = p[1] - mid[1]
    w = px * px + py * py
    e = px * u[0] + py * u[1]
    return w, e


def _deviation(s, w, e, half_chord_sq):
    d = math.sqrt(max(0.0, w - 2 * e * s + s * s))
    r = math.sqrt(half_chord_sq + s * s)
    return d - r


def tolerance_intervals_point(a, b, p, tol) -> List[Tuple[float, float]]:
    """Bisector parameters s where the arc through a, b is within tol of p.

    Returns closed, disjoint, sorted intervals; (-inf, inf) when p is within
    tol of either endpoint, since such points satisfy any arc.
    """
    mid, u, length = _chord_frame(a, b)
    if math.dist(p, a) <= tol or math.dist(p, b) <= tol:
        return [(-INF, INF)]
    w, e = _point_params(mid, u, p)
    half_sq = (length / 2) ** 2
    # |dist(p,c(s))| = r(s) +- tol squared into one quadratic:
    # (B - 2 e s)^2 = tol^2 (length^2/4 + s^2) * 4 ... with B = w - L^2/4 - tol^2
    B = w - half_sq - tol * tol
    qa = 4 * (e * e - tol * tol)
    qb = -4 * B * e
    qc = B * B - 4 * tol * tol * half_sq
    roots: List[float] = []
    if qa == 0:
        if qb != 0:
            roots = [-qc / qb]
    else:
        disc = qb * qb - 4 * qa * qc
        if disc >= 0:
            sq = math.sqrt(disc)
            # numerically stable pair
            q = -(qb + math.copysign(sq, qb)) / 2
            r1 = q / qa
            r2 = qc / q if q != 0 else r1
            roots = sorted((r1, r2))
    bounds = [-INF] + roots + [INF]
    out: List[Tuple[float, float]] = []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        if lo == hi:
            continue
        if lo == -INF and hi == INF:
            s_mid = 0.0
        elif lo == -INF:
            s_mid = hi - max(1.0, abs(hi))
        elif hi == INF:
            s_mid = lo + max(1.0, abs(lo))
        else:
            s_mid = (lo + hi) / 2
        if abs(_deviation(s_mid, w, e, half_sq)) <= tol:
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)  # merge touching regions
            else:
                out.append((lo, hi))
    return out


def _intersect_interval_sets(sets: Sequence[List[Tuple[float, float]]]) -> List[Tuple[float, float]]:
    """Intersection of unions of closed intervals via boundary sorting."""
    n = len(sets)
    if n == 0:
        return [(-INF, INF)]
    events = []
    for ivs in sets:
        for lo, hi in ivs:
            events.append((lo, 0))  # open before close at the same abscissa
            events.append((hi, 1))
    events.sort()
    depth = 0
    out: List[Tuple[float, float]] = []
    start = None
    for x, kind in events:
        if kind == 0:
            depth += 1
            if depth == n:
                start = x
        else:
            if depth == n:
                out.append((start, x))
            depth -= 1
    return out


def _build_arc(a, b, s, points, with_sse: bool = True) -> FittedArc:
    mid, u, length = _chord_frame(a, b)
    radius = math.hypot(length / 2, s)
    segment_like = radius > SEGMENT_LIKE_RADIUS_FACTOR * length or not math.isfinite(s)
    if not math.isfinite(s):
        s = math.copysign(SEGMENT_LIKE_RADIUS_FACTOR * length, s if s == s else 1.0)
        radius = math.hypot(length / 2, s)
    center = (mid[0] + s * u[0], mid[1] + s * u[1])
    orientation = _pick_orientation(a, b, center, points)
    sse = _approx_sse(points, center, radius) if with_sse else math.nan
    return FittedArc(tuple(a), tuple(b), center, radius, orientation, sse, segment_like)


def with_sse(arc: FittedArc, points) -> FittedArc:
    """Fill in the approximate squared-deviation sum when it was deferred."""
    if math.isnan(arc.sse):
        arc.sse = _approx_sse(points, arc.center, arc.radius)
    return arc


def _pick_orientation(a, b, center, points) -> str:
    # the middle point decides which of the two arcs the data follows; the
    # span and direction checks reject the pick when the data disagrees
    ta = math.atan2(a[1] - center[1], a[0] - center[0])
    tb = math.atan2(b[1] - center[1], b[0] - center[0])
    ccw_span = (tb - ta) % (2 * math.pi)
    p = points[len(points) // 2]
    tp = (math.atan2(p[1] - center[1], p[0] - center[0]) - ta) % (2 * math.pi)
    return "ccw" if tp <= ccw_span else "cw"


def _approx_sse(points, center, radius) -> float:
    """Approximate radial residual sum: ((d^2 - r^2) / (2 r))^2 per point."""
    total = 0.0
    r_sq = radius * radius
    for p in points:
        d_sq = (p[0] - center[0]) ** 2 + (p[1] - center[1]) ** 2
        total += ((d_sq - r_sq) / (2 * radius)) ** 2
    return total


def fit_arc_least_squares(points: Sequence, polish: bool = True,
                          with_sse: bool = True) -> FittedArc:
    """Least-squares arc through the first and last point.

    Minimizes the algebraic residual in closed form, then (unless disabled)
    polishes the result with a few safeguarded secant-Newton steps on the
    true geometric residual.  Collinear input degenerates to a segment-like
    arc.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    a, b = points[0], points[-1]
    mid, u, length = _chord_frame(a, b)
    half_sq = (length / 2) ** 2
    ux, uy = u
    mx, my = mid
    sum_gh = 0.0
    sum_hh = 0.0
    params = []
    for p in points:
        px = p[0] - mx
        py = p[1] - my
        w = px * px + py * py
        e = px * ux + py * uy
        params.append((w, e))
        sum_gh += (w - half_sq) * e
        sum_hh += e * e
    if sum_hh == 0:
        return _build_arc(a, b, INF, points, with_sse)
    s = sum_gh / (2 * sum_hh)
    if not polish:
        return _build_arc(a, b, s, points, with_sse)

    def f_and_fprime(sv):
        f = g = 0.0
        r = math.sqrt(half_sq + sv * sv)
        for w, e in params:
            d = math.sqrt(w - 2 * e * sv + sv * sv) or 1e-150
            dev = d - r
            f += dev * dev
            g += 2 * dev * ((sv - e) / d - sv / r)
        return f, g

    # polish the algebraic seed on the true geometric residual with a
    # safeguarded secant iteration on f'
    best_s, best_f = s, f_and_fprime(s)[0]
    s_prev = s * (1 + 1e-6) + 1e-9
    g_prev = f_and_fprime(s_prev)[1]
    cur = s
    for _ in range(10):
        f_cur, g_cur = f_and_fprime(cur)
        if f_cur < best_f:
            best_s, best_f = cur, f_cur
        denom = g_cur - g_prev
        if denom == 0 or not math.isfinite(denom):
            break
        step = g_cur * (cur - s_prev) / denom
        if not math.isfinite(step):
            break
        step = max(-10 * length, min(10 * length, step))
        s_prev, g_prev = cur, g_cur
        cur = cur - step
        if abs(step) <= 1e-12 * (1 + abs(cur)):
            f_cur = f_and_fprime(cur)[0]
            if f_cur < best_f:
                best_s, best_f = cur, f_cur
            break
    return _build_arc(a, b, best_s, points, with_sse)


def fit_arc_by_tolerance(points: Sequence, tol: float = 0.0,
                         seed_arc: Optional[FittedArc] = None) -> Optional[FittedArc]:
    """Arc through the endpoints with every point within tol, or None.

    Tries the least-squares fit first (seed_arc, when given, stands in for
    it); on failure intersects the per-point tolerance intervals on the
    bisector and evaluates their endpoints by approximate squared deviation.
    """
    if len(points) < 4:
        raise ValueError("need at least 4 points")
    a, b = points[0], points[-1]
    ls = seed_arc
    if ls is None:
        ls = fit_arc_least_squares(points, polish=False, with_sse=False)
        if arc_within_tolerance(ls, points, tol, check_span=False):
            return with_sse(ls, points)
    # intersect per-point interval sets, most constraining points first, so
    # infeasible fits empty out after a handful of points
    cx, cy = ls.center
    devs = [abs(math.hypot(p[0] - cx, p[1] - cy) - ls.radius) for p in points]
    lead = sorted(range(len(points)), key=lambda i: -devs[i])[:8]
    lead_set = set(lead)
    rest = [i for i in range(len(points)) if i not in lead_set]
    feasible = [(-INF, INF)]
    for i in lead + rest:
        ivs = tolerance_intervals_point(a, b, points[i], tol)
        feasible = _intersect_interval_sets([feasible, ivs])
        if not feasible:
            return None
    mid, u, length = _chord_frame(a, b)
    s_ls = (ls.center[0] - mid[0]) * u[0] + (ls.center[1] - mid[1]) * u[1]
    for lo, hi in feasible:
        if lo <= s_ls <= hi:
            return with_sse(ls, points)  # optimum itself is feasible
    candidates = []
    for lo, hi in feasible:
        for s in (lo, hi):
            if math.isfinite(s):
                candidates.append(s)
            else:
                candidates.append(math.copysign(SEGMENT_LIKE_RADIUS_FACTOR * length, s))
    best = None
    for s in candidates:
        arc = _build_arc(a, b, s, points)
        # nudge inward when float dust pushes a boundary center outside
        if not arc_within_tolerance(arc, points, tol, check_span=False):
            for shrink in (1e-12, 1e-9, 1e-6):
                s_in = s + math.copysign(shrink * (1 + abs(s)), s_ls - s)
                arc = _build_arc(a, b, s_in, points)
                if arc_within_tolerance(arc, points, tol, check_span=False):
                    break
            else:
                continue
        if best is None or arc.sse < best.sse:
            best = arc
    return best


def arc_within_tolerance(arc: FittedArc, points: Sequence, tol: float,
                         check_span: bool = True) -> bool:
    """Radial deviation of every point <= tol; optionally every point must
    also project onto the arc's angular span rather than its complement."""
    cx, cy = arc.center
    slack = 1e-9 * max(1.0, arc.radius) * 1e-3 + 1e-12
    for p in points:
        dev = abs(math.hypot(p[0] - cx, p[1] - cy) - arc.radius)
        if dev > tol + slack:
            return False
    if not check_span:
        return True
    ta = math.atan2(arc.start[1] - cy, arc.start[0] - cx)
    tb = math.atan2(arc.end[1] - cy, arc.end[0] - cx)
    span = (tb - ta) % (2 * math.pi) if arc.orientation == "ccw" else (ta - tb) % (2 * math.pi)
    eps = 1e-9
    for p in points:
        tp = math.atan2(p[1] - cy, p[0] - cx)
        rel = (tp - ta) % (2 * math.pi) if arc.orientation == "ccw" else (ta - tp) % (2 * math.pi)
        if rel > span + eps and 2 * math.pi - rel > eps:
            return False
    return True


def densify(polyline: Sequence, max_step: float) -> List[Tuple[float, float]]:
    """Insert collinear points so consecutive spacing is at most max_step."""
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    out: List[Tuple[float, float]] = []
    for i, p in enumerate(polyline):
        if i == 0:
            out.append(tuple(p))
            continue
        q = polyline[i - 1]
        gap = math.dist(q, p)
        k = max(1, math.ceil(gap / max_step))
        for j in range(1, k):
            out.append((q[0] + (p[0] - q[0]) * j / k, q[1] + (p[1] - q[1]) * j / k))
        out.append(tuple(p))
    return out


def direction_and_endpoint_check(points: Sequence, primitive, slack: float = 0.0) -> bool:
    """Projections of the points onto the primitive's natural parameter must
    be non-decreasing, allowing backtracking up to slack (length units).

    primitive: a FittedArc, or a (start, end) tuple for a segment.
    """
    if isinstance(primitive, FittedArc):
        cx, cy = primitive.center
        ta = math.atan2(points[0][1] - cy, points[0][0] - cx)
        sgn = 1.0 if primitive.orientation == "ccw" else -1.0
        run = -INF
        prev = 0.0
        for p in points:
            tp = math.atan2(p[1] - cy, p[0] - cx)
            rel = (sgn * (tp - ta)) % (2 * math.pi)
            # unwrap against the running parameter to tolerate noise at 0
            if rel - prev > math.pi:
                rel -= 2 * math.pi
            prev = max(prev, rel)
            pos = rel * primitive.radius
            if pos < run - slack:
                return False
            run = max(run, pos)
        return True
    a, b = primitive
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    length = math.hypot(dx, dy)
    if length == 0:
        return True
    run = -INF
    for p in points:
        pos = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / length
        if pos < run - slack:
            return False
        run = max(run, pos)
    return True
