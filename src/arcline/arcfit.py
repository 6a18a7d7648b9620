"""Fitting circular arcs through two fixed endpoints.

The center of any arc through A and B lies on their perpendicular bisector,
parameterized here by the signed distance s from the chord midpoint m: the
centre m + s*u (u the chord's unit normal) has radius r = sqrt(h + s^2),
h = (L/2)^2 for the chord length L.  A point p with w = |p - m|^2 and
e = (p - m).u lies at d = sqrt(w - 2*e*s + s^2) from that centre, so
d^2 - r^2 = w - h - 2*e*s.  Squaring |d - r| <= tol twice gives, with
B = w - h - tol^2, the quadratic condition

    qa*s^2 + qb*s + qc <= 0,  qa = 4*(e^2 - tol^2),  qb = -4*B*e,
    qc = B^2 - 4*tol^2*h,

that is |r - tol| <= d <= r + tol, whose solution set the signs of qa and
of the discriminant give in closed form: the interval between the roots,
the two rays outside them, one ray, the whole line or nothing.  It differs
from |d - r| <= tol only by the centres with d < tol - r.  A point within
tol of A or B is within tol of every arc and is answered before the
quadratic; for any other point d + r >= |p - A| > tol, so the quadratic
condition is exactly the tolerance condition, up to the rounding of its
roots.  Intersecting the per-point interval sets, one merge per point
(`_feasible_centres`, which the DP's blocker probe shares), yields all
tolerance-feasible centers; the returned arc is either the least-squares
optimum (when feasible) or the best interval endpoint by approximate
squared deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .predicates import EPS

INF = math.inf

# radius beyond this multiple of the chord length is reported segment-like
SEGMENT_LIKE_RADIUS_FACTOR = 1e6
MAX_DENSIFIED = 10 ** 6  # points densify may emit, far more than the DP can take


@dataclass
class FittedArc:
    start: Tuple[float, float]
    end: Tuple[float, float]
    center: Tuple[float, float]
    radius: float
    orientation: str  # "ccw" | "cw"
    sse: float  # approximate sum of squared radial deviations
    segment_like: bool = False
    # certified lower bound on the sse of every arc through start and end
    # over the same points (`fit_arc_least_squares`; 0 from other fits)
    sse_floor: float = 0.0


def _chord_frame(a, b):
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    length = math.hypot(dx, dy)
    if length == 0:
        raise ValueError("arc endpoints coincide")
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    u = (-dy / length, dx / length)  # unit normal of the chord
    return mid, u, length


def tolerance_intervals_point(a, b, p, tol) -> List[Tuple[float, float]]:
    """Bisector parameters s where the arc through a, b is within tol of p.

    Returns closed, disjoint, sorted intervals; (-inf, inf) when p is within
    tol of either endpoint, since such points satisfy any arc.
    """
    return _frame_intervals(_chord_frame(a, b), a, b, p, tol)


def _frame_intervals(frame, a, b, p, tol) -> List[Tuple[float, float]]:
    """`tolerance_intervals_point` with the chord frame of a, b given, so
    that the points of one candidate share it.

    The set is {s : qa*s^2 + qb*s + qc <= 0} (module docstring), read off
    the signs of qa and of the discriminant.  The endpoint test must come
    first: past it the squared condition is exact, since it drops only
    centres with d < tol - r, and there d + r >= |p - a| > tol.
    """
    mid, u, length = frame
    if math.dist(p, a) <= tol or math.dist(p, b) <= tol:
        return [(-INF, INF)]
    px = p[0] - mid[0]
    py = p[1] - mid[1]
    w = px * px + py * py
    e = px * u[0] + py * u[1]
    half_sq = (length / 2) ** 2
    B = w - half_sq - tol * tol
    qa = 4 * (e * e - tol * tol)
    qb = -4 * B * e
    qc = B * B - 4 * tol * tol * half_sq
    if qa == 0:
        if qb == 0:
            return [(-INF, INF)] if qc <= 0 else []
        root = -qc / qb
        return [(-INF, root)] if qb > 0 else [(root, INF)]
    disc = qb * qb - 4 * qa * qc
    if qa < 0 and disc <= 0:
        return [(-INF, INF)]
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    # numerically stable pair
    q = -(qb + math.copysign(sq, qb)) / 2
    r1 = q / qa
    r2 = qc / q if q != 0 else r1
    lo, hi = min(r1, r2), max(r1, r2)
    return [(lo, hi)] if qa > 0 else [(-INF, lo), (hi, INF)]


def _intersect_sorted(xs: List[Tuple[float, float]],
                      ys: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Intersection of two sorted lists of disjoint closed intervals, by a
    merge."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def _feasible_centres(a, b, points: Iterable, tol) -> Tuple[List[Tuple[float, float]], int]:
    """Bisector parameters where the arc through a, b is within tol of each
    of `points`, intersected in order until nothing is left, and how many
    points that took."""
    frame = _chord_frame(a, b)
    feasible = [(-INF, INF)]
    used = 0
    for p in points:
        used += 1
        feasible = _intersect_sorted(feasible, _frame_intervals(frame, a, b, p, tol))
        if not feasible:
            break
    return feasible, used


def _build_arc(a, b, s, points, with_sse: bool = True, sse_floor: float = 0.0) -> FittedArc:
    mid, u, length = _chord_frame(a, b)
    radius = math.hypot(length / 2, s)
    segment_like = radius > SEGMENT_LIKE_RADIUS_FACTOR * length or not math.isfinite(s)
    if not math.isfinite(s):
        s = math.copysign(SEGMENT_LIKE_RADIUS_FACTOR * length, s if s == s else 1.0)
        radius = math.hypot(length / 2, s)
    center = (mid[0] + s * u[0], mid[1] + s * u[1])
    orientation = _pick_orientation(a, b, center, points)
    sse = _approx_sse(points, center, radius) if with_sse else math.nan
    return FittedArc(tuple(a), tuple(b), center, radius, orientation, sse, segment_like,
                     sse_floor)


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
    sum_gg = 0.0
    params = []  # (w, e) per point, read only by the polish
    for p in points:
        px = p[0] - mx
        py = p[1] - my
        w = px * px + py * py
        e = px * ux + py * uy
        if polish:
            params.append((w, e))
        g = w - half_sq
        sum_gh += g * e
        sum_hh += e * e
        sum_gg += g * g
    floor = _sse_floor(len(points), half_sq, sum_gg, sum_gh, sum_hh, mid, length)
    if sum_hh == 0:
        return _build_arc(a, b, INF, points, with_sse, floor)
    s = sum_gh / (2 * sum_hh)
    if not polish:
        return _build_arc(a, b, s, points, with_sse, floor)

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
    return _build_arc(a, b, best_s, points, with_sse, floor)


def _sse_floor(n: int, h: float, gg: float, gh: float, hh: float, mid, length: float) -> float:
    """Certified lower bound on the `_approx_sse`, over the same n points,
    of every arc that `_build_arc` makes through the two anchors and does
    not report segment-like; 0.0 when a float overflowed.

    With m the float chord midpoint (the one `_build_arc` uses too), u the
    chord's unit normal, L the chord length, h = (L/2)^2, and per point
    w = |p - m|^2, e = (p - m) . u, g = w - h: the centre m + s*u has
    radius r = sqrt(h + s^2), and d^2 - r^2 = g - 2*e*s, so `_approx_sse`
    there is exactly f(s) = (G - 4*s*P + 4*s^2*E) / (4*(h + s^2)) with
    G = sum g^2, P = sum g*e, E = sum e^2 (the sums gg, gh, hh).
    f(s) >= lam for all s iff 4*(E - lam)*s^2 - 4*P*s + G - 4*lam*h >= 0
    for all s, that is iff (E - lam)*(G - 4*lam*h) >= P^2 with both
    factors >= 0, so the minimum of f (also its limit E at infinity) is
    the smaller root of 4*h*lam^2 - (G + 4*h*E)*lam + (E*G - P^2) = 0,
    taken in the stable form
    lam = 2*(E*G - P^2) / (G + 4*h*E + sqrt((G - 4*h*E)^2 + 16*h*P^2)),
    whose only cancellation is in E*G - P^2.

    Rounding, to first order, with EPS the unit roundoff, n the points,
    B^2 = h + sqrt(G) (at least every w, since |g| <= sqrt(G)) and
    M = |m_x| + |m_y|:

    - The sums.  Each offset p - m is off by 2*EPS*|p - m|, L and so u by
      5*EPS and h by 7*EPS (hypot is within one ulp), so w is off by
      6*EPS*w, g by 8*EPS*(w + h) and e by 9*EPS*|p - m|.  With |g| <= 2*B^2,
      |e| <= B and the summation errors ((n-1)*EPS of a sum of squares, and
      of sum |g*e| <= sqrt(G*E) for P): dG <= EPS*((n+1)*G + 64*n*B^4),
      dE <= EPS*((n+1)*E + 18*n*B^2), dP <= EPS*n*(sqrt(G*E) + 34*B^3).
      They move f(s) by at most dG/(4h), dP/(2*sqrt(h)) (as
      |s|/(h+s^2) <= 1/(2*sqrt(h))) and dE; h's error moves it by 7*EPS*f;
      evaluating the root adds 6*EPS*E + 8*EPS*lam (the numerator's
      6*EPS*E*G over a denominator of at least 2*G).  Their sum, doubled
      for the first-order terms, is err, and min f >= lam - err.
    - The arc.  `_build_arc` rounds the centre by at most EPS*(M + 8*r)
      and the radius by 5*EPS*r, so the arc leaves the family above;
      `_approx_sse` rounds each d^2 - r^2 by 5*EPS*(d^2 + r^2) and the
      quotient by EPS.  With d <= B + r and L/2 <= r <= rho =
      SEGMENT_LIKE_RADIUS_FACTOR * L (any larger radius is segment-like),
      each residual (d^2 - r^2)/(2r) is off by at most
      eta = EPS*(2*M*(1 + 2*B/L) + 20*(B + rho) + 11*B^2/L), doubled
      below, and the root of the sum of their squares, a Euclidean norm,
      by sqrt(n)*eta.  Summing n squares loses a factor of at most
      1 - (n+1)*EPS.

    Hence every such arc has sse >= (1 - (n+8)*EPS) *
    (sqrt(lam - err) - sqrt(n)*eta)^2, the extra 7*EPS covering the
    rounding of this expression.  G grows as the fourth power of the
    coordinates; a bound that overflowed or came out NaN is 0.
    """
    eg = hh * gg
    num = eg - gh * gh
    if not num > 0.0:
        return 0.0
    diff = gg - 4 * h * hh
    lam = 2 * num / (gg + 4 * h * hh + math.sqrt(diff * diff + 16 * h * gh * gh))
    b_sq = h + math.sqrt(gg)
    b = math.sqrt(b_sq)
    err = 2 * EPS * (((n + 1) * gg + 64 * n * b_sq * b_sq) / (4 * h)
                     + n * (math.sqrt(eg) + 34 * b * b_sq) / (2 * math.sqrt(h))
                     + (n + 13) * hh + 18 * n * b_sq + 15 * lam)
    m = abs(mid[0]) + abs(mid[1])
    rho = SEGMENT_LIKE_RADIUS_FACTOR * length
    eta = 2 * EPS * (2 * m * (1 + 2 * b / length) + 20 * (b + rho) + 11 * b_sq / length)
    root = math.sqrt(max(0.0, lam - err)) - math.sqrt(n) * eta
    floor = (1 - (n + 8) * EPS) * root * root if root > 0.0 else 0.0
    return floor if floor < INF else 0.0


def fit_arc_by_tolerance(points: Sequence, tol: float = 0.0,
                         seed_arc: Optional[FittedArc] = None,
                         blockers: Optional[List[int]] = None) -> Optional[FittedArc]:
    """Arc through the endpoints with every point within tol, or None.

    Tries the least-squares fit first (seed_arc, when given, stands in for
    it); on failure intersects the per-point tolerance intervals on the
    bisector and evaluates their endpoints by approximate squared deviation.
    When the intersection comes out empty and `blockers` is a list, the
    indices (into points) of the points intersected up to that moment are
    appended to it: their intervals alone already leave no centre.
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
    order = lead + rest
    feasible, used = _feasible_centres(a, b, (points[i] for i in order), tol)
    if not feasible:
        if blockers is not None:
            blockers.extend(order[:used])
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
    """Insert collinear points so consecutive spacing is at most max_step;
    ValueError when that takes more than MAX_DENSIFIED points."""
    if max_step <= 0:
        raise ValueError("max_step must be positive")
    counts = []
    for q, p in zip(polyline, polyline[1:]):
        ratio = math.dist(q, p) / max_step
        if not ratio < MAX_DENSIFIED:  # also an overflow to inf
            raise ValueError(f"densifying would emit more than {MAX_DENSIFIED} points")
        counts.append(max(1, math.ceil(ratio)))
    if 1 + sum(counts) > MAX_DENSIFIED:
        raise ValueError(f"densifying would emit more than {MAX_DENSIFIED} points")
    out: List[Tuple[float, float]] = []
    for i, p in enumerate(polyline):
        if i == 0:
            out.append(tuple(p))
            continue
        q = polyline[i - 1]
        k = counts[i - 1]
        for j in range(1, k):
            out.append((q[0] + (p[0] - q[0]) * j / k, q[1] + (p[1] - q[1]) * j / k))
        out.append(tuple(p))
    return out


def direction_and_endpoint_check(points: Sequence, primitive) -> bool:
    """Projections of the points onto the primitive's natural parameter must
    be non-decreasing.

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
            if pos < run:
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
        if pos < run:
            return False
        run = max(run, pos)
    return True
