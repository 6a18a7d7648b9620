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
roots.  Intersecting the per-point interval sets, one point at a time
(`_feasible_centres`, which the DP's blocker probe shares), yields all
tolerance-feasible centers; each set is computed inline from the
candidate's hoisted constants, by the same float expressions as one point
alone (`tolerance_intervals_point`).

The DP's arc cost is the approximate squared deviation, the sum of
((d^2 - r^2)/(2*r))^2 over the points, which about the centre at s is the
ratio f(s) = (G - 4*s*P + 4*s^2*E) / (4*(h + s^2)) of three sums over the
points (`_Moments.arc_sums`).  Its minimum lam and its minimiser
s* = P/(2*(E - lam)) are closed forms in those sums, and f(s) - lam is
(E - lam)*(s - s*)^2/(h + s^2) (`_sse_minimum`), so every arc is priced in
O(1) once the sums are known (`_arc_cost`): `fit_arc_least_squares`
returns the arc at s*, whose cost is lam itself, and
`fit_arc_by_tolerance` the cheapest interval endpoint when s* is not
feasible.

Two exact checks decide whether a fitted arc covers a window: every point
within tol*(1 + CHECK_ALLOWANCE) of its circle (`arc_within_tolerance`),
and the points in order along it, which two cross products per point
about the centre decide (`direction_and_endpoint_check`).  Both run in
floats against a derived error bound and in rationals where the bound
cannot tell.  Which windows may hold an arc at all is the subdivision
test `arc_exists_within_tolerance`: an inversion about the window's last
point turns circles into lines, a one-line witness settles the feasible
windows, and a pairwise cut of the discs (`_no_circle_through`, also the
DP's anchored cut) certifies the rest.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate, islice, pairwise
from typing import Iterable, List, Optional, Sequence, Tuple

from .predicates import EPS
from .records import Record

INF = math.inf

# radius beyond this multiple of the chord length is reported segment-like
SEGMENT_LIKE_RADIUS_FACTOR = 1e6
MAX_DENSIFIED = 10 ** 6  # points densify may emit, far more than the DP can take
# radians added to every arc of directions in `_no_circle_through`: more
# than the rounding of its angle arithmetic
ANCHOR_MARGIN = 256 * EPS
# relative allowance of `arc_within_tolerance`: every point an accepted arc
# covers is, exactly, within tol*(1 + CHECK_ALLOWANCE) of it
CHECK_ALLOWANCE = 1e-9
ANCHOR_POINTS = 5  # evenly spaced points of pts[m..k-1] a circle through pts[k] is tested on


class FittedArc(Record):
    __slots__ = ("start", "end", "center", "radius", "orientation", "sse", "segment_like")

    def __init__(self, start: Tuple[float, float], end: Tuple[float, float],
                 center: Tuple[float, float], radius: float, orientation: str, sse: float,
                 segment_like: bool = False):
        self.start = start
        self.end = end
        self.center = center
        self.radius = radius
        self.orientation = orientation  # "ccw" | "cw"
        self.sse = sse  # the DP's arc cost f at the centre, in closed form (`_arc_cost`)
        self.segment_like = segment_like


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
    return _feasible_centres(a, b, (p,), tol)[0]


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
    points that took.

    Each point's set is {s : qa*s^2 + qb*s + qc <= 0} (module docstring),
    read off the signs of qa and of the discriminant, after the endpoint
    test: past it the squared condition is exact, as it drops only centres
    with d < tol - r, and there d + r >= |p - a| > tol.  The candidate's
    constants (chord frame, h, tol^2, 4*tol^2*h) are hoisted but evaluated
    by the same expressions in the same order as for one point alone, so
    every set is the same floats.  A whole line is skipped; a one-interval
    set meets a one-interval feasible set as a running pair (lo, hi), which
    picks the same floats as the merge; two rays go through the merge."""
    (mx, my), (ux, uy), length = _chord_frame(a, b)
    half_sq = (length / 2) ** 2
    tol_sq = tol * tol
    qc_off = 4 * tol * tol * half_sq
    lo, hi = -INF, INF
    feasible = None  # the feasible set while it is not the one interval (lo, hi)
    used = 0
    for p in points:
        used += 1
        if math.dist(p, a) <= tol or math.dist(p, b) <= tol:
            continue  # the whole line
        px = p[0] - mx
        py = p[1] - my
        e = px * ux + py * uy
        B = px * px + py * py - half_sq - tol_sq
        qa = 4 * (e * e - tol_sq)
        qb = -4 * B * e
        qc = B * B - qc_off
        rays = False
        if qa == 0:
            if qb == 0:
                if qc <= 0:
                    continue  # the whole line
                return [], used
            root = -qc / qb
            if qb > 0:
                p_lo, p_hi = -INF, root
            else:
                p_lo, p_hi = root, INF
        else:
            disc = qb * qb - 4 * qa * qc
            if qa < 0 and disc <= 0:
                continue  # the whole line
            if disc < 0:
                return [], used
            sq = math.sqrt(disc)
            # numerically stable pair
            q = -(qb + math.copysign(sq, qb)) / 2
            r1 = q / qa
            r2 = qc / q if q != 0 else r1
            p_lo, p_hi = min(r1, r2), max(r1, r2)
            rays = qa < 0  # the two rays outside [p_lo, p_hi]
        if feasible is None and not rays:
            if p_lo > lo:
                lo = p_lo
            if p_hi < hi:
                hi = p_hi
            if lo > hi:
                return [], used
            continue
        feasible = _intersect_sorted([(lo, hi)] if feasible is None else feasible,
                                     [(-INF, p_lo), (p_hi, INF)] if rays else [(p_lo, p_hi)])
        if len(feasible) == 1:
            (lo, hi), = feasible
            feasible = None
        elif not feasible:
            return [], used
    return [(lo, hi)] if feasible is None else feasible, used


def _anchor_slack(tol: float, diameter: float, coord: float) -> float:
    """A distance t such that every arc `compress._evaluate_arc` returns on
    points with coordinates within +-coord and pairwise distances at most
    D = diameter is a circle through its end anchor within t of every point
    it covers.

    Such an arc passed `arc_within_tolerance` and is not segment-like, so
    its radius r is at most rho = SEGMENT_LIKE_RADIUS_FACTOR * D (up to
    2*EPS), and every point it covers is, exactly, within the float
    tol*(1 + CHECK_ALLOWANCE) of the circle about the float centre c with
    the float radius.  The circle here is the one about c through the
    anchor b: `_build_arc` makes |c - b| differ from the float radius by at
    most EPS*(4*coord + 13*rho) (its docstring).  The sum is below
    tol*(1 + 2*CHECK_ALLOWANCE) + 32*EPS*(coord + rho): the second
    CHECK_ALLOWANCE covers the rounding of the check's limit and of this
    sum, and the factor 32 is twice what the terms need, which also covers
    a D that `math.hypot` computed a rounding short.
    """
    rho = SEGMENT_LIKE_RADIUS_FACTOR * diameter
    return tol * (1 + 2 * CHECK_ALLOWANCE) + 32 * EPS * (coord + rho)


def _no_circle_through(b, points, t) -> bool:
    """True when certainly no circle through b lies within t of every one
    of `points`; False when one may, or when the floats cannot tell.

    The lemma.  A circle through b has the centre c = b + n/kappa, n a
    unit vector and kappa != 0 its signed curvature.  For a point p with
    q = p - b, |q| > t and w = (|q|^2 - t^2)/2, p lies within t of the
    circle iff |q.n - kappa*w| <= t.  Squaring |d - r| <= t gives
    |d^2 - r^2 - t^2| <= 2*t*r, exact here since d + r >= |q| > t, and
    d^2 - r^2 = |q|^2 - 2*q.n/kappa.  Divided by w, with p* = q/w and
    delta = t/w (an inversion about b): the line {x : x.n = kappa} passes
    within delta of p*.  Arcs through b are line transversals of discs.
    With kappa = 0 the same condition |q.n| <= t says that p lies within t
    of the line through b with normal n, so everything below covers the
    lines through b too.

    For one n such a line exists iff every pair i, j has
    |(p*_i - p*_j).n| <= delta_i + delta_j (Helly in one dimension).  With
    v = p*_i - p*_j, a pair with delta_i + delta_j < |v| allows only the
    directions n within asin((delta_i + delta_j)/|v|) of the normal of v,
    one arc of directions modulo pi (n and -n give the same lines).  When
    those arcs have an empty intersection over the pairs, no circle through
    b fits the points.  The running intersection is one interval of angles
    about the first informative pair's direction; where an arc meets it in
    two pieces it keeps their hull, which can only keep more directions.
    Points within 2t of b are skipped: that too only keeps more.

    The floats.  For a point with |q|^2 > 4t^2, w >= 3|q|^2/8, so the
    float w is within 7*EPS*w (|q|^2 within 4*EPS, t^2 within EPS, the
    difference within EPS), the floats of p* and delta within 10*EPS, and
    |p*| <= 8/(3|q|) < 4/(3t).  Hence the float v is within
    err = 64*EPS/t of v (10*EPS on each coordinate of two points of
    norm below 4/(3t), one rounding for the difference), and with
    err < |v|/4 its direction is within asin(err/|v|) <= 2*err/|v| of the
    true one; atan2 adds 2*EPS*pi.  The true sine (delta_i + delta_j)/|v|
    is at most (delta_i + delta_j)/(|v| - err) * (1 + 32*EPS) in floats
    (the sum and the norm within 12*EPS, the quotient one rounding).  asin
    is monotone, so each arc is widened by 2*err/|v| and by ANCHOR_MARGIN,
    which covers the rounding of atan2, asin, the reduction modulo pi and
    the interval ends (below 40*EPS each); an arc that reaches pi/2 either
    side allows everything and is skipped, as is a pair with
    err >= |v|/4 or a sine >= 1.  An empty intersection of the widened
    arcs is then certain.
    """
    return _no_transversal(*_inverted(b, points, t), t)


def _inverted(b, points, t) -> Tuple[List[float], List[float], List[float]]:
    """The inverted points p* = q/w of `points` farther than 2t from b, as
    x and y lists, and their delta = t/w (`_no_circle_through`)."""
    bx, by = b
    t_sq = t * t
    near = 4 * t_sq
    xs: List[float] = []
    ys: List[float] = []
    ds: List[float] = []
    for px, py in points:
        qx = px - bx
        qy = py - by
        q_sq = qx * qx + qy * qy
        if q_sq > near:
            w = (q_sq - t_sq) / 2
            xs.append(qx / w)
            ys.append(qy / w)
            ds.append(t / w)
    return xs, ys, ds


def _no_transversal(xs, ys, ds, t) -> bool:
    """True when certainly no line meets every disc (p*, delta) of
    `_inverted`: the pairwise cut of `_no_circle_through`."""
    err = 64 * EPS / t
    err2 = 2 * err
    err4 = 4 * err
    up = 1 + 32 * EPS
    hypot, asin, atan2 = math.hypot, math.asin, math.atan2
    pi = math.pi
    half_pi = pi / 2
    ref = None
    lo = hi = 0.0
    for i in range(1, len(xs)):
        xi, yi, di = xs[i], ys[i], ds[i]
        for j in range(i):
            vx = xi - xs[j]
            vy = yi - ys[j]
            norm = hypot(vx, vy)
            if not err4 < norm:
                continue
            sine = (di + ds[j]) / (norm - err) * up
            if not sine < 1:
                continue
            half = asin(sine) + err2 / norm + ANCHOR_MARGIN
            if not half < half_pi:
                continue
            # each arc is taken about the direction of v rather than its
            # normal, the same quarter turn for every pair
            if ref is None:
                ref, lo, hi = atan2(vy, vx), -half, half
                continue
            d = atan2(vy, vx) - ref  # reduced below to [-pi/2, pi/2]
            if d > half_pi:
                d -= pi
                if d > half_pi:
                    d -= pi
            elif d < -half_pi:
                d += pi
                if d < -half_pi:
                    d += pi
            # the copy of the arc at d, or the one at d -+ pi, or both, meet
            # [lo, hi]; the copy at d +- pi lies beyond it
            arc_lo = d - half
            arc_hi = d + half
            if arc_lo <= hi and arc_hi >= lo:
                if d > 0:
                    if arc_hi - pi >= lo:
                        arc_lo -= pi
                elif arc_lo + pi <= hi:
                    arc_hi += pi
            else:
                shift = -pi if d > 0 else pi
                arc_lo += shift
                arc_hi += shift
                if not (arc_lo <= hi and arc_hi >= lo):
                    return True
            if arc_lo > lo:
                lo = arc_lo
            if arc_hi < hi:
                hi = arc_hi
    return False


def _anchor_sample(pts, m: int, k: int) -> list:
    """The ANCHOR_POINTS evenly spaced points of pts[m..k-1], pts[m] and
    pts[k-1] included, that `_no_circle_through` tests the circles through
    pts[k] on."""
    span = k - 1 - m
    last = ANCHOR_POINTS - 1
    return [pts[m + span * i // last] for i in range(ANCHOR_POINTS)]


def arc_exists_within_tolerance(points: Sequence[Tuple[int, int]], tol) -> bool:
    """False only when certainly no circular arc, with its centre anywhere
    in the plane, and no line covers all the integer points within tol;
    True otherwise.

    One-sided, which is what pruning needs: a window reported False holds
    no arc of any radius, and any window that cannot be settled counts as
    feasible.  The test is the anchored cut's: no circle through b, the
    last point, within t = 2*tol*(1 + 2*CHECK_ALLOWANCE) of the points of
    `_anchor_sample` (`_no_circle_through`).  Its Helly argument holds for
    every signed curvature kappa, kappa = 0 included, so a certificate
    excludes the lines through b as well as the circles.

    Why t covers every arc.  An arc within tol of the points has a centre
    c and radius r with | |p - c| - r | <= tol for each point p, b
    included, so | |b - c| - r | <= tol, and every point is within 2*tol of
    the circle about c through b.  When c = b, that circle has radius 0 and
    every point is within 2*tol of b; `_no_circle_through` skips points
    within 2t of b and cannot certify.  The same holds for the DP's arcs,
    with L, the float tol*(1 + CHECK_ALLOWANCE) of `arc_within_tolerance`,
    in place of tol: an arc the DP accepts over a range [kp, k] that
    contains the window has float centre c and radius r with
    | |p - c| - r | <= L exactly for every point p of the window, so every
    one is within 2*L of the circle about c through b, and t >= 2*L covers
    the rounding of L too.  A False therefore means that no DP arc covers
    any range containing the window, which is what the dyadic scan's
    poisoning of supersets needs.

    Most windows are feasible, so a one-line witness runs before the
    pairwise cut, on the same inverted sample (`_line_meets_discs`): when
    one line meets every disc, no certificate exists and the answer is
    True.  The witness is exact, so it only ever settles windows the cut,
    which is sound, would also leave feasible: every verdict is the cut's.

    Fewer than 4 points raise ValueError.  A tol whose float is not
    positive and finite, and coordinates whose squares pass the float
    range, cannot be decided in floats; they give True.
    """
    if len(points) < 4:
        raise ValueError("too few points for arc")
    k = len(points) - 1
    try:
        t = 2 * float(tol) * (1 + 2 * CHECK_ALLOWANCE)
        if not t > 0.0:
            return True
        inverted = _inverted(points[k], _anchor_sample(points, 0, k), t)
        return _line_meets_discs(*inverted, t) or not _no_transversal(*inverted, t)
    except OverflowError:  # past the float range
        return True


def _line_meets_discs(xs, ys, ds, t) -> bool:
    """True when certainly some line meets every disc (p*_i, delta_i) of
    `_inverted`; False when none may, or when the floats cannot tell.

    The line takes the direction d from the first inverted point to the
    last, with its offset free: with m the normal of d, one meets every
    disc iff max(p*_i.m - delta_i*|m|) <= min(p*_i.m + delta_i*|m|).  The
    floats, with the bounds of `_no_circle_through` (p* and delta within
    10*EPS, |p*| < 4/(3t), delta < 2/(3t)): each float p*_i.m is within
    about 12*EPS*|p*_i|*|m| < 17*EPS*|m|/t of the exact one (the float p*,
    then three roundings of the cross product with d), each float
    delta_i*h, h = fl(|m|), within 14*EPS*delta_i*|m| < 10*EPS*|m|/t, and
    each end of a disc's range within 30*EPS*|m|/t with its own rounding.
    A gap of 256*EPS*h/t between the two sides is more than the 60*EPS*|m|/t
    they need together, and covers the rounding of the comparison.  With
    fewer than two discs some line meets them all.
    """
    if len(xs) < 2:
        return True
    dx = xs[-1] - xs[0]
    dy = ys[-1] - ys[0]
    h = math.hypot(dx, dy)
    lo = -INF
    hi = INF
    for x, y, d in zip(xs, ys, ds):
        e = dx * y - dy * x
        dh = d * h
        if e - dh > lo:
            lo = e - dh
        if e + dh < hi:
            hi = e + dh
    return h > 0 and lo + 256 * EPS * h / t <= hi


def _build_arc(a, b, s, points, sse: float) -> FittedArc:
    """The arc through a and b with its centre at the bisector parameter s,
    and the cost `sse` the caller priced it at (`_arc_cost`).

    A non-finite s, or a radius beyond SEGMENT_LIKE_RADIUS_FACTOR chords,
    makes the arc segment-like.  The rounding: with m = (a + b)/2 the exact
    chord midpoint, M = |m_x| + |m_y| and r the exact radius, the float
    centre lies within EPS*(2*M + 8*r) of m + s*u (the float midpoint is
    off by EPS*M, the unit normal u by 5*EPS), and the float radius within
    5*EPS*r of r (`_anchor_slack` relies on both).
    """
    mid, u, length = _chord_frame(a, b)
    radius = math.hypot(length / 2, s)
    segment_like = radius > SEGMENT_LIKE_RADIUS_FACTOR * length or not math.isfinite(s)
    if not math.isfinite(s):
        s = math.copysign(SEGMENT_LIKE_RADIUS_FACTOR * length, s if s == s else 1.0)
        radius = math.hypot(length / 2, s)
    center = (mid[0] + s * u[0], mid[1] + s * u[1])
    orientation = _pick_orientation(a, b, center, points)
    return FittedArc(tuple(a), tuple(b), center, radius, orientation, sse, segment_like)


def _pick_orientation(a, b, center, points) -> str:
    # the middle point decides which of the two arcs the data follows; the
    # direction check rejects the pick when the data disagrees
    ta = math.atan2(a[1] - center[1], a[0] - center[0])
    tb = math.atan2(b[1] - center[1], b[0] - center[0])
    ccw_span = (tb - ta) % (2 * math.pi)
    p = points[len(points) // 2]
    tp = (math.atan2(p[1] - center[1], p[0] - center[0]) - ta) % (2 * math.pi)
    return "ccw" if tp <= ccw_span else "cw"


class _Moments:
    """Exact prefix sums of x, y, x^2, xy, y^2, x*|p|^2, y*|p|^2 and |p|^4
    over the points, one list per moment (Python ints for grid points,
    Fractions for rational ones): O(1) exact sums over any vertex range i..j,
    column[j + 1] - column[i], with the count j + 1 - i, for the segment SSE
    and the arc costs.  The arc scan computes a candidate's `arc_sums` once
    and passes them to its floor (`arc_floor`) and, when the candidate is
    evaluated, to `compress._evaluate_arc`."""

    def __init__(self, pts):
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        ws = [x * x + y * y for x, y in pts]
        self.sx = list(accumulate(xs, initial=0))
        self.sy = list(accumulate(ys, initial=0))
        self.sxx = list(accumulate((x * x for x in xs), initial=0))
        self.sxy = list(accumulate((x * y for x, y in pts), initial=0))
        self.syy = list(accumulate((y * y for y in ys), initial=0))
        self.sxw = list(accumulate((x * w for x, w in zip(xs, ws)), initial=0))
        self.syw = list(accumulate((y * w for y, w in zip(ys, ws)), initial=0))
        self.sww = list(accumulate((w * w for w in ws), initial=0))
        self.pts = pts

    def range_sse(self, i: int, j: int) -> float:
        """Sum over i..j of squared distance to the line through pts[i], pts[j]
        (to the point pts[i] when the two coincide)."""
        ax, ay = self.pts[i]
        bx, by = self.pts[j]
        dx = bx - ax
        dy = by - ay
        len_sq = dx * dx + dy * dy
        j += 1
        cnt = j - i
        sx = self.sx[j] - self.sx[i]
        sy = self.sy[j] - self.sy[i]
        sxx = self.sxx[j] - self.sxx[i]
        sxy = self.sxy[j] - self.sxy[i]
        syy = self.syy[j] - self.syy[i]
        if len_sq == 0:
            # coincident anchors: no line, the deviation is from the anchor
            return float(sxx - 2 * ax * sx + cnt * ax * ax + syy - 2 * ay * sy + cnt * ay * ay)
        # cross_t = dx*(y_t - ay) - dy*(x_t - ax); sum cross_t^2 expanded
        c = dx * ay - dy * ax  # cross = dx*y - dy*x - c0 with c0 = dx*ay - dy*ax
        total = (dx * dx * syy + dy * dy * sxx - 2 * dx * dy * sxy
                 - 2 * c * (dx * sy - dy * sx) + cnt * c * c)
        return total / len_sq

    def arc_sums(self, i: int, j: int):
        """G = sum g^2, L*P = sum g*q and L^2*E = sum q^2 over i..j, exact,
        with anchors a = pts[i] and b = pts[j], g = (p - a).(p - b) and
        q = (p - a).(a_y - b_y, b_x - a_x): the sums of f(s) (module
        docstring) about the exact chord midpoint m, as g = |p - m|^2 - h
        and q = L*e."""
        ax, ay = self.pts[i]
        bx, by = self.pts[j]
        cx, cy = ax + bx, ay + by
        nx, ny = ay - by, bx - ax
        ab = ax * bx + ay * by  # g = |p|^2 - c.p + ab
        an = nx * ax + ny * ay  # q = n.p - an
        j += 1
        cnt = j - i
        sx = self.sx[j] - self.sx[i]
        sy = self.sy[j] - self.sy[i]
        sxx = self.sxx[j] - self.sxx[i]
        sxy = self.sxy[j] - self.sxy[i]
        syy = self.syy[j] - self.syy[i]
        sxw = self.sxw[j] - self.sxw[i]
        syw = self.syw[j] - self.syw[i]
        sww = self.sww[j] - self.sww[i]
        sw = sxx + syy
        cp = cx * sx + cy * sy
        np_ = nx * sx + ny * sy
        g = (sww - 2 * (cx * sxw + cy * syw) + cx * (cx * sxx + 2 * cy * sxy) + cy * cy * syy
             + ab * (2 * (sw - cp) + cnt * ab))
        lp = (nx * sxw + ny * syw - an * sw - cx * (nx * sxx + ny * sxy) - cy * (nx * sxy + ny * syy)
              + an * cp + ab * (np_ - cnt * an))
        l2e = nx * (nx * sxx + 2 * ny * sxy) + ny * ny * syy - an * (2 * np_ - cnt * an)
        return g, lp, l2e

    def arc_floor(self, i: int, j: int, sums) -> float:
        """The cost of the least-squares arc through pts[i] and pts[j] over
        i..j, mu/L^2 of `_least_mu` from `sums` = `arc_sums(i, j)`: no arc
        priced from the same sums costs less (`_arc_cost`)."""
        (ax, ay), (bx, by) = self.pts[i], self.pts[j]
        return _least_mu(*sums)[0] / ((bx - ax) ** 2 + (by - ay) ** 2)


def _window_sums(points, sums):
    """The window's sums G, L*P and L^2*E (`sums` when given, else
    `_Moments` over its coordinates, ints and Fractions as they are and
    others as exact Fractions) and its L^2 = |b - a|^2, exact for exact
    anchors.  Non-finite coordinates raise ValueError."""
    if sums is None:
        from fractions import Fraction  # only here: every arc the compressor fits has sums

        if not all(math.isfinite(c) for p in points for c in p):
            raise ValueError("non-finite coordinate")
        points = [tuple(c if isinstance(c, numbers.Rational) else Fraction(c) for c in p) for p in points]
        sums = _Moments(points).arc_sums(0, len(points) - 1)
    (ax, ay), (bx, by) = points[0], points[-1]
    return sums, (bx - ax) ** 2 + (by - ay) ** 2


def fit_arc_least_squares(points: Sequence, sums=None) -> FittedArc:
    """The arc through the first and last point with the least approximate
    squared deviation: the centre at the minimiser s* of f (module
    docstring, `_sse_minimum`), at the cost lam.

    `sums` are G, L*P and L^2*E of `_Moments.arc_sums` over the window when
    the caller has them (the compressor's prefix moments give them in
    O(1)); otherwise they are summed exactly over the window
    (`_window_sums`).  When f is least at infinity (collinear input) the
    arc is segment-like.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    a, b = points[0], points[-1]
    sums, l_sq = _window_sums(points, sums)
    fit = _sse_minimum(*sums)
    sigma = fit[1]
    return _build_arc(a, b, _chord_frame(a, b)[2] * sigma, points, _arc_cost(fit, sigma, l_sq))


def _sse_minimum(g, lp, l2e) -> Tuple[float, float, float]:
    """(mu, sigma*, excess): mu = L^2*lam, the minimum lam over s of
    f(s) = (G - 4*s*P + 4*s^2*E) / (4*(h + s^2)), h = (L/2)^2, its
    minimiser sigma* = s*/L, and excess = L^2*(E - lam) >= 0, from the sums
    G, L*P and L^2*E of `_Moments.arc_sums`.

    f(s) >= lam for all s iff (E - lam)*(G - 4*lam*h) >= P^2 with both
    factors >= 0, so the minimum of f (also its limit E at infinity) is
    the smaller root of 4*h*lam^2 - (G + 4*h*E)*lam + (E*G - P^2) = 0.
    With 4*h = L^2, mu = L^2*lam is the smaller root of
    mu^2 - S*mu + N = 0:

        mu = 2*N / (S + sqrt(D)),  N = L^2E*G - (LP)^2,
        S = G + L^2E,  D = (G - L^2E)^2 + 4*(LP)^2,

    with N >= 0 (Cauchy-Schwarz), so nothing cancels.  At that root the
    numerator of f - lam, 4*(E - lam)*s^2 - 4*P*s + G - 4*lam*h, has a zero
    discriminant: it is the square 4*(E - lam)*(s - s*)^2 with
    s* = P/(2*(E - lam)), so, with sigma = s/L,

        L^2*f = mu + excess*(sigma - sigma*)^2/(1/4 + sigma^2)  (`_arc_cost`).

    excess = (sqrt(D) - (G - L^2E))/2 = 2*(LP)^2/(sqrt(D) + G - L^2E), and
    sigma* = LP/(2*excess): LP/(sqrt(D) - (G - L^2E)) when G < L^2E and
    (sqrt(D) + G - L^2E)/(4*LP) otherwise, so again nothing cancels.  When
    LP = 0 and G >= L^2E, f is least at infinity (or constant): sigma* is
    inf, mu = L^2E and L^2*f = mu + excess/(1 + 4*sigma^2) with
    excess = G - L^2E.

    Exact sums are rounded to floats once each, where they meet a float.
    """
    mu, diff, root = _least_mu(g, lp, l2e)
    if diff < 0:
        den = root - diff
        return mu, lp / den, den / 2
    if lp:
        return mu, (root + diff) / (4 * lp), 2 * lp * lp / (root + diff)
    return mu, INF, float(diff)


def _least_mu(g, lp, l2e):
    """(mu, G - L^2E, sqrt(D)) of `_sse_minimum` from the sums G, L*P and
    L^2*E: mu = 2*N/(S + sqrt(D)), the difference exact as the sums are."""
    diff = g - l2e
    root = math.sqrt(diff * diff + 4 * lp * lp)
    num = l2e * g - lp * lp
    return (2 * num / (g + l2e + root) if num > 0 else 0.0), diff, root


def _arc_cost(fit, sigma: float, l_sq) -> float:
    """f at sigma = s/L from `fit` = `_sse_minimum` of the window's sums
    and L^2: (mu + t)/L^2, t >= 0 the excess term of its closed form.  As
    rounding is monotone, never below mu/L^2 (`_Moments.arc_floor`), and
    equal to it at sigma*."""
    mu, s_star, excess = fit
    if s_star == INF:
        t = excess / (1 + 4 * sigma * sigma)
    else:
        d = sigma - s_star
        t = excess * d * d / (0.25 + sigma * sigma)
    return (mu + t) / l_sq


def fit_arc_by_tolerance(points: Sequence, tol: float = 0.0,
                         seed_arc: Optional[FittedArc] = None,
                         blockers: Optional[List[int]] = None,
                         sums=None) -> Optional[FittedArc]:
    """Arc through the endpoints with every point within tol, or None.

    Tries the least-squares fit first (seed_arc, when given, stands in for
    it); on failure intersects the per-point tolerance intervals on the
    bisector and takes the cheapest of their endpoints, every arc priced
    from the window's sums (`sums`, as for `fit_arc_least_squares`).
    When the intersection comes out empty and `blockers` is a list, the
    indices (into points) of the points intersected up to that moment are
    appended to it: their intervals alone already leave no centre.
    """
    if len(points) < 4:
        raise ValueError("need at least 4 points")
    a, b = points[0], points[-1]
    sums, l_sq = _window_sums(points, sums)
    ls = seed_arc
    if ls is None:
        ls = fit_arc_least_squares(points, sums)
        if arc_within_tolerance(ls, points, tol):
            return ls
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
            return ls  # optimum itself is feasible
    candidates = []
    for lo, hi in feasible:
        for s in (lo, hi):
            if math.isfinite(s):
                candidates.append(s)
            else:
                candidates.append(math.copysign(SEGMENT_LIKE_RADIUS_FACTOR * length, s))
    fit = _sse_minimum(*sums)
    best = None
    for s in candidates:
        arc = _build_arc(a, b, s, points, _arc_cost(fit, s / length, l_sq))
        # nudge inward when float dust pushes a boundary center outside
        if not arc_within_tolerance(arc, points, tol):
            for shrink in (1e-12, 1e-9, 1e-6):
                s_in = s + math.copysign(shrink * (1 + abs(s)), s_ls - s)
                arc = _build_arc(a, b, s_in, points, _arc_cost(fit, s_in / length, l_sq))
                if arc_within_tolerance(arc, points, tol):
                    break
            else:
                continue
        if best is None or arc.sse < best.sse:
            best = arc
    return best


def arc_within_tolerance(arc: FittedArc, points: Sequence, tol: float) -> bool:
    """Every point within tol*(1 + CHECK_ALLOWANCE) of the arc's circle,
    the float centre c and radius r as they are, decided exactly.  Whether
    the points lie on the arc's span rather than its complement is
    `direction_and_endpoint_check`'s question.

    The float deviation |hypot(p - c) - r| is within 5*EPS*d + EPS*dev of
    the exact one dev, d = |p - c|: the differences p - c round by EPS,
    hypot by under one ulp (2*EPS), the subtraction by EPS of its result.
    With d <= r + dev that is at most 5*EPS*r + 6*EPS*dev.  So a float
    deviation at most limit - margin, margin = 16*EPS*(r + limit), is
    certainly within the limit, and one above limit + margin certainly
    beyond it (the margin is more than the 5*EPS*r + 6*EPS*limit needed,
    and covers the rounding of the two cuts); between them
    `_within_exactly` decides in rationals.
    """
    cx, cy = arc.center
    r = arc.radius
    limit = tol * (1 + CHECK_ALLOWANCE)
    margin = 16 * EPS * (r + limit)
    accept = limit - margin
    reject = limit + margin
    hypot = math.hypot
    for p in points:
        dev = abs(hypot(p[0] - cx, p[1] - cy) - r)
        if dev > accept and (dev > reject or not _within_exactly(p, arc.center, r, limit)):
            return False
    return True


def _within_exactly(p, c, r, t) -> bool:
    """| |p - c| - r | <= t in rationals, from the ints or floats as they
    are: (r - t)^2 <= |p - c|^2 <= (r + t)^2, the lower bound void when
    r <= t."""
    from fractions import Fraction

    dx = Fraction(p[0]) - Fraction(c[0])
    dy = Fraction(p[1]) - Fraction(c[1])
    d_sq = dx * dx + dy * dy
    r = Fraction(r)
    t = Fraction(t)
    return d_sq <= (r + t) ** 2 and (r <= t or d_sq >= (r - t) ** 2)


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

    primitive: a FittedArc, or a (start, end) tuple for a segment.  On a
    window from the start anchor to the end anchor this also keeps every
    point on the arc's span rather than its complement: the positions start
    at 0 and end at the end anchor's.

    An arc: the angles of the points about the float centre c, measured
    from points[0] in the arc's orientation, never decrease and never
    complete a turn, decided exactly for int or float coordinates.  Each
    step goes the shorter way round.  With v_i = p_i - c and sgn = 1 for
    "ccw", -1 for "cw", every step needs sgn*cross(v_i, v_i+1) >= 0, so a
    step of exactly a half-turn counts as forward.  Once a point v lies at
    or past the half-turn from v_0 (sgn*cross(v_0, v) < 0, or v on the ray
    opposite v_0), no later point may come back across the ray through
    points[0]: that would complete the turn.  A point at the centre takes
    the direction (1, 0), the angle atan2(0, 0) gives it.

    The floats decide with two cross products per point.  Let G = 4*r^2
    (r the arc's radius), with r > 1e-100 and |cx| + 4*r, |cy| + 4*r below
    2^53.  A point whose float vector v has fl(|v|^2) <= G is then an exact
    float (an int below 2^53), and v is within EPS*|V| per coordinate of
    V = p - c, with |V|^2 <= G*(1 + 5*EPS).  The float cross product of
    two such vectors is within 4.02*EPS*|U|*|V| <= 4.03*EPS*G of the exact
    one: three roundings in each product (two coordinates, the product),
    one in the difference, and |Ux*Vy| + |Uy*Vx| <= |U|*|V|.  A float
    cross product beyond 8*EPS*G either side therefore has the exact sign;
    subnormal products add less than 2^-1070, far below that bound.  Any
    other point, a cross product within the bound, or an int past the float
    range sends the whole check to `_turns_exactly`, in rationals.

    A segment: the positions (p - a).(b - a) along the chord from a to b
    never decrease, decided step by step, every (q - p).(b - a) >= 0 for
    consecutive points p, q, in the coordinates' own arithmetic: exact for
    the integer points the DP passes, with no division and no square root.
    Coincident anchors accept anything.
    """
    if isinstance(primitive, FittedArc):
        verdict = _turns_in_floats(points, primitive)
        if verdict is None:
            return _turns_exactly(points, primitive.center, primitive.orientation == "ccw")
        return verdict
    a, b = primitive
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    return all((q[0] - p[0]) * dx + (q[1] - p[1]) * dy >= 0 for p, q in pairwise(points))


def _turns_in_floats(points: Sequence, arc: FittedArc) -> Optional[bool]:
    """The arc branch of `direction_and_endpoint_check` in floats, or None
    when its bound cannot tell."""
    cx, cy = arc.center
    r = arc.radius
    if not (1e-100 < r and max(abs(cx), abs(cy)) + 4 * r < 2.0 ** 53):
        return None
    guard = 4 * r * r
    bound = 8 * EPS * guard
    sgn = 1.0 if arc.orientation == "ccw" else -1.0
    try:
        x, y = points[0]
        ux = x - cx
        uy = y - cy
        if not ux * ux + uy * uy <= guard:
            return None
        sx = sgn * ux
        sy = sgn * uy
        behind = False  # a point lay at or past the half-turn
        for x, y in islice(points, 1, None):
            vx = x - cx
            vy = y - cy
            if not vx * vx + vy * vy <= guard:
                return None
            step = (ux * vy - uy * vx) * sgn
            if not step > bound:
                return False if step < -bound else None
            wrap = sx * vy - sy * vx
            if behind:
                if not wrap < -bound:
                    return False if wrap > bound else None
            elif not wrap > bound:
                if not wrap < -bound:
                    return None
                behind = True
            ux = vx
            uy = vy
    except OverflowError:  # an int past the float range
        return None
    return True


def _turns_exactly(points: Sequence, centre, ccw: bool) -> bool:
    """The arc branch of `direction_and_endpoint_check` in rationals, from
    the coordinates and the float centre as they are."""
    from fractions import Fraction

    cx, cy = map(Fraction, centre)
    sgn = 1 if ccw else -1
    vectors = []
    for x, y in points:
        vx = Fraction(x) - cx
        vy = sgn * (Fraction(y) - cy)
        vectors.append((vx, vy) if vx or vy else (1, 0))
    (sx, sy), behind = vectors[0], False
    for (ux, uy), (vx, vy) in zip(vectors, vectors[1:]):
        if ux * vy < uy * vx:
            return False  # a step backwards
        wrap = sx * vy - sy * vx
        past_half = wrap < 0 or (wrap == 0 and sx * vx + sy * vy < 0)
        if behind and not past_half:
            return False  # back across the start ray: a full turn
        behind = behind or past_half
    return True
