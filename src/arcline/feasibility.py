"""Feasibility tables: which polyline ranges one arc or one segment can
possibly cover within tolerance, so that the dynamic program never tries
the rest.

Arcs: a dyadic window scan.  Windows [i*, i* + 4*2^q - 1] are tested at
every scale q; a failed window forbids every range containing it, because
a range that cannot be covered poisons all its supersets.  The result is a
sorted list of minimal failed pairs, turned into the per-index earliest
feasible start that the dynamic program uses to prune its candidate scans.

Segments: a cone walk (Imai and Iri 1986; Chan and Chin 1996).  From each
end vertex a backward walk narrows the directions a chord to it may take,
and decides every chord it passes as certainly feasible, certainly not or
unsure, stopping where no direction is left (`test_segments`).
"""

from __future__ import annotations

import math
from math import asin, atan2, remainder
from typing import Callable, List, Optional, Sequence, Tuple

from .arcfit import ANCHOR_MARGIN as MARGIN
from .arcfit import arc_exists_within_tolerance
from .predicates import _TINY, EPS, exact_ratio
from .records import Record

# the verdicts of `test_segments` on a chord
SEGMENT_OUT, SEGMENT_IN, SEGMENT_UNSURE = 0, 1, 2
PI = math.pi
TWO_PI = 2 * math.pi
HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


class InfeasiblePairList(Record):
    """Minimal infeasible ranges plus front/back sentinels.

    a[k] < a[k+1] and b[k] < b[k+1]; no pair nests inside another.
    """

    __slots__ = ("a", "b", "n")

    def __init__(self, a: List[int], b: List[int], n: int):
        self.a = a
        self.b = b
        self.n = n

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]], n: int) -> "InfeasiblePairList":
        filtered: List[Tuple[int, int]] = []
        for i, j in sorted(pairs):
            # every kept pair starts at or before i
            while filtered and j <= filtered[-1][1]:
                filtered.pop()  # drop a dominated superset
            if not filtered or filtered[-1][0] < i:  # else it nests one (i, b), b < j
                filtered.append((i, j))
        a = [-1] + [p[0] for p in filtered] + [n - 1]
        b = [0] + [p[1] for p in filtered] + [n]
        return cls(a, b, n)

    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self.a[1:-1], self.b[1:-1]))


class FitIndexArrays(Record):
    __slots__ = ("first",)

    def __init__(self, first: List[int]):
        self.first = first  # per end index: earliest start that may be feasible


def build_fit_index_arrays(pairs: InfeasiblePairList, n: Optional[int] = None) -> FitIndexArrays:
    """Linear-time expansion of the pair list into per-index bounds.

    first[j] = a[(smallest q with j < b[q]) - 1] + 1
    """
    if n is None:
        n = pairs.n
    a, b = pairs.a, pairs.b
    first = [0] * n
    q = 0
    for j in range(n):
        while b[q] <= j:
            q += 1
        first[j] = a[q - 1] + 1
    return FitIndexArrays(first)


def _dyadic_scan(n: int, window_feasible: Callable[[int, int], bool]) -> List[Tuple[int, int]]:
    """The Test recursion: windows of 4*2^q vertices stepping by 2^q."""
    reported: List[Tuple[int, int]] = []
    _test_part(0, 0, n, window_feasible, reported)
    return reported


def _test_part(q: int, i: int, j: int, window_feasible: Callable[[int, int], bool],
               reported: List[Tuple[int, int]]) -> None:
    """Scale q of the Test recursion on [i, j], appending failed windows to
    reported.  A module-level function rather than a closure: a recursive
    closure refers to itself, a reference cycle that would keep
    window_feasible, and whatever it holds, alive until the cyclic garbage
    collector runs."""
    size = 4 << q
    if j < i + size:
        return
    i_star = i
    while i_star + size <= j:
        j_star = i_star + size - 1
        if not window_feasible(i_star, j_star):
            _test_part(q + 1, i, j_star, window_feasible, reported)
            reported.append((i_star, j_star))
            i = i_star + (1 << q)
        i_star += 1 << q
    _test_part(q + 1, i, j, window_feasible, reported)


def test_arcs(polyline: Sequence[Tuple[int, int]], tol) -> InfeasiblePairList:
    """Ranges that certainly no arc can cover within tol, whatever its
    radius, and that no arc the DP accepts covers either: a window is
    reported when no circle through its last vertex is within twice the
    fit check's limit of the anchored cut's sample of it
    (`arcfit.arc_exists_within_tolerance`).  A range that cannot be settled
    is not reported, so the pairs are a sound bound for the DP.
    """
    n = len(polyline)

    def feasible(i: int, j: int) -> bool:
        return arc_exists_within_tolerance(polyline[i:j + 1], tol)

    return InfeasiblePairList.from_pairs(_dyadic_scan(n, feasible), n)


class SegmentVerdicts(Record):
    """What `test_segments` decided about the chords to each end vertex k:
    no chord from a start below first[k] passes the DP's segment checks,
    and verdicts[k][k - 2 - kp], for first[k] <= kp <= k - 2, is
    SEGMENT_IN, SEGMENT_OUT or SEGMENT_UNSURE for the chord from kp."""

    __slots__ = ("first", "verdicts")

    def __init__(self, first: List[int], verdicts: List[bytes]):
        self.first = first
        self.verdicts = verdicts

    def verdict(self, kp: int, k: int) -> int:
        return self.verdicts[k][k - 2 - kp]


def test_segments(polyline: Sequence[Tuple[int, int]], tol) -> SegmentVerdicts:
    """Every chord the DP's segment scan can try, decided by one backward
    walk per end vertex: which chords certainly pass the scan's exact checks,
    which certainly fail them, and below which start none can pass.

    The checks.  The DP accepts the chord from pts[kp] to b = pts[k] when
    every vertex of pts[kp..k] is within tol of the line through both
    anchors (`HullTree.segment_within_tolerance`, exact) and the positions
    along the chord never decrease (`direction_and_endpoint_check`, exact).
    With u = pts[kp] - b != 0, q_i = pts[i] - b and phi the direction of u:

    - A vertex within tol of b is within tol of every line through b.  For
      one farther out, |u x q_i| <= tol*|u| reads |sin(phi - alpha_i)| <=
      tol/|q_i|, alpha_i the direction of q_i: a double wedge, the arcs of
      half-width asin(tol/|q_i|) about alpha_i and alpha_i + pi.
    - The positions S_i = (pts[i] - pts[kp]).(-u) never decrease iff
      u.e_i <= 0 for every edge e_i = pts[i + 1] - pts[i] of the range,
      the very steps the check tests: phi within pi/2 of the direction
      gamma_i of -e_i, a closed half-circle.  An edge of no length allows
      every direction.
    - Coincident anchors (u = 0) have no line: the chord passes iff every
      vertex of the range is within tol of b.

    The walk.  For kp = k - 1, k - 2, ... the chords' feasible directions
    are the intersection of these sets over the edges of [kp, k) and the
    vertices of (kp, k].  The walk keeps an outer interval of angles that
    contains it (each arc widened, and where an arc meets the interval in
    two pieces their hull kept) and an inner one inside it (each arc
    narrowed, one piece kept).  The verdict on pts[kp] is SEGMENT_IN when
    phi certainly lies in the inner interval, SEGMENT_OUT when it certainly
    lies outside the outer one, and SEGMENT_UNSURE otherwise; a coincident
    anchor is decided exactly.  Once the outer interval is empty and some
    vertex of the walk is farther than tol from b, no start at or below kp
    can pass and the walk stops; first[k] is then the lowest start whose
    verdict is not SEGMENT_OUT.  While every vertex seen is within tol, a
    coincident anchor may still pass, so the walk goes on.

    The floats.  The within-tol test is exact (a float filter, then
    integers on tol's exact ratio, `predicates.exact_ratio`).  Each angle
    is the atan2 of the floats of an integer vector
    (within EPS of its direction, plus atan2's ulp), moved by
    `math.remainder` to the copy nearest an interval's midpoint (exact for
    the float period, whose rounding times at most 3 adds below 20*EPS),
    and summed with arcs and midpoints of magnitude below 8 (4*EPS a
    rounding).  A sine tol/|q| is computed within 6*EPS relatively (tol,
    the coordinates, hypot and the quotient each one rounding), so
    s*(1 +- 16*EPS) -+ _TINY bound it, _TINY covering underflow, and asin
    is monotone and within 2*EPS near pi/2; an edge's half-width pi/2 is
    one rounding.  Each of these errors is below 64*EPS, so every arc end
    is moved outwards (outer) or inwards (inner) by ANCHOR_MARGIN =
    256*EPS, the margin of `arcfit._no_circle_through`, and a verdict needs
    phi that far inside or outside.  A wedge whose widened sine reaches 1
    is skipped by the outer interval, which can only keep more.

    One copy.  While the outer interval is at most pi/2 wide, only the copy
    nearest its midpoint of a wedge of half-width below pi/4 (copies pi
    apart) or of an edge's arc (half-width pi/2 + ANCHOR_MARGIN, copies
    2*pi apart) can meet it, with room to spare for ties; otherwise every
    copy is tried (`_hull_cut`).  The inner interval always takes the
    nearest copy: any one piece is a subset.  A verdict reads phi at the
    copy nearest the outer midpoint, which lies outside the interval only
    if every copy does, since the interval is shorter than 2*pi minus the
    margins, or is the whole circle.

    tol must be positive with a finite float.
    """
    n = len(polyline)
    t = float(tol)
    num, den = exact_ratio(tol)
    num_sq, den_sq = num ** 2, den ** 2
    near_lo = t * t * (1 - 8 * EPS) - _TINY  # a float |q|^2 below is within tol
    near_hi = t * t * (1 + 8 * EPS) + _TINY  # and above, beyond it
    xs = [p[0] for p in polyline]
    ys = [p[1] for p in polyline]
    # per edge i: the direction of -e_i, None when the edge has no length
    edge_dir: List[Optional[float]] = [
        atan2(y0 - y1, x0 - x1) if x0 != x1 or y0 != y1 else None
        for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:])]

    first = [0] * n
    verdicts: List[bytes] = [b""] * n
    up, down = 1 + 16 * EPS, 1 - 16 * EPS
    hypot, pi, two_pi, half_pi, margin = math.hypot, PI, TWO_PI, HALF_PI, MARGIN
    edge_out, edge_in = HALF_PI + MARGIN, HALF_PI - MARGIN  # every edge's arcs' half-widths
    for k in range(2, n):
        bx, by = xs[k], ys[k]
        g = edge_dir[k - 1]
        if g is None:
            lo_o, hi_o = lo_i, hi_i = -pi, pi
        else:
            lo_o, hi_o = g - edge_out, g + edge_out  # the outer interval; empty when lo_o > hi_o
            lo_i, hi_i = g - edge_in, g + edge_in  # the inner one
        far = False  # some vertex of the walk beyond tol of b
        out = bytearray()
        px, py = xs[k - 1] - bx, ys[k - 1] - by  # the vertex whose wedge comes next
        pa = atan2(py, px)
        for m in range(k - 2, -1, -1):
            q_sq = px * px + py * py
            f = float(q_sq)
            if f > near_hi or (f >= near_lo and q_sq * den_sq > num_sq):  # beyond tol of b
                far = True
                if lo_o <= hi_o:  # the double wedge of pts[m + 1]
                    s = t / hypot(px, py)
                    mid = (lo_o + hi_o) * 0.5
                    c = mid + remainder(pa - mid, pi)
                    s_hi = s * up + _TINY
                    if s_hi < 1:
                        h = asin(s_hi) + margin
                        if h < QUARTER_PI and hi_o - lo_o <= half_pi:
                            if c - h > lo_o:
                                lo_o = c - h
                            if c + h < hi_o:
                                hi_o = c + h
                        else:
                            lo_o, hi_o = _hull_cut(lo_o, hi_o, pa, h, pi)
                        h = asin(s * down - _TINY) - margin
                    else:
                        h = asin(min(s * down - _TINY, 1.0)) - margin
                    if c - h > lo_i:
                        lo_i = c - h
                    if c + h < hi_i:
                        hi_i = c + h
            g = edge_dir[m]
            if lo_o <= hi_o and g is not None:  # the edge from pts[m]
                mid = (lo_o + hi_o) * 0.5
                c = mid + remainder(g - mid, two_pi)
                if hi_o - lo_o <= half_pi:
                    if c - edge_out > lo_o:
                        lo_o = c - edge_out
                    if c + edge_out < hi_o:
                        hi_o = c + edge_out
                else:
                    lo_o, hi_o = _hull_cut(lo_o, hi_o, g, edge_out, two_pi)
                if c - edge_in > lo_i:
                    lo_i = c - edge_in
                if c + edge_in < hi_i:
                    hi_i = c + edge_in
            if far and lo_o > hi_o:
                break  # no start at or below m can pass
            # the verdict on the chord from pts[m]
            px, py = xs[m] - bx, ys[m] - by
            if px == 0 and py == 0:  # coincident anchors: in iff no vertex is beyond tol
                out.append(SEGMENT_OUT if far else SEGMENT_IN)
                continue
            pa = atan2(py, px)
            if lo_o > hi_o:
                out.append(SEGMENT_OUT)
                continue
            mid = (lo_o + hi_o) * 0.5
            phi = mid + remainder(pa - mid, two_pi)
            if phi + margin < lo_o or phi - margin > hi_o:
                out.append(SEGMENT_OUT)
            elif lo_i <= phi - margin and phi + margin <= hi_i:
                out.append(SEGMENT_IN)
            else:
                out.append(SEGMENT_UNSURE)
        kept = bytes(out).rstrip(b"\x00")  # SEGMENT_OUT is 0: the lowest starts out
        first[k] = k - 1 - len(kept)
        verdicts[k] = kept
    return SegmentVerdicts(first, verdicts)


def _hull_cut(lo: float, hi: float, c: float, h: float, period: float) -> Tuple[float, float]:
    """The hull of the pieces of [lo, hi] inside the copies c + j*period of
    [-h, h], every copy tried; (inf, -inf) when none meets it."""
    new_lo, new_hi = math.inf, -math.inf
    j = math.floor((lo - h - c) / period) - 1  # at or below the lowest copy that meets
    while True:
        cj = c + j * period
        if cj - h > hi:
            return new_lo, new_hi
        if cj + h >= lo:
            new_lo = min(new_lo, max(cj - h, lo))
            new_hi = min(cj + h, hi)
        j += 1
