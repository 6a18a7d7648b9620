"""Minimum-width annulus and the covering-arc feasibility decision.

The optimal annulus center is a vertex of the closest Voronoi diagram, a
vertex of the farthest one, or an intersection of edges from both.  Vertex
candidates come straight from the Delaunay duals with exact coordinates.
Edge-edge crossings are discovered by clipping both diagrams to a square,
removing overlaps, and running the plane sweep on the exact rational
segments; each reported event is then reconstructed exactly as the meeting
point of two site bisectors.

A least-squares circle fit serves as the fast accept path before the full
machinery runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import delaunay
from .clipping import clip_segments_square
from .overlaps import remove_overlaps
from .predicates import dist_sq
from .radicals import width_compare, width_leq
from .segments import IndexedSegment
from .sweep import sweep_intersections
from .voronoi import ClipConfig, VoronoiDiagram, voronoi_from_delaunay

DEFAULT_MIN_ARC_ANGLE = math.radians(0.1)


@dataclass
class AnnulusResult:
    center: Tuple[Fraction, Fraction]
    r_inner_sq: Fraction
    r_outer_sq: Fraction

    @property
    def width(self) -> float:
        return math.sqrt(self.r_outer_sq) - math.sqrt(self.r_inner_sq)

    def feasible_for(self, tol) -> bool:
        """width <= 2*tol, decided exactly on the squared radii."""
        return width_leq(self.r_outer_sq, self.r_inner_sq, 2 * Fraction(tol))


def _bisector(p, q):
    """Line a*x + b*y = c of points equidistant from p and q."""
    a = 2 * (q[0] - p[0])
    b = 2 * (q[1] - p[1])
    c = q[0] * q[0] + q[1] * q[1] - p[0] * p[0] - p[1] * p[1]
    return a, b, c


def _bisector_intersection(p1, q1, p2, q2) -> Optional[Tuple[Fraction, Fraction]]:
    a1, b1, c1 = _bisector(p1, q1)
    a2, b2, c2 = _bisector(p2, q2)
    den = a1 * b2 - a2 * b1
    if den == 0:
        return None
    x = Fraction(c1 * b2 - c2 * b1, den)
    y = Fraction(a1 * c2 - a2 * c1, den)
    return (x, y)


def _voronoi_segments(diag: VoronoiDiagram, center, half_side: int) -> List[IndexedSegment]:
    """Voronoi edges as finite segments in square-centered coordinates."""
    cx, cy = center
    out = []
    kind_closest = diag.kind == "closest"
    for e in diag.edges:
        idx_c = frozenset((e.site_a, e.site_b)) if kind_closest else frozenset()
        idx_f = frozenset() if kind_closest else frozenset((e.site_a, e.site_b))
        p0 = (e.p0[0] - cx, e.p0[1] - cy)
        if e.is_segment:
            p1 = (e.p1[0] - cx, e.p1[1] - cy)
            out.append(IndexedSegment(p0, p1, idx_c, idx_f))
            continue
        dx, dy = e.direction
        # stretch the ray far enough to leave the square for sure
        m = max(abs(dx), abs(dy))
        reach = 4 * half_side + int(abs(p0[0])) + int(abs(p0[1])) + 2
        t = Fraction(reach, m)
        tip = (p0[0] + t * dx, p0[1] + t * dy)
        if e.double:
            tail = (p0[0] - t * dx, p0[1] - t * dy)
            out.append(IndexedSegment(tail, tip, idx_c, idx_f))
        else:
            out.append(IndexedSegment(p0, tip, idx_c, idx_f))
    return out


def _pairs(indices) -> List[Tuple[int, int]]:
    return list(combinations(sorted(indices), 2))


def _on_outline(s: IndexedSegment, h: int) -> bool:
    for axis in (0, 1):
        for side in (h, -h):
            if s.p0[axis] == side and s.p1[axis] == side:
                return True
    return False


def min_width_annulus(points: Sequence[Tuple[int, int]], clip: Optional[ClipConfig] = None) -> AnnulusResult:
    """Smallest-width annulus containing the points, over the clipped region."""
    upts = list(dict.fromkeys(tuple(p) for p in points))
    if len(upts) < 2:
        raise ValueError("degenerate point set")

    if len(upts) == 2:
        p, q = upts
        center = (Fraction(p[0] + q[0], 2), Fraction(p[1] + q[1], 2))
        r_sq = dist_sq(center, p)
        return AnnulusResult(center, r_sq, r_sq)

    xs = [p[0] for p in upts]
    ys = [p[1] for p in upts]
    cx = (min(xs) + max(xs)) // 2
    cy = (min(ys) + max(ys)) // 2
    if clip is None:
        r = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1
        clip = ClipConfig(DEFAULT_MIN_ARC_ANGLE, r)
    half_side = int(math.ceil(clip.clip_radius)) + 2

    def in_square(pt) -> bool:
        return abs(pt[0] - cx) <= half_side and abs(pt[1] - cy) <= half_side

    mesh_c = delaunay.build_closest(upts)
    mesh_f = delaunay.build_farthest(upts)
    diag_c = voronoi_from_delaunay(mesh_c)
    diag_f = voronoi_from_delaunay(mesh_f)

    candidates = {v for v in diag_c.vertices if in_square(v)}
    candidates.update(v for v in diag_f.vertices if in_square(v))

    segs = _voronoi_segments(diag_c, (cx, cy), half_side)
    segs += _voronoi_segments(diag_f, (cx, cy), half_side)
    segs = clip_segments_square(segs, half_side)
    # pieces projected flat onto the square outline carry no interior
    # crossing information; dropping them keeps the sweep small
    segs = [s for s in segs if not _on_outline(s, half_side)]
    # the sweep runs on the exact rational segments: unlike a fixed-precision
    # build there is no need to snap to a grid first, and exactness here is
    # what lets every crossing reconstruct to the true bisector meeting point
    segs = remove_overlaps(segs)
    for ev in sweep_intersections(segs):
        for i, j in _pairs(ev.closest_indices):
            for m, l in _pairs(ev.farthest_indices):
                c = _bisector_intersection(upts[i], upts[j], upts[m], upts[l])
                if c is not None and in_square(c):
                    candidates.add(c)

    if not candidates:
        # collinear or fully clipped configurations: no combinatorial
        # candidate exists inside the square; report the center of the data
        candidates = {(Fraction(cx), Fraction(cy))}

    center, r_out, r_in = _best_candidate(sorted(candidates), upts)
    return AnnulusResult(center, r_in, r_out)


def _radii_sq(c, upts) -> Tuple[Fraction, Fraction]:
    """Exact min/max squared distance, via integer numerators over the
    candidate's common denominator (far cheaper than Fraction per point)."""
    xf = Fraction(c[0])
    yf = Fraction(c[1])
    dx, dy = xf.denominator, yf.denominator
    g = math.gcd(dx, dy)
    d = dx // g * dy
    a = xf.numerator * (d // dx)
    b = yf.numerator * (d // dy)
    lo = hi = None
    for x, y in upts:
        ex = a - x * d
        ey = b - y * d
        v = ex * ex + ey * ey
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
    dd = d * d
    return Fraction(lo, dd), Fraction(hi, dd)


def _best_candidate(candidates, upts):
    """Minimum-width candidate, exact.  A rigorously-margined float pass
    shortlists the contenders; exact radical comparison settles them."""
    evals = []
    best_fw = None
    for c in candidates:
        lo, hi = _radii_sq(c, upts)
        s_lo = math.sqrt(lo)
        s_hi = math.sqrt(hi)
        fw = s_hi - s_lo
        err = 1e-12 * (s_hi + s_lo + 1.0)
        evals.append((fw, err, c, hi, lo))
        if best_fw is None or fw < best_fw:
            best_fw = fw
    thresh = min(fw + err for fw, err, _, _, _ in evals)
    best = None
    for fw, err, c, hi, lo in evals:
        if fw - err > thresh:
            continue
        if best is None or width_compare(hi, lo, best[1], best[2]) < 0:
            best = (c, hi, lo)
    return best


def _least_squares_circle(pts) -> Optional[Tuple[float, float, float]]:
    """Unconstrained algebraic circle fit; None when degenerate."""
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sxy = syy = sxz = syz = sz = 0.0
    for p in pts:
        x = p[0] - mx
        y = p[1] - my
        z = x * x + y * y
        sxx += x * x
        sxy += x * y
        syy += y * y
        sxz += x * z
        syz += y * z
        sz += z
    det = sxx * syy - sxy * sxy
    if det == 0:
        return None
    cx = (sxz * syy - syz * sxy) / (2 * det)
    cy = (syz * sxx - sxz * sxy) / (2 * det)
    r_sq = cx * cx + cy * cy + sz / n
    if r_sq <= 0:
        return None
    return cx + mx, cy + my, math.sqrt(r_sq)


def arc_exists_within_tolerance(points: Sequence[Tuple[int, int]], tol,
                                clip: Optional[ClipConfig] = None) -> bool:
    """True iff one circular arc can cover all points within tol.

    The direct least-squares fit accepts cheap cases.  On its failure a
    small subset of extreme-residual points is tested first: the annulus of
    a subset is never wider than that of the full set, so a wide subset is
    an exact certificate of infeasibility.  Only genuinely borderline sets
    reach the full pipeline.  The comparison width <= 2*tol is done on
    exact squared radii throughout.
    """
    if len(points) < 4:
        raise ValueError("too few points for arc")
    upts = list(dict.fromkeys(tuple(p) for p in points))
    if len(upts) <= 2:
        return True  # width zero
    xs = [p[0] for p in upts]
    ys = [p[1] for p in upts]
    eff_alpha = clip.min_arc_angle if clip is not None else DEFAULT_MIN_ARC_ANGLE
    eff_r = clip.data_radius if clip is not None else \
        math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1
    half_side = eff_r / math.sin(eff_alpha / 2) + 2
    c0x = (min(xs) + max(xs)) / 2
    c0y = (min(ys) + max(ys)) / 2
    fit = _least_squares_circle(upts)
    if fit is not None:
        cx, cy, r = fit
        residuals = [math.hypot(p[0] - cx, p[1] - cy) - r for p in upts]
        worst = max(abs(d) for d in residuals)
        # accept only with a safety margin so float error cannot flip an
        # exact "no" into a "yes"; the fitted center must also lie inside
        # the clip square for the accept to answer the clipped question
        if worst <= tol * (1 - 1e-9) - 1e-12 \
                and abs(cx - c0x) <= half_side - 1 and abs(cy - c0y) <= half_side - 1:
            return True
        if len(upts) > 10:
            order = sorted(range(len(upts)), key=lambda i: residuals[i])
            chosen = set(order[:4]) | set(order[-4:])
            # stratify: the extreme residual of each quarter, so structured
            # data (e.g. one spiral arm) still yields a wide certificate
            m = len(upts)
            for q in range(4):
                seg = range(q * m // 4, max(q * m // 4 + 1, (q + 1) * m // 4))
                chosen.add(max(seg, key=lambda i: abs(residuals[i])))
            subset = [upts[i] for i in sorted(chosen)]
            # the subset clip square must cover the full set's square, else
            # the monotonicity certificate would not be sound
            xs = [p[0] for p in upts]
            ys = [p[1] for p in upts]
            diag = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
            if clip is None:
                sub_clip = ClipConfig(DEFAULT_MIN_ARC_ANGLE, 1.5 * diag + 2)
            else:
                sub_clip = ClipConfig(clip.min_arc_angle, clip.data_radius + diag + 2)
            if not min_width_annulus(subset, sub_clip).feasible_for(tol):
                return False
    return min_width_annulus(upts, clip).feasible_for(tol)
