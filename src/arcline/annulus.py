"""Minimum-width annulus and the covering-arc feasibility decision.

The optimal annulus center is a vertex of the closest Voronoi diagram, a
vertex of the farthest one, or an intersection of edges from both.  The
points are moved first so that the clip square is centred at the origin.
Vertex candidates come straight from the Delaunay duals with exact
coordinates.  Each vertex also gets a float lower bound on the width about
it, and the exact width about the vertex in the square with the smallest
bound is a certified upper bound on the optimum.  The width is 2-Lipschitz
in the centre, so a finite edge whose endpoint bounds, averaged, less its
length, exceed that upper bound is certainly wider at every point and can
hold no crossing that wins or ties; such edges are dropped before the
sweep (`_certainly_wider`).  Rays and full lines are kept and cut at the
square from their origin and direction (`clip_ray`).  Edge-edge crossings
are discovered by clipping the rest to the square (`clip_segments_square`,
which also drops the pieces on its outline), removing overlaps, and running
the plane sweep on the exact rational segments; each reported event is then
reconstructed exactly as the meeting point of two site bisectors.
Candidates are kept in a list sorted by (float(x), point), the exact order,
and the best one is found by branch and bound in floats, reusing the vertex
bounds, before the exact selection (`_best_candidate`).

The covering-arc test of the dynamic program's feasibility windows
(`arc_exists_within_tolerance`) asks the DP's own question, about centres
anywhere in the plane, and needs none of that machinery.  It is one-sided:
it reports a window only when no centre can work.  A witness centre, refined
from the algebraic least-squares circle by a few geometric Gauss-Newton and
Lawson steps, accepts when the float width of the annulus about it is at
most 2*tol (`_witness_centre`).  When the search finds none, the 3 (then 4)
points nearest to and farthest from its last centre reject when they are
certainly wider than 2*tol about every centre in the plane
(`_wider_everywhere`: the width about a few dozen candidate centres and the
strip width, no Voronoi diagram).  Every other window counts as feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from . import delaunay
from .clipping import _inside, clip_ray, clip_segments_square
from .overlaps import remove_overlaps
from .predicates import certain_sign, dist_sq, error_bound, point_key, to_float
from .radicals import width_compare, width_leq
from .segments import IndexedSegment
from .sweep import sweep_intersections
from .voronoi import ClipConfig, VoronoiDiagram, data_radius, voronoi_from_delaunay

DEFAULT_MIN_ARC_ANGLE = math.radians(0.1)
SAMPLE_SIZE = 24  # points behind the float lower bounds of candidate selection
GEOMETRIC_STEPS = 3  # Gauss-Newton steps of the witness search
LAWSON_STEPS = 4  # reweighted steps after them, towards the minimax annulus
CERTIFICATE_SIZES = (3, 4)  # nearest and farthest points of each width certificate


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


def _certainly_wider(p, q, bounds, upper: float) -> bool:
    """True when the annulus about every point of the segment [p, q] of
    Voronoi vertices is certainly wider than upper.

    bounds maps the identity of each vertex to its float coordinates and a
    float lower bound lb on the width about it (`_width_lower_bound`).  The
    width is 2-Lipschitz in the centre (each distance is 1-Lipschitz), so
    about a point x of the segment it is at least lb(p) - 2|xp| and
    lb(q) - 2|xq|, and so at least their mean (lb(p) + lb(q))/2 - |pq|.

    Rounding.  The float |pq| comes from the rounded coordinates: each
    difference is off by less than 2 * EPS times the sum of the magnitudes
    of its two coordinates, and math.hypot adds less than one ulp, so it is
    within 4 * EPS * M of the exact length, M the sum of the magnitudes of
    all four coordinates.  The three sums that follow add at most
    EPS * (|lb(p)| + |lb(q)| + |pq| + |upper|) each.  Together that stays
    below the 6 * EPS * (2 * M + |lb(p)| + |lb(q)| + |upper|) that
    `error_bound` turns into a bound; an infinite bound or upper, or a NaN,
    decides nothing."""
    px, py, lp = bounds[id(p)]
    qx, qy, lq = bounds[id(q)]
    m = abs(px) + abs(py) + abs(qx) + abs(qy)
    slack = 0.5 * (lp + lq) - math.hypot(px - qx, py - qy) - upper
    return certain_sign(slack, error_bound(2 * m + abs(lp) + abs(lq) + abs(upper))) > 0


def _voronoi_segments(diag: VoronoiDiagram, half_side: int, bounds, upper: float) -> List[IndexedSegment]:
    """The edges of a diagram of square-centred points as segments for the
    sweep: each finite edge unless every point of it is certainly wider
    than upper (`_certainly_wider`), and each ray or full line cut at the
    square |x|, |y| <= half_side (`clip_ray`)."""
    out = []
    kind_closest = diag.kind == "closest"
    for e in diag.edges:
        if e.is_segment:
            if _certainly_wider(e.p0, e.p1, bounds, upper):
                continue
            ends = (e.p0, e.p1)
        else:
            ends = clip_ray(e.p0, e.direction, half_side, e.double)
            if ends is None:
                continue
        sites = frozenset((e.site_a, e.site_b))
        if kind_closest:
            out.append(IndexedSegment(*ends, sites, frozenset()))
        else:
            out.append(IndexedSegment(*ends, frozenset(), sites))
    return out


def _pairs(indices) -> List[Tuple[int, int]]:
    return list(combinations(sorted(indices), 2))


def min_width_annulus(points: Sequence[Tuple[int, int]], clip: Optional[ClipConfig] = None) -> AnnulusResult:
    """Smallest-width annulus containing the points among the candidate
    centres in the clip square: the vertices of the overlay of the closest
    and farthest Voronoi diagrams that lie inside it.

    Only those vertices are searched.  Where the width keeps shrinking
    towards infinity (nearly collinear sets) the narrowest centre inside the
    square can lie on its outline or off every vertex, and the reported
    annulus is then wider than that centre's; exactly collinear sets have no
    vertex at all and get the annulus about the centre of their bounding
    box.

    The points are first moved by the integer centre of the square, so the
    square is |x|, |y| <= h and the diagrams come out centred; the result is
    moved back.  Before anything is clipped, a float lower bound on the
    width about every Voronoi vertex, and the exact width about the vertex
    in the square with the smallest bound, give a certified upper bound on
    the optimum; finite edges whose every point is certainly wider than it
    can hold no candidate that wins or ties, and are left out of the sweep
    (`_certainly_wider`).  Rays and full lines are kept, cut at the square
    from their origin and direction."""
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
        clip = ClipConfig(DEFAULT_MIN_ARC_ANGLE, data_radius(upts))
    h = int(math.ceil(clip.clip_radius)) + 2
    fh = to_float(h)
    upts = [(x - cx, y - cy) for x, y in upts]
    sf, reach = _sample_floats(upts)
    keys = []  # point_key of each candidate in the square

    def add_if_in_square(pt) -> None:
        if _inside(pt, h, fh):
            keys.append(point_key(pt))

    mesh_c = delaunay.build_closest(upts)
    mesh_f = delaunay.build_farthest(upts)
    diag_c = voronoi_from_delaunay(mesh_c)
    diag_f = voronoi_from_delaunay(mesh_f)

    # float coordinates and width lower bound of each Voronoi vertex, keyed by
    # the identity of its tuple, which the diagram's edges share: hashing
    # the exact rational point would cost half as much as the bound itself
    bounds = {}
    for v in diag_c.vertices + diag_f.vertices:
        bounds[id(v)] = (to_float(v[0]), to_float(v[1]), _width_lower_bound(v, sf, reach))
        add_if_in_square(v)
    inside = [v for _, v in keys]
    upper = _probe_upper(inside, [bounds[id(v)][2] for v in inside], upts)

    segs = _voronoi_segments(diag_c, h, bounds, upper)
    segs += _voronoi_segments(diag_f, h, bounds, upper)
    segs = clip_segments_square(segs, h)
    # the sweep runs on the exact rational segments: unlike a fixed-precision
    # build there is no need to snap to a grid first, and exactness here is
    # what lets every crossing reconstruct to the true bisector meeting point
    segs = remove_overlaps(segs)
    for ev in sweep_intersections(segs):
        for i, j in _pairs(ev.closest_indices):
            for m, l in _pairs(ev.farthest_indices):
                c = _bisector_intersection(upts[i], upts[j], upts[m], upts[l])
                if c is not None:
                    add_if_in_square(c)

    # the float-first keys sort like the points themselves, and duplicates
    # end up next to each other
    keys.sort()
    candidates = [k[1] for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    if not candidates:
        # collinear or fully clipped configurations: no combinatorial
        # candidate exists inside the square; report the center of the data
        candidates = [(Fraction(0), Fraction(0))]
    lower = [bounds[id(c)][2] if id(c) in bounds else _width_lower_bound(c, sf, reach)
             for c in candidates]
    (x, y), r_out, r_in = _best_candidate(candidates, upts, lower)
    return AnnulusResult((x + cx, y + cy), r_in, r_out)


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


def _sample(upts, size: int = SAMPLE_SIZE):
    """The extreme points along the axes and both diagonals, plus every
    step-th point: at most `size` of the points (all when fewer)."""
    n = len(upts)
    if n <= size:
        return list(upts)
    picked = set()
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        vals = [a * x + b * y for x, y in upts]
        picked.add(vals.index(min(vals)))
        picked.add(vals.index(max(vals)))
    picked.update(range(0, n, -(-n // (size - len(picked)))))
    return [upts[i] for i in sorted(picked)]


def _width_lower_bound(c, sample, reach: float) -> float:
    """A float lower bound on the annulus width about c of the sample
    points (floats, with reach = max |px| + max |py|), and so of any
    superset of them; -inf when a float overflowed.

    Each distance is computed from the rounded center and lies within
    4 * EPS * (|cx| + |px| + |cy| + |py|) of the exact one, below the
    bound err taken here; the difference of the extremes is then off by
    less than 3 * err."""
    fx, fy = to_float(c[0]), to_float(c[1])
    ds = [math.hypot(fx - px, fy - py) for px, py in sample]
    err = error_bound(reach + abs(fx) + abs(fy))
    lower = max(ds) - min(ds) - 3 * err
    return lower if lower == lower else -math.inf  # NaN: an infinity met another


def _sample_floats(upts) -> Tuple[list, float]:
    """The floats of `_sample(upts)` and their reach, max |x| + max |y|:
    the arguments of `_width_lower_bound`."""
    sf = [(to_float(x), to_float(y)) for x, y in _sample(upts)]
    return sf, max(abs(x) for x, _ in sf) + max(abs(y) for _, y in sf)


def _probe_upper(candidates, lower, upts) -> float:
    """A certified upper bound on the smallest width about the candidates:
    the exact width about the one with the smallest finite lower bound in
    lower (the first one when none is finite), plus an error bound; +inf
    without candidates."""
    if not candidates:
        return math.inf
    finite = [i for i, lb in enumerate(lower) if lb > -math.inf] or [0]
    probe = min(finite, key=lower.__getitem__)
    lo, hi = _radii_sq(candidates[probe], upts)
    s_hi, s_lo = math.sqrt(to_float(hi)), math.sqrt(to_float(lo))
    return s_hi - s_lo + error_bound(s_hi + s_lo)


def _best_candidate(candidates, upts, lower):
    """Minimum-width candidate, exact; the first one in the given order wins
    a tie.  lower holds a float lower bound on the width about each
    candidate (`_width_lower_bound`).

    Branch and bound in floats narrows the field first.  A subset's annulus
    is never wider than the full set's, so the float width over a sample of
    the points, less its error bound, is a lower bound on each candidate's
    width.  The candidate with the smallest lower bound is evaluated
    exactly; its width, plus an error bound, is an upper bound on the
    optimum, and candidates whose lower bound exceeds it are certainly
    wider and dropped.  The rest go through the exact selection in the
    same order: a rigorously-margined float pass on their exact radii
    shortlists the contenders, exact radical comparison settles them."""
    upper = _probe_upper(candidates, lower, upts)
    evals = []
    for c, lb in zip(candidates, lower):
        if lb > upper:
            continue
        lo, hi = _radii_sq(c, upts)
        s_lo = math.sqrt(lo)
        s_hi = math.sqrt(hi)
        fw = s_hi - s_lo
        err = 1e-12 * (s_hi + s_lo + 1.0)
        evals.append((fw, err, c, hi, lo))
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


def _float_width(upts, cx: float, cy: float) -> Tuple[list, float]:
    """Distances of the points from (cx, cy) in floats, and their spread
    max - min."""
    d = [math.hypot(x - cx, y - cy) for x, y in upts]
    return d, max(d) - min(d)


def _refine(upts, cx: float, cy: float, d, weights) -> Optional[Tuple[float, float]]:
    """One weighted Gauss-Newton step on sum w_i (d_i - r)^2 over the
    centre, r the weighted mean distance; None when singular.

    Moving the centre by s changes d_i by about -u_i . s (u_i the unit
    vector from the centre to point i) and r by the weighted mean of that,
    so the residual d_i - r changes by -(u_i - mean u) . s; the step solves
    the 2x2 normal equations of that linear model."""
    sw = su = sv = suu = suv = svv = sud = svd = sd = 0.0
    for (x, y), di, w in zip(upts, d, weights):
        if di == 0.0:
            continue
        u = (x - cx) / di
        v = (y - cy) / di
        sw += w
        su += w * u
        sv += w * v
        suu += w * u * u
        suv += w * u * v
        svv += w * v * v
        sud += w * u * di
        svd += w * v * di
        sd += w * di
    if sw == 0.0:
        return None
    r = sd / sw
    a = suu - su * su / sw
    b = suv - su * sv / sw
    c = svv - sv * sv / sw
    p = sud - r * su
    q = svd - r * sv
    det = a * c - b * b
    if not det > 0.0:
        return None
    return cx + (c * p - b * q) / det, cy + (a * q - b * p) / det


def _witness_centre(upts, cx: float, cy: float, tol) -> Tuple[bool, list]:
    """Whether the search finds a float centre about which the float width
    of the annulus of the points is at most 2*tol, and the float distances
    of the points from the last centre tried.

    The search starts at (cx, cy), takes GEOMETRIC_STEPS Gauss-Newton steps
    of the geometric circle fit, then LAWSON_STEPS reweighted ones that
    multiply each point's weight by its absolute residual (Lawson's
    iteration, which drifts from the least-squares fit towards the minimax
    one, that is, towards the minimum-width annulus).  It stops at the
    first centre whose float width max d - min d is at most 2*tol.
    """
    t = to_float(2 * Fraction(tol))
    d, fw = _float_width(upts, cx, cy)
    weights = [1.0] * len(upts)
    for step in range(GEOMETRIC_STEPS + LAWSON_STEPS):
        if not fw > t:
            break
        if step >= GEOMETRIC_STEPS:
            r = sum(w * di for w, di in zip(weights, d)) / sum(weights)
            weights = [w * abs(di - r) for w, di in zip(weights, d)]
            top = max(weights)
            if not top > 0.0:
                break
            weights = [w / top for w in weights]
        centre = _refine(upts, cx, cy, d, weights)
        if centre is None:
            break
        cx, cy = centre
        d, fw = _float_width(upts, cx, cy)
    return fw <= t, d


def _wider_everywhere(pts, tol) -> bool:
    """True when the annulus of `pts`, at least two distinct integer
    points, is wider than 2*tol about every centre in the plane, certainly;
    False when that is not so or cannot be decided.

    The test takes the minimum of three kinds of terms: the width about
    the circumcentre of every triple of the points, the width about the
    crossing of the bisectors of every two disjoint pairs, and the
    minimum strip width of the set.

    Why that minimum is a lower bound on the width about any centre.  Lay
    the closest and the farthest Voronoi diagrams of the points over each
    other.  In a cell of the overlay, with nearest point i and farthest
    point j, the width is w = d_j - d_i >= 0.  For s > 0 its superlevel
    set {d_j - d_i >= s} is the inside of a hyperbola branch around p_i,
    and for s <= 0 it is the whole cell, so each superlevel set is convex
    and w is quasi-concave on the convex cell.  Any point of the cell is a
    convex combination of cell vertices plus a recession direction, so w
    there is at least the smaller of the widths at the cell's vertices and
    the limit of w out along that direction.  That limit is the width of
    the projection of the points on the direction, at least the strip
    width.  (A cell with no vertex holds a line, and the same holds along
    it.)  Every overlay vertex meets two bisectors of the cell's boundary:
    two of the same diagram meet at the circumcentre of a triple, and a
    closest and a farthest bisector meet at the crossing of two disjoint
    pairs, or, when they share a point, at a circumcentre again.  So every
    overlay vertex is among the terms, every term is the width about a real
    centre or the limit of such widths, and the minimum of the terms is
    the infimum over the plane of the width of these points.  The points
    are a subset of a window, whose width about any centre is at least
    theirs; so when this returns True, no circle, with its centre anywhere
    in the plane, has the whole window within tol of it.

    Rounding.  The points are first moved by an integer offset so that the
    first lies at the origin, which changes no width.  The strip width of
    the set is the minimum over every pair (a, b) of the spread of the
    cross products (b - a) x (p - a), divided by |b - a|; it exceeds 2*tol
    iff spread^2 > (2*tol)^2 * |b - a|^2, tested on integers.  A centre is
    the quotient of integers, rounded correctly by int / int, so each
    coordinate is off by at most EPS (the unit roundoff) times its size,
    and every distance from it by at most EPS * (|cx| + |cy|), which moves
    the spread of the distances by 2 * EPS * M at most, M = |cx| + |cy| +
    max |x| + max |y|.  About the rounded centre, x - cx is off by at most
    EPS * (2|x| + |cx|) (rounding x and the difference), so the distance of
    the rounded differences is within 2 * EPS * M of the exact one, and
    math.hypot adds less than one ulp (documented since Python 3.10),
    2 * EPS * M.  Each float distance is then off by less than 5 * EPS * M
    (to first order), their spread fw by less than 11 * EPS * M, and
    fw - 2*tol, with the rounding of 2*tol and of the difference, by less
    than 12 * EPS * M + 2 * EPS * (2*tol).  Both errors together stay below
    the 6 * EPS * (4 * M + 2*tol) that `error_bound(4 * M + 2*tol)` turns
    into a bound, and a width counts as wider only when fw - 2*tol exceeds
    that.  An undecided centre, a float overflow or any strip term at most
    2*tol means no certificate.
    """
    ox, oy = pts[0]
    pts = [(x - ox, y - oy) for x, y in pts]
    t2 = 2 * Fraction(tol)
    tn2, td2 = t2.numerator ** 2, t2.denominator ** 2
    lines = []  # (i, j, a, b, c): the bisector a*x + b*y = c of points i < j
    for (i, (ax, ay)), (j, (bx, by)) in combinations(enumerate(pts), 2):
        dx, dy = bx - ax, by - ay
        crosses = [dx * (y - ay) - dy * (x - ax) for x, y in pts]
        spread = max(crosses) - min(crosses)
        if spread * spread * td2 <= tn2 * (dx * dx + dy * dy):
            return False
        lines.append((i, j, 2 * dx, 2 * dy, bx * bx + by * by - ax * ax - ay * ay))
    reach = max(abs(x) for x, _ in pts) + max(abs(y) for _, y in pts)
    t = to_float(t2)
    for (i1, j1, a1, b1, c1), (i2, j2, a2, b2, c2) in combinations(lines, 2):
        # two disjoint pairs, or the two pairs (i, j), (i, l) of a triple,
        # once per triple: the pairs are in lexicographic order
        if i1 != i2 and (j1 == i2 or j1 == j2):
            continue
        den = a1 * b2 - a2 * b1
        if den == 0:
            continue
        try:
            cx = (c1 * b2 - c2 * b1) / den
            cy = (a1 * c2 - a2 * c1) / den
        except OverflowError:
            return False
        _, fw = _float_width(pts, cx, cy)
        if certain_sign(fw - t, error_bound(4 * (abs(cx) + abs(cy) + reach) + t)) <= 0:
            return False
    return True


def _extremes_wider_everywhere(upts, d, tol) -> bool:
    """The certificate of `_wider_everywhere` on the CERTIFICATE_SIZES[0]
    nearest and as many farthest points by the distances d, then on the
    next size while points are left out."""
    order = sorted(range(len(upts)), key=d.__getitem__)
    for k in CERTIFICATE_SIZES:
        chosen = sorted(set(order[:k] + order[-k:]))
        if _wider_everywhere([upts[i] for i in chosen], tol):
            return True
        if len(chosen) == len(upts):
            break
    return False


def arc_exists_within_tolerance(points: Sequence[Tuple[int, int]], tol) -> bool:
    """False only when no circular arc, with its centre anywhere in the
    plane, can cover all the points within tol, certainly; True otherwise.

    One-sided, which is what pruning needs: a window reported False holds
    no arc of any radius, and any window that cannot be settled counts as
    feasible.  A witness centre, refined from the least-squares circle
    (`_witness_centre`), accepts when the float width about it is at most
    2*tol.  Collinear points have no such circle; their strip width is 0,
    so no certificate can reject them, and they are accepted.  When the
    search finds no witness, the CERTIFICATE_SIZES[0] points nearest to and
    as many farthest from its last centre, then the next size, reject when
    their annulus is certainly wider than 2*tol about every centre in the
    plane (`_extremes_wider_everywhere`); the annulus of a subset is never
    wider than that of the full set about the same centre.
    """
    if len(points) < 4:
        raise ValueError("too few points for arc")
    upts = list(dict.fromkeys(tuple(p) for p in points))
    if len(upts) <= 2:
        return True  # width zero
    fit = _least_squares_circle(upts)
    if fit is None:
        return True
    found, d = _witness_centre(upts, fit[0], fit[1], tol)
    return found or not _extremes_wider_everywhere(upts, d, tol)
