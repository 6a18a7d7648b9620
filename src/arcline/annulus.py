"""Minimum-width annulus of a point set.

The optimal annulus center is a vertex of the closest Voronoi diagram, a
vertex of the farthest one, or an intersection of edges from both.  The
points are moved first so that the clip square is centred at the origin;
Fraction points are first scaled to integers.  Vertex candidates come
straight from the Delaunay duals as integer circumcentres with their
floats (`voronoi.RationalPoint`), and their exact Fraction pairs are built
only where an exact step reads them.  Each vertex gets a float lower bound
on the width about it, and the exact width about the vertex in the square
with the smallest bound is a certified upper bound on the optimum.  A
vertex whose bound exceeds it is strictly wider than that vertex and never
becomes a candidate, and the same prune meets every crossing the sweep
reports.  Only the part of the overlay where a centre could still be that
narrow goes to the sweep, cut down in two certified steps:

- Far field.  About a centre at distance D from the origin, beyond the
  data radius R, the width is at least W - R^2 / (2(D - R)), W the strip
  width of the points.  When W exceeds the upper bound, every centre
  beyond R + R^2 / (2(W - upper)) is certainly wider, and the overlay is
  cut at a square of that half side instead of the clip square
  (`_far_half_side`).  Nearly collinear sets (W at most the upper bound)
  keep the clip square.
- Lipschitz bisection.  The width is 2-Lipschitz in the centre, so a piece
  of an edge whose end bounds, averaged, less its length, exceed the upper
  bound is certainly wider at every point.  Every edge piece is bisected in
  floats down to 2^-BISECT_DEPTH of its length, and only the runs of
  sub-pieces that may hold a narrower centre are kept, with exact ends
  (`_kept_runs`); a ray or full line none of whose part in the square can
  be kept is dropped before it is cut exactly (`_line_certainly_wider`).

Every point left out is certainly wider than a vertex in hand, so every
crossing on it is too, and the candidate that wins, ties included, is the
same as over the whole overlay.  Edge-edge crossings are discovered by
clipping the rest to the square (`clip_segments_square`, which also drops
the pieces on its outline), removing overlaps, and running the plane sweep
on the exact rational segments; each reported event is then reconstructed
exactly as the meeting point of two site bisectors, and kept unless its
bound exceeds the upper bound.  Every crossing lies on a piece clipped to a
square no larger than the clip square, so candidates are still those
inside it.  They are kept in a list sorted by (float(x), point), the exact
order, and the best one is found by a float shortlist and exact radical
comparison (`_best_candidate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from typing import List, Optional, Sequence, Tuple

from . import delaunay
from .clipping import _inside_rational, clip_ray, clip_segments_square
from .hulltree import convex_hull
from .overlaps import remove_overlaps
from .predicates import EPS, certain_sign, dist_sq, error_bound, point_key, to_float
from .radicals import width_compare, width_leq
from .segments import IndexedSegment
from .sweep import sweep_intersections
from .voronoi import ClipConfig, VoronoiDiagram, data_radius, voronoi_from_delaunay

DEFAULT_MIN_ARC_ANGLE = math.radians(0.1)
SAMPLE_SIZE = 24  # points behind the float lower bounds of candidate selection
BISECT_DEPTH = 5  # Voronoi edge pieces are pruned in 2^-5 parts of their length


@dataclass
class AnnulusResult:
    center: Tuple[Fraction, Fraction]
    r_inner_sq: Fraction
    r_outer_sq: Fraction

    @property
    def width(self) -> float:
        """sqrt(r_outer_sq) - sqrt(r_inner_sq) in floats while both squared
        radii have one; past the float range (o - i)/(sqrt(o) + sqrt(i)),
        the roots taken after dividing by a power of 4 that brings o near 1
        and the quotient rounded once from the exact difference, so a width
        that has a float gets one."""
        o, i = self.r_outer_sq, self.r_inner_sq
        try:
            return math.sqrt(o) - math.sqrt(i)
        except OverflowError:
            pass
        e = (o.numerator.bit_length() - o.denominator.bit_length()) // 2
        roots = math.sqrt(o / 4 ** e) + math.sqrt(i / 4 ** e)
        return to_float((o - i) / (Fraction(roots) * 2 ** e))

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


def _strip_width_floor(points) -> float:
    """A float lower bound on the strip width of the integer points, the
    distance between the closest two parallel lines with every point
    between them; 0 when the points are collinear or a float overflows.

    The narrowest strip has one side along an edge (a, b) of the convex
    hull, so its width is the smallest, over the hull edges, of the largest
    cross product (b - a) x (p - a) over the hull vertices p, divided by
    |b - a|.  Those are exact integers; rounding both, the square root and
    the quotient put the float within 4 * EPS of the exact width
    relatively, and 8 * EPS of it is taken off."""
    hull = convex_hull(points)
    if len(hull) < 3:
        return 0.0
    width = math.inf
    for a, b in zip(hull, hull[1:] + hull[:1]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        far = max(dx * (y - a[1]) - dy * (x - a[0]) for x, y in hull)
        w = to_float(far) / math.sqrt(to_float(dx * dx + dy * dy))
        if not w < math.inf:
            return 0.0
        width = min(width, w)
    return width * (1 - 8 * EPS)


def _far_half_side(upts, sample, h: int, upper: float) -> int:
    """The half side of a square, at most h, outside which every centre is
    certainly wider than upper; h itself when no smaller one is certain.

    Let W be the strip width of the points and R >= max |p| (the points are
    square-centred).  About a centre x with |x| = D > R, write s = p.x / D
    for the projection of each point p on x's direction.  Then
    |x - p|^2 = (D - s)^2 + |p|^2 - s^2, so |x - p| lies in
    [D - s, D - s + R^2 / (2(D - R))], and the width about x, the largest
    distance less the smallest, is at least the spread of the s less
    R^2 / (2(D - R)), at least W - R^2 / (2(D - R)).  When W > upper that
    exceeds upper for every D > R + R^2 / (2(W - upper)).

    The sample's strip width is a lower bound on W (a subset is never
    wider).  R is the data radius: after the move to the integer centre of
    the bounding box every |x| is at most half its width plus 1/2, so |p|
    is at most half its diagonal plus 1.  Each float step below rounds by
    at most EPS relatively; the radius is raised by 16 * EPS of itself and
    then to the next integer but one, which covers all of them."""
    if not upper < math.inf:
        return h
    gap = _strip_width_floor(sample) - upper
    if not gap > 0.0:
        return h
    xs = [x for x, _ in upts]
    ys = [y for _, y in upts]
    r = (math.hypot(to_float(max(xs) - min(xs)), to_float(max(ys) - min(ys))) / 2 + 1) * (1 + 8 * EPS)
    far = (r + r * r / (2 * gap * (1 - 4 * EPS))) * (1 + 16 * EPS)
    if not far < h:
        return h
    return min(h, math.ceil(far) + 1)


def _kept_runs(fa, fb, err: float, upper: float, sample, reach: float) -> List[List[int]]:
    """The parts of a piece [a, b] of a Voronoi edge that may hold a centre
    no wider than upper, as ranges [k0, k1] of its parameter t in units of
    2^-BISECT_DEPTH, a + t(b - a), in order.

    fa and fb are float coordinates of a and b, each within err of the exact
    end (err = 0 for correctly rounded ends), and a float lower bound on
    the width about the exact end.  The width is 2-Lipschitz in the centre
    (each distance is 1-Lipschitz), so about a point x of a sub-piece
    [u, v] it is at least lb(u) - 2|xu| and lb(v) - 2|xv|, and so at least
    their mean, (lb(u) + lb(v))/2 - |uv|; a sub-piece whose mean bound less
    its length certainly exceeds upper is dropped, ends and all.  A
    sub-piece with an end bound above upper is bisected, down to
    2^-BISECT_DEPTH of the piece, unless its halves are too long ever to
    be dropped: no bound exceeds 2 * reach, which bounds the distance
    between two points of the sample.  Kept sub-pieces merge into runs.

    Rounding.  A float point a + t(b - a), from the float ends, is within
    err + 5 * EPS * M of the exact one (M the sum of the magnitudes of the
    four end coordinates), below m = err + error_bound(M), so the bound
    about the float point less 2m bounds the width about the exact point.
    The float |ab| is within 2 * err + 4 * EPS * M of the exact length
    (`math.hypot` adds less than one ulp), and a sub-piece's length is that
    times a power of two.  The mean, the length and upper add three more
    roundings, each within EPS of the sum of the magnitudes, which
    `error_bound` covers.  A float that overflowed makes a bound infinite
    or NaN, which drops nothing."""
    ax, ay, la = fa
    bx, by, lb = fb
    m = err + error_bound(abs(ax) + abs(ay) + abs(bx) + abs(by))
    full = 1 << BISECT_DEPTH
    if not (upper < math.inf and m < math.inf):
        return [[0, full]]
    dx, dy = bx - ax, by - ay
    unit = (math.hypot(dx, dy) + 2 * m) / full  # the length of the shortest sub-piece
    runs = []
    stack = [(0, full, la, lb)]
    while stack:
        k0, k1, l0, l1 = stack.pop()
        length = (k1 - k0) * unit
        slack = 0.5 * (l0 + l1) - length - upper
        if certain_sign(slack, error_bound(abs(l0) + abs(l1) + length + abs(upper))) > 0:
            continue
        if k1 - k0 > 1 and max(l0, l1) > upper and length < 2 * (2 * reach - upper):
            km = (k0 + k1) // 2
            t = km / full
            lm = _float_width_lower_bound(ax + t * dx, ay + t * dy, sample, reach) - 2 * m
            stack.append((km, k1, lm, l1))
            stack.append((k0, km, l0, lm))
        elif runs and runs[-1][1] == k0:
            runs[-1][1] = k1
        else:
            runs.append([k0, k1])
    return runs


def _at(a, b, k: int):
    """The exact point a + t(b - a) at t = k / 2^BISECT_DEPTH: a and b
    themselves at the ends."""
    if k == 0:
        return a
    if k == 1 << BISECT_DEPTH:
        return b
    t = Fraction(k, 1 << BISECT_DEPTH)
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _exit_parameter(fx: float, fy: float, dx: float, dy: float, fh: float) -> float:
    """An upper bound on the parameter s at which p + s(dx, dy) leaves the
    square |x|, |y| <= h for good, from the finite floats (fx, fy) of p,
    (dx, dy) of the integer direction and fh of h: +inf for a zero
    direction.

    That is the smallest, over the axes the direction moves along, of
    (+-h - p_i) / d_i.  Rounding h, p_i, d_i, the difference and the
    quotient puts each float quotient within 4 * EPS * (h + |p_i|) / |d_i|
    of the exact one, less than the `error_bound` added to it."""
    s = math.inf
    for f, d in ((fx, dx), (fy, dy)):
        if d:
            s = min(s, ((fh if d > 0 else -fh) - f) / d + error_bound((fh + abs(f)) / abs(d)))
    return s


def _line_certainly_wider(e, fa, fh: float, upper: float, sample, reach: float) -> bool:
    """True when every point of the ray (or full line) e in the square of
    half side h, whose float is fh, is certainly wider than upper; fa holds
    the floats of its origin e.p0 and `_width_lower_bound` about it.

    Decided in floats, without cutting the ray exactly: the piece of it
    between the parameters s0 <= s1 (`_exit_parameter`, backwards too for a
    line) covers its part in the square, or shows that there is none
    (s1 < s0), and `_kept_runs` keeps nothing of it.  Float ends
    p + s(dx, dy) computed from the floats of p and of the direction are
    within 4 * EPS * (|px| + |py| + |s| (|dx| + |dy|)) of the exact points
    with the same parameters, below the error_bound of that sum."""
    ax, ay, la = fa
    dx, dy = to_float(e.direction[0]), to_float(e.direction[1])
    if not abs(ax) + abs(ay) + abs(dx) + abs(dy) < math.inf:
        return False
    s1 = _exit_parameter(ax, ay, dx, dy, fh)
    s0 = -_exit_parameter(ax, ay, -dx, -dy, fh) if e.double else 0.0
    if s1 < s0:
        return True
    if (s1 - s0) * math.hypot(dx, dy) >= 2 * (2 * reach - upper):
        return False  # too long to drop, and not bisected (`_kept_runs`)
    err = error_bound(abs(ax) + abs(ay) + max(-s0, s1) * (abs(dx) + abs(dy)))
    ends = []
    for s in (s0, s1):
        if s == 0.0:
            ends.append(fa)
        else:
            x, y = ax + s * dx, ay + s * dy
            ends.append((x, y, _float_width_lower_bound(x, y, sample, reach) - 2 * err))
    return not _kept_runs(ends[0], ends[1], err, upper, sample, reach)


def _voronoi_segments(diag: VoronoiDiagram, half_side: int, bounds, upper: float,
                      sample, reach: float) -> List[IndexedSegment]:
    """The edges of a diagram of square-centred points as segments for the
    sweep, less the parts whose every point is certainly wider than upper
    (`_kept_runs`).  bounds maps the identity of each vertex of the diagram
    to its `_float_bound`.  Rays and full lines are cut at the square
    |x|, |y| <= half_side from their exact origin and direction
    (`clip_ray`), unless floats show first that none of that part is left
    (`_line_certainly_wider`); finite edges are cut later, with the rest
    (`clip_segments_square`), and their exact ends are built only when a
    part of them is kept."""
    out = []
    kind_closest = diag.kind == "closest"
    fh = to_float(half_side)
    for e in diag.edges:
        p0 = e.p0
        fa = bounds.get(id(p0)) or _float_bound(p0.fx, p0.fy, sample, reach)
        if e.is_segment:
            runs = _kept_runs(fa, bounds[id(e.p1)], 0.0, upper, sample, reach)
            if not runs:
                continue
            a, b = p0.exact, e.p1.exact
        else:
            if _line_certainly_wider(e, fa, fh, upper, sample, reach):
                continue
            ends = clip_ray(p0.exact, e.direction, half_side, e.double)
            if ends is None:
                continue
            a, b = ends
            if a is not p0.exact:
                fa = _float_bound(to_float(a[0]), to_float(a[1]), sample, reach)
            runs = _kept_runs(fa, _float_bound(to_float(b[0]), to_float(b[1]), sample, reach),
                              0.0, upper, sample, reach)
        sites = frozenset((e.site_a, e.site_b))
        for k0, k1 in runs:
            if kind_closest:
                out.append(IndexedSegment(_at(a, b, k0), _at(a, b, k1), sites, frozenset()))
            else:
                out.append(IndexedSegment(_at(a, b, k0), _at(a, b, k1), frozenset(), sites))
    return out


def _pairs(indices) -> List[Tuple[int, int]]:
    return list(combinations(sorted(indices), 2))


def _event_centre(ev, upts) -> Optional[Tuple[Fraction, Fraction]]:
    """The sweep event's point, rebuilt exactly as the meeting point of the
    bisectors of a pair of its closest sites and a pair of its farthest
    ones; None when every such pair of bisectors is parallel.

    Every closest site of the event is a nearest site of its point, and
    every farthest site a farthest one, so each of those bisectors passes
    through the point, and the first pair that meets gives it: with k
    cocircular sites the other (k(k-1)/2)^2 pairs would give it again."""
    for i, j in _pairs(ev.closest_indices):
        for m, l in _pairs(ev.farthest_indices):
            c = _bisector_intersection(upts[i], upts[j], upts[m], upts[l])
            if c is not None:
                return c
    return None


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
    moved back.  The Voronoi vertices stay integer circumcentres with their
    floats (`voronoi.RationalPoint`), and their exact Fraction pairs are
    built only where an exact step reads them.  Before anything is
    clipped, a float lower bound on the width about every vertex, and the
    exact width about the vertex in the square with the smallest bound,
    give a certified upper bound on the optimum.  A vertex or crossing
    whose bound exceeds it is strictly wider than that vertex and never
    becomes a candidate.  Centres certainly wider than the upper bound can
    be no candidate that wins or ties, and two steps leave them out of the
    sweep.
    The far field: about a centre x with |x| = D > R >= max |p|, each
    distance |x - p| lies in [D - s, D - s + R^2 / (2(D - R))], s = p.x / D,
    so the width is at least W - R^2 / (2(D - R)), W the strip width of the
    points; when W exceeds the upper bound, the overlay is cut at the
    square beyond which that exceeds it (`_far_half_side`), not at h.  The
    bisection: every edge piece left is bisected in floats, and sub-pieces
    certainly wider by the 2-Lipschitz bound are dropped (`_kept_runs`).
    Candidates are still those in the square of half side h.

    Coordinates are ints or Fractions; floats with an integral value are
    taken as those ints, and any other float raises ValueError.  Points
    with Fraction coordinates are scaled to integers by the least common
    multiple L of their denominators (the data radius of a given clip by L
    too), and the annulus of the scaled points is scaled back."""
    if any(isinstance(c, float) and not c.is_integer() for p in points for c in p):
        raise ValueError("annulus coordinates must be integers, Fractions or integral floats")
    upts = list(dict.fromkeys(tuple(int(c) if isinstance(c, float) else c for c in p) for p in points))
    if len(upts) < 2:
        raise ValueError("degenerate point set")
    denominators = {c.denominator for p in upts for c in p if isinstance(c, Fraction)}
    if not denominators:
        return _integer_annulus(upts, clip)
    scale = math.lcm(*denominators)
    if clip is not None and scale > 1:
        clip = ClipConfig(clip.min_arc_angle, clip.data_radius * scale)
    res = _integer_annulus([(int(x * scale), int(y * scale)) for x, y in upts], clip)
    (x, y), sq = res.center, scale * scale
    return AnnulusResult((x / scale, y / scale), res.r_inner_sq / sq, res.r_outer_sq / sq)


def _integer_annulus(upts, clip: Optional[ClipConfig]) -> AnnulusResult:
    """`min_width_annulus` of at least two distinct integer points."""
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
    sample = _sample(upts)
    sf, reach = _sample_floats(sample)

    mesh_c = delaunay.build_closest(upts)
    mesh_f = delaunay.build_farthest(upts)
    diag_c = voronoi_from_delaunay(mesh_c)
    diag_f = voronoi_from_delaunay(mesh_f)

    # float coordinates and width lower bound of each Voronoi vertex, keyed by
    # the identity of the vertex, which the diagram's edges share
    bounds = {}
    inside, inside_lower = [], []  # the vertices in the square, their bounds
    for v in diag_c.vertices + diag_f.vertices:
        fx, fy = v.fx, v.fy
        lb = _float_width_lower_bound(fx, fy, sf, reach)
        bounds[id(v)] = fx, fy, lb
        if _inside_rational(v, h, fh):
            inside.append(v)
            inside_lower.append(lb)
    upper = _probe_upper(inside_lower, lambda i: inside[i].exact, upts)

    # a vertex or crossing whose bound exceeds upper is strictly wider than
    # the probe vertex, so it can neither win nor tie: it never becomes a
    # candidate
    keys = [(v.fx, v.exact) for v, lb in zip(inside, inside_lower) if not lb > upper]

    hc = _far_half_side(upts, sample, h, upper)
    segs = _voronoi_segments(diag_c, hc, bounds, upper, sf, reach)
    segs += _voronoi_segments(diag_f, hc, bounds, upper, sf, reach)
    segs = clip_segments_square(segs, hc)
    # the sweep runs on the exact rational segments: unlike a fixed-precision
    # build there is no need to snap to a grid first, and exactness here is
    # what lets every crossing reconstruct to the true bisector meeting point
    segs = remove_overlaps(segs)
    for ev in sweep_intersections(segs):
        c = _event_centre(ev, upts)
        if c is not None and not _width_lower_bound(c, sf, reach) > upper:
            keys.append(point_key(c))

    # the float-first keys sort like the points themselves, and duplicates
    # end up next to each other
    keys.sort()
    candidates = [k[1] for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    if not candidates:
        # collinear or fully clipped configurations: no combinatorial
        # candidate exists inside the square; report the center of the data
        candidates = [(Fraction(0), Fraction(0))]
    (x, y), r_out, r_in = _best_candidate(candidates, upts)
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
    return _float_width_lower_bound(to_float(c[0]), to_float(c[1]), sample, reach)


def _float_width_lower_bound(fx: float, fy: float, sample, reach: float) -> float:
    """`_width_lower_bound` about the float centre (fx, fy).

    `math.dist` rounds the same differences fx - px, fy - py and takes the
    same vector norm of them as `math.hypot(fx - px, fy - py)`, so each
    distance is the same float and `_width_lower_bound`'s error bound
    holds unchanged."""
    ds = list(map(math.dist, repeat((fx, fy)), sample))
    err = error_bound(reach + abs(fx) + abs(fy))
    lower = max(ds) - min(ds) - 3 * err
    return lower if lower == lower else -math.inf  # NaN: an infinity met another


def _float_bound(fx: float, fy: float, sample, reach: float) -> Tuple[float, float, float]:
    """The float coordinates (fx, fy) of a point and `_width_lower_bound`
    about it."""
    return fx, fy, _float_width_lower_bound(fx, fy, sample, reach)


def _sample_floats(sample) -> Tuple[list, float]:
    """The floats of the points of `_sample` and their reach,
    max |x| + max |y|: the arguments of `_width_lower_bound`."""
    sf = [(to_float(x), to_float(y)) for x, y in sample]
    return sf, max(abs(x) for x, _ in sf) + max(abs(y) for _, y in sf)


def _probe_upper(lower, exact_at, upts) -> float:
    """A certified upper bound on the smallest width about a list of
    candidates: the exact width about the one with the smallest finite
    lower bound in lower (the first one when none is finite), plus an error
    bound; +inf without candidates.  exact_at(i) is the exact point of the
    i-th candidate; only the probe's is read."""
    if not lower:
        return math.inf
    finite = [i for i, lb in enumerate(lower) if lb > -math.inf] or [0]
    probe = min(finite, key=lower.__getitem__)
    lo, hi = _radii_sq(exact_at(probe), upts)
    s_hi, s_lo = math.sqrt(to_float(hi)), math.sqrt(to_float(lo))
    if not s_hi < math.inf:
        return math.inf
    return s_hi - s_lo + error_bound(s_hi + s_lo)


def _best_candidate(candidates, upts):
    """Minimum-width candidate, exact; the first one in the given order wins
    a tie.  A float pass on the exact radii of every candidate shortlists
    the contenders, and exact radical comparison settles them.

    The shortlist's floats are correctly rounded radii, their square roots
    and the difference, within 3 * EPS of the sum of the two roots, below
    its `error_bound`.  A squared radius past the float range gives an
    infinite root; such a candidate is never left out of the shortlist and
    does not narrow it, and the exact comparison places it."""
    evals = []
    for c in candidates:
        lo, hi = _radii_sq(c, upts)
        s_lo, s_hi = math.sqrt(to_float(lo)), math.sqrt(to_float(hi))
        if s_hi < math.inf:
            evals.append((s_hi - s_lo, error_bound(s_hi + s_lo), c, hi, lo))
        else:  # overflowed: only the exact comparison can place it
            evals.append((0.0, math.inf, c, hi, lo))
    thresh = min(fw + err for fw, err, _, _, _ in evals)
    best = None
    for fw, err, c, hi, lo in evals:
        if fw - err > thresh:
            continue
        if best is None or width_compare(hi, lo, best[1], best[2]) < 0:
            best = (c, hi, lo)
    return best
