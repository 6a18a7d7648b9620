"""Float filters of the annulus path against the exact expressions they
stand in front of: every filtered answer must equal the exact one, on
float ties, zeros and magnitudes where a float overflows."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from arcline import annulus, sweep
from arcline.annulus import (_best_candidate, _bisector_intersection, _probe_upper, _radii_sq,
                             _sample, _sample_floats, _width_lower_bound, AnnulusResult,
                             min_width_annulus)
from arcline.arcfit import arc_exists_within_tolerance
from arcline.clipping import _inside
from arcline.overlaps import remove_overlaps
from arcline.predicates import dist_sq, orientation, orientation_filter, point_key, sign, to_float
from arcline.radicals import sqrt_diff_vs_rational, width_compare, width_leq
from arcline.segments import seg
from arcline.voronoi import ClipConfig

from test_sweep import brute_force_events

TINY = Fraction(1, 10 ** 30)  # far below the float resolution of O(1) values
HUGE = 10 ** 400  # float() of this raises OverflowError


def _near_pairs(rng):
    """Pairs of rationals: float ties, equal values, zeros, and values past
    the float range."""
    third = Fraction(1, 3)
    yield third, third + TINY
    yield third + TINY, third
    yield Fraction(10 ** 20 + 1, 7), Fraction(10 ** 20 + 1, 7)
    yield Fraction(0), Fraction(1, HUGE)
    yield -Fraction(1, HUGE), Fraction(1, HUGE)
    yield Fraction(0), Fraction(0)
    yield Fraction(HUGE), Fraction(HUGE + 1)
    yield Fraction(-HUGE, 3), Fraction(-HUGE - 1, 3)
    yield Fraction(HUGE), Fraction(10 ** 300)
    for _ in range(500):
        a = Fraction(rng.randint(-10 ** 20, 10 ** 20), rng.randint(1, 10 ** 20))
        yield a, a + rng.choice((0, 1, -1)) * Fraction(rng.randint(1, 9), 10 ** rng.randint(1, 40))


def test_to_float_is_monotone_and_clamps():
    assert to_float(HUGE) == math.inf and to_float(Fraction(-HUGE, 7)) == -math.inf
    assert to_float(Fraction(1, HUGE)) == 0.0
    rng = random.Random(70)
    vals = sorted(a for pair in _near_pairs(rng) for a in pair)
    floats = [to_float(v) for v in vals]
    assert floats == sorted(floats)


def _orientation_cases(rng):
    """Triples of rational points: exactly collinear, off the line by far
    less than a float can see, clearly turning, and beyond the float range."""
    for _ in range(300):
        a = (Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999)),
             Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999)))
        b = (a[0] + rng.randint(-50, 50), a[1] + Fraction(rng.randint(-50, 50), 3))
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        c = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        yield a, b, c
        yield a, b, (c[0], c[1] + rng.choice((1, -1)) * TINY)
        yield a, b, (c[0] + rng.randint(-5, 5), c[1] + rng.randint(-5, 5))
        s = rng.choice((10 ** 200, HUGE))
        yield (a[0] * s, a[1] * s), (b[0] * s, b[1] * s), (c[0] * s, (c[1] + 1) * s)


def test_orientation_filter_never_contradicts_exact():
    rng = random.Random(72)
    decided = 0
    for a, b, c in _orientation_cases(rng):
        f = orientation_filter(*(to_float(v) for p in (a, b, c) for v in p))
        exact = orientation(a, b, c)
        if exact == 0 or max(abs(v) for p in (a, b, c) for v in p) >= 10 ** 150:
            # ties and overflowing products stay undecided
            assert f == 0
        else:
            assert f in (0, exact)
        decided += f != 0
    assert decided > 100  # the filter does decide the clear cases


def test_sweep_side_equals_exact():
    rng = random.Random(73)
    for _ in range(300):
        p0 = (Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 99)),
              Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 99)))
        p1 = (p0[0] + Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 99)),
              p0[1] + Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 99)))
        s = sweep._Seg(p0, p1, frozenset(), frozenset())
        t = Fraction(rng.randint(0, 100), 100)
        x = p0[0] + t * (p1[0] - p0[0])
        y_on = p0[1] + t * (p1[1] - p0[1])
        for y in (y_on, y_on + TINY, y_on - TINY, y_on + 1, y_on - 1, p1[1]):
            for q in ((x, y), (p1[0], y)):
                exact = sign(s.p0[1] + s.slope * (q[0] - s.p0[0]) - q[1])
                assert s.side(q, to_float(q[0]), to_float(q[1])) == exact


def test_inside_equals_exact():
    rng = random.Random(74)
    h = 10 ** 6
    for _ in range(2000):
        x = Fraction(rng.randint(-3 * h, 3 * h), rng.randint(1, 3))
        kind = rng.randrange(5)
        if kind == 0:
            y = x + rng.choice((0, 1, -1)) * TINY  # on or next to y = x
        elif kind == 1:
            y = -x + rng.choice((0, 1, -1)) * TINY  # on or next to y = -x
        elif kind == 2:
            x, y = rng.choice((0, TINY, -TINY)), x  # on or next to x = 0
        elif kind == 3:
            x, y = h + rng.choice((0, 1, -1)) * TINY, x  # on or next to a side
        else:
            y = Fraction(rng.randint(-3 * h, 3 * h), rng.randint(1, 3))
        assert _inside((x, y), h, to_float(h)) == (-h <= x <= h and -h <= y <= h)
    big = HUGE
    for p in ((big, 0), (big - 1, big - 1), (big + 1, 0), (Fraction(-big - 1, 1), 3)):
        assert _inside(p, big, to_float(big)) == (-big <= p[0] <= big and -big <= p[1] <= big)


def test_width_lower_bound_is_below_exact_width():
    rng = random.Random(75)
    for _ in range(200):
        pts = list({(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
                    for _ in range(rng.randint(3, 60))})
        sample = _sample(pts)
        sf = [(float(x), float(y)) for x, y in sample]
        reach = max(abs(x) for x, _ in sf) + max(abs(y) for _, y in sf)
        c = (Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)),
             Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 4)))
        lb = _width_lower_bound(c, sf, reach)
        lo, hi = _radii_sq(c, sample)
        assert sqrt_diff_vs_rational(hi, lo, Fraction(lb)) >= 0
    c = (Fraction(HUGE, 3), Fraction(1, 3))  # the center's float overflows
    assert _width_lower_bound(c, [(0.0, 0.0), (1.0, 0.0)], 1.0) == -math.inf
    assert _width_lower_bound((0, 0), [(math.inf, 0.0), (1.0, 0.0)], math.inf) == -math.inf


def _dist_cases(rng):
    """Float pairs (f, p): random over wide exponents, subnormals, zeros,
    infinities, NaN, and huge values whose difference overflows."""
    def wide():
        return rng.choice((-1, 1)) * rng.uniform(1, 2) * 2.0 ** rng.randint(-1070, 1020)

    for _ in range(5000):
        yield (wide(), wide()), (wide(), wide())
    tiny = 5e-324
    special = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1.5e-310, math.inf, -math.inf,
               math.nan, 1.7976931348623157e308, -1.7976931348623157e308, 1e308, -1e308, 3.0]
    for fx in special:
        for px in special:
            for fy, py in ((0.0, 0.0), (tiny, -tiny), (1e308, -1e308), (math.nan, 1.0),
                           (-math.inf, 2.0), (1.0, 1.0)):
                yield (fx, fy), (px, py)


def test_dist_rounds_like_hypot_of_the_differences():
    # `_float_width_lower_bound` takes math.dist where its error bound was
    # derived for hypot of the rounded differences
    for (fx, fy), (px, py) in _dist_cases(random.Random(76)):
        got = math.dist((fx, fy), (px, py))
        want = math.hypot(fx - px, fy - py)
        assert got == want or (math.isnan(got) and math.isnan(want)), ((fx, fy), (px, py))


# -- the sweep with every comparison undecided in floats ----------------------

def _degenerate_grid(rng):
    raw = []
    for _ in range(rng.randint(2, 12)):
        p0 = (rng.randint(-4, 4), rng.randint(-4, 4))
        p1 = (rng.randint(-4, 4), rng.randint(-4, 4))
        if p0 != p1:
            sets = {"closest": {rng.randint(0, 5)}} if rng.random() < 0.5 \
                else {"farthest": {rng.randint(0, 5)}}
            raw.append((p0, p1, sets))
    return raw


@pytest.mark.parametrize("mapping", ["collapsed", "sheared"])
def test_sweep_on_float_ties_matches_brute_force(mapping, monkeypatch):
    # an affine image of an integer grid keeps every crossing, touch and
    # shared endpoint; "collapsed" puts all endpoints inside one float, so
    # every filtered test is undecided, "sheared" leaves near-ties only
    def image(p):
        x, y = p
        if mapping == "collapsed":
            return (Fraction(1, 3) + x * TINY, Fraction(2, 7) + y * TINY)
        eps = Fraction(1, 10 ** 20)
        return (x + y * eps, y + x * eps)

    calls = [0]
    y_at = sweep._Seg.y_at

    def counted(self, x):
        calls[0] += 1
        return y_at(self, x)

    monkeypatch.setattr(sweep._Seg, "y_at", counted)
    rng = random.Random(76)
    for _ in range(60):
        raw = [seg(image(p0), image(p1), **sets) for p0, p1, sets in _degenerate_grid(rng)]
        segs = remove_overlaps(raw)
        got = {e.point for e in sweep.sweep_intersections(segs)}
        assert got == brute_force_events(segs)
    assert calls[0] > 0  # the exact fallback decided some comparisons


# -- candidate selection ------------------------------------------------------

def _unfiltered_best(candidates, upts):
    """The selection without the float lower bounds: every candidate's
    exact radii, a margined float shortlist, exact radical comparison."""
    evals = []
    for c in candidates:
        lo, hi = _radii_sq(c, upts)
        s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
        evals.append((s_hi - s_lo, 1e-12 * (s_hi + s_lo + 1.0), c, hi, lo))
    thresh = min(fw + err for fw, err, _, _, _ in evals)
    best = None
    for fw, err, c, hi, lo in evals:
        if fw - err > thresh:
            continue
        if best is None or width_compare(hi, lo, best[1], best[2]) < 0:
            best = (c, hi, lo)
    return best


def _filtered_best(candidates, upts):
    """The selection as `min_width_annulus` makes it: candidates whose float
    lower bound exceeds the probe's certified upper bound are dropped, and
    `_best_candidate` picks among the rest."""
    sf, reach = _sample_floats(_sample(upts))
    lower = [_width_lower_bound(c, sf, reach) for c in candidates]
    upper = _probe_upper(lower, candidates.__getitem__, upts)
    return _best_candidate([c for c, lb in zip(candidates, lower) if not lb > upper], upts)


def _sorted_unique(points):
    out = []
    for p in sorted(points, key=point_key):
        if not out or p != out[-1]:
            out.append(p)
    return out


def test_best_candidate_equals_unfiltered_on_random_sets():
    rng = random.Random(77)
    for _ in range(40):
        pts = list({(rng.randint(-300, 300), rng.randint(-300, 300))
                    for _ in range(rng.randint(4, 60))})
        pairs = list(combinations(range(len(pts)), 2))
        cands = []
        for _ in range(150):
            (i, j), (k, m) = rng.sample(pairs, 2)
            c = _bisector_intersection(pts[i], pts[j], pts[k], pts[m])
            if c is not None:
                cands.append(c)
        cands = _sorted_unique(cands)
        if cands:
            assert _filtered_best(cands, pts) == _unfiltered_best(cands, pts)


def test_best_candidate_equals_unfiltered_on_cocircular_ties():
    # the integer points of x^2 + y^2 = 625 and a symmetric candidate grid:
    # every candidate shares its width with its images under the square's
    # symmetries, so the order alone picks the winner
    circle = [(x, y) for x in range(-25, 26) for y in range(-25, 26) if x * x + y * y == 625]
    grid = [(Fraction(i, 2), Fraction(j, 2)) for i in range(-6, 7) for j in range(-6, 7)]
    for pts in (circle, circle + [(0, 1), (1, 0), (0, -1), (-1, 0)]):
        for cands in (grid, [c for c in grid if c != (0, 0)],
                      [c for c in grid if abs(c[0]) + abs(c[1]) >= 2]):
            cands = _sorted_unique(cands)
            assert _filtered_best(cands, pts) == _unfiltered_best(cands, pts)


# -- property test: the whole annulus against the combinatorial oracle --------

_small = st.integers(min_value=-8, max_value=8)
_CIRCLE_25 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
              (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]


@st.composite
def _point_sets(draw):
    """Small integer sets with collinear runs, cocircular points and
    duplicates."""
    pts = draw(st.lists(st.tuples(_small, _small), min_size=1, max_size=4))
    if draw(st.booleans()):
        a = draw(st.tuples(_small, _small))
        d = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        pts += [(a[0] + t * d[0], a[1] + t * d[1]) for t in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        cx, cy = draw(st.tuples(_small, _small))
        on = draw(st.lists(st.sampled_from(_CIRCLE_25), min_size=2, max_size=6))
        pts += [(cx + x, cy + y) for x, y in on]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts


def _overlay_vertex_oracle(pts):
    """`test_acceptance._combinatorial_oracle` over the centres the library
    searches: the vertices of the overlay of both Voronoi diagrams, that is
    the centres with two nearest and two farthest points, or three of
    either.

    The unrestricted oracle also counts any other meeting point of two
    bisectors.  Where the width keeps shrinking towards infinity (nearly
    collinear sets) such a point can be narrower than every overlay vertex,
    e.g. (23/2, 25/2) for [(0, -7), (-3, -7), (-4, -4), (-6, -1), (-8, -2)].
    The library does not search those centres, so on such sets its answer
    is wider than the best centre inside its own clip square."""
    best = None
    for (i, j), (k, l) in combinations(combinations(range(len(pts)), 2), 2):
        c = _bisector_intersection(pts[i], pts[j], pts[k], pts[l])
        if c is None:
            continue
        d = [dist_sq(c, p) for p in pts]
        lo, hi = min(d), max(d)
        n_lo, n_hi = d.count(lo), d.count(hi)
        if (n_lo >= 2 and n_hi >= 2) or n_lo >= 3 or n_hi >= 3:
            if best is None or width_compare(hi, lo, best[0], best[1]) < 0:
                best = (hi, lo)
    return best


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_point_sets())
def test_annulus_matches_oracle_on_degenerate_sets(pts):
    upts = list(dict.fromkeys(pts))
    assume(len(upts) >= 3)
    best = _overlay_vertex_oracle(upts)
    assume(best is not None)  # all collinear: no finite center exists
    # a clip square wide enough to hold every oracle candidate
    xs = [p[0] for p in upts]
    ys = [p[1] for p in upts]
    r = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1
    res = min_width_annulus(pts, ClipConfig(math.radians(1e-6), r))
    hi, lo = best
    assert width_compare(res.r_outer_sq, res.r_inner_sq, hi, lo) == 0


def test_annulus_matches_oracle_past_the_float_range():
    # squared radii past the float range: the float shortlist of the
    # selection overflows and only the exact comparison can decide
    rng = random.Random(78)
    sets = [[(0, 0), (10 ** 200, 0), (0, 10 ** 200), (10 ** 200, 10 ** 200 + 1), (5 * 10 ** 199, 1)]]
    for _ in range(8):
        s = 10 ** rng.choice((160, 200))
        sets.append([(rng.randint(-8, 8) * s + rng.randint(-3, 3),
                      rng.randint(-8, 8) * s + rng.randint(-3, 3)) for _ in range(rng.randint(4, 7))])
    checked = 0
    for pts in sets:
        upts = list(dict.fromkeys(pts))
        best = _overlay_vertex_oracle(upts) if len(upts) >= 3 else None
        if best is None:
            continue
        xs = [p[0] for p in upts]
        ys = [p[1] for p in upts]
        r = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1
        res = min_width_annulus(pts, ClipConfig(math.radians(1e-6), r))
        assert width_compare(res.r_outer_sq, res.r_inner_sq, *best) == 0, pts
        checked += 1
    assert checked >= 6


def test_annulus_width_past_the_float_range():
    # the width of the 10^200 repro is a float, within 1e-12 of the exact
    # sqrt(o) - sqrt(i) (width_compare against annuli of inner radius 0);
    # below the float range it is sqrt(o) - sqrt(i) in floats, bit for bit
    pts = [(0, 0), (10 ** 200, 0), (0, 10 ** 200), (10 ** 200, 10 ** 200 + 1), (5 * 10 ** 199, 1)]
    res = min_width_annulus(pts, ClipConfig(math.radians(1e-6), math.hypot(10 ** 200, 10 ** 200 + 1) / 2 + 1))
    w = res.width
    assert 0 < w < math.inf
    assert width_compare(res.r_outer_sq, res.r_inner_sq, Fraction(w * (1 + 1e-12)) ** 2, 0) < 0
    assert width_compare(res.r_outer_sq, res.r_inner_sq, Fraction(w * (1 - 1e-12)) ** 2, 0) > 0
    big = 10 ** 400
    assert AnnulusResult((0, 0), Fraction(big), Fraction(big + 2 * 10 ** 200 + 1)).width == 1.0
    rng = random.Random(79)
    for _ in range(200):
        inner = Fraction(rng.randint(0, 10 ** 12), rng.randint(1, 10 ** 6))
        outer = inner + Fraction(rng.randint(0, 10 ** 9), rng.randint(1, 10 ** 3))
        want = math.sqrt(outer) - math.sqrt(inner)
        assert AnnulusResult((0, 0), inner, outer).width == want


# -- the arc window test ------------------------------------------------------

@st.composite
def _walks_and_arcs(draw):
    """4 to 64 integer points along a noisy, nearly straight walk or a noisy
    circular arc."""
    n = draw(st.integers(4, 64))
    noise = draw(st.integers(0, 3))
    jitter = draw(st.lists(st.integers(-noise, noise), min_size=2 * n, max_size=2 * n))
    ox, oy = draw(st.tuples(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4)))
    if draw(st.booleans()):
        dx, dy = draw(st.tuples(st.integers(-40, 40), st.integers(1, 40)))
        bend = draw(st.integers(-3, 3))  # a drift across the walk, growing with k^2
        pts = [(ox + k * dx - bend * k * k // 64, oy + k * dy + bend * k * k // 64)
               for k in range(n)]
    else:
        radius = draw(st.integers(20, 5000))
        start = draw(st.floats(0, 2 * math.pi))
        span = draw(st.floats(0.1, 2 * math.pi))
        pts = [(ox + round(radius * math.cos(start + span * k / n)),
                oy + round(radius * math.sin(start + span * k / n))) for k in range(n)]
    return [(x + jitter[2 * k], y + jitter[2 * k + 1]) for k, (x, y) in enumerate(pts)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_walks_and_arcs(), st.sampled_from([1 - 1e-6, 1 + 1e-6, 0.7, 1.3]))
def test_arc_exists_matches_annulus(pts, factor):
    # one-sided: the window test may accept where the annulus is infeasible
    # (it asks about the whole plane, the annulus about the overlay vertices
    # in its square), but a feasible annulus is always accepted, and a
    # rejection holds about every centre the oracles know of
    upts = list(dict.fromkeys(pts))
    assume(len(upts) >= 3)
    res = min_width_annulus(upts)
    assume(res.width > 0)
    tol = res.width / 2 * factor
    if arc_exists_within_tolerance(pts, tol):
        return
    assert not res.feasible_for(tol)
    if len(upts) <= 24:
        for c in _crossings(upts) + _far_centres(upts):
            lo, hi = _radii_sq(c, upts)
            assert not width_leq(hi, lo, 2 * Fraction(tol)), c


def _crossings(pts):
    """The meeting point of the bisectors of every two pairs: the centres of
    `test_acceptance._combinatorial_oracle`."""
    out = []
    for (i, j), (k, l) in combinations(combinations(range(len(pts)), 2), 2):
        c = _bisector_intersection(pts[i], pts[j], pts[k], pts[l])
        if c is not None:
            out.append(c)
    return out


def _far_centres(pts):
    """For every pair, two centres 2**100 times its length out along its
    normal, where the exact width is within far less than a float's
    resolution of the width of the points' projection on that normal."""
    return [(Fraction(ax - s * (by - ay)), Fraction(ay + s * (bx - ax)))
            for (ax, ay), (bx, by) in combinations(pts, 2) for s in (2 ** 100, -2 ** 100)]


def test_corner_window_rejected_without_any_annulus(monkeypatch):
    # an L-shaped window: no circle or line through its last vertex comes
    # within 2*tol of the sampled points, and the window is rejected
    # without building any minimum-width annulus
    pts = [(0, 0), (10, 0), (20, 0), (30, 0), (30, 10), (30, 20), (30, 30)]
    assert not min_width_annulus(pts).feasible_for(1.0)
    calls = [0]
    mwa = annulus.min_width_annulus

    def spy(*args):
        calls[0] += 1
        return mwa(*args)

    monkeypatch.setattr(annulus, "min_width_annulus", spy)
    assert not arc_exists_within_tolerance(pts, 1.0)
    assert calls[0] == 0
    # a tolerance above the width leaves the certificate silent
    assert arc_exists_within_tolerance(pts, 3.0)
