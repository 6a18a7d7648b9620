import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from arcline.annulus import (_bisector_intersection, arc_exists_within_tolerance,
                             min_width_annulus)
from arcline.predicates import dist_sq
from arcline.radicals import width_compare, width_leq
from arcline.voronoi import ClipConfig


def combinatorial_oracle(pts):
    """All centers equidistant from 2+2 point pairs (covers triples too)."""
    cands = set()
    for (i, j), (k, l) in combinations(combinations(range(len(pts)), 2), 2):
        c = _bisector_intersection(pts[i], pts[j], pts[k], pts[l])
        if c is not None:
            cands.add(c)
    best = None
    for c in cands:
        d = [dist_sq(c, p) for p in pts]
        lo, hi = min(d), max(d)
        if best is None or width_compare(hi, lo, best[0], best[1]) < 0:
            best = (hi, lo, c)
    return best


def test_radical_comparisons():
    assert width_leq(Fraction(4), Fraction(1), Fraction(1))  # 2 - 1 <= 1
    assert not width_leq(Fraction(9), Fraction(1), Fraction(1))  # 3 - 1 > 1
    assert width_compare(4, 1, 9, 4) == 0  # 2-1 == 3-2
    assert width_compare(4, 0, 4, 1) > 0


def test_cocircular_width_zero():
    pts = [(10, 0), (0, 10), (-10, 0), (0, -10), (6, 8), (8, 6)]
    res = min_width_annulus(pts)
    assert res.center == (0, 0)
    assert res.r_inner_sq == res.r_outer_sq == 100
    assert res.width == 0.0
    assert res.feasible_for(Fraction(1, 10**9))


def test_two_points():
    res = min_width_annulus([(0, 0), (4, 0)])
    assert res.center == (2, 0) and res.r_inner_sq == res.r_outer_sq == 4


def test_degenerate_errors():
    with pytest.raises(ValueError):
        min_width_annulus([(3, 3), (3, 3)])
    with pytest.raises(ValueError):
        arc_exists_within_tolerance([(0, 0), (1, 1), (2, 2)], 1)


def test_containment_invariant():
    random.seed(60)
    for _ in range(30):
        pts = list({(random.randint(-300, 300), random.randint(-300, 300))
                    for _ in range(random.randint(3, 40))})
        if len(pts) < 3:
            continue
        res = min_width_annulus(pts)
        for p in pts:
            d = dist_sq(res.center, p)
            assert res.r_inner_sq <= d <= res.r_outer_sq


def test_matches_combinatorial_oracle_small():
    random.seed(61)
    checked = 0
    while checked < 120:
        n = random.randint(3, 10)
        pts = list({(random.randint(-40, 40), random.randint(-40, 40)) for _ in range(n)})
        if len(pts) < 3:
            continue
        res = min_width_annulus(pts)
        hi, lo, _ = combinatorial_oracle(pts)
        assert width_compare(res.r_outer_sq, res.r_inner_sq, hi, lo) == 0
        checked += 1


def test_annulus_sample_containment_bound():
    # points inside the ring [0.9, 1.0] admit an annulus no wider than 0.1
    random.seed(62)
    scale = 10 ** 5
    pts = []
    while len(pts) < 100:
        x = random.uniform(-1, 1)
        y = random.uniform(-1, 1)
        if 0.9 <= math.hypot(x, y) <= 1.0:
            pts.append((round(x * scale), round(y * scale)))
    res = min_width_annulus(list(set(pts)))
    assert res.width <= 0.1 * scale + 2


def test_arc_exists_examples():
    scale = 10 ** 5
    circle = [(round(scale * math.cos(a)), round(scale * math.sin(a)))
              for a in [k * 0.3 for k in range(15)]]
    assert arc_exists_within_tolerance(circle, 5) is True
    thin = [(0, 0), (1000, 0), (1000, 10), (0, 10)]
    res = min_width_annulus(thin)
    tol_small = Fraction(1, 100)
    assert arc_exists_within_tolerance(thin, tol_small) == res.feasible_for(tol_small)


def test_arc_exists_matches_exact_decision():
    random.seed(63)
    for _ in range(40):
        n = random.randint(4, 60)
        pts = list({(random.randint(-200, 200), random.randint(-200, 200)) for _ in range(n)})
        if len(pts) < 4:
            continue
        res = min_width_annulus(pts)
        w = res.width
        for tol in (w / 2 * 0.7 + 1e-9, w / 2 * 1.3 + 1e-9):
            got = arc_exists_within_tolerance(pts, tol)
            assert got == res.feasible_for(tol)


def test_clip_restricts_far_centers():
    # nearly collinear points: a huge-radius arc fits, but its center lies
    # beyond any modest clip radius, so the clipped test reports infeasible
    pts = [(x, x * x // 800_000) for x in range(0, 2000, 100)]
    tight = ClipConfig(math.radians(30), 3000)
    wide = ClipConfig(math.radians(0.01), 3000)
    assert arc_exists_within_tolerance(pts, 5, wide) is True
    assert arc_exists_within_tolerance(pts, 5, tight) is False


def test_adversarial_near_cocircular_clusters():
    # many near-cocircular points make the two diagrams cross densely; the
    # decision must still match the exact annulus verdict
    rng = random.Random(64)
    pts = []
    for k in range(40):
        a = 2 * math.pi * k / 40
        r = 10_000 + rng.randint(-40, 40)
        pts.append((round(r * math.cos(a)), round(r * math.sin(a))))
    pts = list(dict.fromkeys(pts))
    res = min_width_annulus(pts)
    assert 60 <= res.width <= 170  # ring thickness ~ +-40 noise
    for tol in (res.width / 2 * 0.8, res.width / 2 * 1.2):
        assert arc_exists_within_tolerance(pts, tol) == res.feasible_for(tol)
