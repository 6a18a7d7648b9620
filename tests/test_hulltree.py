import random
from fractions import Fraction

import pytest

from arcline.hulltree import HullTree
from arcline.predicates import dist_sq


def brute_segment_check(pts, i, j, a, b, tol):
    t2 = Fraction(tol) ** 2
    if dist_sq(pts[i], a) > t2 or dist_sq(pts[j], b) > t2:
        return False
    dx, dy = b[0] - a[0], b[1] - a[1]
    len_sq = dx * dx + dy * dy
    if len_sq == 0:
        return all(dist_sq(p, a) <= t2 for p in pts[i:j + 1])
    return all((dx * (p[1] - a[1]) - dy * (p[0] - a[0])) ** 2 <= t2 * len_sq
               for p in pts[i:j + 1])


def test_segment_tolerance_examples():
    pts = [(i, 0) for i in range(10)]
    t = HullTree(pts)
    assert t.segment_within_tolerance(0, 9, (0, 0), (9, 0), 0)
    bumped = [(i, 0) for i in range(10)]
    bumped[5] = (5, 4)
    t2 = HullTree(bumped)
    assert not t2.segment_within_tolerance(0, 9, (0, 0), (9, 0), 2)
    assert t2.segment_within_tolerance(0, 9, (0, 0), (9, 0), 4)
    # grid scale, tilted chord: the middle vertex lies exactly 5 * 205 = 1025
    # off the chord (0, 0)-(3, 4) * 2^38
    mid = (3 * 2 ** 37 - 4 * 205, 4 * 2 ** 37 + 3 * 205)
    t3 = HullTree([(0, 0), mid, (3 * 2 ** 38, 4 * 2 ** 38)])
    ends = ((0, 0), (3 * 2 ** 38, 4 * 2 ** 38))
    assert t3.segment_within_tolerance(0, 2, *ends, 1025)
    assert not t3.segment_within_tolerance(0, 2, *ends, 1024.9999999)


def test_segment_tolerance_matches_brute_force():
    random.seed(84)
    for _ in range(500):
        n = random.randint(2, 40)
        pts = [(random.randint(0, 60), random.randint(0, 60)) for _ in range(n)]
        t = HullTree(pts)
        i = random.randint(0, n - 1)
        j = random.randint(i, n - 1)
        a = pts[i] if random.random() < 0.5 else (random.randint(0, 60), random.randint(0, 60))
        b = pts[j] if random.random() < 0.5 else (random.randint(0, 60), random.randint(0, 60))
        tol = random.choice([0, 1, 2, 5, 30])
        assert t.segment_within_tolerance(i, j, a, b, tol) == brute_segment_check(pts, i, j, a, b, tol)
    # grid scale: coordinates up to 2^40, float tolerances, points scattered
    # about the chord by up to 1.5 tol per coordinate, anchors at the range
    # ends as the DP passes them (sometimes moved by about tol)
    outcomes = set()
    for _ in range(400):
        tol = random.choice([0.5, 3.3, 1024.37, 1e6 + 0.1])
        spread = random.choice([0.5, 1.0, 1.5]) * tol
        ends = [(random.randint(-2 ** 40, 2 ** 40), random.randint(-2 ** 40, 2 ** 40))
                for _ in range(2)]
        n = random.randint(2, 12)
        pts = []
        for k in range(n):
            frac = k / (n - 1)
            pts.append(tuple(round(e0 + frac * (e1 - e0) + random.uniform(-spread, spread))
                             for e0, e1 in zip(*ends)))
        if random.random() < 0.2:
            pts[-1] = pts[0]  # coincident anchors
        t = HullTree(pts)
        i, j = 0, n - 1
        a, b = pts[i], pts[j]
        if random.random() < 0.3:
            a = (a[0] + round(random.uniform(-1.2, 1.2) * tol), a[1])
        got = t.segment_within_tolerance(i, j, a, b, tol)
        assert got == brute_segment_check(pts, i, j, a, b, tol)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        HullTree([])


@pytest.mark.parametrize("i, j", [(-1, 2), (3, 2), (0, 5), (5, 5)])
def test_bad_range_rejected(i, j):
    t = HullTree([(0, 0), (1, 0), (2, 1), (3, 0), (4, 0)])
    with pytest.raises(ValueError, match="bad range"):
        t.segment_within_tolerance(i, j, (0, 0), (4, 0), 1)
