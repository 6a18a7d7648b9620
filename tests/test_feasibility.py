import gc
import math
import random
import weakref

from arcline.annulus import arc_exists_within_tolerance
from arcline.feasibility import (InfeasiblePairList, _dyadic_scan,
                                 build_fit_index_arrays)
from arcline.feasibility import test_arcs as scan_arcs
from arcline.feasibility import test_segments as scan_segments
from arcline.hulltree import HullTree

PAPER_PAIRS = [(10, 17), (12, 19), (14, 21), (26, 33), (28, 35), (30, 37),
               (42, 49), (44, 51), (46, 53)]
PAPER_FIRST = ([0] * 17 + [11, 11, 13, 13] + [15] * 12 + [27, 27, 29, 29]
               + [31] * 12 + [43, 43, 45, 45] + [47] * 12)


def test_sentinel_arrays():
    pl = InfeasiblePairList.from_pairs(PAPER_PAIRS, 65)
    assert pl.a == [-1, 10, 12, 14, 26, 28, 30, 42, 44, 46, 64]
    assert pl.b == [0, 17, 19, 21, 33, 35, 37, 49, 51, 53, 65]
    assert pl.pairs() == PAPER_PAIRS


def test_paper_fixture_index_arrays():
    pl = InfeasiblePairList.from_pairs(PAPER_PAIRS, 65)
    arrs = build_fit_index_arrays(pl)
    assert arrs.first == PAPER_FIRST
    assert arrs.first[17] == 11 and arrs.first[19] == 13
    assert arrs.first[16] == 0 and arrs.first[33] == 27


def test_contains_infeasible_fixture():
    pl = InfeasiblePairList.from_pairs(PAPER_PAIRS, 65)
    assert pl.contains_infeasible(10, 17)
    assert not pl.contains_infeasible(0, 16)
    assert pl.contains_infeasible(9, 20)
    assert not pl.contains_infeasible(11, 17)


def test_contains_infeasible_brute_force():
    random.seed(90)
    for _ in range(200):
        n = random.randint(6, 80)
        raw = set()
        a, b = -1, 0
        while True:
            a += random.randint(1, 6)
            b = max(b + random.randint(1, 6), a + 1)
            if b >= n - 1:
                break
            raw.add((a, b))
        pl = InfeasiblePairList.from_pairs(raw, n)
        ps = pl.pairs()
        for _ in range(60):
            i = random.randint(0, n - 1)
            j = random.randint(i, n - 1)
            assert pl.contains_infeasible(i, j) == any(i <= x and y <= j for x, y in ps)


def test_from_pairs_keeps_exactly_the_minimal_pairs():
    random.seed(91)
    for _ in range(500):
        n = random.randint(2, 30)
        raw = []
        for _ in range(random.randint(0, 12)):
            i = random.randint(0, n - 2)
            raw.append((i, random.randint(i + 1, n - 1)))
        if raw and random.random() < 0.5:
            i, j = random.choice(raw)  # a shared start, or a nested pair
            raw.append((i, random.randint(i + 1, n - 1)))
            raw.append((random.randint(i, j - 1), j))
        pl = InfeasiblePairList.from_pairs(raw, n)
        minimal = sorted({(i, j) for i, j in raw
                          if not any((x, y) != (i, j) and i <= x and y <= j for x, y in raw)})
        assert pl.pairs() == minimal
        assert all(a0 < a1 for a0, a1 in zip(pl.a, pl.a[1:]))
        assert all(b0 < b1 for b0, b1 in zip(pl.b, pl.b[1:]))


def test_empty_pair_list_trivial_bounds():
    pl = InfeasiblePairList.from_pairs([], 12)
    arrs = build_fit_index_arrays(pl)
    assert arrs.first == [0] * 12


def test_circle_polyline_no_infeasible_pairs():
    scale = 10 ** 5
    pts = [(round(scale * math.cos(0.1 * k)), round(scale * math.sin(0.1 * k)))
           for k in range(20)]
    pl = scan_arcs(pts, 200)
    assert pl.pairs() == []


def test_reported_windows_are_infeasible_and_bounds_sound():
    random.seed(91)
    scale = 1000
    for _ in range(6):
        # zig-zag with amplitude far above the tolerance
        n = random.randint(16, 40)
        pts = [(i * scale, (i % 2) * 8 * scale + random.randint(-50, 50)) for i in range(n)]
        tol = scale // 2
        pl = scan_arcs(pts, tol)
        for i, j in pl.pairs():
            assert not arc_exists_within_tolerance(pts[i:j + 1], tol)
        arrs = build_fit_index_arrays(pl)
        for k in range(n):
            f = arrs.first[k]
            if f > 0 and k - (f - 1) + 1 >= 4:
                assert not arc_exists_within_tolerance(pts[f - 1:k + 1], tol)


def test_dyadic_scan_window_schedule():
    calls = []

    def feasible(i, j):
        calls.append((i, j))
        return True

    _dyadic_scan(37, feasible)
    for i, j in calls:
        size = j - i + 1
        assert size % 4 == 0
        q = (size // 4).bit_length() - 1
        assert size == 4 * (1 << q)
        assert i % (1 << q) == 0
    assert len(calls) <= 2 * 37


def test_max_arc_points_cap():
    # collinear points: one arc covers any window, so only the cap fails
    # windows.  The first scale past the cap of 8 has windows of 16 points
    # stepping by 4, so every range of 16 + 4 - 1 points holds a failed one
    pts = [(i * 100, 0) for i in range(64)]
    pl = scan_arcs(pts, 50, max_arc_points=8)
    arrs = build_fit_index_arrays(pl)
    for k in range(63, 0, -1):
        assert min(k + 1, 8) <= k - arrs.first[k] + 1 <= 16 + 4 - 2


def test_segments_collinear_all_feasible():
    pts = [(i, 0) for i in range(40)]
    pl, arrs = scan_segments(pts, 1)
    assert pl.pairs() == []
    assert arrs.first == [0] * 40


def test_segments_square_wave():
    tol = 10
    pts = []
    for i in range(32):
        pts.append((i * 100, 0 if (i // 4) % 2 == 0 else 4 * tol))
    pl, arrs = scan_segments(pts, tol)
    assert pl.pairs() != []
    tree = HullTree(pts)
    for i, j in pl.pairs():
        assert tree.range_min_width_exceeds(i, j, 2 * tol)
    # the derived bound really limits the DP scan: a window just beyond the
    # first feasible index has hull width above 2*tol
    for k in range(len(pts)):
        f = arrs.first[k]
        if f > 0:
            assert tree.range_min_width_exceeds(f - 1, k, 2 * tol)


def test_segments_releases_the_tree_without_the_cyclic_collector():
    # the scan must leave no reference cycle holding the tree: with the
    # collector off, the tree dies with its last outside reference
    pts = [(i * 100, 0 if (i // 4) % 2 == 0 else 40) for i in range(64)]
    tree = HullTree(pts)
    ref = weakref.ref(tree)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pl, _ = scan_segments(pts, 10, tree)
        del tree
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert pl.pairs() != []
