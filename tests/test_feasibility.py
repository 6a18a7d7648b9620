import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arcline.arcfit import arc_exists_within_tolerance
from arcline.compress import _evaluate_arc
from arcline.feasibility import (SEGMENT_IN, SEGMENT_OUT, SEGMENT_UNSURE, InfeasiblePairList,
                                 _dyadic_scan, build_fit_index_arrays)
from arcline.feasibility import test_arcs as scan_arcs
from arcline.feasibility import test_segments as scan_segments

from oracles import contains_infeasible
from reference_dp import _segment_ok

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
    assert contains_infeasible(pl, 10, 17)
    assert not contains_infeasible(pl, 0, 16)
    assert contains_infeasible(pl, 9, 20)
    assert not contains_infeasible(pl, 11, 17)


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
            assert contains_infeasible(pl, i, j) == any(i <= x and y <= j for x, y in ps)


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


def _dp_arcs(pts, tol):
    """Every range (kp, k) of at least 4 points that the DP's own arc fit,
    without a blocker cache, covers with an arc."""
    return [(kp, k) for kp in range(len(pts)) for k in range(kp + 3, len(pts))
            if _evaluate_arc(pts, kp, k, tol) is not None]


def test_reported_windows_are_infeasible_and_bounds_sound():
    random.seed(91)
    scale = 1000
    for _ in range(6):
        # zig-zag with amplitude far above the tolerance
        n = random.randint(16, 40)
        pts = [(i * scale, (i % 2) * 8 * scale + random.randint(-50, 50)) for i in range(n)]
        tol = scale // 2
        pl = scan_arcs(pts, tol)
        assert pl.pairs()
        arcs = _dp_arcs(pts, tol)
        for i, j in pl.pairs():
            assert not any(kp <= i and j <= k for kp, k in arcs), (i, j)
        arrs = build_fit_index_arrays(pl)
        for k in range(n):
            assert not any(kp < arrs.first[k] for kp, end in arcs if end == k), k


def test_rejected_windows_hold_no_dp_arc():
    # the pruning argument against the DP itself: no arc that the DP's fit
    # accepts covers a range containing a window the test rejects, or starts
    # below the bound the scan's table gives its end
    rng = random.Random(92)
    rejected = covered = 0
    for case in range(60):
        n = rng.randint(8, 20)
        if case % 2:
            x = y = 0
            pts = []
            for _ in range(n):
                x += rng.randint(-20, 20)
                y += rng.randint(-20, 20)
                pts.append((x, y))
        else:
            r = rng.uniform(20, 500)
            t0, sweep = rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 5.0)
            noise = rng.choice((0, 1, 3))
            pts = [(round(r * math.cos(t0 + sweep * i / n)) + rng.randint(-noise, noise),
                    round(r * math.sin(t0 + sweep * i / n)) + rng.randint(-noise, noise))
                   for i in range(n)]
        pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
        tol = rng.choice((0.5, 1.0, 2.0, 4.0, 8.0))
        arcs = _dp_arcs(pts, tol)
        covered += len(arcs)
        first = build_fit_index_arrays(scan_arcs(pts, tol)).first
        assert not any(kp < first[k] for kp, k in arcs), (pts, tol)
        for i in range(len(pts)):
            for j in range(i + 3, len(pts)):
                if arc_exists_within_tolerance(pts[i:j + 1], tol):
                    continue
                rejected += 1
                assert not any(kp <= i and j <= k for kp, k in arcs), (pts, tol, i, j)
    assert rejected > 1000 and covered > 1000


def test_window_past_the_float_range_cannot_be_told():
    assert arc_exists_within_tolerance([(0, 0), (10 ** 200, 1), (2 * 10 ** 200, 5),
                                        (3 * 10 ** 200, 0)], 1)
    zigzag = [(0, 0), (10, 10), (20, 0), (30, 10), (40, 0)]
    assert not arc_exists_within_tolerance(zigzag, 1)
    for tol in (Fraction(1, 10 ** 400), 10 ** 400, math.inf):
        assert arc_exists_within_tolerance(zigzag, tol)


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


def _check_verdicts(pts, tol):
    """Every certain verdict of the cone walk agrees with the independent
    `_segment_ok`, and no feasible chord starts below first[k]; returns the
    verdicts."""
    got = scan_segments(pts, tol)
    assert len(got.first) == len(got.verdicts) == len(pts)
    for k in range(2, len(pts)):
        assert len(got.verdicts[k]) == k - 1 - got.first[k]
        for kp in range(k - 1):
            ok = _segment_ok(pts, kp, k, tol)
            if kp < got.first[k]:
                assert not ok, (pts, tol, kp, k, got.first[k])
                continue
            verdict = got.verdict(kp, k)
            assert verdict in (SEGMENT_IN, SEGMENT_OUT, SEGMENT_UNSURE)
            if verdict != SEGMENT_UNSURE:
                assert ok == (verdict == SEGMENT_IN), (pts, tol, kp, k, verdict)
    return got


def test_segments_collinear_all_feasible():
    pts = [(i, 0) for i in range(40)]
    got = _check_verdicts(pts, 1)
    assert got.first == [0] * 40
    assert all(set(v) == {SEGMENT_IN} for v in got.verdicts[2:])


def test_segments_square_wave():
    tol = 10
    pts = []
    for i in range(32):
        pts.append((i * 100, 0 if (i // 4) % 2 == 0 else 4 * tol))
    got = _check_verdicts(pts, tol)
    # the walk really limits the DP scan: a chord from just below first[k]
    # is infeasible, and no verdict is left unsure
    assert any(f > 0 for f in got.first)
    for k in range(2, len(pts)):
        f = got.first[k]
        if f > 0:
            assert not _segment_ok(pts, f - 1, k, tol)
        assert SEGMENT_UNSURE not in got.verdicts[k]


def test_segments_noisy_run_all_certain():
    # a noisy straight run, the walk's main customer: with a tolerance that
    # no integer distance ties, every chord is decided without the exact
    # checks
    rng = random.Random(93)
    pts = [(10 * i, rng.randint(-3, 3)) for i in range(120)]
    got = _check_verdicts(pts, 4.7)
    assert all(SEGMENT_UNSURE not in v for v in got.verdicts)
    assert max(k - f for k, f in enumerate(got.first)) > 30


def test_segment_verdicts_on_exact_ties():
    # noisy runs with integer noise and tolerance put many vertices exactly
    # tol off a chord, where only the margins keep the floats from deciding
    # the wrong way
    rng = random.Random(94)
    for _ in range(300):
        dx, dy = rng.choice([(1, 0), (3, 1), (2, -5), (1, 1)])
        along = 0
        pts = []
        for _ in range(rng.randint(8, 20)):
            along += rng.randint(1, 6)
            pts.append((along * dx, along * dy + rng.randint(-2, 2)))
        _check_verdicts(pts, rng.choice([1, 2]))


@st.composite
def _walk_polylines(draw):
    """At most 25 integer vertices from random walks, noisy straight runs,
    revisits (coincident anchors), backtracking and collinear runs, the
    whole moved by up to 2^52, sometimes after a first vertex 2^52 away
    (the positions along a chord from it are then too large for floats to
    tell the short edges' steps apart); consecutive duplicates collapsed as
    the DP does."""
    kind = draw(st.sampled_from(["walk", "noisy", "revisit", "back", "collinear"]))
    size = draw(st.integers(3, 24))
    pts = [(draw(st.integers(-60, 60)), draw(st.integers(-60, 60)))]
    dx, dy = draw(st.sampled_from([(1, 0), (3, 1), (2, -5), (7, 7)]))
    along = 0  # steps of (dx, dy) taken by the noisy run
    while len(pts) < size:
        x, y = pts[-1]
        if kind == "noisy":  # about the line from pts[0], noise up to 3
            along += draw(st.integers(1, 10))
            pts.append((pts[0][0] + along * dx, pts[0][1] + along * dy + draw(st.integers(-3, 3))))
        elif kind == "collinear":
            step = draw(st.sampled_from([1, 1, 2, -1]))
            pts.append((x + step * dx, y + step * dy))
        elif kind == "revisit" and draw(st.booleans()):
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "back" and len(pts) > 1 and draw(st.booleans()):
            px, py = pts[-2]
            pts.append((x + (px - x) * draw(st.integers(1, 2)), y + (py - y) * draw(st.integers(1, 2))))
        else:
            pts.append((x + draw(st.integers(-12, 12)), y + draw(st.integers(-12, 12))))
    if draw(st.integers(0, 4)) == 0:
        pts.insert(0, (pts[0][0] + 2 ** 52, pts[0][1]))
    shift = draw(st.sampled_from([0, 0, 2 ** 40, 2 ** 52, -2 ** 52]))
    shift_y = draw(st.sampled_from([0, shift, -shift]))
    pts = [(x + shift, y + shift_y) for x, y in pts]
    return [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_walk_polylines(), st.sampled_from([0.5, 1, 2, 3.3, 5, 10, 25]))
def test_segment_verdicts_match_the_oracle(pts, tol):
    _check_verdicts(pts, tol)
