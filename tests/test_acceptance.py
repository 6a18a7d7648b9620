"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Timing-sensitive bounds are generous but asserted where stated.
"""

import math
import random
import statistics
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from arcline import delaunay
from arcline.annulus import (_bisector_intersection, arc_exists_within_tolerance,
                             min_width_annulus)
from arcline.arcfit import arc_within_tolerance, fit_arc_by_tolerance
from arcline.compress import CompressionParams, compress
from arcline.delaunay import (build_closest, build_farthest,
                              convex_hull_indices)
from arcline.feasibility import InfeasiblePairList, build_fit_index_arrays
from arcline.overlaps import remove_overlaps
from arcline.pipeline import archimedean_spiral, compress_polyline
from arcline.predicates import (circumcircle, dist_sq, incircle,
                                incircle_determinant, invert_point, orientation)
from arcline.radicals import width_compare
from arcline.randomhull import gen_directions_hull, gen_random_walk_hull
from arcline.segments import seg
from arcline.sortedrange import MergeTree

from reference_dp import reference_compress


def report(name, detail=""):
    print(f"PASS {name}" + (f"  ({detail})" if detail else ""))


def test_criterion_01_exact_predicates():
    t0 = time.time()
    rng = random.Random(20260801)
    for _ in range(1_000_000):
        a, b, c, d = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                      for _ in range(4)]
        det = incircle_determinant(a, b, c, d)
        assert (det > 0) - (det < 0) == incircle(a, b, c, d)
    checked = 0
    while checked < 10_000:
        a, b, c, d = [(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(4)]
        if orientation(a, b, c) == 0:
            continue
        o = ((a[0] + b[0] + c[0]) // 3, (a[1] + b[1] + c[1]) // 3)
        if o in (a, b, c, d):
            continue
        circ = circumcircle(a, b, c)
        if dist_sq(circ.center, o) >= circ.radius_sq:
            continue
        inv = [invert_point(p, o) for p in (a, b, c, d)]
        det = incircle_determinant(*inv)
        assert (det > 0) - (det < 0) == -incircle(a, b, c, d)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report("criterion 1: exact predicates",
           f"1e6 incircle + 1e4 inversion-duality checks in {elapsed:.1f}s")


def _brute_circle_check(mesh):
    pts = mesh.points
    sign = 1 if mesh.kind == "closest" else -1
    for t in mesh.triangles():
        for d in mesh.site_indices:
            if d in t:
                continue
            assert sign * incircle(pts[t[0]], pts[t[1]], pts[t[2]], pts[d]) <= 0


def test_criterion_02_delaunay_structure():
    rng = random.Random(2)
    for n in (2, 3, 10, 1000, 100_000):
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, 10**7), rng.randint(0, 10**7)))
        mesh = build_closest(list(pts))
        assert mesh.edge_count() == 3 * (n - 1)
    sizes = []
    for n in (600, 2000):
        pts = set()
        while len(pts) < n:
            pts.add((rng.randint(0, 10**5), rng.randint(0, 10**5)))
        pts = list(pts)
        mc = build_closest(pts)
        _brute_circle_check(mc)
        mf = build_farthest(pts)
        _brute_circle_check(mf)
        sizes.append(n)
    report("criterion 2: Delaunay edge law + circle properties",
           f"edge law to n=1e5; brute-force checks at n={sizes}")


def test_criterion_03_farthest_duality():
    rng = random.Random(3)
    done = 0
    ties_skipped = 0
    while done < 100:
        pts = list({(rng.randint(-1000, 1000), rng.randint(-1000, 1000))
                    for _ in range(rng.randint(8, 90))})
        hull_idx = convex_hull_indices(pts)
        if not 4 <= len(hull_idx) <= 64:
            continue
        hull_pts = [pts[i] for i in hull_idx]
        ox = sum(p[0] for p in hull_pts) // len(hull_pts)
        oy = sum(p[1] for p in hull_pts) // len(hull_pts)
        o = (ox, oy)
        if o in hull_pts:
            continue
        mf = build_farthest(hull_pts)
        inv = [invert_point(p, o) for p in hull_pts]
        mc = build_closest(inv)
        if mf.cocircular_ties or mc.cocircular_ties:
            ties_skipped += 1
            continue
        of = (Fraction(o[0]), Fraction(o[1]))
        kept = {tuple(sorted(t)) for t in mc.triangles()
                if incircle(inv[t[0]], inv[t[1]], inv[t[2]], of) > 0}
        assert mf.triangle_set() == kept
        done += 1
    report("criterion 3: farthest==inverted-closest duality",
           f"100 hulls verified, {ties_skipped} cocircular-tie cases skipped")


def _combinatorial_oracle(pts):
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
            best = (hi, lo)
    return best


def test_criterion_04_annulus_oracle():
    rng = random.Random(4)
    done = 0
    while done < 500:
        n = rng.randint(3, 10)
        pts = list({(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(n)})
        if len(pts) < 3:
            continue
        res = min_width_annulus(pts)
        hi, lo = _combinatorial_oracle(pts)
        assert width_compare(res.r_outer_sq, res.r_inner_sq, hi, lo) == 0
        done += 1
    # decision agreement: the fast accept/reject paths against the exact
    # pipeline decision, spot-checked against the combinatorial oracle where
    # the O(n^4) enumeration stays affordable
    done = 0
    while done < 100:
        n = rng.randint(6, 200)
        pts = list({(rng.randint(-3000, 3000), rng.randint(-3000, 3000))
                    for _ in range(n)})
        if len(pts) < 4:
            continue
        exact = min_width_annulus(pts)
        w = exact.width
        for tol in (w / 2 * 0.75 + 1e-9, w / 2 * 1.25 + 1e-9):
            assert arc_exists_within_tolerance(pts, tol) == exact.feasible_for(tol)
        if len(pts) <= 24:
            hi, lo = _combinatorial_oracle(pts)
            assert width_compare(exact.r_outer_sq, exact.r_inner_sq, hi, lo) == 0
        done += 1
    report("criterion 4: annulus oracle equivalence",
           "500 exact-width matches (n<=10); 100 decision matches (n<=200)")


def test_criterion_05_arc_tolerance_fitting():
    rng = random.Random(5)
    done = 0
    while done < 500:
        r = rng.uniform(10, 80)
        t0 = rng.uniform(0, 5)
        noise = rng.uniform(0, 2.0)
        n = rng.randint(5, 14)
        pts = [(r * math.cos(t0 + 0.2 * k) + rng.gauss(0, noise),
                r * math.sin(t0 + 0.2 * k) + rng.gauss(0, noise)) for k in range(n)]
        tol = rng.uniform(0.3, 3)
        a, b = pts[0], pts[-1]
        arc = fit_arc_by_tolerance(pts, tol=tol)

        # dense sampling oracle along the bisector (refined near crossings)
        mid = np.array([(a[0] + b[0]) / 2, (a[1] + b[1]) / 2])
        d = np.array([b[0] - a[0], b[1] - a[1]])
        ln = float(np.hypot(*d))
        u = np.array([-d[1], d[0]]) / ln
        P = np.array(pts)

        def max_dev(svals):
            centers = mid[None, :] + svals[:, None] * u[None, :]
            radii = np.hypot(ln / 2, svals)
            dist = np.hypot(P[None, :, 0] - centers[:, None, 0],
                            P[None, :, 1] - centers[:, None, 1])
            return np.abs(dist - radii[:, None]).max(axis=1)

        span = 50 * r
        s = np.linspace(-span, span, 10_001)
        dev = max_dev(s)
        feas_idx = np.nonzero(dev <= tol)[0]
        oracle_feasible = feas_idx.size > 0
        if not oracle_feasible:
            # refine around near-misses before trusting the negative
            near = np.nonzero(dev <= tol * 1.5)[0]
            for i in near[:20]:
                fine = np.linspace(s[max(0, i - 1)], s[min(len(s) - 1, i + 1)], 200)
                if max_dev(fine).min() <= tol:
                    oracle_feasible = True
                    break
        if arc is not None:
            assert arc_within_tolerance(arc, pts, tol * (1 + 1e-9), check_span=False)
        else:
            assert not oracle_feasible
        done += 1
    # the scale `compress_polyline` works at (`_grid_window`), judged on a
    # logarithmic grid of centres out to 1e6 chord lengths
    accepted = 0
    for _ in range(200):
        pts, tol = _grid_window(rng)
        ln = math.dist(pts[0], pts[-1])
        reach = ln * 10 ** np.linspace(-3, 6, 2000)
        dev = _grid_max_dev(pts, np.concatenate([-reach[::-1], [0.0], reach]))
        arc = fit_arc_by_tolerance(pts, tol=tol)
        if arc is not None:
            assert arc_within_tolerance(arc, pts, tol * (1 + 1e-9), check_span=False)
            accepted += 1
        else:
            assert not (dev <= tol * (1 - 1e-9)).any(), (pts, tol)
    assert 20 <= accepted <= 180
    report("criterion 5: arc tolerance fitting",
           "500 instances and 200 at grid scale: feasibility matches the "
           "sampling oracle; every returned arc within tolerance")


def _grid_window(rng):
    """A window at the scale `compress_polyline` hands the fit: integer
    points within +-2**18 scattered about a bulge of about tol, and tol in
    [1024, 2048) set so that the middle point lies at a normal offset of
    tol*(1 +- delta) from the chord, delta from 1e-4 down to 1e-8."""
    while True:
        n = rng.randint(5, 14)
        a = (rng.randint(-2 ** 17, 2 ** 17), rng.randint(-2 ** 17, 2 ** 17))
        reach = 2 ** rng.uniform(11, 17)
        turn = rng.uniform(0, 2 * math.pi)
        b = (round(a[0] + reach * math.cos(turn)), round(a[1] + reach * math.sin(turn)))
        ln = math.dist(a, b)
        ux, uy = (a[1] - b[1]) / ln, (b[0] - a[0]) / ln
        sag = rng.uniform(1100, 1900) * rng.choice((-1, 1))
        noise = rng.choice((0.0, 0.5, 1.0, 2.0)) * abs(sag)
        mid = (n - 1) // 2
        pts = [a]
        for k in range(1, n - 1):
            t = k / (n - 1)
            off = 4 * sag * t * (1 - t) + (0 if k == mid else rng.uniform(-noise, noise))
            pts.append((round(a[0] + t * (b[0] - a[0]) + off * ux),
                        round(a[1] + t * (b[1] - a[1]) + off * uy)))
        pts.append(b)
        e = (pts[mid][0] - (a[0] + b[0]) / 2) * ux + (pts[mid][1] - (a[1] + b[1]) / 2) * uy
        tol = abs(e) / (1 + rng.choice((-1, 1)) * 10.0 ** -rng.choice((4, 6, 8)))
        if 1024 <= tol < 2048 and len(set(pts)) == n:
            return pts, tol


def _grid_max_dev(pts, svals):
    """Largest distance of the points from the arc through the first and
    last one, per bisector parameter in svals, as |d^2 - r^2| / (d + r):
    d^2 - r^2 = (p - a).(p - b) - 2*s*(p - a).u has no cancellation at
    large s, where d - r loses about log10(s / tol) digits."""
    a, b = np.array(pts[0], float), np.array(pts[-1], float)
    P = np.array(pts, float)
    ln = math.dist(pts[0], pts[-1])
    u = np.array([a[1] - b[1], b[0] - a[0]]) / ln
    c = (a + b)[None, :] / 2 + svals[:, None] * u[None, :]
    pa = P - a
    num = (pa * (P - b)).sum(axis=1)[None, :] - 2 * svals[:, None] * (pa @ u)[None, :]
    d = np.hypot(P[None, :, 0] - c[:, None, 0], P[None, :, 1] - c[:, None, 1])
    r = np.hypot(ln / 2, svals)[:, None]
    return (np.abs(num) / (d + r)).max(axis=1)


def test_criterion_06_feasibility_tables():
    pairs = [(10, 17), (12, 19), (14, 21), (26, 33), (28, 35), (30, 37),
             (42, 49), (44, 51), (46, 53)]
    pl = InfeasiblePairList.from_pairs(pairs, 65)
    arrs = build_fit_index_arrays(pl)
    first = ([0] * 17 + [11, 11, 13, 13] + [15] * 12 + [27, 27, 29, 29]
             + [31] * 12 + [43, 43, 45, 45] + [47] * 12)
    assert arrs.first == first
    assert arrs.first[17] == 11
    rng = random.Random(6)
    ps = pl.pairs()
    for _ in range(10_000):
        i = rng.randint(0, 64)
        j = rng.randint(i, 64)
        assert pl.contains_infeasible(i, j) == any(i <= x and y <= j for x, y in ps)
    report("criterion 6: feasibility index arrays",
           "65-entry first array exact; 1e4 containment queries")


def test_criterion_07_dp_optimality():
    rng = random.Random(7)
    evals_saved = 0
    for trial in range(300):
        n = rng.randint(2, 24)
        style = trial % 3
        if style == 0:
            pts = [(rng.randint(0, 400), rng.randint(0, 400)) for _ in range(n)]
        elif style == 1:
            pts = [(0, 0)]
            for _ in range(n - 1):
                pts.append((pts[-1][0] + rng.randint(5, 60),
                            pts[-1][1] + rng.randint(-30, 30)))
        else:
            r = rng.randint(100, 800)
            a0 = rng.uniform(0, 6)
            pts = [(round(r * math.cos(a0 + 0.2 * i)) + rng.randint(-3, 3),
                    round(r * math.sin(a0 + 0.2 * i)) + rng.randint(-3, 3))
                   for i in range(n)]
        tol = rng.choice([3, 10, 40])
        got = compress(pts, CompressionParams(tolerance=tol))
        want_total, _, want_evals = reference_compress(pts, tol)
        assert got.total[0] == want_total[0]
        assert abs(got.total[1] - want_total[1]) <= 1e-9 * max(1.0, abs(want_total[1]))
        got_evals = got.stats["segment_evaluations"] + got.stats["arc_evaluations"]
        assert got_evals <= want_evals
        evals_saved += want_evals - got_evals
    report("criterion 7: DP optimality vs unpruned reference",
           f"300 instances equal; pruning saved {evals_saved} evaluations")


def assert_within_tolerance(result, tol):
    """Every vertex of a `compress` result lies within tol of the segment or
    arc that covers it."""
    gp = result.points
    for prim in result.primitives:
        for i in range(prim.start_idx, prim.end_idx + 1):
            p = gp[i]
            if prim.kind == "segment":
                a, b = gp[prim.start_idx], gp[prim.end_idx]
                dx, dy = b[0] - a[0], b[1] - a[1]
                l2 = dx * dx + dy * dy
                t = 0 if l2 == 0 else min(1, max(0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / l2))
                d = math.dist(p, (a[0] + t * dx, a[1] + t * dy))
            else:
                d = abs(math.dist(p, prim.center) - prim.radius)
            assert d <= tol * (1 + 1e-9) + 1e-6


def test_criterion_08_end_to_end_demos():
    t0 = time.time()
    res = compress([(i * 50, 0) for i in range(30)], CompressionParams(tolerance=5))
    assert res.total == (2, 0.0) and len(res.primitives) == 1

    scale = 10 ** 5
    circle = [(round(scale * math.cos(a)), round(scale * math.sin(a)))
              for a in [k * 2 * math.pi / 60 for k in range(40)]]
    res = compress(circle, CompressionParams(tolerance=100))
    assert len(res.primitives) == 1 and res.primitives[0].kind == "arc"
    assert res.total[0] == 3 and res.total[1] < 1e-9 * scale ** 2

    spiral = archimedean_spiral(1.0, 5.0, 0.25)
    out = compress_polyline(spiral, 0.1)
    assert_within_tolerance(out.grid, 0.1 * out.scale)
    assert len(out.primitives) < len(spiral) / 4
    elapsed = time.time() - t0
    assert elapsed < 10
    report("criterion 8: end-to-end demos",
           f"collinear={{2,0}}, circle={{3,~0}}, spiral {len(spiral)} pts -> "
           f"{len(out.primitives)} primitives in {elapsed:.1f}s total")


def test_criterion_09_sorted_range():
    arr = [8, 5, 13, 16, 6, 1, 14, 3, 15, 4, 17, 0, 12, 10, 19, 7, 20, 10, 18, 11, 9]
    t = MergeTree(arr)
    h = t.open_range(1, 18)
    assert [h.pop_min()[0] for _ in range(3)] == [0, 1, 3]
    rng = random.Random(9)
    ranges = 0
    for _ in range(200):
        n = rng.randint(1, 2048)
        vals = [rng.randint(0, 10 ** 6) for _ in range(n)]
        t = MergeTree(vals)
        for _ in range(50):
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            heap = t.open_range(i, j)
            got = []
            while (item := heap.pop_min()) is not None:
                got.append(item[0])
            assert got == sorted(vals[i:j + 1])
            ranges += 1
    assert ranges == 10_000
    report("criterion 9: sorted-range extraction",
           "paper pops 0,1,3; 1e4 random ranges over 200 arrays equal sorted slices")


def test_criterion_10_clipping_and_overlaps():
    # the clipping fixture is the paper-projection case of
    # test_clipping::test_exact_output
    rng = random.Random(10)
    for _ in range(1000):
        base = rng.choice([(1, 0), (0, 1), (1, 1), (3, 2)])
        segs = []
        for _ in range(rng.randint(1, 7)):
            t0, t1 = rng.randint(0, 12), rng.randint(0, 12)
            if t0 == t1:
                continue
            p0 = (base[0] * t0, base[1] * t0)
            p1 = (base[0] * t1, base[1] * t1)
            segs.append(seg(p0, p1, closest={rng.randint(0, 3)}) if rng.random() < 0.5
                        else seg(p0, p1, farthest={rng.randint(0, 3)}))
        out = remove_overlaps(segs)
        again = remove_overlaps(out)
        assert sorted((s.p0, s.p1, tuple(sorted(s.closest)), tuple(sorted(s.farthest)))
                      for s in out) == \
               sorted((s.p0, s.p1, tuple(sorted(s.closest)), tuple(sorted(s.farthest)))
                      for s in again)
        for t2 in range(25):
            q = (Fraction(base[0] * t2, 2), Fraction(base[1] * t2, 2))

            def parity(ss):
                c, f = set(), set()
                for s in ss:
                    lo, hi = min(s.p0, s.p1), max(s.p0, s.p1)
                    on = (lo <= q < hi and
                          (q[1] - s.p0[1]) * (s.p1[0] - s.p0[0])
                          == (q[0] - s.p0[0]) * (s.p1[1] - s.p0[1]))
                    if on:
                        c ^= s.closest
                        f ^= s.farthest
                return frozenset(c), frozenset(f)

            assert parity(segs) == parity(out)
    report("criterion 10: overlap parity",
           "1e3 parity families; idempotent")


def test_criterion_12_random_hulls():
    for n in (55, 2981):
        sizes = [len(gen_random_walk_hull(n, seed).vertices) for seed in range(1000)]
        mean = statistics.mean(sizes)
        expect = 2 * math.log(n)
        assert abs(mean - expect) <= 0.15 * expect
    for n in (3, 16, 256):
        h = gen_directions_hull(n, seed=n + 1)
        vs = h.vertices
        m = len(vs)
        edges = [(vs[(i + 1) % m][0] - vs[i][0], vs[(i + 1) % m][1] - vs[i][1])
                 for i in range(m)]
        assert abs(sum(ex * ex + ey * ey for ex, ey in edges) - 1) < 1e-12
        sx = sum(e[0] for e in edges)
        sy = sum(e[1] for e in edges)
        assert math.hypot(sx, sy) < 1e-10 * n
    report("criterion 12: random hull statistics",
           "walk mean within 15% of 2 ln n at n=55, 2981; direction conditions hold")
