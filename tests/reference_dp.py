"""Unpruned O(N^2) reference dynamic program used as the optimality oracle.

Evaluates every predecessor with direct per-point tolerance scans (no hull
tree, no feasibility tables, no ordered-scan early exit).  Shares only the
arc-fitting routines and the tie conventions with the production path.
"""

from fractions import Fraction

from arcline.compress import _evaluate_arc


def _segment_ok(pts, i, j, tol):
    ax, ay = pts[i]
    bx, by = pts[j]
    dx = bx - ax
    dy = by - ay
    len_sq = dx * dx + dy * dy
    tol_sq = Fraction(tol) ** 2
    if len_sq == 0:
        if any((p[0] - ax) ** 2 + (p[1] - ay) ** 2 > tol_sq for p in pts[i:j + 1]):
            return False
    else:
        for p in pts[i:j + 1]:
            cr = dx * (p[1] - ay) - dy * (p[0] - ax)
            if cr * cr > tol_sq * len_sq:
                return False
    # the positions along the chord never decrease (coincident anchors put
    # every position at 0)
    pos = [(p[0] - ax) * dx + (p[1] - ay) * dy for p in pts[i:j + 1]]
    return all(s <= t for s, t in zip(pos, pos[1:]))


def _segment_sse(pts, i, j):
    ax, ay = pts[i]
    bx, by = pts[j]
    dx = bx - ax
    dy = by - ay
    len_sq = dx * dx + dy * dy
    if len_sq == 0:
        return float(sum((p[0] - ax) ** 2 + (p[1] - ay) ** 2 for p in pts[i:j + 1]))
    total = 0
    for p in pts[i:j + 1]:
        cr = dx * (p[1] - ay) - dy * (p[0] - ax)
        total += cr * cr
    return float(Fraction(total, len_sq))


def _arc_fit(pts, i, j, tol):
    # the arc primitive evaluation is shared with the production path (its
    # own oracles live in the arc-fit tests), but without the DP's blocker
    # cache, so the probe in front of it is checked against the plain fit;
    # this module independently re-implements the scan, the segment checks,
    # and the bookkeeping
    return _evaluate_arc(pts, i, j, float(tol), None)


def reference_compress(pts, tol, p_seg=2, p_arc=3, min_arc_points=4):
    """Exhaustive DP; returns (total_pair, primitive_count, evaluations)."""
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    n = len(pts)
    if n == 1:
        return (0, 0.0), 0, 0
    T = [(0, 0.0)]
    back = [None]
    evals = 0
    for k in range(1, n):
        best = (T[k - 1][0] + p_seg, T[k - 1][1])
        best_back = (k - 1, "segment")
        for kp in range(0, k - 1):
            evals += 1
            if _segment_ok(pts, kp, k, tol):
                cand = (T[kp][0] + p_seg, T[kp][1] + _segment_sse(pts, kp, k))
                if cand < best or (cand == best and best_back[1] == "segment" and kp > best_back[0]):
                    best = cand
                    best_back = (kp, "segment")
        for kp in range(0, k - (min_arc_points - 1) + 1):
            evals += 1
            arc = _arc_fit(pts, kp, k, tol)
            if arc is not None:
                cand = (T[kp][0] + p_arc, T[kp][1] + arc.sse)
                if cand < best or (cand == best and best_back[1] == "arc" and kp > best_back[0]):
                    best = cand
                    best_back = (kp, "arc")
        T.append(best)
        back.append(best_back)
    count = 0
    k = n - 1
    while k > 0:
        count += 1
        k = back[k][0]
    return T[n - 1], count, evals
