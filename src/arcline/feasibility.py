"""Dyadic feasibility scan: which polyline ranges can one arc (or segment)
possibly cover within tolerance.

Windows [i*, i* + 4*2^q - 1] are tested at every scale q; a failed window
forbids every range containing it, because a range that cannot be covered
poisons all its supersets.  The result is a sorted list of minimal failed
pairs, turned into the per-index earliest feasible start that the dynamic
program uses to prune its candidate scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .arcfit import arc_exists_within_tolerance
from .hulltree import HullTree


@dataclass
class InfeasiblePairList:
    """Minimal infeasible ranges plus front/back sentinels.

    a[k] < a[k+1] and b[k] < b[k+1]; no pair nests inside another.
    """

    a: List[int]
    b: List[int]
    n: int

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]], n: int) -> "InfeasiblePairList":
        filtered: List[Tuple[int, int]] = []
        for i, j in sorted(pairs):
            # every kept pair starts at or before i
            while filtered and j <= filtered[-1][1]:
                filtered.pop()  # drop a dominated superset
            if not filtered or filtered[-1][0] < i:  # else it nests one (i, b), b < j
                filtered.append((i, j))
        a = [-1] + [p[0] for p in filtered] + [n - 1]
        b = [0] + [p[1] for p in filtered] + [n]
        return cls(a, b, n)

    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self.a[1:-1], self.b[1:-1]))

@dataclass
class FitIndexArrays:
    first: List[int]  # per end index: earliest start that may be feasible


def build_fit_index_arrays(pairs: InfeasiblePairList, n: Optional[int] = None) -> FitIndexArrays:
    """Linear-time expansion of the pair list into per-index bounds.

    first[j] = a[(smallest q with j < b[q]) - 1] + 1
    """
    if n is None:
        n = pairs.n
    a, b = pairs.a, pairs.b
    first = [0] * n
    q = 0
    for j in range(n):
        while b[q] <= j:
            q += 1
        first[j] = a[q - 1] + 1
    return FitIndexArrays(first)


def _dyadic_scan(n: int, window_feasible: Callable[[int, int], bool]) -> List[Tuple[int, int]]:
    """The Test recursion: windows of 4*2^q vertices stepping by 2^q."""
    reported: List[Tuple[int, int]] = []
    _test_part(0, 0, n, window_feasible, reported)
    return reported


def _test_part(q: int, i: int, j: int, window_feasible: Callable[[int, int], bool],
               reported: List[Tuple[int, int]]) -> None:
    """Scale q of the Test recursion on [i, j], appending failed windows to
    reported.  A module-level function rather than a closure: a recursive
    closure refers to itself, a reference cycle that would keep
    window_feasible, and whatever it holds, alive until the cyclic garbage
    collector runs."""
    size = 4 << q
    if j < i + size:
        return
    i_star = i
    while i_star + size <= j:
        j_star = i_star + size - 1
        if not window_feasible(i_star, j_star):
            _test_part(q + 1, i, j_star, window_feasible, reported)
            reported.append((i_star, j_star))
            i = i_star + (1 << q)
        i_star += 1 << q
    _test_part(q + 1, i, j, window_feasible, reported)


def test_arcs(polyline: Sequence[Tuple[int, int]], tol,
              max_arc_points: int = 0) -> InfeasiblePairList:
    """Ranges that certainly no arc can cover within tol, whatever its
    radius, and that no arc the DP accepts covers either: a window is
    reported when no circle through its last vertex is within twice the
    fit check's limit of the anchored cut's sample of it
    (`arcfit.arc_exists_within_tolerance`).  A range that cannot be settled
    is not reported, so the pairs are a sound bound for the DP.

    max_arc_points > 0 additionally fails every window longer than that cap,
    which bounds how far back the DP ever scans for an arc.
    """
    n = len(polyline)

    def feasible(i: int, j: int) -> bool:
        if max_arc_points and j - i + 1 > max_arc_points:
            return False
        return arc_exists_within_tolerance(polyline[i:j + 1], tol)

    return InfeasiblePairList.from_pairs(_dyadic_scan(n, feasible), n)


def test_segments(polyline: Sequence[Tuple[int, int]], tol,
                  tree: Optional[HullTree] = None) -> Tuple[InfeasiblePairList, FitIndexArrays]:
    """Ranges whose convex hull is wider than 2*tol cannot sit in any
    segment's tolerance strip; same dyadic schedule as the arc test."""
    n = len(polyline)
    if tree is None:
        tree = HullTree(polyline)

    def feasible(i: int, j: int) -> bool:
        return not tree.range_min_width_exceeds(i, j, 2 * tol)

    pairs = InfeasiblePairList.from_pairs(_dyadic_scan(n, feasible), n)
    return pairs, build_fit_index_arrays(pairs, n)

