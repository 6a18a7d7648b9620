"""Overlap removal for collinear segments under the XOR rule.

Segments are grouped by the line they lie on, keyed exactly by the
integer coefficients of its equation in lowest terms.  Within a group,
endpoints, sorted along the line (by their floats first, exactly on float
ties), act as parity toggles for their index sets: the output is one
segment per maximal interval with a nonempty accumulated set.  Indices
occurring an even number of times cancel, which keeps cell boundaries
meaningful even when Voronoi cells overlap.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .predicates import common_denominator, point_key
from .segments import IndexedSegment


def _line_key(s: IndexedSegment) -> Tuple[int, int, int]:
    """The line through s as integers (A, B, C) with A*x + B*y = C, divided
    by their gcd and signed so that the first nonzero of A, B is positive:
    one key per line."""
    d, (X0, Y0, X1, Y1) = common_denominator([*s.p0, *s.p1])
    a = Y1 - Y0
    b = X0 - X1
    # a*X + b*Y = a*X0 + b*Y0 on the points scaled by d
    c = a * X0 + b * Y0
    g = math.gcd(a * d, b * d, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return (a * d // g, b * d // g, c // g)


def remove_overlaps(segments: Sequence[IndexedSegment]) -> List[IndexedSegment]:
    groups: Dict[Tuple, List[IndexedSegment]] = {}
    for s in segments:
        if s.p0 == s.p1:
            continue
        groups.setdefault(_line_key(s), []).append(s)

    out: List[IndexedSegment] = []
    for group in groups.values():
        ends = sorted(([point_key(p), s.closest, s.farthest] for s in group for p in (s.p0, s.p1)),
                      key=itemgetter(0))
        # coincident endpoints are adjacent now; their index sets merge
        events: List[List] = []
        for e in ends:
            if events and events[-1][0] == e[0]:
                events[-1][1] ^= e[1]
                events[-1][2] ^= e[2]
            else:
                events.append(e)
        events = [e for e in events if e[1] or e[2]]
        active_c = frozenset()
        active_f = frozenset()
        for (k, c, f), (k1, _, _) in zip(events, events[1:]):
            active_c ^= c
            active_f ^= f
            if active_c or active_f:
                out.append(IndexedSegment(k[1], k1[1], active_c, active_f))
    return out
