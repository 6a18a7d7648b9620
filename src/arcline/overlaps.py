"""Overlap removal for collinear segments under the XOR rule.

Segments are grouped by the line they lie on, keyed exactly by its slope
and intercept as fractions (by the abscissa for a vertical line).  Within a
group, endpoints act as parity toggles for their index sets along that line:
the output is one segment per maximal interval with a nonempty accumulated
set.  Indices occurring an even number of times cancel, which keeps cell
boundaries meaningful even when Voronoi cells overlap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .segments import IndexedSegment


def _line_key(s: IndexedSegment):
    dx = s.p1[0] - s.p0[0]
    dy = s.p1[1] - s.p0[1]
    if dx == 0:
        return ("v", Fraction(s.p0[0]))
    slope = Fraction(dy) / Fraction(dx)
    intercept = Fraction(s.p0[1]) - slope * Fraction(s.p0[0])
    return (slope, intercept)


def remove_overlaps(segments: Sequence[IndexedSegment]) -> List[IndexedSegment]:
    groups: Dict[Tuple, Dict] = {}
    for s in segments:
        if s.p0 == s.p1:
            continue
        events = groups.setdefault(_line_key(s), {})
        for p in (s.p0, s.p1):
            cur = events.get(p)
            if cur is None:
                events[p] = [s.closest, s.farthest]
            else:
                cur[0] = cur[0] ^ s.closest
                cur[1] = cur[1] ^ s.farthest

    out: List[IndexedSegment] = []
    for events in groups.values():
        pts = sorted(p for p, (c, f) in events.items() if c or f)
        active_c = frozenset()
        active_f = frozenset()
        for i in range(len(pts) - 1):
            c, f = events[pts[i]]
            active_c ^= c
            active_f ^= f
            if active_c or active_f:
                out.append(IndexedSegment(pts[i], pts[i + 1], active_c, active_f))
    return out
