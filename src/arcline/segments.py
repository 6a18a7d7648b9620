"""Indexed segments: Voronoi edges prepared for clipping, overlap removal,
and the plane sweep.

A segment carries the site indices of the cells it borders, kept separately
for the two diagrams.  Voronoi edges have two indices in one diagram.
Overlap removal can merge collinear pieces from both diagrams into one
segment that carries indices from each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple


@dataclass(frozen=True)
class IndexedSegment:
    p0: Tuple
    p1: Tuple
    closest: FrozenSet[int] = frozenset()
    farthest: FrozenSet[int] = frozenset()

    def with_endpoints(self, p0, p1) -> "IndexedSegment":
        return IndexedSegment(p0, p1, self.closest, self.farthest)


def seg(p0, p1, closest=(), farthest=()) -> IndexedSegment:
    return IndexedSegment(tuple(p0), tuple(p1), frozenset(closest), frozenset(farthest))
