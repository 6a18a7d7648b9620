"""Ascending-order extraction from any subarray of a growing array.

Each element is stored once, as the item (value, original index), and
every level of a mergesort over the items is retained: level q holds the
sorted run of each complete block [k*2^q, (k+1)*2^q - 1].  Appending element
N completes one block per trailing zero bit of N+1; each new run is the
two presorted runs below it, concatenated and sorted (the sort finds the
two runs and merges them, in linear time once they pass its minimum run
length), so total merge work stays O(N log N).  `comparisons` counts the
merged items, an upper bound on the comparisons of a plain merge of the two
runs.

A range query decomposes into at most two runs per size class, each block
found in O(1) from its start's lowest set bit and the length left.  The
smallest item of a range is the smallest head of those runs (`range_min`);
a small heap of run cursors pops the whole subarray in sorted order.  The
heap holds O(log K) cursors and consecutive pops usually hit the same run,
which the last-run cache exploits, so extraction of all K elements costs
O(K) comparisons up to a small factor.

Items compare as (value, original index): ties come out in index order,
and no two items are equal.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, List, Optional, Sequence, Tuple

Item = Tuple[Any, int]


class MergeTree:
    def __init__(self, values: Sequence = ()):
        # levels[q][k]: the sorted items of block k at level q
        self.levels: List[List[List[Item]]] = [[]]
        self.comparisons = 0
        for v in values:
            self.append(v)

    def __len__(self) -> int:
        return len(self.levels[0])

    def append(self, value) -> None:
        levels = self.levels
        n = len(levels[0])
        run = [(value, n)]
        levels[0].append(run)
        q = 0
        while n & 1:  # block n of level q completes block n // 2 above it
            run = levels[q][-2] + run
            run.sort()
            self.comparisons += len(run)
            q += 1
            n >>= 1
            if q == len(levels):
                levels.append([])
            levels[q].append(run)

    def _cover_runs(self, i: int, j: int) -> List[List[Item]]:
        """The runs of the largest aligned blocks that tile [i, j], in order."""
        if not 0 <= i <= j < len(self):
            raise ValueError("bad range")
        runs = []
        levels = self.levels
        pos = i
        while pos <= j:
            size = pos & -pos  # the largest block aligned at pos; 0 at pos 0
            left = j + 1 - pos
            if not size or size > left:
                size = 1 << (left.bit_length() - 1)
            q = size.bit_length() - 1
            runs.append(levels[q][pos >> q])
            pos += size
        return runs

    def range_min(self, i: int, j: int) -> Item:
        """The smallest item of the subarray [i, j]."""
        return min(run[0] for run in self._cover_runs(i, j))

    def open_range(self, i: int, j: int) -> "RangeHeap":
        return RangeHeap(self._cover_runs(i, j))


class RangeHeap:
    """Pops the (value, original_index) items of sorted runs, such as the
    runs that tile a subarray, in ascending order."""

    def __init__(self, runs: List[List[Item]]):
        # (head item, index of the next item, run); items are unique, so the
        # rest of an entry is never compared
        self.heap = [(run[0], 1, run) for run in runs]
        heapify(self.heap)
        self.run: Optional[List[Item]] = None  # the run of the previous pop
        self.pos = 0  # the index of its next item
        self.heap_ops = 0

    def pop_min(self) -> Optional[Item]:
        heap = self.heap
        # Invariant: every unexhausted run has its head in the heap, except
        # the cached run that produced the previous minimum.
        run = self.run
        if run is not None:
            pos = self.pos
            if pos < len(run):
                item = run[pos]
                if not heap or item <= heap[0][0]:
                    self.pos = pos + 1
                    return item
                # miss: demote the cache into the heap and fall through
                heappush(heap, (item, pos + 1, run))
                self.heap_ops += 1
            self.run = None
        if not heap:
            return None
        item, self.pos, self.run = heappop(heap)
        self.heap_ops += 1
        return item
