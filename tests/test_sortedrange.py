import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from arcline.sortedrange import MergeTree

PAPER_ARRAY = [8, 5, 13, 16, 6, 1, 14, 3, 15, 4, 17, 0, 12, 10, 19, 7, 20, 10, 18, 11, 9]


def drain(heap):
    out = []
    while (item := heap.pop_min()) is not None:
        out.append(item)
    return out


def test_paper_fixture_first_pops():
    t = MergeTree(PAPER_ARRAY)
    h = t.open_range(1, 18)  # the example subarray of size 18
    assert [h.pop_min()[0] for _ in range(3)] == [0, 1, 3]


def test_paper_cover_fixture():
    # N = 21, range [3, 17]: blocks {3}, {4..7}, {8..15}, {16, 17}
    runs = MergeTree(PAPER_ARRAY)._cover_runs(3, 17)
    indices = [[idx for _, idx in r] for r in runs]
    assert [(min(r), max(r)) for r in indices] == [(3, 3), (4, 7), (8, 15), (16, 17)]


def test_paper_fixture_full_drain_keeps_duplicates():
    t = MergeTree(PAPER_ARRAY)
    values = [v for v, _ in drain(t.open_range(1, 18))]
    assert values == sorted(PAPER_ARRAY[1:19])
    assert values.count(10) == 2


def test_full_range_equals_sort():
    t = MergeTree(PAPER_ARRAY)
    assert [v for v, _ in drain(t.open_range(0, len(PAPER_ARRAY) - 1))] == sorted(PAPER_ARRAY)


def test_stable_ties_by_index():
    t = MergeTree([5, 3, 5, 3, 5])
    assert drain(t.open_range(0, 4)) == [(3, 1), (3, 3), (5, 0), (5, 2), (5, 4)]


def test_singleton():
    t = MergeTree([42])
    h = t.open_range(0, 0)
    assert h.pop_min() == (42, 0)
    assert h.pop_min() is None


def test_bad_range():
    t = MergeTree([1, 2, 3])
    with pytest.raises(ValueError):
        t.open_range(2, 1)
    with pytest.raises(ValueError):
        t.open_range(0, 3)


def test_random_slices():
    random.seed(100)
    for _ in range(150):
        n = random.randint(1, 400)
        vals = [random.randint(0, 60) for _ in range(n)]
        t = MergeTree(vals)
        for _ in range(20):
            i = random.randint(0, n - 1)
            j = random.randint(i, n - 1)
            assert [v for v, _ in drain(t.open_range(i, j))] == sorted(vals[i:j + 1])


def test_interleaved_append_and_query():
    random.seed(101)
    t = MergeTree()
    vals = []
    for k in range(500):
        v = random.randint(0, 99)
        vals.append(v)
        t.append(v)
        if k % 17 == 0:
            i = random.randint(0, k)
            j = random.randint(i, k)
            assert [v for v, _ in drain(t.open_range(i, j))] == sorted(vals[i:j + 1])


def test_lexicographic_pairs():
    t = MergeTree([(2, 0.5), (1, 9.0), (2, 0.1), (1, 3.0)])
    got = [v for v, _ in drain(t.open_range(0, 3))]
    assert got == [(1, 3.0), (1, 9.0), (2, 0.1), (2, 0.5)]


def test_amortized_heap_ops_linear():
    random.seed(102)
    vals = [random.randint(0, 10 ** 6) for _ in range(2048)]
    t = MergeTree(vals)
    h = t.open_range(3, 2046)
    k = 2044
    drain(h)
    assert h.heap_ops <= 2 * k + 64
    # ascending values come out run by run: the last-run cache pops every
    # item after a run's head without a heap operation
    t = MergeTree(range(2048))
    runs = len(t._cover_runs(3, 2046))
    h = t.open_range(3, 2046)
    assert [v for v, _ in drain(h)] == list(range(3, 2047))
    assert h.heap_ops == runs


def test_range_min_is_the_smallest_item():
    # (int, float) values with ties in both parts; ties go to the lower index
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 300)
        vals = [(rng.randint(0, 5), rng.choice((0.0, 0.5, 1.25, 3.0))) for _ in range(n)]
        t = MergeTree(vals)
        for _ in range(25):
            i = rng.randint(0, n - 1)
            j = rng.randint(i, n - 1)
            assert t.range_min(i, j) == min(zip(vals[i:j + 1], range(i, j + 1)))
    with pytest.raises(ValueError):
        t.range_min(0, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 700).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))))
def test_cover_runs_tile_the_range_with_aligned_blocks(case):
    # the blocks are aligned, disjoint, in order and cover [i, j], with at
    # most two of each size, and each run holds its block's items sorted
    n, i, j = case
    i, j = min(i, j), max(i, j)
    vals = [v * 7919 % 13 for v in range(n)]
    t = MergeTree(vals)
    pos = i
    sizes = Counter()
    for run in t._cover_runs(i, j):
        size = len(run)
        assert size & (size - 1) == 0 and pos % size == 0
        assert run == sorted(zip(vals[pos:pos + size], range(pos, pos + size)))
        sizes[size] += 1
        pos += size
    assert pos == j + 1
    assert max(sizes.values()) <= 2
