import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arcline.overlaps import remove_overlaps
from arcline.segments import IndexedSegment, seg


def canon(segments):
    return sorted((min(s.p0, s.p1), max(s.p0, s.p1),
                   tuple(sorted(s.closest)), tuple(sorted(s.farthest)))
                  for s in segments)


def test_disjoint_unchanged():
    a = seg((0, 0), (1, 1), closest={1})
    b = seg((5, 5), (7, 9), farthest={2})
    assert canon(remove_overlaps([a, b])) == canon([a, b])


def test_identical_segments_xor_merge():
    out = remove_overlaps([seg((0, 0), (4, 0), closest={1}),
                           seg((0, 0), (4, 0), closest={2})])
    assert len(out) == 1
    assert out[0].closest == frozenset({1, 2})


def test_partial_overlap_split():
    out = remove_overlaps([seg((0, 0), (4, 0), closest={1}),
                           seg((2, 0), (6, 0), closest={2})])
    assert canon(out) == [((0, 0), (2, 0), (1,), ()),
                          ((2, 0), (4, 0), (1, 2), ()),
                          ((4, 0), (6, 0), (2,), ())]


def test_even_coverage_cancels():
    out = remove_overlaps([seg((0, 0), (4, 0), closest={1}),
                           seg((0, 0), (4, 0), closest={1})])
    assert out == []


def test_cross_diagram_merge():
    out = remove_overlaps([seg((0, 0), (4, 0), closest={1}),
                           seg((1, 0), (3, 0), farthest={5})])
    mid = [s for s in out if s.p0 == (1, 0)]
    assert mid and mid[0].closest == frozenset({1}) and mid[0].farthest == frozenset({5})


def _parity_at(segments, q):
    c, f = set(), set()
    for s in segments:
        lo, hi = min(s.p0, s.p1), max(s.p0, s.p1)
        if lo <= q < hi and _collinear(q, s):
            c ^= s.closest
            f ^= s.farthest
    return frozenset(c), frozenset(f)


def _collinear(q, s):
    return (q[1] - s.p0[1]) * (s.p1[0] - s.p0[0]) == (q[0] - s.p0[0]) * (s.p1[1] - s.p0[1])


def test_parity_oracle_random_families():
    random.seed(40)
    for _ in range(300):
        base_dir = random.choice([(1, 0), (0, 1), (1, 1), (2, 1)])
        segs = []
        for _ in range(random.randint(1, 8)):
            t0 = random.randint(0, 10)
            t1 = random.randint(0, 10)
            if t0 == t1:
                continue
            p0 = (base_dir[0] * t0, base_dir[1] * t0)
            p1 = (base_dir[0] * t1, base_dir[1] * t1)
            if random.random() < 0.5:
                segs.append(seg(p0, p1, closest={random.randint(0, 3)}))
            else:
                segs.append(seg(p0, p1, farthest={random.randint(0, 3)}))
        out = remove_overlaps(segs)
        # no two output segments overlap beyond a point
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                a, b = out[i], out[j]
                lo = max(min(a.p0, a.p1), min(b.p0, b.p1))
                hi = min(max(a.p0, a.p1), max(b.p0, b.p1))
                assert not (lo < hi and _collinear(lo, a) and _collinear(lo, b) and _collinear(hi, a))
        # parity preserved at sample midpoints of atomic intervals
        for t in range(21):
            q = (Fraction(base_dir[0] * t, 2), Fraction(base_dir[1] * t, 2))
            assert _parity_at(segs, q) == _parity_at(out, q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2)),
                min_size=1, max_size=8))
def test_idempotent(raw):
    segs = []
    for t0, t1, idx in raw:
        if t0 == t1:
            continue
        segs.append(seg((t0, t0), (t1, t1), closest={idx}))
    once = remove_overlaps(segs)
    twice = remove_overlaps(once)
    assert canon(once) == canon(twice)


def test_rational_endpoints_supported():
    out = remove_overlaps([
        IndexedSegment((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)), frozenset({1}), frozenset()),
        IndexedSegment((Fraction(1, 2), Fraction(0)), (Fraction(3), Fraction(0)), frozenset({2}), frozenset()),
    ])
    assert len(out) == 3
    mid = [s for s in out if s.p0 == (Fraction(1, 2), 0)][0]
    assert mid.closest == frozenset({1, 2})
