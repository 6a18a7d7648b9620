import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcline.clipping import clip_segments_square
from arcline.segments import seg


def endpoints(pieces):
    return {tuple(map(Fraction, p)) for s in pieces for p in (s.p0, s.p1)}


def test_fully_inside_unchanged():
    out = clip_segments_square([seg((0, 1), (1, 0), closest={1})], 3)
    assert len(out) == 1
    assert (out[0].p0, out[0].p1) == ((0, 1), (1, 0))


@pytest.mark.parametrize("p0, p1, want", [
    # the paper's fixture (also criterion 10's): only the inside part stays
    ((0, 1), (4, 9), [((0, 1), (1, 3))]),
    # spans the north and south sides
    ((-4, 9), (2, -9), [((-2, 3), (0, -3))]),
    # misses the square
    ((4, -9), (4, 9), []),
    # runs along a side
    ((3, -5), (3, 5), []),
    # touches a corner only
    ((2, 4), (4, 2), []),
], ids=["paper-projection", "axis-split", "outside", "on-outline", "corner-touch"])
def test_exact_output(p0, p1, want):
    out = clip_segments_square([seg(p0, p1, closest={1, 2})], 3)
    assert [(s.p0, s.p1) for s in out] == want
    for s in out:
        assert s.closest == frozenset({1, 2}) and s.farthest == frozenset()


def test_origin_endpoint():
    out = clip_segments_square([seg((0, 0), (9, 0), closest={1})], 3)
    assert len(out) == 1
    assert (out[0].p0, out[0].p1) == ((0, 0), (Fraction(3), Fraction(0)))


def test_diagonal_segment():
    out = clip_segments_square([seg((-5, -5), (7, 7), closest={1})], 3)
    pts = endpoints(out)
    assert (Fraction(-3), Fraction(-3)) in pts and (Fraction(3), Fraction(3)) in pts


def _collinear(q, p0, p1):
    return (p1[0] - p0[0]) * (q[1] - p0[1]) == (p1[1] - p0[1]) * (q[0] - p0[0])


def _on_one_side(s, h):
    return any(s.p0[axis] == side == s.p1[axis] for axis in (0, 1) for side in (h, -h))


def test_output_collinear_inside_and_off_outline():
    random.seed(30)
    h = 4
    for _ in range(1500):
        p0 = (random.randint(-12, 12), random.randint(-12, 12))
        p1 = (random.randint(-12, 12), random.randint(-12, 12))
        for s in clip_segments_square([seg(p0, p1, farthest={2})], h):
            for p in (s.p0, s.p1):
                assert abs(p[0]) <= h and abs(p[1]) <= h
                assert _collinear(p, p0, p1)
            assert not _on_one_side(s, h)


def test_inside_portion_preserved_exactly():
    # points of the original segment inside the square stay on the output
    random.seed(31)
    h = 5
    for _ in range(300):
        p0 = (random.randint(-15, 15), random.randint(-15, 15))
        p1 = (random.randint(-15, 15), random.randint(-15, 15))
        if p0 == p1:
            continue
        out = clip_segments_square([seg(p0, p1, closest={7})], h)
        for k in range(11):
            t = Fraction(k, 10)
            q = (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))
            if abs(q[0]) < h and abs(q[1]) < h:
                on_out = any(_on_piece(q, s) for s in out)
                assert on_out, (p0, p1, q)


def _on_piece(q, s):
    if not (min(s.p0, s.p1) <= q <= max(s.p0, s.p1)):
        return False
    return (q[1] - s.p0[1]) * (s.p1[0] - s.p0[0]) == (q[0] - s.p0[0]) * (s.p1[1] - s.p0[1])


_coord = st.one_of(st.integers(-12, 12),
                   st.fractions(min_value=-12, max_value=12, max_denominator=7))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(_coord, _coord), st.tuples(_coord, _coord), st.integers(1, 6),
       st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=6))
def test_piece_ends_on_input_or_boundary_and_keeps_every_inside_point(p0, p1, h, ts):
    out = clip_segments_square([seg(p0, p1, closest={3})], h)
    assert len(out) <= 1
    for s in out:
        for p in (s.p0, s.p1):
            assert p in (p0, p1) or max(abs(p[0]), abs(p[1])) == h
            assert _collinear(p, p0, p1) and min(p0, p1) <= p <= max(p0, p1)
    for t in ts + [Fraction(0), Fraction(1)]:
        q = (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))
        if abs(q[0]) < h and abs(q[1]) < h:
            assert out and _on_piece(q, out[0]), (p0, p1, h, q)
