import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arcline.predicates import dist_sq, incircle, orientation

from oracles import circumcircle, incircle_determinant, incircle_farthest, invert_point

coord = st.integers(min_value=-1000, max_value=1000)


def test_orientation_examples():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0
    assert orientation((0, 0), (0, 1), (1, 0)) == -1


def test_incircle_examples():
    a, b, c = (1, 0), (0, 1), (-1, 0)
    assert incircle(a, b, c, (0, -1)) == 0
    assert incircle(a, b, c, (0, 0)) == 1
    assert incircle(a, b, c, (2, 0)) == -1


def test_incircle_farthest_negates():
    a, b, c = (1, 0), (0, 1), (-1, 0)
    assert incircle_farthest(a, b, c, (0, 0)) == -1
    assert incircle_farthest(a, b, c, (0, -1)) == 0
    rng = random.Random(1)
    for _ in range(200):
        pts = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(4)]
        assert incircle_farthest(*pts) == -incircle(*pts)


@settings(derandomize=True)
@given(st.tuples(coord, coord), st.tuples(coord, coord),
       st.tuples(coord, coord), st.tuples(coord, coord))
def test_incircle_antisymmetric_and_matches_determinant(a, b, c, d):
    v = incircle(a, b, c, d)
    assert incircle(b, a, c, d) == -v
    assert incircle(a, c, b, d) == -v
    det = incircle_determinant(a, b, c, d)
    assert (det > 0) - (det < 0) == v


def test_incircle_zero_when_query_is_vertex():
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(3)]
        for d in (a, b, c):
            assert incircle(a, b, c, d) == 0


def test_invert_point():
    assert invert_point((1, 0), (0, 0)) == (1, 0)
    assert invert_point((2, 0), (0, 0)) == (Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        invert_point((3, 4), (3, 4))
    rng = random.Random(3)
    for _ in range(100):
        p = (rng.randint(-40, 40), rng.randint(-40, 40))
        o = (rng.randint(-40, 40), rng.randint(-40, 40))
        if p == o:
            continue
        q = invert_point(invert_point(p, o), o)
        assert q == (Fraction(p[0]), Fraction(p[1]))


def test_circumcircle():
    c = circumcircle((1, 0), (0, 1), (-1, 0))
    assert c.center == (0, 0) and c.radius_sq == 1
    c = circumcircle((0, 0), (2, 0), (0, 2))
    assert c.center == (1, 1) and c.radius_sq == 2
    with pytest.raises(ValueError):
        circumcircle((0, 0), (1, 0), (2, 0))
    rng = random.Random(4)
    for _ in range(100):
        a, b, cc = [(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(3)]
        if orientation(a, b, cc) == 0:
            continue
        circ = circumcircle(a, b, cc)
        assert dist_sq(circ.center, a) == dist_sq(circ.center, b) == dist_sq(circ.center, cc) == circ.radius_sq


def test_inversion_duality_sign():
    # sign of the inverted-coordinates determinant equals the negated
    # original incircle sign whenever the center lies strictly inside
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        a, b, c, d, o = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(5)]
        if orientation(a, b, c) == 0 or o in (a, b, c, d):
            continue
        try:
            circ = circumcircle(a, b, c)
        except ValueError:
            continue
        if dist_sq(circ.center, o) >= circ.radius_sq:
            continue
        inv = [invert_point(p, o) for p in (a, b, c, d)]
        det = incircle_determinant(*inv)
        want = -incircle(a, b, c, d)
        assert (det > 0) - (det < 0) == want
        checked += 1
