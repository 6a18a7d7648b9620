"""`clipping.clip_ray`: Voronoi rays and full lines cut at the square from
their origin and direction.  The oracle is the earlier construction: the ray
stretched four half sides out to a far tip and that segment clipped."""

import random
from fractions import Fraction

from arcline.clipping import clip_ray, clip_segments_square
from arcline.segments import seg


def _stretched(p0, d, h, double):
    """The ray as the long segment the annulus used to build: from p0 (or
    from as far back, for a full line) to a tip well outside the square."""
    m = max(abs(d[0]), abs(d[1]))
    reach = 4 * h + int(abs(p0[0])) + int(abs(p0[1])) + 2
    t = Fraction(reach, m)
    tip = (p0[0] + t * d[0], p0[1] + t * d[1])
    tail = (p0[0] - t * d[0], p0[1] - t * d[1]) if double else p0
    return seg(tail, tip)


def _random_ray(rng):
    h = rng.randint(1, 40)
    den = rng.choice((1, 1, 2, 3, 7))
    p0 = tuple(Fraction(rng.randint(-3 * h * den, 3 * h * den), den) for _ in range(2))
    d = (0, 0)
    while d == (0, 0):
        d = tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(2))
    return p0, d, h, rng.random() < 0.3


def _boundary_rays(h):
    """Rays along the outline, through the corners and grazing them."""
    for p0, d in (((h, -h), (0, 1)), ((-h, h), (1, 0)), ((h, h), (1, 1)), ((2 * h, 0), (-1, 1)),
                  ((0, 2 * h), (1, -1)), ((-h, 0), (-1, 0)), ((0, 0), (3, 3))):
        for double in (False, True):
            yield tuple(map(Fraction, p0)), d, h, double


def _on_outline(p, h):
    return max(abs(p[0]), abs(p[1])) == h


def _check(p0, d, h, double):
    piece = clip_ray(p0, d, h, double)
    want = clip_segments_square([_stretched(p0, d, h, double)], h)
    got = clip_segments_square([seg(*piece)], h) if piece is not None else []
    assert got == want, (p0, d, h, double)
    if piece is None:
        return False
    a, b = piece
    assert _on_outline(b, h)
    assert a == p0 if (not double and max(abs(p0[0]), abs(p0[1])) <= h) else _on_outline(a, h)
    for q in piece:  # on the ray, in its order
        t = (q[0] - p0[0]) / d[0] if d[0] else (q[1] - p0[1]) / d[1]
        assert (q[0] - p0[0], q[1] - p0[1]) == (t * d[0], t * d[1])
        assert double or t >= 0
    ta = (a[0] - p0[0]) * d[0] + (a[1] - p0[1]) * d[1]
    tb = (b[0] - p0[0]) * d[0] + (b[1] - p0[1]) * d[1]
    assert ta <= tb
    return True


def test_pieces_end_on_the_outline_and_match_the_stretched_clip():
    rng = random.Random(137)
    hits = misses = 0
    for _ in range(3000):
        if _check(*_random_ray(rng)):
            hits += 1
        else:
            misses += 1
    assert hits > 500 and misses > 500


def test_rays_on_the_outline_and_through_corners():
    for h in (1, 5):
        for ray in _boundary_rays(h):
            _check(*ray)
