"""Exact planar predicates and constructions on integer or rational points.

Points are plain (x, y) tuples.  Integer inputs keep every predicate exact
because Python integers are arbitrary precision; rational inputs (Fraction)
stay exact as well, which the sweep over rational Voronoi vertices
relies on.

The float filters at the end decide most exact tests of the annulus path
in floating point and say when they cannot; the caller then runs the exact
expression (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates", 1997).
"""

from __future__ import annotations

import math
from typing import Tuple

Point = Tuple  # (x, y) of int or Fraction

NEGATIVE, ZERO, POSITIVE = -1, 0, 1


def sign(value) -> int:
    if value > 0:
        return POSITIVE
    if value < 0:
        return NEGATIVE
    return ZERO


def cross(o: Point, a: Point, b: Point):
    """Cross product (a-o) x (b-o); twice the signed triangle area."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of (b-a) x (c-a); positive means counterclockwise."""
    return sign(cross(a, b, c))


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """Exact in-circle test.

    For counterclockwise (a, b, c): positive iff d lies strictly inside the
    circumcircle, zero iff cocircular, negative iff outside.  Swapping two of
    a, b, c flips the sign.
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    return sign(det)


def common_denominator(values: list) -> Tuple[int, list]:
    """(d, [v * d for v in values]) for the least d making every product an
    integer; integer arithmetic on the scaled values avoids normalizing a
    Fraction at every step.  Lists, not tuples: the interpreter keeps up to
    2000 freed tuples of each length for reuse, memory these short-lived
    groups of 4 and 8 values would otherwise hold."""
    d = 1
    for v in values:
        if d % v.denominator:
            d = math.lcm(d, v.denominator)
    return d, [v.numerator * (d // v.denominator) for v in values]


def exact_ratio(v) -> Tuple[int, int]:
    """(num, den), Python ints with v = num/den exactly and den > 0: from
    `as_integer_ratio()` where v has it (ints, floats, Fractions, numpy
    floats), else from its numerator and denominator (other Rationals,
    such as numpy ints).  Lets a tolerance's exact tests run in integers
    without building a Fraction.  Infinities raise OverflowError, NaN
    ValueError."""
    ratio = getattr(v, "as_integer_ratio", None)
    num, den = ratio() if ratio is not None else (v.numerator, v.denominator)
    return int(num), int(den)


def dist_sq(a: Point, b: Point):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


# -- float filters -------------------------------------------------------
#
# Two rules make a float answer certain.  Rounding to the nearest float is
# monotone, so two stored rationals whose floats differ compare as their
# floats do.  An expression evaluated in floats from rounded inputs has the
# sign of its float value once that value exceeds a static bound on the
# accumulated rounding error.  Everything else is undecided, including
# values whose float overflowed (the bound is then infinite or NaN, and no
# comparison against it succeeds): the caller runs the exact expression.

EPS = 2.0 ** -53  # unit roundoff of a double
_TINY = 1e-290  # absolute slack for errors lost to underflow
_BIG = 1e300  # float values beyond this may have overflowed on the way


def to_float(v) -> float:
    """v (an int or a Fraction) rounded to the nearest float, or +-inf
    beyond the float range.

    Monotone in v, so a strict order between two results is the order of
    the exact values.  Integer true division rounds correctly."""
    try:
        return v.numerator / v.denominator
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def point_key(p) -> Tuple:
    """Sort key (float(x), p) of a point p = (x, y): it orders points exactly
    like the points themselves, deciding by the float of x where those
    differ and by the exact point otherwise."""
    return (to_float(p[0]), p)


def error_bound(magnitude: float) -> float:
    """Bound on the rounding error of a float expression whose caller shows
    an error below 6 * EPS * magnitude; the margin to 8 * EPS covers the
    rounding of magnitude itself, and a tiny absolute slack what underflow
    loses.  Infinite or NaN when magnitude overflowed."""
    return (8 * EPS) * magnitude + _TINY


def certain_sign(value: float, bound: float) -> int:
    """Sign of value when it lies beyond +-bound, else 0 (undecided): also
    for NaN and for values so large they may have overflowed."""
    if bound < value < _BIG:
        return POSITIVE
    if -_BIG < value < -bound:
        return NEGATIVE
    return ZERO


def orientation_filter(ax, ay, bx, by, cx, cy) -> int:
    """Sign of (b-a) x (c-a) from floats of the exact coordinates, or 0
    when undecided.

    Each input carries a relative error of EPS and each operation adds one,
    so the error is below 6 * EPS * M, M the same expression in the absolute
    values of the inputs."""
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return certain_sign(det, error_bound((abs(bx) + abs(ax)) * (abs(cy) + abs(ay))
                                         + (abs(by) + abs(ay)) * (abs(cx) + abs(ax))))
