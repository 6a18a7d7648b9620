"""Exact oracles and mesh views that only the tests use: the inversion
construction and the expanded in-circle determinant behind the predicate
checks, exact circumcentres and circumcircles, exact distance-to-circle
checks, the exact direction condition of an arc and its former atan2
check, the per-point bisector interval sets, and views of meshes, Voronoi
diagrams and pair lists."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from arcline.arcfit import _chord_frame
from arcline.delaunay import INFINITE, TriangulationMesh
from arcline.feasibility import InfeasiblePairList
from arcline.hulltree import convex_hull
from arcline.predicates import Point, incircle, orientation
from arcline.quadedge import sym


def incircle_farthest(a: Point, b: Point, c: Point, d: Point) -> int:
    """In-circle test for the farthest Delaunay diagram: negated incircle."""
    return -incircle(a, b, c, d)


def invert_point(p: Point, o: Point) -> Tuple[Fraction, Fraction]:
    """Invert p about the unit circle centered at o: o + (p-o)/|p-o|^2."""
    dx = Fraction(p[0] - o[0])
    dy = Fraction(p[1] - o[1])
    norm_sq = dx * dx + dy * dy
    if norm_sq == 0:
        raise ValueError("inversion center coincides with point")
    return (o[0] + dx / norm_sq, o[1] + dy / norm_sq)


@dataclass(frozen=True)
class ExactCircle:
    """Circle with exact rational center and squared radius."""

    center: Tuple[Fraction, Fraction]
    radius_sq: Fraction


def circumcenter(a: Point, b: Point, c: Point) -> Tuple[Fraction, Fraction]:
    """Exact center of the circle through three non-collinear points."""
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0:
        raise ValueError("degenerate circumcircle")
    na = a[0] * a[0] + a[1] * a[1]
    nb = b[0] * b[0] + b[1] * b[1]
    nc = c[0] * c[0] + c[1] * c[1]
    return (Fraction(na * (b[1] - c[1]) + nb * (c[1] - a[1]) + nc * (a[1] - b[1]), d),
            Fraction(na * (c[0] - b[0]) + nb * (a[0] - c[0]) + nc * (b[0] - a[0]), d))


def circumcircle(a: Point, b: Point, c: Point) -> ExactCircle:
    """Exact circumcircle of three non-collinear points."""
    ux, uy = circumcenter(a, b, c)
    return ExactCircle((ux, uy), (ux - a[0]) ** 2 + (uy - a[1]) ** 2)


def within(p, centre, r, t) -> bool:
    """| |p - centre| - r | <= t, exactly."""
    d_sq = (p[0] - centre[0]) ** 2 + (p[1] - centre[1]) ** 2
    return d_sq <= (r + t) ** 2 and (r - t <= 0 or d_sq >= (r - t) ** 2)


def exactly_within(points, centre, radius, tol) -> bool:
    """Every point within the float tol*(1 + 1e-9), the limit of
    `arc_within_tolerance`, of the circle about the float centre with the
    float radius, in rationals."""
    t = Fraction(tol * (1 + 1e-9))
    c = tuple(map(Fraction, centre))
    return all(within(tuple(map(Fraction, p)), c, Fraction(radius), t) for p in points)


def _diamond_angle(x, y) -> Fraction:
    """A rational in [0, 4) that grows with the angle of (x, y) != (0, 0)
    counterclockwise from the positive x axis: the position of its
    direction along the diamond |x| + |y| = 1.  Opposite directions differ
    by exactly 2 (mod 4), as the diamond is centrally symmetric."""
    if y >= 0 and x > 0:
        return Fraction(y) / (x + y)
    if x <= 0 and y > 0:
        return 1 + Fraction(-x) / (y - x)
    if y <= 0 and x < 0:
        return 2 + Fraction(-y) / (-x - y)
    return 3 + Fraction(x) / (x - y)


def turns_forward(points, centre, orientation) -> bool:
    """The angles of the points about the centre, measured from points[0]
    in the orientation ("ccw" or "cw"), never decrease and never complete a
    turn, exactly: with psi the diamond angle from points[0] (monotone in
    the true angle, a half-turn adding 2), psi never decreases and no step
    adds more than 2, so that every step goes the shorter way round and a
    half-turn counts as forward.  A point at the centre takes the direction
    (1, 0), the angle atan2(0, 0) gives it."""
    sgn = 1 if orientation == "ccw" else -1
    cx, cy = map(Fraction, centre)
    psi = []
    for x, y in points:
        vx, vy = Fraction(x) - cx, sgn * (Fraction(y) - cy)
        psi.append(_diamond_angle(vx, vy) if vx or vy else Fraction(0))
    rel = [(a - psi[0]) % 4 for a in psi]
    return all(a <= b <= a + 2 for a, b in zip(rel, rel[1:]))


def turns_forward_by_atan2(points, arc) -> bool:
    """The arc branch of `direction_and_endpoint_check` as it was before it
    decided by cross products: one atan2 and a float modulo per point.  A
    reference for the exact check, which it matches away from near-ties."""
    cx, cy = arc.center
    ta = math.atan2(points[0][1] - cy, points[0][0] - cx)
    sgn = 1.0 if arc.orientation == "ccw" else -1.0
    run = -math.inf
    prev = 0.0
    for p in points:
        tp = math.atan2(p[1] - cy, p[0] - cx)
        rel = (sgn * (tp - ta)) % (2 * math.pi)
        # unwrap against the running parameter to tolerate noise at 0
        if rel - prev > math.pi:
            rel -= 2 * math.pi
        prev = max(prev, rel)
        pos = rel * arc.radius
        if pos < run:
            return False
        run = max(run, pos)
    return True


def arc_cost(points, sigma) -> Fraction:
    """The DP's arc cost, sum ((d^2 - r^2)/(2r))^2, of the arc through the
    first and last of the integer points with its centre at m + sigma*v, m
    the chord midpoint and v = (a_y - b_y, b_x - a_x) the chord's normal:
    exact, in rationals, since r^2 = |a - c|^2 is rational."""
    (ax, ay), (bx, by) = points[0], points[-1]
    sigma = Fraction(sigma)
    cx = Fraction(ax + bx, 2) + sigma * (ay - by)
    cy = Fraction(ay + by, 2) + sigma * (bx - ax)
    r_sq = (ax - cx) ** 2 + (ay - cy) ** 2
    return sum(((x - cx) ** 2 + (y - cy) ** 2 - r_sq) ** 2 for x, y in points) / (4 * r_sq)


def bisector_intervals(a, b, p, tol) -> List[Tuple[float, float]]:
    """The bisector parameters s where the arc through a, b is within tol
    of p, computed for p alone: the per-point reference of
    `arcfit._feasible_centres`, whose sets must be these very floats.

    The set is {s : qa*s^2 + qb*s + qc <= 0} (`arcfit` module docstring),
    read off the signs of qa and of the discriminant.  The endpoint test
    must come first: past it the squared condition is exact, since it drops
    only centres with d < tol - r, and there d + r >= |p - a| > tol.
    """
    mid, u, length = _chord_frame(a, b)
    if math.dist(p, a) <= tol or math.dist(p, b) <= tol:
        return [(-math.inf, math.inf)]
    px = p[0] - mid[0]
    py = p[1] - mid[1]
    w = px * px + py * py
    e = px * u[0] + py * u[1]
    half_sq = (length / 2) ** 2
    B = w - half_sq - tol * tol
    qa = 4 * (e * e - tol * tol)
    qb = -4 * B * e
    qc = B * B - 4 * tol * tol * half_sq
    if qa == 0:
        if qb == 0:
            return [(-math.inf, math.inf)] if qc <= 0 else []
        root = -qc / qb
        return [(-math.inf, root)] if qb > 0 else [(root, math.inf)]
    disc = qb * qb - 4 * qa * qc
    if qa < 0 and disc <= 0:
        return [(-math.inf, math.inf)]
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    # numerically stable pair
    q = -(qb + math.copysign(sq, qb)) / 2
    r1 = q / qa
    r2 = qc / q if q != 0 else r1
    lo, hi = min(r1, r2), max(r1, r2)
    return [(lo, hi)] if qa > 0 else [(-math.inf, lo), (hi, math.inf)]


def incircle_determinant(a: Point, b: Point, c: Point, d: Point):
    """Raw 4x4 determinant with rows (x, y, x^2+y^2, 1), expanded by minors.

    Independent of `incircle`; used as a cross-check oracle.
    """
    rows = [
        (a[0], a[1], a[0] * a[0] + a[1] * a[1]),
        (b[0], b[1], b[0] * b[0] + b[1] * b[1]),
        (c[0], c[1], c[0] * c[0] + c[1] * c[1]),
        (d[0], d[1], d[0] * d[0] + d[1] * d[1]),
    ]

    def det3(r0, r1, r2):
        return (
            r0[0] * (r1[1] * r2[2] - r2[1] * r1[2])
            - r0[1] * (r1[0] * r2[2] - r2[0] * r1[2])
            + r0[2] * (r1[0] * r2[1] - r2[0] * r1[1])
        )

    # Laplace expansion along the all-ones column.
    return (
        -det3(rows[1], rows[2], rows[3])
        + det3(rows[0], rows[2], rows[3])
        - det3(rows[0], rows[1], rows[3])
        + det3(rows[0], rows[1], rows[2])
    )


def contains_infeasible(pairs: InfeasiblePairList, i: int, j: int) -> bool:
    """True iff [i, j] contains a reported pair: position i in the upper
    array, j in the lower array, and compare."""
    qa = bisect_left(pairs.a, i)  # smallest qa with i <= a[qa]
    qb = bisect_right(pairs.b, j)  # smallest qb with j < b[qb]
    return qa < qb


def n_sites(mesh: TriangulationMesh) -> int:
    return len(mesh.site_indices)


def edge_count(mesh: TriangulationMesh) -> int:
    return sum(1 for _ in mesh.store.primal_edges())


def mesh_edges(mesh: TriangulationMesh) -> List[Tuple[int, int]]:
    """Undirected edges as (org, dest) pairs; INFINITE marks ghost edges."""
    return [(mesh.store.org[e], mesh.store.dest(e)) for e in mesh.store.primal_edges()]


def finite_edges(mesh: TriangulationMesh) -> List[Tuple[int, int]]:
    return [(a, b) for a, b in mesh_edges(mesh) if a != INFINITE and b != INFINITE]


def vertex_triangles(mesh: TriangulationMesh) -> List[Tuple[int, int, int]]:
    """The finite triangle behind each vertex of
    `voronoi_from_delaunay(mesh)`, in the order of its vertices: the faces
    are met as it meets them, left of each finite primal edge, then right."""
    store = mesh.store
    seen = set()
    out = []
    for e in store.primal_edges():
        if INFINITE in (store.org[e], store.dest(e)):
            continue
        for d in (e, sym(e)):
            cyc = store.face_cycle(d)
            vs = tuple(store.org[c] for c in cyc)
            if len(vs) == 3 and INFINITE not in vs and min(cyc) not in seen:
                seen.add(min(cyc))
                out.append(vs)
    return out


def triangles(mesh: TriangulationMesh) -> List[Tuple[int, int, int]]:
    """Finite triangles as vertex index triples in CCW order."""
    store = mesh.store
    seen = set()
    out = []
    for e in store.primal_edges():
        for d in (e, sym(e)):
            if d in seen:
                continue
            cyc = store.face_cycle(d)
            seen.update(cyc)
            vs = [store.org[c] for c in cyc]
            if len(vs) != 3 or INFINITE in vs:
                continue
            p = mesh.points
            if orientation(p[vs[0]], p[vs[1]], p[vs[2]]) > 0:
                out.append((vs[0], vs[1], vs[2]))
            else:
                out.append((vs[0], vs[2], vs[1]))
    return out


def hull_boundary(mesh: TriangulationMesh) -> set:
    """Ids of the sites on the boundary of their convex hull (hull vertices
    and sites on hull edges), from the points alone."""
    sites = {mesh.points[i]: i for i in mesh.site_indices}
    hull = convex_hull(list(sites))
    if len(hull) < 3:
        return set(sites.values())
    out = set()
    for a, b in zip(hull, hull[1:] + hull[:1]):
        for p, i in sites.items():
            if orientation(a, b, p) == 0 and min(a, b) <= p <= max(a, b):
                out.add(i)
    return out


def triangle_set(mesh: TriangulationMesh) -> set:
    return {tuple(sorted(t)) for t in triangles(mesh)}


def has_cocircular_neighbours(mesh: TriangulationMesh) -> bool:
    """True iff two finite triangles share an edge and their four vertices
    are cocircular, exactly where the triangulation is not unique."""
    store, pts = mesh.store, mesh.points
    # with the infinite vertex in, every face is a triangle
    for e in store.primal_edges():
        quad = (store.org[e], store.dest(e),
                store.dest(store.lnext(e)), store.dest(store.lnext(sym(e))))
        if INFINITE not in quad and incircle(*(pts[v] for v in quad)) == 0:
            return True
    return False
