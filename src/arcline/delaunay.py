"""Divide-and-conquer Delaunay triangulation over a quad-edge mesh.

One recursion per kind.  The closest triangulation halves the sites at the
median of the wider axis and finds each merge's common tangents by a walk.
The farthest triangulation has only the convex hull vertices as sites and
halves the hull in its counterclockwise order, where both tangents of a
merge are known from the order alone (the idea behind Aggarwal, Guibas,
Saxe and Shor's linear-time Voronoi diagram of a convex polygon); its merge
only swaps the sign of the in-circle predicate.  A synthetic infinite
vertex closes the outer face so that every mesh is a combinatorial sphere
with 3(n-1) edges.

Both merges (Guibas and Stolfi) rise from the lower to the upper tangent.
Candidate edges are accepted or deleted on the in-circle determinant sign
alone; the above-base-edge orientation test runs only when the determinant
is zero (four cocircular points).  The rise calls `predicates.incircle` on
the point tuples directly, times the kind's sign (+1 closest, -1
farthest), and reads the store's `onext` and `org` arrays by the
quad-edge bit formulas; only `connect` and `delete_edge` go through the
store's methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .hulltree import convex_hull
from .predicates import incircle, orientation
from .quadedge import QuadEdgeStore, sym

INFINITE = -1


class DuplicatePointError(ValueError):
    pass


def convex_hull_indices(points: Sequence[Tuple[int, int]]) -> List[int]:
    """Indices of the strict convex hull of distinct points, counterclockwise
    from the least point.

    Collinear input yields the two extreme indices.
    """
    index = {p: i for i, p in enumerate(points)}
    return [index[p] for p in convex_hull(points)]


@dataclass
class TriangulationMesh:
    """Closest or farthest Delaunay mesh with a distinguished infinite vertex."""

    points: List[Tuple[int, int]]
    kind: str  # "closest" | "farthest"
    site_indices: List[int]
    store: QuadEdgeStore
    outer_edge: Optional[int]  # hull edge with the outer face on its left


def _rightof(pts, p: int, store, e: int) -> bool:
    return orientation(pts[p], pts[store.dest(e)], pts[store.org[e]]) > 0


def _leftof(pts, p: int, store, e: int) -> bool:
    return orientation(pts[p], pts[store.org[e]], pts[store.dest(e)]) > 0


def _base_case(store: QuadEdgeStore, pts, order: List[int]) -> int:
    """Triangulate 2 or 3 points; returns an edge with the outer face on its left."""
    if len(order) == 2:
        return store.make_edge(order[0], order[1])
    s1, s2, s3 = order
    a = store.make_edge(s1, s2)
    b = store.make_edge(s2, s3)
    store.splice(sym(a), b)
    o = orientation(pts[s1], pts[s2], pts[s3])
    if o > 0:
        store.connect(b, a)
        return sym(a)
    if o < 0:
        store.connect(b, a)
        return a
    return a  # collinear chain


def _hull_edges_at(store: QuadEdgeStore, pts, outer: int, key, pick) -> Tuple[int, int]:
    """The edges out of and into the vertex whose key is pick (min or max)
    of the keys on the outer face cycle through outer."""
    cyc = store.face_cycle(outer)
    org = store.org
    keys = [key(pts[org[e]]) for e in cyc]
    i = keys.index(pick(keys))
    return cyc[i], cyc[i - 1]


def _tangent_walk(store, pts, ldi: int, rdi: int) -> Tuple[int, int]:
    """Guibas-Stolfi common tangent descent from starting hull edges."""
    while True:
        if _leftof(pts, store.org[rdi], store, ldi):
            ldi = store.lnext(ldi)
        elif _rightof(pts, store.org[ldi], store, rdi):
            rdi = store.rprev(rdi)
        else:
            return ldi, rdi


def _merge_rise(store, pts, circle_sign: int, basel: int, ul: int, ur: int) -> int:
    """Create cross edges above basel until the upper tangent (ur -> ul).

    Returns the reversed upper tangent, whose left face is the outer face.
    The loop reads the store's arrays directly: dest(e) is org[e ^ 2]
    (`quadedge.sym`), and oprev(e) = rot(onext[rot(e)]) by the slot
    arithmetic of the `quadedge` module.
    """
    onext, org = store.onext, store.org
    while True:
        borg, bdest = org[basel], org[basel ^ 2]
        if borg == ur and bdest == ul:
            return basel ^ 2
        po, pd = pts[borg], pts[bdest]

        lcand = onext[basel ^ 2]
        while True:
            t = onext[lcand]
            if circle_sign * incircle(pd, po, pts[org[lcand ^ 2]], pts[org[t ^ 2]]) <= 0:
                break
            store.delete_edge(lcand)
            lcand = t

        r = onext[(basel & ~3) | ((basel + 1) & 3)]
        rcand = (r & ~3) | ((r + 1) & 3)
        while True:
            r = onext[(rcand & ~3) | ((rcand + 1) & 3)]
            t = (r & ~3) | ((r + 1) & 3)
            if circle_sign * incircle(pd, po, pts[org[rcand ^ 2]], pts[org[t ^ 2]]) <= 0:
                break
            store.delete_edge(rcand)
            rcand = t

        s = circle_sign * incircle(pts[org[lcand ^ 2]], pts[org[lcand]], pts[org[rcand]],
                                   pts[org[rcand ^ 2]])
        if s != 0:
            use_right = s > 0
        else:  # cocircular: take the left candidate unless it is below basel
            use_right = not _rightof(pts, org[lcand ^ 2], store, basel)
        if use_right:
            basel = store.connect(rcand, basel ^ 2)
        else:
            basel = store.connect(basel ^ 2, lcand ^ 2)


def _merge_core(store, pts, circle_sign: int, ldi: int, rdi: int, ul: int, ur: int) -> int:
    ll, lr = store.org[ldi], store.org[rdi]
    basel = store.connect(sym(rdi), ldi)
    if ll == ul and lr == ur:
        return basel  # lower and upper tangents coincide: all points collinear
    return _merge_rise(store, pts, circle_sign, basel, ul, ur)


def _merge_by_walk(store, pts, circle_sign: int, left_outer: int, right_outer: int, key) -> int:
    l_out, l_into = _hull_edges_at(store, pts, left_outer, key, max)
    r_out, r_into = _hull_edges_at(store, pts, right_outer, key, min)
    # Lower tangent: descend from L's key-max and R's key-min.
    ldi, rdi = _tangent_walk(store, pts, l_out, sym(r_into))
    # Upper tangent: the same walk on the point-reflected configuration,
    # which swaps the two sides and both key extremes.
    ldi2, rdi2 = _tangent_walk(store, pts, r_out, sym(l_into))
    ur, ul = store.org[ldi2], store.org[rdi2]
    return _merge_core(store, pts, circle_sign, ldi, rdi, ul, ur)


def _key_x(p):
    return (p[0], p[1])


def _key_y(p):
    return (p[1], -p[0])


def _build_recursive(store, pts, by_a, by_b, circle_sign: int) -> int:
    """by_a / by_b: the same index set sorted by the two axis keys."""
    n = len(by_a)
    if n <= 3:
        return _base_case(store, pts, by_a)
    xmin, xmax = pts[by_a[0]][0], pts[by_a[-1]][0]
    ymin, ymax = pts[by_b[0]][1], pts[by_b[-1]][1]
    key = _key_x if xmax - xmin >= ymax - ymin else _key_y
    arr = by_a if key is _key_x else by_b
    m = n // 2
    left_ids = set(arr[:m])
    a_l = [i for i in by_a if i in left_ids]
    a_r = [i for i in by_a if i not in left_ids]
    b_l = [i for i in by_b if i in left_ids]
    b_r = [i for i in by_b if i not in left_ids]
    left_outer = _build_recursive(store, pts, a_l, b_l, circle_sign)
    right_outer = _build_recursive(store, pts, a_r, b_r, circle_sign)
    return _merge_by_walk(store, pts, circle_sign, left_outer, right_outer, key)


def _build_hull_order(store, pts, hull: List[int], circle_sign: int) -> int:
    """Triangulate the strictly convex polygon hull (counterclockwise) by
    halving it into contiguous arcs, which are linearly separated and whose
    common tangents are known without any search: the polygon edge between
    the two arcs and the chord from the last vertex back to the first.

    Each arc's mesh is returned as its edge from the first vertex to the
    last, with the outer face on its left: the next edge of that face
    leaves the last vertex, and the previous one enters the first.
    """

    def rec(lo: int, hi: int) -> int:
        if hi - lo <= 3:
            e = _base_case(store, pts, hull[lo:hi])
            return e if hi - lo == 2 else store.lnext(e)
        mid = (lo + hi) // 2
        left = rec(lo, mid)
        right = rec(mid, hi)
        return _merge_core(store, pts, circle_sign, store.lnext(left), store.onext[right],
                           hull[lo], hull[hi - 1])

    return rec(0, len(hull))


def _attach_infinite(mesh: TriangulationMesh) -> None:
    store = mesh.store
    if mesh.outer_edge is None:  # single vertex
        store.make_edge(mesh.site_indices[0], INFINITE)
        return
    cyc = store.face_cycle(mesh.outer_edge)
    ghosts = []
    for e in cyc:
        g = store.make_edge(store.org[e], INFINITE)
        store.splice(g, e)
        ghosts.append(g)
    for i in range(1, len(ghosts)):
        store.splice(sym(ghosts[i]), sym(ghosts[i - 1]))


def _checked(points: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    if not points:
        raise ValueError("no points")
    if len(set(points)) != len(points):
        raise DuplicatePointError("duplicate points")
    return list(points)


def _mesh(pts, kind: str, site_indices: List[int], store, outer) -> TriangulationMesh:
    mesh = TriangulationMesh(pts, kind, site_indices, store, outer)
    _attach_infinite(mesh)
    return mesh


def build_closest(points: Sequence[Tuple[int, int]]) -> TriangulationMesh:
    """Closest Delaunay triangulation (empty-circle property)."""
    pts = _checked(points)
    sites = list(range(len(pts)))
    store = QuadEdgeStore()
    outer = None
    if len(pts) > 1:
        by_a = sorted(sites, key=lambda i: _key_x(pts[i]))
        by_b = sorted(sites, key=lambda i: _key_y(pts[i]))
        outer = _build_recursive(store, pts, by_a, by_b, 1)
    return _mesh(pts, "closest", sites, store, outer)


def build_farthest(points: Sequence[Tuple[int, int]]) -> TriangulationMesh:
    """Farthest Delaunay triangulation: hull vertices only, full-circle property."""
    pts = _checked(points)
    hull = convex_hull_indices(pts)
    store = QuadEdgeStore()
    outer = None
    if len(hull) > 1:
        outer = _build_hull_order(store, pts, hull, -1)
    return _mesh(pts, "farthest", hull, store, outer)
