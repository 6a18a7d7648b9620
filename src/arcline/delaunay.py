"""Divide-and-conquer Delaunay triangulation over a quad-edge mesh.

Builds the closest or the farthest triangulation with the same recursion;
the farthest kind only swaps the sign of the in-circle predicate and runs
on convex hull vertices.  A synthetic infinite vertex closes the outer face
so that every mesh is a combinatorial sphere with 3(n-1) edges.

The merge finds both common tangents up front and rises from the lower to
the upper one.  Candidate edges are accepted or deleted on the in-circle
determinant sign alone; the above-base-edge orientation test runs only when
the determinant is zero (four cocircular points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

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
    cocircular_ties: int = 0


def _in_circle_fn(pts, pred_sign: int) -> Callable[[int, int, int, int], int]:
    def f(i, j, k, l):
        return pred_sign * incircle(pts[i], pts[j], pts[k], pts[l])

    return f


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


def _cycle_info(store: QuadEdgeStore, outer: int, vkey) -> dict:
    """Hull cycle metadata: edges out of / into the key-extreme vertices."""
    cyc = store.face_cycle(outer)
    orgs = [store.org[e] for e in cyc]
    imin = min(range(len(cyc)), key=lambda i: vkey(orgs[i]))
    imax = max(range(len(cyc)), key=lambda i: vkey(orgs[i]))
    m = len(cyc)
    return {
        "cycle": cyc,
        "orgs": orgs,
        "out_of_min": cyc[imin],
        "out_of_max": cyc[imax],
        "into_min": cyc[(imin - 1) % m],
        "into_max": cyc[(imax - 1) % m],
    }


def _tangent_walk(store, pts, ldi: int, rdi: int) -> Tuple[int, int]:
    """Guibas-Stolfi common tangent descent from starting hull edges."""
    while True:
        if _leftof(pts, store.org[rdi], store, ldi):
            ldi = store.lnext(ldi)
        elif _rightof(pts, store.org[ldi], store, rdi):
            rdi = store.rprev(rdi)
        else:
            return ldi, rdi


class _MergeState:
    __slots__ = ("ties", "check_selection")

    def __init__(self, check_selection: bool = False):
        self.ties = 0
        # cross-check the determinant-only candidate selection against the
        # classical validity-guarded rule on every merge step
        self.check_selection = check_selection


def _merge_rise(store, pts, in_circle, basel: int, ul: int, ur: int, state: _MergeState) -> int:
    """Create cross edges above basel until the upper tangent (ur -> ul).

    Returns the reversed upper tangent, whose left face is the outer face.
    """
    while True:
        if store.org[basel] == ur and store.dest(basel) == ul:
            return sym(basel)
        bdest = store.dest(basel)
        borg = store.org[basel]

        lcand = store.onext[sym(basel)]
        while in_circle(bdest, borg, store.dest(lcand), store.dest(store.onext[lcand])) > 0:
            t = store.onext[lcand]
            store.delete_edge(lcand)
            lcand = t

        rcand = store.oprev(basel)
        while in_circle(bdest, borg, store.dest(rcand), store.dest(store.oprev(rcand))) > 0:
            t = store.oprev(rcand)
            store.delete_edge(rcand)
            rcand = t

        s = in_circle(store.dest(lcand), store.org[lcand], store.org[rcand], store.dest(rcand))
        if s > 0:
            use_right = True
        elif s < 0:
            use_right = False
        else:
            lvalid = _rightof(pts, store.dest(lcand), store, basel)
            rvalid = _rightof(pts, store.dest(rcand), store, basel)
            if lvalid and rvalid:
                state.ties += 1
                use_right = False
            else:
                use_right = not lvalid

        if state.check_selection and s != 0:
            lvalid = _rightof(pts, store.dest(lcand), store, basel)
            rvalid = _rightof(pts, store.dest(rcand), store, basel)
            classic = (not lvalid) or (rvalid and s > 0)
            assert classic == use_right, "determinant-only selection disagrees with classic rule"

        if use_right:
            basel = store.connect(rcand, sym(basel))
        else:
            basel = store.connect(sym(basel), sym(lcand))


def _merge_core(store, pts, in_circle, ldi: int, rdi: int, ul: int, ur: int, state: _MergeState) -> int:
    ll, lr = store.org[ldi], store.org[rdi]
    basel = store.connect(sym(rdi), ldi)
    if ll == ul and lr == ur:
        return basel  # lower and upper tangents coincide: all points collinear
    return _merge_rise(store, pts, in_circle, basel, ul, ur, state)


def _merge_by_walk(store, pts, in_circle, left_outer: int, right_outer: int, vkey, state) -> int:
    li = _cycle_info(store, left_outer, vkey)
    ri = _cycle_info(store, right_outer, vkey)
    # Lower tangent: descend from L's key-max and R's key-min.
    ldi, rdi = _tangent_walk(store, pts, li["out_of_max"], sym(ri["into_min"]))
    # Upper tangent: the same walk on the point-reflected configuration,
    # which swaps the two sides and both key extremes.
    ldi2, rdi2 = _tangent_walk(store, pts, ri["out_of_min"], sym(li["into_max"]))
    ur, ul = store.org[ldi2], store.org[rdi2]
    return _merge_core(store, pts, in_circle, ldi, rdi, ul, ur, state)


def _key_x(p):
    return (p[0], p[1])


def _key_y(p):
    return (p[1], -p[0])


def _build_recursive(store, pts, by_a, by_b, in_circle, state) -> int:
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
    left_outer = _build_recursive(store, pts, a_l, b_l, in_circle, state)
    right_outer = _build_recursive(store, pts, a_r, b_r, in_circle, state)
    return _merge_by_walk(store, pts, in_circle, left_outer, right_outer,
                          lambda v: key(pts[v]), state)


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


def _build(points, kind: str, site_indices: List[int],
           check_selection: bool = False) -> TriangulationMesh:
    """Triangulation of the given sites; check_selection asserts on every
    merge step that the candidate choice matches the classical rule."""
    pred = 1 if kind == "closest" else -1
    store = QuadEdgeStore()
    state = _MergeState(check_selection)
    pts = list(points)
    if len(site_indices) == 1:
        mesh = TriangulationMesh(pts, kind, site_indices, store, None)
        _attach_infinite(mesh)
        return mesh
    by_a = sorted(site_indices, key=lambda i: _key_x(pts[i]))
    by_b = sorted(site_indices, key=lambda i: _key_y(pts[i]))
    outer = _build_recursive(store, pts, by_a, by_b, _in_circle_fn(pts, pred), state)
    mesh = TriangulationMesh(pts, kind, site_indices, store, outer, cocircular_ties=state.ties)
    _attach_infinite(mesh)
    return mesh


def build_closest(points: Sequence[Tuple[int, int]]) -> TriangulationMesh:
    """Closest Delaunay triangulation (empty-circle property)."""
    if not points:
        raise ValueError("no points")
    if len(set(points)) != len(points):
        raise DuplicatePointError("duplicate points")
    return _build(points, "closest", list(range(len(points))))


def build_farthest(points: Sequence[Tuple[int, int]]) -> TriangulationMesh:
    """Farthest Delaunay triangulation: hull vertices only, full-circle property."""
    if not points:
        raise ValueError("no points")
    if len(set(points)) != len(points):
        raise DuplicatePointError("duplicate points")
    hull = convex_hull_indices(points)
    return _build(points, "farthest", hull)


def build_convex_ordered(hull_points: Sequence[Tuple[int, int]], kind: str = "closest") -> TriangulationMesh:
    """Triangulate a strictly convex polygon given in hull order.

    Skips the median splits entirely: contiguous arcs of the polygon are
    already linearly separated, and the common tangents of two adjacent arcs
    are known without any search.
    """
    n = len(hull_points)
    if n < 3:
        raise ValueError("input not in convex position")
    pts = list(hull_points)
    turn = 0
    for i in range(n):
        o = orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n])
        if o == 0 or (turn and o != turn):
            raise ValueError("input not in convex position")
        turn = o
    order = list(range(n))
    if turn < 0:
        order.reverse()  # normalize to counterclockwise
    pred = 1 if kind == "closest" else -1
    store = QuadEdgeStore()
    state = _MergeState()
    in_circle = _in_circle_fn(pts, pred)

    def rec(lo: int, hi: int) -> int:
        """Build the arc order[lo:hi]; returns an outer-left hull edge."""
        k = hi - lo
        if k <= 3:
            return _base_case(store, pts, order[lo:hi])
        mid = lo + k // 2
        left_outer = rec(lo, mid)
        right_outer = rec(mid, hi)
        vm1, vm = order[mid - 1], order[mid]
        lcyc = store.face_cycle(left_outer)
        rcyc = store.face_cycle(right_outer)
        ldi = next(e for e in lcyc if store.org[e] == vm1)
        rorgs = [store.org[e] for e in rcyc]
        rdi = sym(rcyc[rorgs.index(vm) - 1])
        # the other tangent wraps around: last vertex of the arc to its first
        return _merge_core(store, pts, in_circle, ldi, rdi, order[lo], order[hi - 1], state)

    outer = rec(0, n)
    mesh = TriangulationMesh(pts, kind, list(range(n)), store, outer, cocircular_ties=state.ties)
    _attach_infinite(mesh)
    return mesh
