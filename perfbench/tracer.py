"""Per-layer tracing by wrapping the library's functions at run time.

The library stays untouched: `Tracer.install` replaces module attributes
(the names each layer uses to call the next one) with wrappers, and
`Tracer.uninstall` puts the originals back.  A module that did
`from .x import f` holds its own reference to `f`, so each wrapper is
installed in the namespace of the caller whose calls it should see.

Spans are aggregated as they close rather than stored: for every span name
the tracer keeps the call count, the total duration and the self time
(duration minus the time covered by child spans).  Counters are kept at the
same boundaries.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []  # child time of each open span
        self._patched: List[Tuple[object, str, object]] = []
        self._trees: List[object] = []

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """`fn` timed as span `name`; `after(result, args)` runs once the
        span has closed, so its cost lands in the parent's self time."""
        stack = self._stack
        rec = self.spans[name]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, fn: Callable, after: Callable) -> Callable:
        """`fn` with `after(result, args)` run after every call; no span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mod = importlib.import_module
        pkg = mod("arcline")
        pipeline = mod("arcline.pipeline")
        compress = mod("arcline.compress")
        feasibility = mod("arcline.feasibility")
        annulus = mod("arcline.annulus")
        delaunay = mod("arcline.delaunay")
        hulltree = mod("arcline.hulltree")
        sortedrange = mod("arcline.sortedrange")
        c = self.counts
        P = self._patch

        # float pipeline: quantize and map back around the grid compressor
        P(pkg, "compress_polyline", self.span("pipeline", pipeline.compress_polyline))
        P(pipeline, "compress", self.span("compress", compress.compress, self._after_compress))

        # compressor: feasibility tables, then the DP scans
        P(compress, "test_segments", self.span("feasibility.test_segments", compress.test_segments))
        P(compress, "test_arcs", self.span("feasibility.test_arcs", compress.test_arcs))
        P(compress, "build_fit_index_arrays",
          self.count(compress.build_fit_index_arrays, self._after_fit_index))
        P(compress, "_evaluate_arc", self.count(compress._evaluate_arc, self._after_evaluate_arc))
        tree_cls = compress.MergeTree
        trees = self._trees

        class CountedMergeTree(tree_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trees.append(self)

        P(compress, "MergeTree", CountedMergeTree)
        heap_cls = sortedrange.RangeHeap
        pop_min = heap_cls.pop_min

        def counted_pop_min(heap):
            before = heap.heap_ops
            item = pop_min(heap)
            c["sortedrange.pops"] += 1
            c["sortedrange.heap_ops"] += heap.heap_ops - before
            return item

        P(heap_cls, "pop_min", counted_pop_min)
        tree = hulltree.HullTree
        P(tree, "segment_within_tolerance", self.span("hulltree.seg_query", tree.segment_within_tolerance))

        # arc fitting, as the DP calls it
        P(compress, "fit_arc_least_squares", self.span("arcfit.ls_fit", compress.fit_arc_least_squares))
        P(compress, "fit_arc_by_tolerance", self.span("arcfit.tol_fit", compress.fit_arc_by_tolerance))
        P(compress, "arc_within_tolerance", self.span("arcfit.check", compress.arc_within_tolerance))
        P(compress, "direction_and_endpoint_check",
          self.span("arcfit.check", compress.direction_and_endpoint_check))

        # arc feasibility windows and their resolution path
        P(feasibility, "arc_exists_within_tolerance",
          self._arc_exists_span(feasibility.arc_exists_within_tolerance))

        # minimum-width annulus and its stages
        mwa = self.span("annulus.mwa", annulus.min_width_annulus)
        P(annulus, "min_width_annulus", mwa)
        P(pkg, "min_width_annulus", mwa)
        P(delaunay, "build_closest", self.span("delaunay.closest", delaunay.build_closest))
        P(delaunay, "build_farthest", self.span("delaunay.farthest", delaunay.build_farthest))
        P(annulus, "voronoi_from_delaunay", self.span(
            "voronoi", annulus.voronoi_from_delaunay,
            lambda r, a: c.__setitem__("voronoi.edges", c["voronoi.edges"] + len(r.edges))))
        P(annulus, "clip_segments_square", self.span(
            "clipping", annulus.clip_segments_square,
            lambda r, a: c.__setitem__("clipping.segments_out", c["clipping.segments_out"] + len(r))))
        P(annulus, "remove_overlaps", self.span(
            "overlaps", annulus.remove_overlaps,
            lambda r, a: c.__setitem__("overlaps.segments_out", c["overlaps.segments_out"] + len(r))))
        P(annulus, "sweep_intersections", self.span("sweep", annulus.sweep_intersections, self._after_sweep))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._trees.clear()

    # -- counters --------------------------------------------------------

    def _after_compress(self, result, args) -> None:
        c = self.counts
        c["compress.seg_evals"] += result.stats.get("segment_evaluations", 0)
        c["compress.arc_evals"] += result.stats.get("arc_evaluations", 0)
        c["sortedrange.comparisons"] += sum(t.comparisons for t in self._trees)
        self._trees.clear()

    def _after_fit_index(self, arrays, args) -> None:
        first = arrays.first
        self.counts["feasibility.arc_window_sum"] += sum(k - f for k, f in enumerate(first))
        self.counts["feasibility.arc_window_ends"] += len(first)

    def _after_evaluate_arc(self, arc, args) -> None:
        if arc is not None:
            self.counts["compress.arc_accepts"] += 1

    def _after_sweep(self, events, args) -> None:
        self.counts["sweep.segments"] += len(args[0])
        self.counts["sweep.events"] += len(events)

    def _arc_exists_span(self, fn: Callable) -> Callable:
        """Span over one window test, classified by how it was resolved:
        no annulus at all (least-squares accept or a trivial set), one
        annulus on the extreme-residual subset that already proves
        infeasibility, or the annulus of the whole window."""
        mwa_calls = self.spans["annulus.mwa"]
        c = self.counts

        def after(feasible, args, nested):
            c["feasibility.arc_windows"] += 1
            if nested == 0:
                c["annulus.lsq_accept"] += 1
            elif nested == 1 and not feasible and len(set(map(tuple, args[0]))) > 10:
                c["annulus.subset_reject"] += 1
            else:
                c["annulus.full"] += 1

        inner = self.span("annulus.arc_exists", fn)

        def wrapper(*args, **kwargs):
            before = mwa_calls[0]
            result = inner(*args, **kwargs)
            after(result, args, mwa_calls[0] - before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report ----------------------------------------------------------

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics per pass over the workload."""
        s, c = self.spans, self.counts

        def total(name):
            return s[name][1] / passes if name in s else 0.0

        def own(name):
            return s[name][2] / passes if name in s else 0.0

        def calls(name):
            return s[name][0] / passes if name in s else 0.0

        arc_evals = c["compress.arc_evals"]
        ends = c["feasibility.arc_window_ends"]
        out = {
            "pipeline.self_s": own("pipeline"),
            "compress.self_s": own("compress"),
            "compress.seg_evals": c["compress.seg_evals"] / passes,
            "compress.arc_evals": arc_evals / passes,
            "compress.arc_accept_ratio": c["compress.arc_accepts"] / arc_evals if arc_evals else 0.0,
            "feasibility.mean_arc_window": c["feasibility.arc_window_sum"] / ends if ends else 0.0,
            "feasibility.test_segments_s": total("feasibility.test_segments"),
            "feasibility.test_arcs_s": total("feasibility.test_arcs"),
            "feasibility.arc_windows": c["feasibility.arc_windows"] / passes,
            "annulus.lsq_accept": c["annulus.lsq_accept"] / passes,
            "annulus.subset_reject": c["annulus.subset_reject"] / passes,
            "annulus.full": c["annulus.full"] / passes,
            "annulus.mwa_calls": calls("annulus.mwa"),
            "annulus.mwa_s": total("annulus.mwa"),
            "annulus.self_s": own("annulus.mwa"),
            "delaunay.closest_s": total("delaunay.closest"),
            "delaunay.farthest_s": total("delaunay.farthest"),
            "voronoi.s": total("voronoi"),
            "voronoi.edges": c["voronoi.edges"] / passes,
            "clipping.s": total("clipping"),
            "clipping.segments_out": c["clipping.segments_out"] / passes,
            "overlaps.s": total("overlaps"),
            "overlaps.segments_out": c["overlaps.segments_out"] / passes,
            "sweep.s": total("sweep"),
            "sweep.segments": c["sweep.segments"] / passes,
            "sweep.events": c["sweep.events"] / passes,
            "arcfit.ls_fits": calls("arcfit.ls_fit"),
            "arcfit.tol_fits": calls("arcfit.tol_fit"),
            "arcfit.s": total("arcfit.ls_fit") + total("arcfit.tol_fit") + total("arcfit.check"),
            "hulltree.seg_queries": calls("hulltree.seg_query"),
            "hulltree.seg_query_s": total("hulltree.seg_query"),
            "sortedrange.pops": c["sortedrange.pops"] / passes,
            "sortedrange.comparisons": c["sortedrange.comparisons"] / passes,
            "sortedrange.heap_ops": c["sortedrange.heap_ops"] / passes,
        }
        return out
