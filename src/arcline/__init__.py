"""arcline: minimum-penalty polyline compression with segments and arcs.

`import arcline` loads the compression path only.  The minimum-width
annulus stack (Delaunay, Voronoi, clipping, overlap removal, sweep) and the
random-hull generators load on first access to one of their names or
submodules (PEP 562), so compressing never imports them.
"""

import importlib

from .arcfit import (FittedArc, arc_exists_within_tolerance, arc_within_tolerance, densify,
                     direction_and_endpoint_check, fit_arc_by_tolerance,
                     fit_arc_least_squares, tolerance_intervals_point)
from .compress import (CompressedPolyline, CompressionParams, Primitive,
                       compress, reconstruct)
from .feasibility import (FitIndexArrays, InfeasiblePairList,
                          build_fit_index_arrays, test_arcs, test_segments)
from .hulltree import HullTree
from .pipeline import CompressionResult, archimedean_spiral, compress_polyline
from .predicates import incircle, orientation
from .sortedrange import MergeTree, RangeHeap

__version__ = "0.1.0"

# submodule -> the public names it defines that load on first access
_DEFERRED = {
    "annulus": ("AnnulusResult", "min_width_annulus"),
    "clipping": ("clip_segments_square",),
    "delaunay": ("TriangulationMesh", "build_closest", "build_farthest", "convex_hull_indices"),
    "overlaps": ("remove_overlaps",),
    "randomhull": ("HullSample", "finalize_hull", "gen_directions_hull", "gen_fdt_hull",
                   "gen_random_walk_hull"),
    "segments": ("IndexedSegment",),
    "sweep": ("SweepEvent", "segment_intersection", "sweep_intersections"),
    "voronoi": ("ClipConfig", "VoronoiDiagram", "voronoi_from_delaunay"),
}
_DEFERRED_NAMES = {name: module for module, names in _DEFERRED.items() for name in names}
# deferred submodules that load on attribute access too (`arcline.delaunay`)
_DEFERRED_MODULES = frozenset(_DEFERRED) | {"quadedge", "radicals"}

__all__ = [
    "CompressedPolyline", "CompressionParams", "CompressionResult", "FitIndexArrays",
    "FittedArc", "HullTree", "InfeasiblePairList", "MergeTree", "Primitive", "RangeHeap",
    "arc_exists_within_tolerance", "arc_within_tolerance", "archimedean_spiral",
    "build_fit_index_arrays", "compress", "compress_polyline", "densify",
    "direction_and_endpoint_check", "fit_arc_by_tolerance", "fit_arc_least_squares",
    "incircle", "orientation", "reconstruct", "test_arcs", "test_segments",
    "tolerance_intervals_point", *_DEFERRED_NAMES]


def __getattr__(name):
    module = _DEFERRED_NAMES.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _DEFERRED_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _DEFERRED_MODULES)
