"""arcline: minimum-penalty polyline compression with segments and arcs."""

from .annulus import (AnnulusResult, arc_exists_within_tolerance,
                      min_width_annulus)
from .arcfit import (FittedArc, arc_within_tolerance, densify,
                     direction_and_endpoint_check, fit_arc_by_tolerance,
                     fit_arc_least_squares, tolerance_intervals_point)
from .clipping import clip_segments_square
from .compress import (CompressedPolyline, CompressionParams, Primitive,
                       compress, reconstruct)
from .delaunay import (TriangulationMesh, build_closest, build_convex_ordered,
                       build_farthest, convex_hull_indices)
from .feasibility import (FitIndexArrays, InfeasiblePairList,
                          build_fit_index_arrays, test_arcs, test_segments)
from .hulltree import HullTree
from .overlaps import remove_overlaps
from .pipeline import CompressionResult, archimedean_spiral, compress_polyline
from .predicates import (ExactCircle, circumcircle, incircle,
                         incircle_farthest, invert_point, orientation)
from .randomhull import (HullSample, finalize_hull, gen_directions_hull,
                         gen_fdt_hull, gen_random_walk_hull)
from .segments import IndexedSegment
from .sortedrange import MergeTree, RangeHeap
from .sweep import SweepEvent, segment_intersection, sweep_intersections
from .voronoi import ClipConfig, VoronoiDiagram, voronoi_from_delaunay

__version__ = "0.1.0"
