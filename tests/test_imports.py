"""`import arcline` loads the compression path only; the annulus stack and
the random-hull generators load on first access to one of their names, and
neither the compression path nor `arcline compress` imports `dataclasses`
or `fractions`, not even to compress an input whose float filters decide
every check.

Each check that reads `sys.modules` runs in a fresh `python -I`
interpreter, so what this test process has imported does not count.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import arcline
from arcline.document import write_polyline_file

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(arcline.__file__)))

# modules that neither `import arcline` nor `arcline compress` may load
DEFERRED = {"arcline.annulus", "arcline.clipping", "arcline.delaunay", "arcline.overlaps",
            "arcline.quadedge", "arcline.radicals", "arcline.randomhull", "arcline.segments",
            "arcline.svg", "arcline.sweep", "arcline.voronoi"}
# standard-library modules neither may load: `dataclasses` costs more to
# import than the compression path, mostly through `inspect`, and
# `fractions` (with `decimal`) serves only the exact fallbacks
STDLIB_DEFERRED = {"dataclasses", "inspect", "fractions", "decimal"}

# every public name `arcline` has exported since the compression path was
# made its only eager import
EXPORTED = {
    "AnnulusResult", "ClipConfig", "CompressedPolyline", "CompressionParams",
    "CompressionResult", "FitIndexArrays", "FittedArc", "HullSample", "HullTree",
    "IndexedSegment", "InfeasiblePairList", "MergeTree", "Primitive", "RangeHeap",
    "SweepEvent", "TriangulationMesh", "VoronoiDiagram", "arc_exists_within_tolerance",
    "arc_within_tolerance", "archimedean_spiral", "build_closest", "build_farthest",
    "build_fit_index_arrays", "clip_segments_square", "compress", "compress_polyline",
    "convex_hull_indices", "densify", "direction_and_endpoint_check", "finalize_hull",
    "fit_arc_by_tolerance", "fit_arc_least_squares", "gen_directions_hull", "gen_fdt_hull",
    "gen_random_walk_hull", "incircle", "min_width_annulus", "orientation", "reconstruct",
    "remove_overlaps", "segment_intersection", "sweep_intersections", "test_arcs",
    "test_segments", "tolerance_intervals_point", "voronoi_from_delaunay",
}


def run_fresh(code, *args):
    """Run `code` in an isolated interpreter that finds this package, and
    return the JSON its last stdout line holds."""
    proc = subprocess.run([sys.executable, "-I", "-c",
                           "import sys; sys.path.insert(0, sys.argv[1]); " + code,
                           PACKAGE_ROOT, *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(sys.modules)))"


def test_import_loads_no_deferred_module():
    loaded = run_fresh("import json, arcline; " + LOADED)
    assert "arcline.compress" in loaded
    assert not DEFERRED & set(loaded)
    assert not STDLIB_DEFERRED & set(loaded)


def test_cli_compress_loads_no_deferred_module(tmp_path):
    path = tmp_path / "in.txt"
    write_polyline_file(str(path), [(0, 0), (1, 0), (2, 1), (3, 3), (3, 5), (2, 7), (0, 8)])
    loaded = run_fresh("import json; from arcline import cli; "
                       "assert cli.main(['compress', sys.argv[2], '--tolerance', '0.1']) == 0; "
                       + LOADED, str(path))
    assert "arcline.cli" in loaded
    assert not DEFERRED & set(loaded)
    assert not STDLIB_DEFERRED & set(loaded)


def test_compressing_in_floats_loads_no_deferred_module():
    # a spiral and a noisy walk, whose every check the float filters decide:
    # the rational fallbacks, and `fractions` with them, stay unloaded
    rng = random.Random(7)
    walk = [(0.0, 0.0)]
    for _ in range(150):
        walk.append((walk[-1][0] + rng.uniform(0.2, 1.0), walk[-1][1] + rng.uniform(-0.5, 0.5)))
    loaded, counts = run_fresh(
        "import json, arcline\n"
        "counts = [arcline.compress_polyline(arcline.archimedean_spiral(1, 4, 0.1), 0.1).t_count,\n"
        "          arcline.compress_polyline(json.loads(sys.argv[2]), 0.2).t_count]\n"
        "print(json.dumps([sorted(sys.modules), counts]))", json.dumps(walk))
    assert "arcline.compress" in loaded and min(counts) > 2
    assert not DEFERRED & set(loaded)
    assert not STDLIB_DEFERRED & set(loaded)


def test_every_exported_name_is_the_submodules_own_object():
    # first access resolves each name, and caches it in the package
    bad = run_fresh(
        "import json, arcline\n"
        "bad = []\n"
        "for name in arcline.__all__:\n"
        "    obj = getattr(arcline, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    if not (home.__name__.startswith('arcline.') and getattr(home, name) is obj\n"
        "            and vars(arcline)[name] is obj):\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))")
    assert bad == []
    assert set(arcline.__all__) == EXPORTED


def test_dir_and_star_import_list_every_exported_name():
    listed, starred = run_fresh(
        "import json, arcline\n"
        "listed = dir(arcline)\n"
        "namespace = {}\n"
        "exec('from arcline import *', namespace)\n"
        "print(json.dumps([listed, sorted(namespace)]))")
    assert EXPORTED <= set(listed)
    assert EXPORTED <= set(starred)


def test_deferred_submodules_load_on_attribute_access():
    loaded = run_fresh("import json, arcline; "
                       "assert arcline.delaunay.build_closest is arcline.build_closest; "
                       + LOADED)
    assert "arcline.delaunay" in loaded and "arcline.annulus" not in loaded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arcline.no_such_name  # noqa: B018
    assert not hasattr(arcline, "cli_main")
    with pytest.raises(ImportError):
        from arcline import no_such_name  # noqa: F401
