"""Command-line interface: compress, annulus, gen-hull, bench.

Exit codes: 0 success, 2 malformed input, 3 invalid parameters (also an
output path that cannot be written).  Documents go to stdout; timing goes
to stderr so output stays byte-deterministic.  `compress` runs on the
modules `import arcline` loads; the other subcommands import the annulus
stack (and `fractions`), the hull generators or the SVG writer when they
run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .compress import CompressionParams
from .document import (ResultDocument, fmt, read_polyline_file, render,
                       write_polyline_file)
from .pipeline import choose_scale, compress_polyline, quantize_points

EXIT_BAD_INPUT = 2
EXIT_BAD_PARAMS = 3


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_compress(args) -> int:
    try:
        points, file_scale = read_polyline_file(args.input)
    except (OSError, ValueError) as e:
        return _fail(EXIT_BAD_INPUT, str(e))
    params = dict(penalty_segment=args.penalty_segment, penalty_arc=args.penalty_arc,
                  min_arc_points=args.min_arc_points, mode=args.mode)
    try:
        CompressionParams(tolerance=args.tolerance, **params)
        scale = float(file_scale) if file_scale else choose_scale(args.tolerance)
    except ValueError as e:
        return _fail(EXIT_BAD_PARAMS, str(e))
    t0 = time.perf_counter()
    try:
        result = compress_polyline(points, args.tolerance, scale=scale, **params)
    except ValueError as e:  # coordinates beyond the grid at this scale
        return _fail(EXIT_BAD_INPUT, str(e))
    elapsed = time.perf_counter() - t0

    doc = ResultDocument()
    doc.set("input", os.path.basename(args.input))
    doc.set("vertices", len(points))
    doc.set("mode", args.mode)
    doc.set("tolerance", float(args.tolerance))
    doc.set("penalty_segment", args.penalty_segment)
    doc.set("penalty_arc", args.penalty_arc)
    doc.set("min_arc_points", args.min_arc_points)
    doc.set("scale", float(result.scale))
    doc.set("primitives", len(result.primitives))
    doc.set("t_count", result.t_count)
    doc.set("t_sse", float(result.t_sse))
    for p in result.primitives:
        if p.kind == "segment":
            doc.add_row(["segment", p.start_idx, p.end_idx,
                         float(p.start[0]), float(p.start[1]),
                         float(p.end[0]), float(p.end[1]), "-", "-", "-", "-"])
        else:
            doc.add_row(["arc", p.start_idx, p.end_idx,
                         float(p.start[0]), float(p.start[1]),
                         float(p.end[0]), float(p.end[1]),
                         float(p.center[0]), float(p.center[1]),
                         float(p.radius), p.orientation])
    if args.svg:
        from .svg import render_svg
        try:
            with open(args.svg, "w") as f:
                f.write(render_svg(result))
        except OSError as e:
            return _fail(EXIT_BAD_PARAMS, str(e))
    sys.stdout.write(render(doc))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_annulus(args) -> int:
    from fractions import Fraction

    from .annulus import min_width_annulus
    from .voronoi import ClipConfig, data_radius

    try:
        points, file_scale = read_polyline_file(args.input)
    except (OSError, ValueError) as e:
        return _fail(EXIT_BAD_INPUT, str(e))
    if len(set(points)) < 2:
        return _fail(EXIT_BAD_INPUT, "need at least 2 distinct points")
    if not 0 < args.alpha < 360:
        return _fail(EXIT_BAD_PARAMS, "alpha out of range")
    if args.tolerance is not None and not 0 < args.tolerance < math.inf:
        return _fail(EXIT_BAD_PARAMS, "tolerance must be positive and finite")
    if file_scale:
        scale = float(file_scale)
    else:
        scale = choose_scale(args.tolerance) if args.tolerance is not None else 1024.0
    try:
        grid = quantize_points(points, scale)
    except ValueError as e:
        return _fail(EXIT_BAD_INPUT, str(e))
    try:
        clip = ClipConfig(math.radians(args.alpha), data_radius(grid))
    except ValueError as e:
        return _fail(EXIT_BAD_PARAMS, str(e))
    try:
        res = min_width_annulus(grid, clip)
        r_inner = math.sqrt(res.r_inner_sq) / scale
        r_outer = math.sqrt(res.r_outer_sq) / scale
        width = res.width / scale
    except ValueError as e:
        return _fail(EXIT_BAD_INPUT, str(e))
    except OverflowError:
        return _fail(EXIT_BAD_INPUT, "coordinates too large: the squared radii overflow a float")
    doc = ResultDocument()
    doc.set("input", os.path.basename(args.input))
    doc.set("points", len(points))
    doc.set("alpha_degrees", float(args.alpha))
    doc.set("scale", float(scale))
    cx = Fraction(res.center[0]) / Fraction(scale)
    cy = Fraction(res.center[1]) / Fraction(scale)
    doc.set("center_exact", f"{cx} {cy}")
    doc.set("center", f"{fmt(float(cx))} {fmt(float(cy))}")
    doc.set("r_inner", r_inner)
    doc.set("r_outer", r_outer)
    doc.set("width", width)
    if args.tolerance is not None:
        doc.set("tolerance", float(args.tolerance))
        doc.set("arc_feasible", res.feasible_for(args.tolerance * scale))
    sys.stdout.write(render(doc))
    return 0


# --algo / --gen name -> generator in `randomhull`, which loads on use
_GENERATORS = {
    "walk": "gen_random_walk_hull",
    "directions": "gen_directions_hull",
    "fdt": "gen_fdt_hull",
}


def cmd_gen_hull(args) -> int:
    if args.n < 3:
        return _fail(EXIT_BAD_PARAMS, "need n >= 3")
    from . import randomhull

    sample = getattr(randomhull, _GENERATORS[args.algo])(args.n, args.seed)
    sample = randomhull.finalize_hull(sample)
    try:
        write_polyline_file(args.out, sample.vertices)
    except OSError as e:
        return _fail(EXIT_BAD_PARAMS, str(e))
    print(f"wrote {len(sample.vertices)} hull vertices to {args.out}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    if any(n < 3 for n in args.n):
        return _fail(EXIT_BAD_PARAMS, "need n >= 3")
    if args.repeat < 1:
        return _fail(EXIT_BAD_PARAMS, "need repeat >= 1")
    import random as _random

    from . import delaunay, randomhull

    print(f"algo={args.algo} gen={args.gen} repeat={args.repeat}")
    print(f"{'n':>10} {'seconds':>12}")
    prev = None
    for n in args.n:
        runs = []  # (seconds, input size) per repeat; the inputs differ in size
        for rep in range(args.repeat):
            rng = _random.Random(10_000 * rep + n)
            if args.gen == "uniform":
                span = max(1000, 4 * n)
                pts = list({(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)})
            else:
                sample = getattr(randomhull, _GENERATORS[args.gen])(n, seed=rep + 1)
                pts = randomhull.finalize_hull(sample).quantized
            t0 = time.perf_counter()
            if args.algo == "closest":
                delaunay.build_closest(pts)
            else:
                delaunay.build_farthest(pts)
            runs.append((time.perf_counter() - t0, len(pts)))
        best, size = min(runs)
        ratio = "" if prev is None else f"  x{best / prev:.2f}"
        print(f"{size:>10} {best:>12.4f}{ratio}")
        prev = best
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="arcline",
                                 description="Compress polylines into segments and circular arcs.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a polyline file")
    c.add_argument("input")
    c.add_argument("--tolerance", type=float, required=True)
    c.add_argument("--mode", choices=["vertices", "segments"], default="vertices")
    c.add_argument("--penalty-segment", type=int, default=2)
    c.add_argument("--penalty-arc", type=int, default=3)
    c.add_argument("--min-arc-points", type=int, default=4)
    c.add_argument("--svg", default=None)
    c.set_defaults(func=cmd_compress)

    a = sub.add_parser("annulus", help="minimum-width annulus of a point file")
    a.add_argument("input")
    a.add_argument("--alpha", type=float, default=0.1, help="minimum arc angle, degrees")
    a.add_argument("--tolerance", type=float, default=None)
    a.set_defaults(func=cmd_annulus)

    g = sub.add_parser("gen-hull", help="generate a random convex hull")
    g.add_argument("--algo", choices=sorted(_GENERATORS), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_hull)

    b = sub.add_parser("bench", help="time the Delaunay builders")
    b.add_argument("--algo", choices=["closest", "farthest"], default="closest")
    b.add_argument("--gen", choices=["uniform", "walk", "directions", "fdt"], default="uniform")
    b.add_argument("--n", type=int, action="append", required=True)
    b.add_argument("--repeat", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
