"""Seeded input generators for the four benchmark workloads.

Every generator takes the workload seed and returns a list of `Case`s in a
fixed order.  The library sees only the generated points: the generators
use `archimedean_spiral` and the `randomhull` constructions as point
sources, and nothing else from it.

Each case has a shape, drawn from a stream fixed by its position in the
workload (spiral step, track legs, hull outline, ring arc), and a pose and
noise drawn from the workload seed (rotation, offset, scale by a power of
two, phase, noise).  Different seeds therefore give different coordinates
and noise for the same amount of work, so the run-to-run spread of a
workload's figures measures the program and not the luck of the draw.
"""

from __future__ import annotations

import importlib
import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable, List, Tuple

DEFAULT_SEED = 1

# vertex (or point) counts per case, largest first: the loop runs cases in
# this order, so a cut-short pass still timed the largest inputs.  Each
# workload has two or three inputs of its largest size, so that the
# largest-input time does not hang on one shape.
SPIRAL_SIZES = (250, 250, 150)
TRACK_SIZES = (400, 400, 250)
TRACK_LEGS = ("straight", "gentle", "gentle", "tight")
CONTOUR_KINDS = ("circle", "noisy_circle", "ellipse", "rounded_rect",
                 "directions", "fdt")
CONTOUR_SIZES = (120, 90, 60)  # per kind
CONTOUR_LARGEST = (("ellipse", 160),) * 3  # run first; 25 contours in all
# drawn last, so the others keep their draws; the 90-vertex ones keep the
# median timed contour among the 90-vertex ones, clear of the 120s and 160s
CONTOUR_EXTRA = (("ellipse", 160),) * 2 + (("ellipse", 90),) * 2
# Closed outlines on which the library raises `ValueError: arc endpoints
# coincide` on every seed (ROADMAP item 2): the clean and noisy circles and
# one fdt outline, 7 of the 25.  They are kept out of the timed loop, so that the loop
# has no failing call and a fix does not change the work it times; each run
# calls them once, untimed, and reports what they do.
KNOWN_DEFECT = {"contours": ("03-circle-120", "04-noisy_circle-120", "08-fdt-120",
                             "09-circle-90", "10-noisy_circle-90", "15-circle-60",
                             "16-noisy_circle-60")}
RING_SIZES = (500, 500, 400, 300, 200)
HULL_SIZES = (250, 200, 175, 150, 150)


@dataclass
class Case:
    """One library call: `points`, plus the tolerance of a compress case."""

    label: str
    points: List[Tuple]
    tolerance: float = 0.0

    @property
    def size(self) -> int:
        return len(self.points)


def _shape_rng(workload: str, i: int) -> random.Random:
    return random.Random(f"{workload}-shape:{i}")


def _rotate(pts, angle: float, dx: float = 0.0, dy: float = 0.0):
    c, s = math.cos(angle), math.sin(angle)
    return [(c * x - s * y + dx, s * x + c * y + dy) for x, y in pts]


def spiral_cases(seed: int, spiral: Callable) -> List[Case]:
    """Archimedean spirals cut to exact vertex counts, tol = 0.1 *
    separation.  Shape: the step (0.24-0.26 separations).  Seed: the
    separation (a power of two, so the tolerance spans the same number of
    grid units) and the rotation."""
    rng = random.Random(f"spiral:{seed}")
    cases = []
    for i, n in enumerate(SPIRAL_SIZES):
        sep = 2.0 ** rng.randint(-1, 1)
        step = sep * _shape_rng("spiral", i).uniform(0.24, 0.26)
        b = sep / (2 * math.pi)
        theta = math.sqrt(2 * n * step / b + 4 * math.pi ** 2)
        turns = 1.2 * theta / (2 * math.pi)
        pts = spiral(sep, turns, step)[:n]
        if len(pts) != n:
            raise RuntimeError("spiral generator returned too few vertices")
        pts = _rotate(pts, rng.uniform(0, 2 * math.pi))
        cases.append(Case(f"{i}-spiral-{n}", pts, 0.1 * sep))
    return cases


def _track(shape: random.Random, rng: random.Random, n: int, tol: float) -> List[Tuple[float, float]]:
    """GPS-like open walk with steps of about 1 and position noise up to
    tol/2.  Shape: legs of 22-28 steps cycling through straight, gentle and
    tight turns, with a sharp turn (60-150 degrees) before one leg in four.
    Seed: heading, offset, step lengths, heading jitter and noise."""
    legs = []
    while sum(length for _, length, _, _ in legs) < n:
        for kind in TRACK_LEGS:
            radius = {"straight": math.inf, "gentle": shape.uniform(28, 36),
                      "tight": shape.uniform(7, 9)}[kind]
            sharp = shape.choice((-1, 1)) * math.radians(shape.uniform(60, 150))
            legs.append((kind, shape.randint(22, 28), shape.choice((-1, 1)) / radius, sharp))
    x, y = rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
    heading = rng.uniform(0, 2 * math.pi)
    pts = []
    for i, (kind, length, turn, sharp) in enumerate(legs):
        if i % 4 == 3:
            heading += sharp
        for _ in range(length):
            if len(pts) == n:
                return pts
            heading += turn + rng.gauss(0, 0.01)
            step = rng.uniform(0.9, 1.1)
            x += step * math.cos(heading)
            y += step * math.sin(heading)
            r = tol / 2 * math.sqrt(rng.random())
            a = rng.uniform(0, 2 * math.pi)
            pts.append((x + r * math.cos(a), y + r * math.sin(a)))
    return pts


def track_cases(seed: int) -> List[Case]:
    rng = random.Random(f"tracks:{seed}")
    tol = 0.2
    return [Case(f"{i}-track-{n}", _track(_shape_rng("tracks", i), rng, n, tol), tol)
            for i, n in enumerate(TRACK_SIZES)]


def _ellipse(rng, n, a, b, noise):
    phase = rng.uniform(0, 2 * math.pi)
    out = []
    for i in range(n):
        t = phase + 2 * math.pi * i / n
        out.append((a * math.cos(t) + rng.uniform(-noise, noise),
                    b * math.sin(t) + rng.uniform(-noise, noise)))
    return out


def _rounded_rect(n, w, h, r):
    """Rectangle with quarter-circle corners, sampled at equal arc length."""
    straight_w, straight_h = w - 2 * r, h - 2 * r
    per = 2 * (straight_w + straight_h) + 2 * math.pi * r
    out = []
    for i in range(n):
        s = per * i / n
        for cx, cy, a0, sx, sy, length in (
            (w / 2 - r, -h / 2 + r, -math.pi / 2, 0, 1, straight_h),
            (w / 2 - r, h / 2 - r, 0.0, -1, 0, straight_w),
            (-w / 2 + r, h / 2 - r, math.pi / 2, 0, -1, straight_h),
            (-w / 2 + r, -h / 2 + r, math.pi, 1, 0, straight_w),
        ):
            corner = math.pi / 2 * r
            if s < corner:
                a = a0 + s / r
                out.append((cx + r * math.cos(a), cy + r * math.sin(a)))
                break
            s -= corner
            if s < length:
                ex = cx + r * math.cos(a0 + math.pi / 2)
                ey = cy + r * math.sin(a0 + math.pi / 2)
                out.append((ex + sx * s, ey + sy * s))
                break
            s -= length
    return out


def _contour(shape: random.Random, rng: random.Random, kind: str, n: int,
             hulls) -> Tuple[List, float]:
    if kind == "circle":
        return _ellipse(rng, n, 10.0, 10.0, 0.0), 0.05
    if kind == "noisy_circle":
        return _ellipse(rng, n, 10.0, 10.0, 0.02), 0.05
    if kind == "ellipse":
        return _ellipse(rng, n, 12.0, 7.0, 0.01), 0.05
    if kind == "rounded_rect":
        return _rounded_rect(n, shape.uniform(18, 22), shape.uniform(10, 12),
                             shape.uniform(2.0, 3.0)), 0.05
    gen = hulls.gen_directions_hull if kind == "directions" else hulls.gen_fdt_hull
    with warnings.catch_warnings():
        # fdt growth may stop short of n when float resolution runs out
        warnings.simplefilter("ignore")
        sample = gen(n, seed=shape.randrange(1 << 30))
    return [(20 * x, 20 * y) for x, y in sample.vertices], 0.01


def contour_cases(seed: int, hulls) -> List[Case]:
    """Closed outlines ending on their first vertex: clean and noisy
    circles, ellipses, rounded rectangles, and `randomhull` directions and
    fdt outlines.  Seed: rotation, phase and noise.  `hulls` is the
    `arcline.randomhull` module."""
    rng = random.Random(f"contours:{seed}")
    plan = (list(CONTOUR_LARGEST) + [(kind, n) for n in CONTOUR_SIZES for kind in CONTOUR_KINDS]
            + list(CONTOUR_EXTRA))
    cases = []
    for i, (kind, n) in enumerate(plan):
        pts, tol = _contour(_shape_rng("contours", i), rng, kind, n, hulls)
        pts = _rotate(pts, rng.uniform(0, 2 * math.pi))
        cases.append(Case(f"{i:02d}-{kind}-{n}", pts + [pts[0]], tol))
    return sorted(cases, key=lambda c: -c.size)


def _ring(shape: random.Random, rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """Noisy scan of part of a ring on the integer grid.  Shape: radius,
    width and swept angle.  Seed: center, start angle and noise."""
    radius = shape.uniform(2e4, 1e5)
    width = radius * shape.uniform(0.005, 0.01)
    sweep = shape.uniform(math.pi, 2 * math.pi)
    cx, cy = rng.randint(-10 ** 5, 10 ** 5), rng.randint(-10 ** 5, 10 ** 5)
    start = rng.uniform(0, 2 * math.pi)
    pts = []
    for k in range(n):
        t = start + sweep * k / n
        r = radius + rng.uniform(-width / 2, width / 2)
        pts.append((round(cx + r * math.cos(t)), round(cy + r * math.sin(t))))
    return pts


def annulus_cases(seed: int, hulls) -> List[Case]:
    """Integer point sets: noisy ring scans, then quantized `randomhull`
    directions outlines (every point on the hull), rotated by the seed."""
    rng = random.Random(f"annulus:{seed}")
    cases = [Case(f"{i}-ring-{n}", _ring(_shape_rng("annulus", i), rng, n))
             for i, n in enumerate(RING_SIZES)]
    for i, n in enumerate(HULL_SIZES, len(cases)):
        sample = hulls.gen_directions_hull(n, seed=_shape_rng("annulus", i).randrange(1 << 30))
        sample.vertices = _rotate(sample.vertices, rng.uniform(0, 2 * math.pi))
        quantized = hulls.finalize_hull(sample, grid_scale=float(1 << 16)).quantized
        cases.append(Case(f"{i}-directions-{n}", quantized))
    return cases


WORKLOADS = ("spiral", "tracks", "contours", "annulus")


def all_cases(workload: str, seed: int, arcline_pkg) -> List[Case]:
    """Every case of one workload, known defects included; `arcline_pkg`
    is the imported package."""
    hulls = importlib.import_module("arcline.randomhull")
    if workload == "spiral":
        return spiral_cases(seed, arcline_pkg.archimedean_spiral)
    if workload == "tracks":
        return track_cases(seed)
    if workload == "contours":
        return contour_cases(seed, hulls)
    if workload == "annulus":
        return annulus_cases(seed, hulls)
    raise ValueError(f"unknown workload {workload!r}")


def make_cases(workload: str, seed: int, arcline_pkg) -> List[Case]:
    """The timed cases of one workload."""
    known = KNOWN_DEFECT.get(workload, ())
    return [c for c in all_cases(workload, seed, arcline_pkg) if c.label not in known]


def known_defect_cases(workload: str, seed: int, arcline_pkg) -> List[Case]:
    """The untimed cases of one workload that show a known defect."""
    known = KNOWN_DEFECT.get(workload, ())
    return [c for c in all_cases(workload, seed, arcline_pkg) if c.label in known]
