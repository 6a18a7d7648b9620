"""Benchmark of `compress_polyline` and `min_width_annulus`.

    python3 perfbench/run.py --workload spiral --seed 1 --seconds 25 --trace 0

Runs one workload in this process, on one thread, as a closed loop: the
seeded cases are called one after another, largest first, pass after pass,
until `--seconds` have gone by (at least one full pass).  Every output is
checked by `checker.py`, which does not use the library; on the default
seed the outputs are also compared with `reference.json`.  Inputs that show
a known defect (see `workloads.KNOWN_DEFECT`) are called once before the
loop, untimed; what they raise is reported on stderr, and an output they
return is checked like any other.

Times are normalized to a reference machine speed.  A fixed pure-Python
probe, independent of the library, runs between calls, PROBES times in a
row; each call's wall time is scaled by PROBE_REF_S over the mean of the
probes on either side of it.  On a 2-vCPU virtual machine whose speed
switched between two levels about 50 % apart every few seconds, medians of
raw wall times spread by 10-40 % (interquartile range over median) across
identical runs; the scaling cut that to about 2-5 %.  A single 5 ms probe
read anywhere from 4 to 15 ms within one second there, hence several.  The
garbage collector runs, untimed, before every call.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics:

    setup_s         median time of `import arcline` in a fresh interpreter
    vertices_per_s  input vertices (points) of the cases that succeed over
                    the summed per-case median call times
    call_p50_s      median over the succeeding cases of their median call
    largest_call_s  median call on the workload's largest inputs
    peak_rss_mb     peak resident memory of this process

With `--trace 1` it holds the per-layer metrics of a traced run (see
`tracer.py`), per pass over the workload, after one untraced pass whose
results the traced ones must equal.  `--workload all` runs every workload
in a fresh process of its own.

The library is imported from `src/` beside this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Case, known_defect_cases,  # noqa: E402
                       make_cases)

SETUP_IMPORTS = 21
PROBE_REF_S = 0.005  # probe time that defines the reference speed
PROBES = 5  # probes per speed reading: one alone is often cut by preemption
REFERENCE = HERE / "reference.json"
MIN_ARC_ANGLE_DEG = 0.1  # the `arcline annulus` default


class Missing(Exception):
    """The library sources are not where the benchmark expects them."""


def import_library():
    """Import arcline from this checkout's `src/`, never from elsewhere."""
    init = SRC / "arcline" / "__init__.py"
    if not init.is_file():
        raise Missing(f"{init} not found")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("arcline")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise Missing(f"arcline was imported from {pkg.__file__}")
    return pkg


def probe() -> float:
    """Wall time of a fixed loop of rational, integer, dict and list work
    like the library's: a gauge of the machine's current speed."""
    t0 = perf_counter()
    acc = Fraction(0)
    counts: Dict[int, int] = {}
    keys = []
    for i in range(1, 1200):
        acc += Fraction(i, i + 7)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
        keys.append((i * 7919) % 1013)
    keys.sort()
    return perf_counter() - t0


def reading() -> float:
    """Mean time of a few probes back to back."""
    return statistics.fmean(probe() for _ in range(PROBES))


class Gauge:
    """Scales wall times to the reference speed with the probes run just
    before and just after each timed stretch."""

    def __init__(self):
        self.last = reading()

    def scale(self, wall: float) -> float:
        now = reading()
        factor = PROBE_REF_S / ((self.last + now) / 2)
        self.last = now
        return wall * factor


def measure_setup(imports: int = SETUP_IMPORTS) -> float:
    """Median time of `import arcline` in fresh interpreters, after one
    untimed import that writes the bytecode caches."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import arcline; "
            "print(repr(time.perf_counter() - t))")
    gauge = Gauge()
    times = []
    for i in range(imports + 1):
        out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                             capture_output=True, text=True, timeout=60, check=True)
        took = gauge.scale(float(out.stdout.strip()))
        if i:
            times.append(took)
    return statistics.median(times)


# -- calls and their plain summaries ------------------------------------------

def summarize_compress(result) -> Dict:
    prims = []
    for p in result.primitives:
        prims.append({"kind": p.kind, "start_idx": p.start_idx, "end_idx": p.end_idx,
                      "start": tuple(p.start), "end": tuple(p.end),
                      "center": p.center, "radius": p.radius,
                      "orientation": p.orientation})
    return {"scale": result.scale, "t_count": result.t_count, "t_sse": result.t_sse,
            "primitive_count": len(prims), "primitives": prims}


def summarize_annulus(result) -> Dict:
    return {"center": [str(result.center[0]), str(result.center[1])],
            "r_inner_sq": str(result.r_inner_sq), "r_outer_sq": str(result.r_outer_sq)}


REFERENCE_KEYS = {"compress": ("t_count", "primitive_count"),
                  "annulus": ("r_inner_sq", "r_outer_sq")}


def make_call(workload: str, pkg) -> Tuple[str, Callable[[Case], Dict]]:
    """The library call for one case, returning its plain summary.  The
    function is looked up on the package at call time, so a traced run sees
    the wrapped one."""
    if workload == "annulus":
        clip_config = importlib.import_module("arcline.voronoi").ClipConfig

        def call(case: Case) -> Dict:
            xs = [p[0] for p in case.points]
            ys = [p[1] for p in case.points]
            r = math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1
            clip = clip_config(math.radians(MIN_ARC_ANGLE_DEG), r)
            return summarize_annulus(pkg.min_width_annulus(case.points, clip))

        return "annulus", call

    def call(case: Case) -> Dict:
        return summarize_compress(pkg.compress_polyline(case.points, case.tolerance))

    return "compress", call


def check(kind: str, case: Case, summary: Dict, expected: Optional[Dict]) -> List[str]:
    if kind == "annulus":
        problems = checker.check_annulus(case.points, summary)
    else:
        problems = checker.check_compress(case.points, case.tolerance, summary)
    if expected:
        problems += checker.check_reference(summary, expected)
    return problems


# -- the loop -----------------------------------------------------------------

class Outcomes:
    """Per-case times and outcomes over every call of a run.  A call fails
    when it raises or its output is rejected; a rejection also makes the
    run incorrect."""

    def __init__(self, cases: List[Case]):
        self.cases = cases
        self.times: List[List[float]] = [[] for _ in cases]
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.errors: Dict[str, int] = {}
        self.ok = [True] * len(cases)

    def _count(self, reason: str) -> None:
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def record(self, i: int, dt: float, error: Optional[str], problems: List[str]) -> None:
        self.attempted += 1
        self.times[i].append(dt)
        if error is not None or problems:
            self.failed += 1
            self.ok[i] = False
            self._count(error or f"rejected: {problems[0]}")
        if problems:
            self.rejected += 1

    def reject(self, reason: str) -> None:
        self.rejected += 1
        self._count(reason)


def run_pass(cases, call, kind, references, outcomes: Outcomes, gauge: Gauge,
             deadline: Optional[float] = None) -> Tuple[float, List[Optional[Dict]]]:
    """One pass over the cases, stopping early at `deadline`.  Returns the
    summed scaled time of the calls made and their output summaries."""
    wall = 0.0
    summaries: List[Optional[Dict]] = []
    for i, case in enumerate(cases):
        if deadline is not None and perf_counter() >= deadline:
            break
        summary = error = None
        gc.collect()  # each call starts from the same, clean heap
        t0 = perf_counter()
        try:
            summary = call(case)
        except Exception as e:  # a library failure is a result of the run
            error = f"{type(e).__name__}: {e}"
        dt = gauge.scale(perf_counter() - t0)
        wall += dt
        problems = [] if summary is None else check(kind, case, summary, references.get(case.label))
        outcomes.record(i, dt, error, problems)
        summaries.append(summary)
    return wall, summaries


def load_references(workload: str, seed: int) -> Dict[str, Dict]:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {})


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM belongs to the
    process image; ru_maxrss would also count the parent's memory that a
    fork copied in before exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(outcomes: Outcomes, setup_s: float) -> Dict[str, Dict]:
    """Per-case median times, and the share of cases whose calls all
    succeeded, make the figures independent of where the time budget cut
    the last pass.  The median call is taken over the cases that succeed:
    a call that raises early says nothing about latency."""
    med = [statistics.median(t) for t in outcomes.times]
    ok_med = [m for m, ok in zip(med, outcomes.ok) if ok] or med
    top = max(c.size for c in outcomes.cases)
    largest = [t for c, ts in zip(outcomes.cases, outcomes.times) if c.size == top for t in ts]
    ok_vertices = sum(c.size for c, ok in zip(outcomes.cases, outcomes.ok) if ok)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "vertices_per_s": {"value": ok_vertices / sum(med), "unit": "1/s"},
        "call_p50_s": {"value": statistics.median(ok_med), "unit": "s"},
        "largest_call_s": {"value": statistics.median(largest), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def warm_up(kind: str, call, pkg) -> None:
    """One small call so lazy imports and first-call costs are paid."""
    if kind == "annulus":
        call(Case("warm", [(0, 0), (40, 3), (21, 30), (-7, 25), (5, -13)]))
    else:
        call(Case("warm", pkg.archimedean_spiral(1.0, 1.0, 0.3), 0.1))


def probe_known_defects(workload: str, seed: int, pkg, call, kind) -> int:
    """Call each known-defect input once, untimed, and report on stderr how
    many raise and what.  Returns how many outputs the checker rejects."""
    rejected = 0
    errors: Dict[str, int] = {}
    cases = known_defect_cases(workload, seed, pkg)
    for case in cases:
        try:
            summary = call(case)
        except Exception as e:  # the defect these inputs are kept for
            reason = f"{type(e).__name__}: {e}"
            errors[reason] = errors.get(reason, 0) + 1
            continue
        problems = check(kind, case, summary, None)
        if problems:
            rejected += 1
            print(f"{workload}: known-defect input {case.label} rejected: {problems[0]}",
                  file=sys.stderr)
    for error, n in sorted(errors.items()):
        print(f"{workload}: known defect, untimed: {n} of {len(cases)} inputs raise {error}",
              file=sys.stderr)
    return rejected


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    pkg = import_library()
    setup_s = 0.0 if trace else measure_setup()
    cases = make_cases(workload, seed, pkg)
    kind, call = make_call(workload, pkg)
    references = load_references(workload, seed)
    warm_up(kind, call, pkg)
    outcomes = Outcomes(cases)
    for _ in range(probe_known_defects(workload, seed, pkg, call, kind)):
        outcomes.reject("known-defect input rejected")
    gauge = Gauge()
    start = perf_counter()
    if not trace:
        run_pass(cases, call, kind, references, outcomes, gauge)
        while perf_counter() - start < seconds:
            run_pass(cases, call, kind, references, outcomes, gauge, deadline=start + seconds)
        metrics = end_to_end(outcomes, setup_s)
        correct = outcomes.rejected == 0
    else:
        from tracer import Tracer
        untraced_wall, untraced = run_pass(cases, call, kind, references, outcomes, gauge)
        tracer = Tracer()
        tracer.install()
        try:
            passes = 0
            traced_wall = 0.0
            pass_s = 0.0  # unscaled duration of the last traced pass
            while passes == 0 or perf_counter() - start + pass_s <= seconds:
                t0 = perf_counter()
                wall, traced = run_pass(cases, call, kind, references, outcomes, gauge)
                pass_s = perf_counter() - t0
                traced_wall += wall
                passes += 1
                if traced != untraced:
                    outcomes.reject("traced results differ from untraced")
        finally:
            tracer.uninstall()
        values = tracer.metrics(passes)
        values["trace.overhead_s"] = traced_wall / passes - untraced_wall
        values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced_wall
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
        correct = outcomes.rejected == 0
    for error, n in sorted(outcomes.errors.items()):
        print(f"{workload}: {n} x {error}", file=sys.stderr)
    return {"correct": correct, "attempted": outcomes.attempted,
            "failed": outcomes.failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    if name.endswith("mean_arc_window"):
        return "vertices"
    return "count"


def run_all(seed: int, seconds: float, trace: bool) -> Dict:
    """Every workload in a fresh process of its own, one after another."""
    import_library()
    results = {}
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(int(trace))],
                             stdout=subprocess.PIPE, text=True, timeout=900)
        if out.returncode != 0:
            raise RuntimeError(f"workload {workload} exited with {out.returncode}")
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in results[workload]["metrics"].items():
            print(f"{workload:9s} {name:30s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Missing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
