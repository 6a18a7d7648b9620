"""Record the default-seed reference outputs and a baseline run.

    python3 perfbench/record.py [--seconds 25]

Writes `reference.json`: per case of the default seed, the t_count and
primitive count of a compress result or the exact squared radii of an
annulus.  Cases whose call fails are left out.  Then writes
`baseline.json`: one untraced and one traced run of every workload on the
default seed, with the commit, Python version and processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS, make_cases


def record_reference() -> dict:
    pkg = run.import_library()
    out = {}
    for workload in WORKLOADS:
        kind, call = run.make_call(workload, pkg)
        values = {}
        for case in make_cases(workload, DEFAULT_SEED, pkg):
            try:
                summary = call(case)
            except ValueError:
                continue
            problems = run.check(kind, case, summary, None)
            if problems:
                raise RuntimeError(f"{workload} {case.label}: {problems}")
            values[case.label] = {k: summary[k] for k in run.REFERENCE_KEYS[kind]}
        out[workload] = values
    return out


def commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, cwd=run.ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    run.REFERENCE.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
    baseline = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "untraced": run.run_all(DEFAULT_SEED, args.seconds, False),
        "traced": run.run_all(DEFAULT_SEED, args.seconds, True),
    }
    (run.HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
