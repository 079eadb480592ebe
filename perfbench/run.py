"""Benchmark of schedfuzz: fuzzing throughput, time to bug and per-layer cost.

    python3 perfbench/run.py --workload raft-bug --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  The run times the import (``setup_s``), then repeats one unit of the
workload (see ``spec.py``) until ``--seconds`` have passed and reports medians
over the units.  Every unit is checked and digested; a campaign whose result
is wrong or whose digest differs from the first unit's counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced unit and prints the per-layer metrics of the traced
ones, plus the tracing overhead; the spans of the last traced unit are written
to ``.perfbench_out/spans-<workload>.tsv``.  The last line of standard output
is the result object; the line before it is a report with the workload's
parameters and the determinism digests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 15
MIN_UNITS = 2
# Iterations of the reference loop, and the seconds it takes at the nominal
# host speed that end-to-end timings are scaled to.
REF_LOOP = 120_000
REF_NOMINAL_S = 0.08

sys.path.insert(0, str(HERE))
from spec import DEFAULT_SEED, WORKLOADS  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_s() -> float:
    """Seconds the host now takes for a fixed loop that runs no package code.

    The shared virtual machines this benchmark was defined on change speed by
    up to half within a minute, and the package's code slows with them.  So
    each end-to-end time is multiplied by REF_NOMINAL_S over this loop's time,
    measured right before and after the timed work.
    """
    t0 = time.perf_counter()
    counts, recent, acc = {}, deque(), 0
    for i in range(REF_LOOP):
        key = (i & 63, (i >> 6) & 15)
        counts[key] = counts.get(key, 0) + 1
        recent.append(key)
        if len(recent) > 8:
            acc += recent.popleft()[0]
        acc += len({i & 7, i & 15})
    return time.perf_counter() - t0


def time_setup(wl) -> float:
    """Seconds to import the package and build the workload's benchmark.

    The median of SETUP_REPS repetitions, each scaled to the nominal host
    speed by reference loops timed just before and after it.
    """
    if not (SRC / "schedfuzz" / "__init__.py").is_file():
        raise FileNotFoundError(f"no schedfuzz sources under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    before = reference_s()
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules
                     if m == "schedfuzz" or m.startswith("schedfuzz.")]:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        importlib.import_module("schedfuzz.stats")
        benchmarks = importlib.import_module("schedfuzz.benchmarks")
        benchmarks.make_benchmark(wl.bench, wl.params)
        elapsed = time.perf_counter() - t0
        after = reference_s()
        times.append(elapsed * REF_NOMINAL_S * 2 / (before + after))
        before = after
    package = Path(sys.modules["schedfuzz"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise ImportError(f"schedfuzz was imported from {package}, not {SRC}")
    return statistics.median(times)


def run_units(wl, seed: int, seconds: float, trace: bool):
    """Untraced units (and, with ``trace``, traced ones) until time is up.

    Returns the untraced units, the traced ones and the number that raised.
    """
    from workloads import run_unit

    units = {False: [], True: []}
    crashed = 0
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            try:
                units[traced].append(run_unit(wl, seed, traced, reference_s))
            except Exception:
                traceback.print_exc()
                crashed += 1
        done = len(units[False]) + len(units[True]) + crashed
        if time.perf_counter() >= deadline and done >= MIN_UNITS:
            return units[False], units[True], crashed


def scaled_s(unit) -> float:
    """A unit's timed seconds at the nominal host speed."""
    return sum(wall * REF_NOMINAL_S * 2 / (before + after)
               for wall, before, after in unit.segments)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        setup_s = time_setup(wl)
    except (ImportError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    plain, traced, crashed = run_units(wl, args.seed, args.seconds, bool(args.trace))
    units = plain + traced
    if not plain or (args.trace and not traced):
        print("error: no unit of the workload completed", file=sys.stderr)
        return 1
    scaled = [scaled_s(u) for u in plain]

    # Every unit of a run has the same inputs, so every campaign digest must
    # match the first unit's, traced or not.
    reference = units[0].campaign_digests
    failed = crashed * wl.campaigns
    problems = []
    for unit in units:
        bad = {label for label, _ in unit.problems}
        problems += unit.problems
        if unit.campaign_digests != reference:
            for label, mine, first in zip(wl.labels, unit.campaign_digests, reference):
                if mine != first:
                    bad.add(label)
                    problems.append((label, "digest differs from the first unit's"))
        failed += len(bad)
    attempted = wl.campaigns * (len(units) + crashed)
    for label, message in problems:
        print(f"problem: {wl.name} {label}: {message}", file=sys.stderr)

    if args.trace:
        plain_s = statistics.median(u.wall_s for u in plain)
        traced_s = statistics.median(u.wall_s for u in traced)
        values = {name: statistics.median(u.layers[name] for u in traced)
                  for name in traced[0].layers}
        values["trace.overhead_s"] = traced_s - plain_s
        values["trace.overhead_ratio"] = traced_s / plain_s
        traced[-1].tracer.write(OUT / f"spans-{wl.name}.tsv")
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    else:
        metrics = {
            "exec_per_s": {"value": statistics.median(
                u.executions / s for u, s in zip(plain, scaled)), "unit": "1/s"},
            "campaign_s": {"value": statistics.median(scaled) / wl.campaigns,
                           "unit": "s"},
            "coverage_items": {"value": plain[0].coverage_items, "unit": "count"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "master_seeds": wl.master_seeds(args.seed),
        "spec": wl.describe(),
        "units": len(plain),
        "traced_units": len(traced),
        "unit_wall_s": [round(u.wall_s, 4) for u in plain],
        "unit_segments": [u.segments for u in plain],
        "traced_unit_wall_s": [round(u.wall_s, 4) for u in traced],
        "executions_per_unit": plain[0].executions,
        "digest": units[0].digest,
        "campaign_digests": reference,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
