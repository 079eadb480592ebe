"""One unit of each workload: run it through the public API, check and digest it.

A unit is a few ``fuzz_campaign`` calls (raft-bug, tpc-trace) or one
``compare_strategies`` call (micro-compare).  Running a unit twice with the
same seed must give the same digests; ``run.py`` repeats units to time them.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

from schedfuzz import fingerprint, fuzzer, harness, stats
from schedfuzz.benchmarks import make_benchmark

from spec import Workload
from tracing import Tracer, layer_metrics, layer_patches, patched


@dataclass
class Unit:
    segments: list      # (wall seconds, probe reading before, probe reading after)
    executions: int
    coverage_items: int
    digest: str
    campaign_digests: list
    problems: list = field(default_factory=list)   # (campaign label, message)
    layers: dict | None = None                     # traced units only
    tracer: Tracer | None = None

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _, _ in self.segments)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def campaign_digest(result) -> str:
    """Digest of a campaign's deterministic outputs (timings excluded)."""
    return _sha((
        tuple(result.timeline),
        tuple((e.entry_id, e.parent) for e in result.corpus),
        tuple((b.key, b.first_iteration) for b in result.bug_log),
        result.unmatched_actions,
        tuple(sorted(result.total_coverage)),
        tuple(sorted(result.state_coverage)),
    ))


def check_campaign(wl: Workload, config, result) -> list[str]:
    """What is wrong with one campaign's result; empty when it is correct."""
    problems = []
    timeline = result.timeline
    if not timeline or len(timeline) != result.iterations:
        problems.append(f"timeline has {len(timeline)} rows for "
                        f"{result.iterations} iterations")
    elif (timeline[-1][1] != len(result.total_coverage)
          or timeline[-1][3] != len(result.state_coverage)):
        problems.append("final timeline row disagrees with the coverage sets")
    if wl.stop_on_bug and result.first_bug_iteration(wl.stop_on_bug) is None:
        problems.append(f"no {wl.stop_on_bug} violation in {result.iterations} "
                        "iterations")
    for rec in result.bug_log:
        replay = harness.execute_schedule(config.benchmark.sut, rec.schedule)
        if rec.key not in {v.key for v in replay.violations}:
            problems.append(f"bug schedule of {rec.key} does not replay to it")
    return problems


def check_comparison(wl: Workload, comparison) -> list:
    """(label, problem) pairs where a comparison contradicts its own timelines."""
    problems = []
    for label, (notion, run) in zip(wl.labels, wl.campaign_keys):
        timeline = comparison.timelines.get((notion, run))
        if not timeline or timeline[-1][0] != len(timeline):
            problems.append((label, "timeline missing or not one row per iteration"))
        elif (timeline[-1][1] != comparison.final_coverage[notion][run]
              or timeline[-1][3] != comparison.final_states[notion][run]):
            problems.append((label, "final counts disagree with the timeline"))
        elif not 1 <= comparison.first_bug[notion][run] <= wl.budget + 1:
            problems.append((label, "first-bug iteration out of range"))
    return problems


def _compare_digests(wl: Workload, comparison):
    """Per-campaign digests and the unit digest of a comparison.

    A comparison's campaigns are visible only through its result, so their
    digests cover what it reports: timeline, final counts and first bug.
    """
    digests = [
        _sha((tuple(comparison.timelines[(n, r)]),
              comparison.final_states[n][r],
              comparison.final_coverage[n][r],
              comparison.first_bug[n][r]))
        for n, r in wl.campaign_keys
    ]
    return digests, _sha((digests, sorted(comparison.pairwise.items())))


def run_unit(wl: Workload, seed: int, traced: bool = False,
             probe=lambda: 1.0) -> Unit:
    """Run one unit of ``wl`` for ``--seed seed``; time it, check it, digest it.

    ``probe()`` is called, outside the timed regions, before and after each
    campaign (around the whole call for a comparison); each timed segment is
    returned with the two readings around it.
    """
    seeds = wl.master_seeds(seed)
    sut_class = type(make_benchmark(wl.bench, wl.params).sut)
    tracer = Tracer() if traced else None
    problems = []

    if wl.compare:
        config = stats.CompareConfig(
            benchmark_factory=lambda: make_benchmark(wl.bench, wl.params),
            notions=wl.notions,
            runs=wl.runs,
            budget=wl.budget,
            master_seed=seeds[0],
            track_states=wl.track_states,
            stop_on_bug=wl.stop_on_bug,
        )
        # The campaigns of one comparison share the fingerprint cache.
        fingerprint.clear_cache()
        gc.collect()
        with patched(layer_patches(tracer, sut_class) if traced else []):
            before = probe()
            t0 = time.perf_counter()
            comparison = stats.compare_strategies(config)
            wall = time.perf_counter() - t0
            segments = [(wall, before, probe())]
        executions = sum(t[-1][0] for t in comparison.timelines.values() if t)
        problems += check_comparison(wl, comparison)
        digests, digest = _compare_digests(wl, comparison)
        coverage_items = sum(map(sum, comparison.final_states.values()))
    else:
        configs = [
            fuzzer.CampaignConfig(
                benchmark=make_benchmark(wl.bench, wl.params),
                notion=wl.notions[0],
                budget=wl.budget,
                master_seed=s,
                track_states=wl.track_states,
                stop_on_bug=wl.stop_on_bug,
            )
            for s in seeds
        ]
        results, segments = [], []
        with patched(layer_patches(tracer, sut_class) if traced else []):
            before = probe()
            for config in configs:
                # Each campaign starts as it would in a fresh process.
                fingerprint.clear_cache()
                gc.collect()
                t0 = time.perf_counter()
                results.append(fuzzer.fuzz_campaign(config))
                wall = time.perf_counter() - t0
                after = probe()
                segments.append((wall, before, after))
                before = after
        executions = sum(r.iterations for r in results)
        for label, config, result in zip(wl.labels, configs, results):
            problems += [(label, p) for p in check_campaign(wl, config, result)]
        digests = [campaign_digest(r) for r in results]
        digest = _sha(digests)
        coverage_items = sum(len(r.total_coverage) for r in results)

    return Unit(
        segments=segments,
        executions=executions,
        coverage_items=coverage_items,
        digest=digest,
        campaign_digests=digests,
        problems=problems,
        layers=layer_metrics(tracer, executions) if traced else None,
        tracer=tracer,
    )
