"""Spans and counters for the benchmark's traced runs.

``Tracer.wrap`` returns a stand-in for a package function that records one
span (name, start, end, parent) per call in flat arrays; ``patched`` installs
such stand-ins at the module or class attributes the package's callers look
up, and puts every original back on exit.  The fuzzing loop therefore runs as
shipped, only with its calls timed.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

_MISSING = object()

# Span names, one per layer boundary.
CAMPAIGN = "fuzzer.campaign"
GENERATE = "schedule.generate"
MUTATE = "fuzzer.mutate"
EXECUTE = "harness.execute"
HANDLE = "benchmarks.handle"
ORACLE = "benchmarks.oracle"
MAP = "mapper.map"
MODEL_RUN = "model.run"
STATE_ITEMS = "coverage.state_items"
ASSESS = "coverage.assess"
TRACE_FP = "coverage.trace_fp"
COMPARE = "stats.compare"


class Tracer:
    """In-memory span log of one single-threaded traced unit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, span_name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` then counts."""
        nid = self._ids.get(span_name)
        if nid is None:
            nid = self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def counted(self, key: str, fn):
        """``fn`` counting its calls under ``key``, without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time and call count (ns).

        Self time is the span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        total, own, calls = Counter(), Counter(), Counter()
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
        return total, own, calls

    def durations(self, span_name: str) -> list[int]:
        nid = self._ids.get(span_name)
        return [self.end[i] - self.start[i]
                for i, k in enumerate(self.name) if k == nid]

    def write(self, path: Path) -> None:
        """Write the spans as TSV: id, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                        f"{self.start[i]}\t{self.end[i]}\n")


@contextmanager
def patched(replacements):
    """Set ``owner.attr = new`` for each triple; restore every original on exit.

    An attribute the owner did not hold itself (a method inherited by a
    class) is deleted again rather than pinned to the inherited value.
    """
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def layer_patches(tracer: Tracer, sut_class) -> list:
    """The (owner, attr, wrapper) triples that trace every layer of the loop."""
    from schedfuzz import coverage, fingerprint, fuzzer, stats

    counts = tracer.counts
    cache = getattr(fingerprint, "_cache", {})

    def after_campaign(args, out):
        counts["productive_execs"] += len(out.corpus)
        counts["repopulations"] += out.repopulations

    def after_execute(args, out):
        counts["events"] += len(out.trace.events)
        counts["skipped_steps"] += len(out.trace.skipped)
        counts["steps"] += len(args[1].steps)

    def after_map(args, out):
        counts["actions"] += len(out)

    def after_run(args, out):
        counts["model_actions"] += len(args[1])
        counts["unmatched"] += len(out.unmatched)

    def after_mutate(args, out):
        counts["mutants"] += 1
        counts["noop_mutants"] += out == args[0]

    def after_handle(args, out):
        counts["handles"] += 1

    fp_orig = coverage.fingerprint

    def counted_fingerprint(value):
        counts["fp_calls"] += 1
        try:
            counts["fp_hits"] += value in cache
        except TypeError:
            pass
        return fp_orig(value)

    w = tracer.wrap
    campaign = w(CAMPAIGN, fuzzer.fuzz_campaign, after_campaign)
    return [
        (fuzzer, "fuzz_campaign", campaign),
        (stats, "fuzz_campaign", campaign),
        (stats, "compare_strategies", w(COMPARE, stats.compare_strategies)),
        (fuzzer, "generate_random_schedule",
         w(GENERATE, fuzzer.generate_random_schedule)),
        (fuzzer, "mutate", w(MUTATE, fuzzer.mutate, after_mutate)),
        (fuzzer, "execute_schedule",
         w(EXECUTE, fuzzer.execute_schedule, after_execute)),
        (fuzzer, "map_events", w(MAP, fuzzer.map_events, after_map)),
        (fuzzer, "run_actions", w(MODEL_RUN, fuzzer.run_actions, after_run)),
        (fuzzer, "model_state_items", w(STATE_ITEMS, fuzzer.model_state_items)),
        (fuzzer, "assess", w(ASSESS, fuzzer.assess)),
        (coverage, "trace_fingerprint", w(TRACE_FP, coverage.trace_fingerprint)),
        (coverage, "encode_canonical",
         tracer.counted("encode_calls", coverage.encode_canonical)),
        (coverage, "digest128", tracer.counted("digest_calls", coverage.digest128)),
        (coverage, "fingerprint", counted_fingerprint),
        (sut_class, "handle", w(HANDLE, sut_class.handle, after_handle)),
        (sut_class, "recover", w(HANDLE, sut_class.recover, after_handle)),
        (sut_class, "oracle_observe", w(ORACLE, sut_class.oracle_observe)),
    ]


def layer_metrics(tracer: Tracer, execs: int) -> dict:
    """Per-layer metrics of one traced unit, per execution unless named."""
    from schedfuzz import fingerprint

    total, own, calls = tracer.totals()
    c = tracer.counts
    x = max(execs, 1)

    def us(counter, *names):
        return sum(counter[n] for n in names) / 1e3 / x

    def ratio(a, b):
        return a / b if b else 0.0

    exec_ns = tracer.durations(EXECUTE)
    q = statistics.quantiles(exec_ns, n=100) if len(exec_ns) > 1 else exec_ns * 99
    return {
        "schedule.generate_us": us(own, GENERATE),
        "fuzzer.self_us": us(own, CAMPAIGN),
        "fuzzer.mutate_us": us(own, MUTATE),
        "fuzzer.mutants_per_exec": c["mutants"] / x,
        "fuzzer.noop_mutant_ratio": ratio(c["noop_mutants"], c["mutants"]),
        "fuzzer.productive_exec_ratio": c["productive_execs"] / x,
        "fuzzer.repopulations": c["repopulations"],
        "harness.execute_us": us(total, EXECUTE),
        "harness.execute_p50_us": q[49] / 1e3,
        "harness.execute_p99_us": q[98] / 1e3,
        "harness.self_us": us(own, EXECUTE),
        "harness.events_per_exec": c["events"] / x,
        "harness.skipped_step_ratio": ratio(c["skipped_steps"], c["steps"]),
        "benchmarks.handle_us": us(total, HANDLE),
        "benchmarks.handles_per_exec": c["handles"] / x,
        "benchmarks.oracle_us": us(total, ORACLE),
        "mapper.map_us": us(own, MAP),
        "mapper.actions_per_exec": c["actions"] / x,
        "model.run_us": us(own, MODEL_RUN),
        "model.unmatched_ratio": ratio(c["unmatched"], c["model_actions"]),
        "coverage.state_items_us": us(own, STATE_ITEMS),
        "coverage.assess_us": us(own, ASSESS),
        "coverage.trace_fp_us": us(own, TRACE_FP),
        "fingerprint.encode_calls_per_exec": c["encode_calls"] / x,
        "fingerprint.digest_calls_per_exec": c["digest_calls"] / x,
        "fingerprint.cache_hit_ratio": ratio(c["fp_hits"], c["fp_calls"]),
        "fingerprint.cache_entries": len(getattr(fingerprint, "_cache", ())),
        "stats.self_ms": own[COMPARE] / 1e6,
        "stats.campaigns": calls[CAMPAIGN],
    }
