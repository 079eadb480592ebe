"""Benchmark registry: a benchmark bundles a system, its model, the table that
maps the system's events to model actions, and defaults.  Each builder imports
its own benchmark module, so only the benchmarks built are imported."""

from __future__ import annotations

from dataclasses import dataclass

from ..harness import SystemUnderTest
from ..model import Lts
from ..schedule import DELIVER, GenParams, Schedule, ScheduleError, validate_schedule


NO_CRASHES = "benchmark {!r} does not tolerate crash schedules"


@dataclass(frozen=True)
class Benchmark:
    name: str
    sut: SystemUnderTest
    lts: Lts
    events: dict  # verb -> (model action, argument sources), see mapper
    gen_defaults: GenParams

    def check_schedule(self, schedule: Schedule) -> None:
        """Raise ScheduleError unless every step of ``schedule`` fits this benchmark.

        A step must name one of the benchmark's buffers: an ordered pair of
        distinct processes in range, or one of its extra buffers.  Crash and
        restart steps need a benchmark that tolerates crashes.  The schedule
        must also keep the generator's limits: at most ``max_steps`` steps,
        deliver counts up to ``max_messages_per_step`` and the crash quota.
        """
        buffers = set(self.gen_defaults.buffer_universe())
        for idx, step in enumerate(schedule.steps):
            if step.buffer not in buffers:
                raise ScheduleError(
                    f"step {idx}: buffer {step.buffer.sender}->{step.buffer.receiver} "
                    f"is not a buffer of benchmark {self.name!r} "
                    f"(processes 0..{self.sut.process_count - 1})"
                )
            if step.op != DELIVER and not self.sut.crashes_allowed:
                raise ScheduleError(f"step {idx}: {NO_CRASHES.format(self.name)}")
        validate_schedule(schedule, self.gen_defaults)


def _gen(sut: SystemUnderTest, max_steps: int, max_messages: int, quota: int) -> GenParams:
    return GenParams(sut.process_count, max_steps, max_messages, quota, tuple(sut.extra_buffers))


def build_micro(m: int = 2, n: int = 5, bug_enabled: bool = True,
                max_steps: int = 60) -> Benchmark:
    from . import micro
    sut = micro.MicroBench(m=m, n=n, bug_enabled=bug_enabled)
    return Benchmark("micro", sut, micro.micro_model(m=m, n=n), micro.EVENTS,
                     _gen(sut, max_steps, 1, 0))


def build_tpc(rm_count: int = 3, var_count: int = 2, request_count: int = 5,
              max_steps: int = 100) -> Benchmark:
    from . import tpc
    sut = tpc.TpcBench(rm_count=rm_count, var_count=var_count, request_count=request_count)
    return Benchmark("tpc", sut, tpc.tpc_model(rm_count, var_count, request_count),
                     tpc.EVENTS, _gen(sut, max_steps, 5, 0))


def build_raftlite(proc_count: int = 3, request_count: int = 2,
                   quorum_bug: bool = False, snapshot_threshold: int = 8,
                   max_steps: int = 100, crash_quota: int = 10) -> Benchmark:
    from . import raftlite
    sut = raftlite.RaftLiteBench(proc_count=proc_count, request_count=request_count,
                                 quorum_bug=quorum_bug, snapshot_threshold=snapshot_threshold)
    return Benchmark("raftlite", sut, raftlite.raftlite_model(proc_count), raftlite.EVENTS,
                     _gen(sut, max_steps, 5, crash_quota))


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _strict_bool(v) -> bool:
    """A Python bool, or one of the spellings in _BOOLS in any case."""
    return v if isinstance(v, bool) else _BOOLS[str(v).lower()]


# The one list of benchmarks: name -> (builder, {dotted key: (builder
# keyword, converter, upper bound or None)}).  The builders' keyword defaults
# are the only defaults.  The bounds keep a typo such as raft.procs=555 from
# building a huge benchmark: a build costs O(P^2) in the process count P.
BENCHMARKS = {
    "micro": (build_micro, {
        "micro.m": ("m", int, 16),
        "micro.n": ("n", int, 64),
        "micro.bug": ("bug_enabled", _strict_bool, None),
        "micro.max_steps": ("max_steps", int, 1000),
    }),
    "tpc": (build_tpc, {
        "tpc.rm": ("rm_count", int, 16),
        "tpc.vars": ("var_count", int, 64),
        "tpc.requests": ("request_count", int, 64),
        "tpc.max_steps": ("max_steps", int, 1000),
    }),
    "raftlite": (build_raftlite, {
        "raft.procs": ("proc_count", int, 15),
        "raft.requests": ("request_count", int, 64),
        "raft.quorum_bug": ("quorum_bug", _strict_bool, None),
        "raft.snapshot_threshold": ("snapshot_threshold", int, 1000),
        "raft.max_steps": ("max_steps", int, 1000),
        "raft.crash_quota": ("crash_quota", int, 1000),
    }),
}


def make_benchmark(name: str, params: dict | None = None) -> Benchmark:
    """Build a benchmark from dotted config keys (micro.m, raft.procs, ...).

    Keys not given keep the builder's default.  An unknown key, a key of
    another benchmark, a value that does not convert or a value above its
    key's bound raises ValueError before anything is built.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r} (known: {', '.join(BENCHMARKS)})")
    build, keys = BENCHMARKS[name]
    known = f"of benchmark {name!r} (known: {', '.join(keys)})"
    kwargs = {}
    for key, value in (params or {}).items():
        if key not in keys:
            raise ValueError(f"unknown parameter {key!r} {known}")
        arg, convert, bound = keys[key]
        try:
            kwargs[arg] = convert(value)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"bad value {value!r} for parameter {key!r} {known}") from None
        if bound is not None and kwargs[arg] > bound:
            raise ValueError(f"value {value!r} for parameter {key!r} is above its bound {bound}")
    return build(**kwargs)
