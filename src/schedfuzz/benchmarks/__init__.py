"""Benchmark registry: a benchmark bundles a system, its model, and defaults."""

from __future__ import annotations

from dataclasses import dataclass

from ..harness import SystemUnderTest
from ..model import Lts
from ..schedule import GenParams
from .micro import MicroBench, micro_model
from .raftlite import RaftLiteBench, raftlite_model
from .tpc import TpcBench, tpc_model


@dataclass(frozen=True)
class Benchmark:
    name: str
    sut: SystemUnderTest
    lts: Lts
    gen_defaults: GenParams


def _gen(sut: SystemUnderTest, max_steps: int, max_messages: int, quota: int) -> GenParams:
    return GenParams(
        num_processes=sut.process_count,
        max_steps=max_steps,
        max_messages_per_step=max_messages,
        crash_quota=quota,
        extra_buffers=tuple(sut.extra_buffers),
    )


def build_micro(m: int = 2, n: int = 5, bug_enabled: bool = True,
                max_steps: int = 60) -> Benchmark:
    sut = MicroBench(m=m, n=n, bug_enabled=bug_enabled)
    return Benchmark("micro", sut, micro_model(m=m, n=n), _gen(sut, max_steps, 1, 0))


def build_tpc(rm_count: int = 3, var_count: int = 2, request_count: int = 5,
              max_steps: int = 100) -> Benchmark:
    sut = TpcBench(rm_count=rm_count, var_count=var_count, request_count=request_count)
    return Benchmark(
        "tpc", sut, tpc_model(rm_count, var_count, request_count),
        _gen(sut, max_steps, 5, 0),
    )


def build_raftlite(proc_count: int = 3, request_count: int = 2,
                   quorum_bug: bool = False, snapshot_threshold: int = 8,
                   max_steps: int = 100, crash_quota: int = 10) -> Benchmark:
    sut = RaftLiteBench(
        proc_count=proc_count,
        request_count=request_count,
        quorum_bug=quorum_bug,
        snapshot_threshold=snapshot_threshold,
    )
    return Benchmark(
        "raftlite", sut,
        raftlite_model(proc_count),
        _gen(sut, max_steps, 5, crash_quota),
    )


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _strict_bool(v) -> bool:
    """A Python bool, or one of the spellings in _BOOLS in any case."""
    if isinstance(v, bool):
        return v
    return _BOOLS[str(v).lower()]


# The one list of benchmarks: name -> (builder, {dotted key: (builder
# keyword, converter)}).  The builders' keyword defaults are the only defaults.
BENCHMARKS = {
    "micro": (build_micro, {
        "micro.m": ("m", int),
        "micro.n": ("n", int),
        "micro.bug": ("bug_enabled", _strict_bool),
        "micro.max_steps": ("max_steps", int),
    }),
    "tpc": (build_tpc, {
        "tpc.rm": ("rm_count", int),
        "tpc.vars": ("var_count", int),
        "tpc.requests": ("request_count", int),
        "tpc.max_steps": ("max_steps", int),
    }),
    "raftlite": (build_raftlite, {
        "raft.procs": ("proc_count", int),
        "raft.requests": ("request_count", int),
        "raft.quorum_bug": ("quorum_bug", _strict_bool),
        "raft.snapshot_threshold": ("snapshot_threshold", int),
        "raft.max_steps": ("max_steps", int),
        "raft.crash_quota": ("crash_quota", int),
    }),
}


def make_benchmark(name: str, params: dict | None = None) -> Benchmark:
    """Build a benchmark from dotted config keys (micro.m, raft.procs, ...).

    Keys not given keep the builder's default.  An unknown key, a key of
    another benchmark or a value that does not convert raises ValueError.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r} (known: {', '.join(BENCHMARKS)})")
    build, keys = BENCHMARKS[name]
    known = f"of benchmark {name!r} (known: {', '.join(keys)})"
    kwargs = {}
    for key, value in (params or {}).items():
        if key not in keys:
            raise ValueError(f"unknown parameter {key!r} {known}")
        arg, convert = keys[key]
        try:
            kwargs[arg] = convert(value)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"bad value {value!r} for parameter {key!r} {known}") from None
    return build(**kwargs)
