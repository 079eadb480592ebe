"""The controlled scheduler: runs a benchmark deterministically under a schedule.

All messages are intercepted into per-(sender, receiver) FIFO buffers; the
schedule alone decides what gets delivered when, and which processes crash
or restart.  The result of a run is the concrete event trace, the structural
coverage points hit, and any oracle verdicts.  Nothing here consults a clock
or ambient randomness, so a (benchmark, schedule) pair always reproduces the
same ExecutionResult bit for bit.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .schedule import CRASH, DELIVER, RESTART, BufferId, Schedule

# Event kinds (JSON-facing spellings).
EV_DELIVER = "deliver"
EV_CRASH = "crash"
EV_RESTART = "restart"
EV_INTERNAL = "internal"

# Violation kinds.
ASSERTION = "AssertionFailure"
PANIC = "HandlerPanic"
SAFETY = "SafetyProperty"


class AssertionBug(Exception):
    """Raised by benchmark handlers for seeded assertion-style bugs."""


class HarnessError(RuntimeError):
    """Unrecoverable harness fault (not a benchmark bug)."""


def _field(self, key, default=None):
    """The value of ``key`` among ``self.fields``, else ``default``."""
    for k, v in self.fields:
        if k == key:
            return v
    return default


class Message(NamedTuple):
    verb: str
    fields: tuple  # sorted (key, value) pairs; values are ints or strings

    field = _field


def make_message(verb: str, **fields) -> Message:
    return Message(verb, tuple(sorted(fields.items())))


class ConcreteEvent(NamedTuple):
    kind: str           # deliver | crash | restart | internal
    recv: int
    send: int | None    # None for crash/restart/internal
    verb: str           # "" for crash/restart
    fields: tuple       # sorted (key, value) pairs
    step: int           # schedule step index, -1 for initialization

    field = _field


class ConcreteEventTrace(NamedTuple):
    events: tuple
    skipped: tuple  # indices of schedule steps that were no-ops


class Violation(NamedTuple):
    kind: str
    description: str  # stable per bug class: dedup key is (kind, description)
    step: int

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.description}"


@dataclass(frozen=True)
class ExecutionResult:
    trace: ConcreteEventTrace
    points_hit: frozenset
    violations: tuple
    final_states: tuple  # per-process canonical snapshot, None while crashed


class SystemUnderTest:
    """Contract every benchmark implements.

    Handlers must be deterministic functions of (local state, message); they
    talk to the world only through the HandlerContext passed in.
    """

    name: str = "?"
    process_count: int = 0
    crashes_allowed: bool = True
    # Perpetual control channels: never empty, each pop yields control_message().
    control_buffers: frozenset = frozenset()
    # Channels beyond the ordinary sender != receiver pairs (e.g. client or
    # timeout channels); these join the random generator's buffer universe.
    extra_buffers: tuple = ()

    def init(self):
        """Return (initial process states, [(BufferId, Message), ...])."""
        raise NotImplementedError

    def handle(self, proc: int, state, msg: Message, ctx: "HandlerContext") -> None:
        raise NotImplementedError

    def control_message(self, buf: BufferId) -> Message:
        raise NotImplementedError

    def persistent_state(self, proc: int, state):
        """The part of a process state that survives a crash."""
        raise NotImplementedError

    def recover(self, proc: int, persisted, ctx: "HandlerContext"):
        """Rebuild a live state from the persisted part; may send messages."""
        raise NotImplementedError

    def snapshot(self, proc: int, state) -> tuple:
        """Canonical tuple view of a process state (for equality checks)."""
        raise NotImplementedError

    def oracle_init(self):
        return None

    def oracle_observe(self, ostate, event: ConcreteEvent, states, alive) -> list:
        """Return [(description, ...)] safety violations for this event."""
        return []

    # Deep copies for the enumeration oracle; benchmarks override with
    # structure-aware copies because copy.deepcopy dominates the DFS.
    def clone_state(self, proc: int, state):
        import copy

        return copy.deepcopy(state)

    def clone_oracle(self, ostate):
        import copy

        return copy.deepcopy(ostate)


class HandlerContext:
    """What a handler may do during one turn: send, mark points, log markers."""

    __slots__ = ("outbox", "internals", "points")

    def __init__(self):
        self.outbox: list = []
        self.internals: list = []
        self.points: list = []

    def send(self, dest: int, verb: str, **fields) -> None:
        self.outbox.append((dest, make_message(verb, **fields)))

    def internal(self, verb: str, **fields) -> None:
        self.internals.append((verb, tuple(sorted(fields.items()))))

    def point(self, point_id: str) -> None:
        self.points.append(point_id)


@dataclass
class HarnessState:
    """Mutable execution state confined to one worker at a time."""

    states: list
    buffers: dict = field(default_factory=dict)  # BufferId -> deque[Message]
    alive: set = field(default_factory=set)
    persisted: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    points: set = field(default_factory=set)
    violations: list = field(default_factory=list)
    oracle: object = None


def init_state(sut: SystemUnderTest) -> HarnessState:
    """Fresh harness state for one execution."""
    states, inflight = sut.init()
    if len(states) != sut.process_count:
        raise HarnessError("init returned wrong number of process states")
    hs = HarnessState(states=list(states))
    hs.alive = set(range(sut.process_count))
    for buf, msg in inflight:
        hs.buffers.setdefault(buf, deque()).append(msg)
    hs.oracle = sut.oracle_init()
    return hs


def execute_schedule(sut: SystemUnderTest, schedule: Schedule) -> ExecutionResult:
    hs = init_state(sut)
    for idx, step in enumerate(schedule.steps):
        buf = step.buffer
        if step.op == DELIVER:
            deliver(sut, hs, idx, buf, step.count)
        elif step.op == CRASH:
            _do_crash(sut, hs, idx, buf.receiver)
        elif step.op == RESTART:
            _do_restart(sut, hs, idx, buf.receiver)
        else:
            raise HarnessError(f"unknown op {step.op!r}")

    final = tuple(
        sut.snapshot(p, hs.states[p]) if p in hs.alive else None
        for p in range(sut.process_count)
    )
    return ExecutionResult(
        trace=ConcreteEventTrace(tuple(hs.events), tuple(hs.skipped)),
        points_hit=frozenset(hs.points),
        violations=tuple(hs.violations),
        final_states=final,
    )


def _observe(sut, hs, event) -> None:
    for desc in sut.oracle_observe(hs.oracle, event, hs.states, hs.alive):
        hs.violations.append(Violation(SAFETY, desc, event.step))


def _run_handler(sut, hs, idx, proc, sender, msg) -> None:
    """One handler turn: deliver event, run handler, flush its context."""
    event = ConcreteEvent(EV_DELIVER, proc, sender, msg.verb, msg.fields, idx)
    ctx = HandlerContext()
    try:
        sut.handle(proc, hs.states[proc], msg, ctx)
    except HarnessError:
        raise
    except Exception as e:
        if isinstance(e, AssertionBug):
            hs.violations.append(Violation(ASSERTION, str(e), idx))
        else:
            hs.violations.append(
                Violation(PANIC, f"{type(e).__name__} while handling {msg.verb}", idx)
            )
        _kill(sut, hs, proc)
        # The turn aborted: pending sends and markers die with the process.
        ctx.outbox.clear()
        ctx.internals.clear()
    _end_turn(sut, hs, idx, proc, event, ctx)


def _end_turn(sut, hs, idx, proc, event, ctx) -> None:
    """Record a turn's points, events and sends; then show its events to the oracle."""
    hs.points.update(ctx.points)
    turn_events = [event]
    for verb, fields in ctx.internals:
        turn_events.append(ConcreteEvent(EV_INTERNAL, proc, None, verb, fields, idx))
    for dest, out in ctx.outbox:
        hs.buffers.setdefault(BufferId(proc, dest), deque()).append(out)
    hs.events.extend(turn_events)
    for ev in turn_events:
        _observe(sut, hs, ev)


def deliver(sut: SystemUnderTest, hs: HarnessState, idx: int, buf: BufferId,
            count: int) -> None:
    """Step ``idx`` delivers up to ``count`` messages from ``buf``, one turn each.

    The enumeration oracle drives executions message by message through this
    entry point so its semantics can never drift from execute_schedule's.
    """
    receiver = buf.receiver
    if receiver not in hs.alive:
        hs.skipped.append(idx)
        return
    if buf in sut.control_buffers:
        # A control channel always holds exactly one pending message (it
        # regenerates after delivery), so a deliver step pops min(k, 1) = 1.
        _run_handler(sut, hs, idx, receiver, buf.sender, sut.control_message(buf))
        return
    q = hs.buffers.get(buf)
    if not q:
        hs.skipped.append(idx)
        return
    for _ in range(count):
        if not q or receiver not in hs.alive:
            break
        _run_handler(sut, hs, idx, receiver, buf.sender, q.popleft())


def _kill(sut, hs, proc) -> None:
    """Mark a process dead, preserving only its persistent part."""
    hs.persisted[proc] = sut.persistent_state(proc, hs.states[proc])
    hs.states[proc] = None
    hs.alive.discard(proc)
    for buf in list(hs.buffers):
        if buf.receiver == proc:
            del hs.buffers[buf]


def _do_crash(sut, hs, idx, proc) -> None:
    if proc not in hs.alive:
        hs.skipped.append(idx)
        return
    _kill(sut, hs, proc)
    event = ConcreteEvent(EV_CRASH, proc, None, "", (), idx)
    hs.events.append(event)
    _observe(sut, hs, event)


def _do_restart(sut, hs, idx, proc) -> None:
    if proc in hs.alive:
        hs.skipped.append(idx)
        return
    ctx = HandlerContext()
    hs.states[proc] = sut.recover(proc, hs.persisted.pop(proc), ctx)
    hs.alive.add(proc)
    _end_turn(sut, hs, idx, proc, ConcreteEvent(EV_RESTART, proc, None, "", (), idx), ctx)


def export_execution_json(result: ExecutionResult) -> bytes:
    """Replay/debug export; events use the standard mapper encoding."""
    from .mapper import event_to_obj

    obj = {
        "events": [event_to_obj(e) for e in result.trace.events],
        "skipped": list(result.trace.skipped),
        "violations": [
            {"kind": v.kind, "description": v.description, "step": v.step}
            for v in result.violations
        ],
        "points": sorted(result.points_hit),
    }
    return json.dumps(obj, separators=(",", ":")).encode()
