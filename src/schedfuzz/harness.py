"""The controlled scheduler: runs a benchmark deterministically under a schedule.

All messages are intercepted into per-(sender, receiver) FIFO buffers; the
schedule alone decides what gets delivered when, and which processes crash
or restart.  The result of a run is the concrete event trace, the structural
coverage points hit, any oracle verdicts, and which buffers were deliverable
at each step boundary.  Nothing here consults a clock or ambient randomness,
so a (benchmark, schedule) pair always reproduces the same ExecutionResult
bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .schedule import CRASH, DELIVER, RESTART, BufferId, Schedule, buffer_universe

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


_messages: dict = {}  # (verb, *fields.items()) in call order -> its Message
MESSAGE_LIMIT = 1 << 12


def _message(verb: str, fields: dict) -> Message:
    """``make_message(verb, **fields)`` from a memo emptied at MESSAGE_LIMIT entries;
    as in ``fingerprint``'s memos, no field value may be a bool or a float."""
    key = (verb, *fields.items())
    try:
        return _messages[key]
    except KeyError:
        if len(_messages) >= MESSAGE_LIMIT:
            _messages.clear()
        return _messages.setdefault(key, Message(verb, tuple(sorted(key[1:]))))
    except TypeError:  # a field value that cannot be hashed
        return make_message(verb, **fields)


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
    ready: tuple  # HarnessState.ready before each step and after the last


class ReadyBits(NamedTuple):
    """Where each of a benchmark's buffers sits in ``HarnessState.ready``."""

    bit: dict        # BufferId -> its bit; a buffer without one is never deliverable
    receives: tuple  # process -> mask of the buffers it receives on
    control: int     # mask of the control buffers
    outbound: tuple  # sender -> {receiver: (BufferId, its bit)}, control buffers left out


class SystemUnderTest:
    """Contract every benchmark implements.

    ``handlers`` maps each verb the system receives to the name of the method
    that handles it, and ``handle`` dispatches by that name, so a subclass
    that overrides one handler takes effect.  ``control_buffers`` maps each
    control buffer to the message every deliver on it yields.  Handlers must
    be deterministic functions of (local state, message); they talk to the
    world only through the HandlerContext passed in.  A system that tolerates
    crashes sets ``crashes_allowed`` and overrides ``persistent_state`` and
    ``recover``.

    The harness copies every process state, oracle state and persisted part
    with ``copy_state``, so each must be built from dicts, nested to any
    depth, and lists and sets whose items are immutable; any other value in
    it (an int, a string, a tuple, None) must never be mutated.
    """

    name: str = "?"
    process_count: int = 0
    crashes_allowed: bool = False
    handlers: dict = {}  # verb -> the name of the method that handles it
    # Perpetual control channels, never empty: BufferId -> the message each yields.
    control_buffers: dict = {}
    # Channels beyond the ordinary sender != receiver pairs (e.g. client or
    # timeout channels); these join the random generator's buffer universe.
    extra_buffers: tuple = ()

    def init(self):
        """Return (initial process states, [(BufferId, Message), ...])."""
        raise NotImplementedError

    def handle(self, proc: int, state, msg: Message, ctx: "HandlerContext") -> None:
        """Run the method that ``handlers`` names for ``msg.verb``."""
        try:
            name = self.handlers[msg.verb]
        except KeyError:
            raise HarnessError(f"{self.name} benchmark has no handler for {msg.verb}") from None
        getattr(self, name)(proc, state, msg, ctx)

    def persistent_state(self, proc: int, state):
        """The part of a process state that survives a crash (by default none:
        a dead process stays dead).  The state itself is dropped, so the
        part may share its values."""
        return None

    def recover(self, proc: int, persisted, ctx: "HandlerContext"):
        """Rebuild a live state from the persisted part, which it may keep;
        may send messages."""
        raise HarnessError(f"{self.name} benchmark does not support crash/restart")

    def snapshot(self, proc: int, state) -> tuple:
        """Canonical tuple view of a process state (for equality checks)."""
        raise NotImplementedError

    @cached_property
    def ready_bits(self) -> ReadyBits:
        """One bit per buffer a message can be in: process pairs, then extra
        buffers, then the self pairs not among them; and per sender, the buffer
        and bit each of its sends lands in (none for a control buffer)."""
        procs = range(self.process_count)
        bit = {buf: 1 << n for n, buf in enumerate(dict.fromkeys([
            *buffer_universe(self.process_count, self.extra_buffers),
            *(BufferId(p, p) for p in procs)]))}
        receives = [0] * self.process_count
        for buf, b in bit.items():
            receives[buf.receiver] |= b
        control = sum(bit.get(buf, 0) for buf in self.control_buffers)
        outbound = tuple({r: (BufferId(s, r), bit[BufferId(s, r)]) for r in procs
                          if BufferId(s, r) not in self.control_buffers} for s in procs)
        return ReadyBits(bit, tuple(receives), control, outbound)

    def oracle_init(self):
        return None

    def oracle_observe(self, ostate, event: ConcreteEvent, states, alive) -> list:
        """Return [(description, ...)] safety violations for this event."""
        return []


class HandlerContext:
    """What a handler may do in a turn: send, broadcast, log markers, mark points
    (``point`` adds to the set ``points``)."""

    __slots__ = ("outbox", "internals", "point")

    def __init__(self, points=None):
        self.outbox: list = []
        self.internals: list = []
        self.point = (set() if points is None else points).add

    def send(self, dest: int, verb: str, **fields) -> None:
        self.outbox.append((dest, _message(verb, fields)))

    def broadcast(self, dests, verb: str, **fields) -> None:
        """``send`` to each of ``dests`` in order; they share one immutable message."""
        msg = _message(verb, fields)
        self.outbox += [(dest, msg) for dest in dests]

    def internal(self, verb: str, **fields) -> None:
        self.internals.append(_message(verb, fields))


@dataclass
class HarnessState:
    """Mutable state of one execution: ``init_state`` makes a fresh one per
    schedule run, and ``clone_hs`` copies it for a branch or a checkpoint."""

    states: list
    buffers: dict = field(default_factory=dict)  # BufferId -> deque[Message]
    alive: set = field(default_factory=set)
    persisted: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    points: set = field(default_factory=set)
    violations: list = field(default_factory=list)
    oracle: object = None
    # One ReadyBits bit per buffer that is deliverable: its receiver is alive
    # and it is a control buffer or holds a message.
    ready: int = 0


def init_state(sut: SystemUnderTest) -> HarnessState:
    """Fresh harness state for one execution."""
    states, inflight = sut.init()
    if len(states) != sut.process_count:
        raise HarnessError("init returned wrong number of process states")
    hs = HarnessState(states=list(states))
    hs.alive = set(range(sut.process_count))
    bits = sut.ready_bits
    hs.ready = bits.control
    for buf, msg in inflight:
        if buf not in bits.bit:
            raise HarnessError(f"initial {msg.verb} message in buffer {buf.sender}->"
                               f"{buf.receiver}, which is no buffer of {sut.name!r}")
        if buf in sut.control_buffers:
            raise HarnessError(f"initial {msg.verb} message in control buffer {buf.sender}->"
                               f"{buf.receiver}, whose messages are never delivered")
        hs.buffers.setdefault(buf, deque()).append(msg)
        hs.ready |= bits.bit[buf]
    hs.oracle = sut.oracle_init()
    return hs


def copy_state(v):
    """A copy of the benchmark state ``v`` that shares nothing mutable with
    it: a dict is copied to any depth, a list or set one level deep (its items
    are immutable), and any other value is immutable and shared."""
    t = type(v)
    if t is dict:
        out = v.copy()
        for k, x in v.items():
            t = type(x)
            if t is dict:
                out[k] = copy_state(x)
            elif t is list or t is set:
                out[k] = t(x)
        return out
    return t(v) if t is list or t is set else v


def clone_hs(hs: HarnessState) -> HarnessState:
    """A copy of ``hs`` that shares nothing a run mutates."""
    return HarnessState(
        [copy_state(s) for s in hs.states], {b: deque(q) for b, q in hs.buffers.items()},
        set(hs.alive), copy_state(hs.persisted), list(hs.events), list(hs.skipped),
        set(hs.points), list(hs.violations), copy_state(hs.oracle), hs.ready)


def execute_schedule(sut: SystemUnderTest, schedule: Schedule, start=None,
                     marks=None) -> ExecutionResult:
    """Run ``schedule`` from the start, or from ``start``: a checkpoint
    ``(hs, ready, ...)`` of a run that agreed with this one before step
    ``len(ready) - 1``, whose ``hs`` this run uses up; items after ``ready``,
    such as the model's state there, are the caller's.  Each step in the dict
    ``marks``, none before the start, gets this run's checkpoint ``(hs,
    ready)`` there."""
    if start is None:
        hs = init_state(sut)
        ready = [hs.ready]
    else:
        hs, ready = start[0], list(start[1])
    run = stepper(sut, hs, ready.append)
    steps = schedule.steps
    if marks:
        for stop in sorted(marks):
            run(steps[len(ready) - 1:stop], len(ready) - 1)
            marks[stop] = (clone_hs(hs), tuple(ready))
    run(steps[len(ready) - 1:], len(ready) - 1)

    final = tuple(sut.snapshot(p, hs.states[p]) if p in hs.alive else None
                  for p in range(sut.process_count))
    trace = ConcreteEventTrace(tuple(hs.events), tuple(hs.skipped))
    return ExecutionResult(trace, frozenset(hs.points), tuple(hs.violations), final, tuple(ready))


def stepper(sut: SystemUnderTest, hs: HarnessState, record=bool):
    """The run's step loop: ``run(steps, idx)`` executes ``steps``, numbered
    from ``idx``, on ``hs`` and passes ``hs.ready`` to ``record`` (by default
    ``bool``, which keeps nothing) after each.

    A deliver acts only if its buffer's bit is set in ``hs.ready``, a crash only
    on a live process and a restart only on a dead one; any other step is
    skipped.  A deliver runs one turn per message, up to its count and while
    the bit stays set; a control buffer never empties and gives its message once.
    The system's methods are looked up once per run, so a class patched
    between runs takes effect.  Every turn shares one context, whose points
    land straight in ``hs.points``.  Events skip the NamedTuple's ``__new__``.
    """
    handle, recover, observe, control_buffers = (
        sut.handle, sut.recover, sut.oracle_observe, sut.control_buffers)
    bit, receives, control, outbound = sut.ready_bits
    states, alive, buffers, persisted, events, skipped, violations, oracle = (
        hs.states, hs.alive, hs.buffers, hs.persisted, hs.events, hs.skipped,
        hs.violations, hs.oracle)
    ctx = HandlerContext(hs.points)
    outbox, internals = ctx.outbox, ctx.internals

    def turn(idx, proc, sender, msg):
        """Run ``proc``'s handler on ``msg`` (restart ``proc`` if ``msg`` is None),
        then record the turn's events and sends and show each event to the oracle."""
        if msg is None:
            event = tuple.__new__(ConcreteEvent, (EV_RESTART, proc, None, "", (), idx))
            states[proc] = recover(proc, persisted.pop(proc), ctx)
            alive.add(proc)
            # Messages sent to proc while it was down wait in its buffers again.
            hs.ready |= control & receives[proc]
            for buf, q in buffers.items():
                if q and buf.receiver == proc:
                    hs.ready |= bit[buf]
        else:
            event = tuple.__new__(
                ConcreteEvent, (EV_DELIVER, proc, sender, msg.verb, msg.fields, idx))
            try:
                handle(proc, states[proc], msg, ctx)
            except HarnessError:
                raise
            except Exception as e:
                violations.append(
                    Violation(ASSERTION, str(e), idx) if isinstance(e, AssertionBug)
                    else Violation(PANIC, f"{type(e).__name__} while handling {msg.verb}", idx))
                _kill(sut, hs, proc)
                # The turn aborted: pending sends and markers die with the process.
                outbox.clear()
                internals.clear()
        if outbox:
            sends = outbound[proc]
            for dest, out in outbox:
                try:
                    buf, b = sends[dest]
                except KeyError:
                    raise HarnessError(f"process {proc} sent {out.verb} " + (
                        f"over control buffer {proc}->{dest}, whose messages are never "
                        "delivered" if BufferId(proc, dest) in sut.control_buffers else
                        f"to process {dest}, outside 0..{sut.process_count - 1}")) from None
                q = buffers.get(buf)
                if q is None:
                    q = buffers[buf] = deque()
                if not q and dest in alive:
                    hs.ready |= b
                q.append(out)
            outbox.clear()
        # The oracle sees no trace, so each event may meet it as it is recorded.
        events.append(event)
        for desc in observe(oracle, event, states, alive):
            violations.append(Violation(SAFETY, desc, idx))
        for verb, fields in internals:
            event = tuple.__new__(ConcreteEvent, (EV_INTERNAL, proc, None, verb, fields, idx))
            events.append(event)
            for desc in observe(oracle, event, states, alive):
                violations.append(Violation(SAFETY, desc, idx))
        internals.clear()

    def run(steps, idx):
        ready = hs.ready
        for idx, (buf, op, count) in enumerate(steps, idx):
            # A skipped deliver costs one bit test against ready and two appends.
            if op == DELIVER and not ready & (b := bit.get(buf, 0)):
                skipped.append(idx)
                record(ready)
                continue
            sender, proc = buf
            if op == DELIVER:
                if b & control:
                    turn(idx, proc, sender, control_buffers[buf])
                else:
                    q = buffers[buf]
                    for _ in range(count):
                        msg = q.popleft()
                        if not q:
                            hs.ready &= ~b
                        turn(idx, proc, sender, msg)
                        if not hs.ready & b:
                            break
            elif op == CRASH:
                if proc in alive:
                    _kill(sut, hs, proc)
                    event = tuple.__new__(ConcreteEvent, (EV_CRASH, proc, None, "", (), idx))
                    events.append(event)
                    for desc in observe(oracle, event, states, alive):
                        violations.append(Violation(SAFETY, desc, idx))
                else:
                    skipped.append(idx)
            elif op == RESTART:
                if proc in alive:
                    skipped.append(idx)
                else:
                    turn(idx, proc, None, None)
            else:
                raise HarnessError(f"unknown op {op!r}")
            ready = hs.ready
            record(ready)

    return run


class RunMemo:
    """Fault-free runs from the start in a trie keyed by the steps that acted (a
    deliver acts iff its buffer's bit is set in ``ready``; a skipped step changes
    nothing; a crash or restart step bypasses the memo).  Node: [ready after its
    step, [result, extra] of a run that ended there (see ``find``), {step: child}].
    A lookup whose walk leaves the trie before a crash or restart step counts
    as a miss.  Emptied at LIMIT nodes; off once PROBES lookups, by every
    campaign that shares the memo, have hit under 1 in RATE times."""

    LIMIT, PROBES, RATE = 1 << 12, 32, 8

    def __init__(self, sut: SystemUnderTest):
        self.bit, self.limit, self.step_bit = sut.ready_bits.bit, self.LIMIT, {}
        self.root, self.nodes, self.lookups, self.hits = None, 0, 0, 0

    def _walk(self, steps):
        """(end node or None, [(step index, node)] of acting steps); None at a crash or restart."""
        node, mask, path, step_bit = self.root, self.root[0], [], self.step_bit
        try:  # step_bit: step -> its buffer's bit (0 for none), None for a crash or restart
            for idx, st in enumerate(steps):
                if mask & step_bit[st]:
                    node = node[2].get(st)
                    if node is None:
                        break
                    mask = node[0]
                    path.append((idx, node))
        except KeyError:  # a step new to the memo
            step_bit.update((st, self.bit.get(st.buffer, 0) if st.op == DELIVER else None)
                            for st in steps[idx:] if st not in step_bit)
            return self._walk(steps)
        except TypeError:  # mask & None: a crash or restart step, which bypasses the memo
            return None
        return node, path

    def find(self, schedule: Schedule):
        """The ``[result, extra]`` of ``schedule``'s acting steps, or None: ``put``'s
        result, without ``ready`` or skipped steps, and exact but for step indices."""
        if self.root is None or (walk := self._walk(schedule.steps)) is None:
            return None
        self.lookups += 1
        if walk[0] is None or walk[0][1] is None:
            if self.lookups >= self.PROBES and self.hits * self.RATE < self.lookups:
                self.root, self.limit = None, 0
            return None
        self.hits += 1
        return walk[0][1]

    def get(self, schedule: Schedule):
        """``(execute_schedule(sut, schedule), extra)`` as ``put`` got them, or None."""
        hit = self.find(schedule)
        return None if hit is None else (self.exact(schedule), hit[1])

    def exact(self, schedule: Schedule) -> ExecutionResult:
        """``execute_schedule(sut, schedule)`` for a ``find`` hit, counting no lookup."""
        (node, path), steps = self._walk(schedule.steps), schedule.steps
        run, new, mask, last, ready, skipped = node[1][0], tuple.__new__, self.root[0], -1, [], []
        for idx, acted in (*path, (len(steps), node)):  # each step between two acting ones skipped
            ready += [mask] * (idx - last)
            skipped += range(last + 1, idx)
            mask, last = acted[0], idx
        events, violations, at = run.trace.events, run.violations, [idx for idx, _ in path]
        acting = list(dict.fromkeys(map(itemgetter(5), events)))  # each acting step has an event
        if at != acting:  # the stored run acted at other step indices
            at = dict(zip(acting, at))
            events = tuple([new(ConcreteEvent, (*ev[:5], at[ev[5]])) for ev in events])
            violations = tuple([new(Violation, (*v[:2], at[v[2]])) for v in violations])
        trace = ConcreteEventTrace(events, tuple(skipped))
        return ExecutionResult(trace, run.points_hit, violations, run.final_states, tuple(ready))

    def put(self, schedule: Schedule, result: ExecutionResult, extra) -> None:
        """Store ``result``, ``execute_schedule(sut, schedule)``, and ``extra``."""
        steps, events, ready = schedule.steps, result.trace.events, result.ready
        # A crash or restart step that acted left an event; one that did not changed nothing.
        if not self.limit or not {EV_CRASH, EV_RESTART}.isdisjoint(map(itemgetter(0), events)):
            return
        if self.root is None or self.nodes >= self.limit:
            self.root, self.nodes = [ready[0], None, {}], 1
        node = self.root
        for idx in dict.fromkeys(map(itemgetter(5), events)):  # acting steps, in step order
            child = node[2].get(steps[idx])
            if child is None:
                self.nodes += 1
                child = node[2][steps[idx]] = [ready[idx + 1], None, {}]
            node = child
        node[1] = [replace(result, trace=result.trace._replace(skipped=()), ready=()), extra]


def _kill(sut, hs, proc) -> None:
    """Mark a process dead, preserving only its persistent part."""
    hs.persisted[proc] = sut.persistent_state(proc, hs.states[proc])
    hs.states[proc] = None
    hs.alive.discard(proc)
    hs.ready &= ~sut.ready_bits.receives[proc]
    for buf in list(hs.buffers):
        if buf.receiver == proc:
            del hs.buffers[buf]
