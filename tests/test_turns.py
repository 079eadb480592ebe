"""Handler turns and schedule steps against their reference path.

``harness.stepper`` builds one step loop per run, with one turn function
inside.  The turn takes each send's buffer and bit from the per-sender table
``ReadyBits.outbound`` and shows each event to the oracle as it records it.
All turns of a run share one ``HandlerContext``, whose ``broadcast`` shares
one message among its receivers.  The loop decides from ``hs.ready`` alone
whether a deliver step acts.  The references below are the harness as first
written: ``_deliver``, ``_do_crash`` and ``_do_restart`` make their own
alive, control-buffer and empty-buffer checks; ``_run_handler`` and
``_end_turn`` build a new context per turn, whose ``broadcast`` is a loop of
``send``, with a ``BufferId`` and a ``ready_bits.bit`` lookup per send; and
``_observe`` is called once per event.  Every run must give the same
``ExecutionResult`` and leave the same ``HarnessState``, whether the package
runs the whole schedule in one call or one step per call (``drive``).
"""

import random
from collections import Counter, deque

import pytest

from schedfuzz import harness
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.harness import (
    ASSERTION,
    EV_CRASH,
    EV_DELIVER,
    EV_INTERNAL,
    EV_RESTART,
    PANIC,
    SAFETY,
    AssertionBug,
    ConcreteEvent,
    ConcreteEventTrace,
    ExecutionResult,
    HarnessError,
    SystemUnderTest,
    Violation,
    _kill,
    init_state,
    make_message,
)
from schedfuzz.schedule import (
    CRASH,
    DELIVER,
    RESTART,
    BufferId,
    GenParams,
    Schedule,
    generate_random_schedule,
)


class ReferenceContext:
    """What a handler may do during one turn: send, mark points, log markers."""

    __slots__ = ("outbox", "internals", "points")

    def __init__(self):
        self.outbox: list = []
        self.internals: list = []
        self.points: list = []

    def send(self, dest: int, verb: str, **fields) -> None:
        self.outbox.append((dest, make_message(verb, **fields)))

    def broadcast(self, dests, verb: str, **fields) -> None:
        for dest in dests:
            self.send(dest, verb, **fields)

    def internal(self, verb: str, **fields) -> None:
        self.internals.append((verb, tuple(sorted(fields.items()))))

    def point(self, point_id: str) -> None:
        self.points.append(point_id)


def reference_run(sut: SystemUnderTest, schedule: Schedule):
    """execute_schedule as first written; also returns the final HarnessState."""
    hs = init_state(sut)
    bit = sut.ready_bits.bit
    ready = [hs.ready]
    record = ready.append
    for idx, step in enumerate(schedule.steps):
        buf = step.buffer
        if step.op == DELIVER:
            b = bit.get(buf)
            if b is None or hs.ready & b:
                _deliver(sut, hs, idx, buf, step.count)
            else:
                hs.skipped.append(idx)  # deliver would skip it too
        elif step.op == CRASH:
            _do_crash(sut, hs, idx, buf.receiver)
        elif step.op == RESTART:
            _do_restart(sut, hs, idx, buf.receiver)
        else:
            raise HarnessError(f"unknown op {step.op!r}")
        record(hs.ready)

    final = tuple(
        sut.snapshot(p, hs.states[p]) if p in hs.alive else None
        for p in range(sut.process_count)
    )
    return ExecutionResult(
        trace=ConcreteEventTrace(tuple(hs.events), tuple(hs.skipped)),
        points_hit=frozenset(hs.points),
        violations=tuple(hs.violations),
        final_states=final,
        ready=tuple(ready),
    ), hs


def _observe(sut, hs, event) -> None:
    for desc in sut.oracle_observe(hs.oracle, event, hs.states, hs.alive):
        hs.violations.append(Violation(SAFETY, desc, event.step))


def _run_handler(sut, hs, idx, proc, sender, msg) -> None:
    """One handler turn: deliver event, run handler, flush its context."""
    event = ConcreteEvent(EV_DELIVER, proc, sender, msg.verb, msg.fields, idx)
    ctx = ReferenceContext()
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
        buf = BufferId(proc, dest)
        q = hs.buffers.get(buf)
        if q is None:
            q = hs.buffers[buf] = deque()
        if not q and dest in hs.alive:
            hs.ready |= sut.ready_bits.bit.get(buf, 0)
        q.append(out)
    hs.events.extend(turn_events)
    for ev in turn_events:
        _observe(sut, hs, ev)


def _deliver(sut, hs, idx, buf, count) -> None:
    """Step ``idx`` delivers up to ``count`` messages from ``buf``, one turn each."""
    receiver = buf.receiver
    if receiver not in hs.alive:
        hs.skipped.append(idx)
        return
    if buf in sut.control_buffers:
        # A control channel always holds exactly one pending message (it
        # regenerates after delivery), so a deliver step pops min(k, 1) = 1.
        _run_handler(sut, hs, idx, receiver, buf.sender, sut.control_buffers[buf])
        return
    q = hs.buffers.get(buf)
    if not q:
        hs.skipped.append(idx)
        return
    for _ in range(count):
        if not q or receiver not in hs.alive:
            break
        msg = q.popleft()
        if not q:
            hs.ready &= ~sut.ready_bits.bit.get(buf, 0)
        _run_handler(sut, hs, idx, receiver, buf.sender, msg)


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
    ctx = ReferenceContext()
    hs.states[proc] = sut.recover(proc, hs.persisted.pop(proc), ctx)
    hs.alive.add(proc)
    # Messages sent to proc while it was down wait in its buffers again.
    bits = sut.ready_bits
    hs.ready |= bits.control & bits.receives[proc]
    for buf, q in hs.buffers.items():
        if q and buf.receiver == proc:
            hs.ready |= bits.bit.get(buf, 0)
    _end_turn(sut, hs, idx, proc, ConcreteEvent(EV_RESTART, proc, None, "", (), idx), ctx)


def drive(sut, schedule):
    """The HarnessState the package's step loop leaves after ``schedule``, run
    one step per call."""
    hs = init_state(sut)
    run = harness.stepper(sut, hs)
    for idx, step in enumerate(schedule.steps):
        run((step,), idx)
    return hs


class Chaos(SystemUnderTest):
    """Four processes that send, broadcast, send to themselves (but over the
    control buffer (0, 0)), panic, trip assertions, crash, recover with sends
    of their own, and meet an oracle with verdicts: every path of a turn, at
    random."""

    name = "chaos"
    process_count = 4
    crashes_allowed = True
    extra_buffers = (BufferId(0, 0),)
    control_buffers = dict.fromkeys(extra_buffers, make_message("Tick"))

    def init(self):
        states = [{"n": 0} for _ in range(4)]
        inflight = [(BufferId(p, (p + 1) % 4), make_message("Ping", v=p)) for p in range(4)]
        return states, inflight

    def _others(self, proc):
        return [q for q in range(4) if q != proc]

    def handle(self, proc, st, msg, ctx):
        st["n"] += 1
        if msg.verb == "Tick":
            ctx.internal("Ticked", n=st["n"])
            ctx.broadcast(self._others(proc), "Ping", v=st["n"])
            return
        v = msg.field("v")
        ctx.point(f"ping{v % 3}")
        ctx.send((proc + 1) % 4, "Ping", v=v + 1)
        if v % 5 == 0 and proc:  # (0, 0) is a control buffer
            ctx.send(proc, "Ping", v=v + 2)
        if v % 7 == 6:
            raise ValueError("seven")
        if v % 9 == 4:
            raise AssertionBug("nine")

    def persistent_state(self, proc, st):
        return st["n"]

    def recover(self, proc, n, ctx):
        ctx.point("recover")
        ctx.broadcast(self._others(proc), "Ping", v=n)
        return {"n": n}

    def snapshot(self, proc, st):
        return (st["n"],)

    def oracle_init(self):
        return {"events": 0}

    def oracle_observe(self, ostate, event, states, alive):
        ostate["events"] += 1
        out = []
        if event.kind == EV_INTERNAL and event.field("n") % 4 == 0:
            out.append("TickFour")
        if len(alive) < 2:
            out.append("Quorum lost")
        return out


CONFIGS = {
    "micro": lambda: build_micro(bug_enabled=True),
    "micro-fixed": lambda: build_micro(m=3, n=2, bug_enabled=False),
    "tpc": build_tpc,
    "tpc-conflicts": lambda: build_tpc(rm_count=4, var_count=1, request_count=4),
    "raftlite5-quorum-bug-quota30":
        lambda: build_raftlite(5, quorum_bug=True, crash_quota=30),
    "raftlite-compacting": lambda: build_raftlite(3, 6, snapshot_threshold=2),
    "chaos": lambda: (Chaos(), GenParams(4, 60, 3, 10, Chaos.extra_buffers)),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_runs_match_the_reference_turn(name):
    made = CONFIGS[name]()
    sut, params = made if isinstance(made, tuple) else (made.sut, made.gen_defaults)
    rng = random.Random(11)
    kinds = Counter()  # event kinds and violation kinds seen
    for _ in range(1000):
        s = generate_random_schedule(params, rng)
        ref, ref_hs = reference_run(sut, s)
        run = harness.execute_schedule(sut, s)
        for f in ("trace", "points_hit", "violations", "final_states", "ready"):
            assert getattr(run, f) == getattr(ref, f), f
        assert run == ref
        assert drive(sut, s) == ref_hs
        kinds.update(e.kind for e in run.trace.events)
        kinds.update(v.kind for v in run.violations)
    assert kinds[EV_DELIVER] > 4000
    if sut.crashes_allowed:
        assert min(kinds[EV_CRASH], kinds[EV_RESTART], kinds[EV_INTERNAL]) > 100
    if name == "chaos":
        assert min(kinds[PANIC], kinds[ASSERTION], kinds[SAFETY]) > 50


def test_a_broadcast_shares_one_message_in_order():
    ctx = harness.HandlerContext()
    ctx.send(3, "A", x=1)
    ctx.broadcast((2, 0, 1), "B", y=2, x=1)
    ctx.broadcast((), "C")
    assert [d for d, _ in ctx.outbox] == [3, 2, 0, 1]
    msgs = [m for _, m in ctx.outbox[1:]]
    assert msgs[0] == make_message("B", x=1, y=2)
    assert all(m is msgs[0] for m in msgs)
