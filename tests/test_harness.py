import hashlib
import random
from collections import Counter

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.benchmarks.raftlite import RaftLiteBench
from schedfuzz.harness import (
    EV_DELIVER,
    EV_RESTART,
    HarnessError,
    Message,
    SystemUnderTest,
    clone_hs,
    execute_schedule,
    init_state,
    make_message,
)
from schedfuzz.schedule import (
    BufferId,
    DELIVER,
    GenParams,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
)


class PingPong(SystemUnderTest):
    """Two processes that bounce numbered messages; for FIFO checks."""

    name = "pingpong"
    process_count = 2
    crashes_allowed = False

    def __init__(self, balls=4):
        self.balls = balls

    def init(self):
        states = [{"seen": []}, {"seen": []}]
        inflight = [
            (BufferId(0, 1), make_message("Ball", n=i)) for i in range(self.balls)
        ]
        return states, inflight

    def handle(self, proc, state, msg: Message, ctx):
        state["seen"].append(msg.field("n"))
        ctx.point(f"p{proc}.ball")
        if proc == 1:
            ctx.send(0, "Ball", n=msg.field("n"))

    def persistent_state(self, proc, state):
        return None

    def recover(self, proc, persisted, ctx):
        raise AssertionError("unused")

    def snapshot(self, proc, state):
        return tuple(state["seen"])


def deliver(buf, n=1):
    return ScheduleStep(buf, DELIVER, n)


def test_fifo_order_preserved_per_buffer():
    sut = PingPong(balls=4)
    s = Schedule(
        steps=(
            deliver(BufferId(0, 1), 2),
            deliver(BufferId(1, 0), 1),
            deliver(BufferId(0, 1), 2),
            deliver(BufferId(1, 0), 3),
        )
    )
    result = execute_schedule(sut, s)
    by_pair = {}
    for ev in result.trace.events:
        by_pair.setdefault((ev.send, ev.recv), []).append(ev.field("n"))
    for seq in by_pair.values():
        assert seq == sorted(seq)
    assert by_pair[(0, 1)] == [0, 1, 2, 3]
    assert by_pair[(1, 0)] == [0, 1, 2, 3]


def test_a_system_without_copy_hooks_resumes_from_a_checkpoint():
    """The harness copies any state of the documented shape, so a system
    needs no copy method of its own to be checkpointed and resumed."""
    sut = PingPong(balls=4)
    s = Schedule(steps=(
        deliver(BufferId(0, 1), 2),
        deliver(BufferId(1, 0), 1),
        deliver(BufferId(0, 1), 2),
        deliver(BufferId(1, 0), 3),
    ))
    marks = {2: None}
    full = execute_schedule(sut, s, None, marks)
    hs, ready = marks[2]
    assert hs.states == [{"seen": [0]}, {"seen": [0, 1]}]
    assert execute_schedule(sut, s, (clone_hs(hs), ready)) == full
    assert execute_schedule(sut, s, marks[2]) == full


def test_deliver_more_than_occupancy_delivers_what_exists():
    sut = PingPong(balls=2)
    s = Schedule(steps=(deliver(BufferId(0, 1), 5),))
    result = execute_schedule(sut, s)
    assert len(result.trace.events) == 2
    assert result.trace.skipped == ()


def test_empty_buffer_step_is_skipped():
    sut = PingPong(balls=1)
    s = Schedule(steps=(deliver(BufferId(1, 0)), deliver(BufferId(0, 1))))
    result = execute_schedule(sut, s)
    assert result.trace.skipped == (0,)
    assert len(result.trace.events) == 1


def test_empty_schedule_executes_to_nothing():
    bench = build_micro(1, 1, True)
    result = execute_schedule(bench.sut, Schedule(steps=()))
    assert result.trace.events == ()
    assert result.violations == ()


def test_execution_is_deterministic_across_runs():
    bench = build_micro(2, 3, True)
    rng = random.Random(17)
    for _ in range(25):
        s = generate_random_schedule(bench.gen_defaults, rng)
        assert execute_schedule(bench.sut, s) == execute_schedule(bench.sut, s)


def test_reset_equals_fresh_construction():
    bench = build_micro(1, 1, True)
    a = init_state(bench.sut)
    b = init_state(build_micro(1, 1, True).sut)
    assert a.buffers == b.buffers
    assert a.alive == b.alive
    assert [bench.sut.snapshot(p, st) for p, st in enumerate(a.states)] == [
        bench.sut.snapshot(p, st) for p, st in enumerate(b.states)
    ]
    # the two initial registrations and the client request wait in buffers
    verbs = sorted(m.verb for q in a.buffers.values() for m in q)
    assert verbs == ["Register", "Register", "Request"]
    assert a.points == set()


def test_every_valid_schedule_executes_to_completion():
    bench = build_micro(2, 2, True)
    rng = random.Random(99)
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        execute_schedule(bench.sut, s)  # must not raise


class Faulty(PingPong):
    """Process 1 explodes on the third ball."""

    def handle(self, proc, state, msg, ctx):
        super().handle(proc, state, msg, ctx)
        if proc == 1 and msg.field("n") == 2:
            raise ValueError("boom")


def test_handler_panic_becomes_violation_and_kills_the_process():
    sut = Faulty(balls=5)
    s = Schedule(steps=(deliver(BufferId(0, 1), 5),))
    result = execute_schedule(sut, s)
    assert [v.kind for v in result.violations] == ["HandlerPanic"]
    assert "ValueError" in result.violations[0].description
    deliveries = [e for e in result.trace.events if e.kind == "deliver"]
    assert len(deliveries) == 3  # the fatal delivery is the last one
    assert result.final_states[1] is None  # process 1 died


def test_no_delivery_to_a_process_killed_by_its_handler():
    bench = build_micro(1, 3, True)
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        if not result.violations:
            continue
        checked += 1
        death_step = result.violations[0].step
        victim = [
            ev.recv
            for ev in result.trace.events
            if ev.kind == "deliver" and ev.step == death_step
        ][-1]
        for ev in result.trace.events:
            if ev.step > death_step:
                assert not (ev.kind == "deliver" and ev.recv == victim)
    assert checked > 0


# sha256 over the whole ExecutionResult of 300 seeded random runs per
# configuration.  Any change to what a run records, or in which order, shows
# here.
EXECUTION_PINS = {
    "micro": "2857915d1a7b91aa40c90f6bd5be6be1d41b8f3b42f514bb376acc3a23a25e26",
    "tpc": "0cddd555291a1678a0bf36c07a8905c3e97ecc7ab51da018659a63b05a0cabe0",
    "raftlite5-quorum-bug-quota30":
        "52b02a771fa0ee762e527a92d021073df4c81d6cb20d605d737f84c3e8b86eee",
    "raftlite-compacting":
        "df55cd08fe5cac4575030cbf00578ddd24a5a40ea26f19da07d1523070e4c5e8",
}


PINNED_RUNS = {
    "micro": lambda: build_micro(bug_enabled=True),
    "tpc": build_tpc,
    "raftlite5-quorum-bug-quota30":
        lambda: build_raftlite(5, quorum_bug=True, crash_quota=30),
    "raftlite-compacting": lambda: build_raftlite(3, 6, snapshot_threshold=2),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_execution_results_are_pinned(name):
    bench = PINNED_RUNS[name]()
    rng = random.Random(4)
    h = hashlib.sha256()
    for _ in range(300):
        r = execute_schedule(bench.sut, generate_random_schedule(bench.gen_defaults, rng))
        h.update(repr((r.trace, sorted(r.points_hit), r.violations, r.final_states,
                       r.ready)).encode())
    assert h.hexdigest() == EXECUTION_PINS[name]


class Stray(PingPong):
    """Process 1 answers each ball to ``dest``, wherever that is."""

    def __init__(self, dest, broadcast=False):
        super().__init__(balls=2)
        self.dest, self.broadcast = dest, broadcast

    def handle(self, proc, state, msg, ctx):
        if proc == 1 and self.broadcast:
            ctx.broadcast((0, self.dest), "Stray", n=msg.field("n"))
        elif proc == 1:
            ctx.send(self.dest, "Stray", n=msg.field("n"))


@pytest.mark.parametrize("dest", [2, -1, 7])
@pytest.mark.parametrize("broadcast", [False, True])
def test_a_send_out_of_range_is_a_harness_error(dest, broadcast):
    s = Schedule(steps=(deliver(BufferId(0, 1)),))
    with pytest.raises(HarnessError) as e:
        execute_schedule(Stray(dest, broadcast), s)
    assert str(e.value) == f"process 1 sent Stray to process {dest}, outside 0..1"


class Placed(PingPong):
    """PingPong that starts with its one ball in ``buf``."""

    def __init__(self, buf):
        super().__init__(balls=1)
        self.buf = buf

    def init(self):
        return [{"seen": []}, {"seen": []}], [(self.buf, make_message("Ball", n=0))]


@pytest.mark.parametrize("buf", [BufferId(0, 2), BufferId(2, 1), BufferId(-1, 1),
                                 BufferId(1, -1)], ids=str)
def test_an_initial_message_outside_the_buffers_is_a_harness_error(buf):
    for run in (init_state, lambda sut: execute_schedule(sut, Schedule(steps=()))):
        with pytest.raises(HarnessError) as e:
            run(Placed(buf))
        assert str(e.value) == (f"initial Ball message in buffer {buf.sender}->"
                                f"{buf.receiver}, which is no buffer of 'pingpong'")


def test_an_initial_message_to_itself_is_delivered():
    s = Schedule(steps=(deliver(BufferId(1, 1)), deliver(BufferId(1, 0))))
    result = execute_schedule(Placed(BufferId(1, 1)), s)
    assert [(e.send, e.recv) for e in result.trace.events] == [(1, 1), (1, 0)]
    assert result.trace.skipped == ()


class Looped(PingPong):
    """PingPong whose process 1 has a control buffer (1, 1); it answers each
    ball over that buffer, or finds its ball there from the start."""

    extra_buffers = (BufferId(1, 1),)
    control_buffers = frozenset(extra_buffers)

    def __init__(self, placed=False, broadcast=False):
        super().__init__(balls=1)
        self.placed, self.broadcast = placed, broadcast

    def init(self):
        states, inflight = super().init()
        return states, [(BufferId(1, 1), m) for _, m in inflight] if self.placed else inflight

    def control_message(self, buf):
        return make_message("Tick")

    def handle(self, proc, state, msg, ctx):
        if proc == 1 and self.broadcast:
            ctx.broadcast((0, 1), "Ball", n=msg.field("n"))
        elif proc == 1:
            ctx.send(1, "Ball", n=msg.field("n"))


@pytest.mark.parametrize("broadcast", [False, True])
def test_a_send_over_a_control_buffer_is_a_harness_error(broadcast):
    s = Schedule(steps=(deliver(BufferId(0, 1)),))
    with pytest.raises(HarnessError) as e:
        execute_schedule(Looped(broadcast=broadcast), s)
    assert str(e.value) == ("process 1 sent Ball over control buffer 1->1, "
                            "whose messages are never delivered")


def test_an_initial_message_in_a_control_buffer_is_a_harness_error():
    for run in (init_state, lambda sut: execute_schedule(sut, Schedule(steps=()))):
        with pytest.raises(HarnessError) as e:
            run(Looped(placed=True))
        assert str(e.value) == ("initial Ball message in control buffer 1->1, "
                                "whose messages are never delivered")


def test_a_broadcast_in_range_lands_in_each_buffer():
    s = Schedule(steps=(deliver(BufferId(0, 1), 2), deliver(BufferId(1, 0), 4)))
    result = execute_schedule(Stray(0, broadcast=True), s)
    to_0 = [(e.verb, e.field("n")) for e in result.trace.events if e.recv == 0]
    assert to_0 == [("Stray", 0), ("Stray", 0), ("Stray", 1), ("Stray", 1)]


def test_harness_reaches_the_benchmark_layers_under_their_names(monkeypatch):
    """The benchmark times a system's handlers and oracle by patching these
    methods on its class: a harness that bound them once would zero those
    metrics silently."""
    bench = build_raftlite(5, quorum_bug=True, crash_quota=30)
    rng = random.Random(8)
    execute_schedule(bench.sut, generate_random_schedule(bench.gen_defaults, rng))
    calls = Counter()

    def counted(name, fn):
        def wrapper(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapper

    for name in ("handle", "recover", "oracle_observe"):
        monkeypatch.setattr(RaftLiteBench, name, counted(name, getattr(RaftLiteBench, name)))
    kinds = Counter()
    for _ in range(50):
        run = execute_schedule(bench.sut, generate_random_schedule(bench.gen_defaults, rng))
        kinds.update(e.kind for e in run.trace.events)
        kinds["events"] += len(run.trace.events)
    assert min(kinds[EV_DELIVER], kinds[EV_RESTART]) > 0
    assert calls == {"handle": kinds[EV_DELIVER], "recover": kinds[EV_RESTART],
                     "oracle_observe": kinds["events"]}
