"""The one HandlerContext a run reuses for all its turns.

A turn that raises leaves sends, a broadcast, an internal marker and a point
in the shared context.  The sends and the marker must die with the turn, the
point must stay, and the next turn must start from an empty context; the run
must still equal the reference turn of ``test_turns.py``.
"""

import random

from test_turns import reference_run

from schedfuzz import harness
from schedfuzz.harness import PANIC, SystemUnderTest, init_state, make_message
from schedfuzz.schedule import (
    DELIVER,
    BufferId,
    GenParams,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
)

LOST = {"Lost", "LostToo", "Gone"}


class Doomed(SystemUnderTest):
    """Three processes passing Pings around a ring; a Boom makes its receiver
    send, broadcast, log a marker, mark a point and then raise."""

    name = "doomed"
    process_count = 3
    crashes_allowed = False

    def __init__(self):
        self.starts = []  # (proc, outbox, internals) as each turn begins

    def init(self):
        states = [{"n": 0} for _ in range(3)]
        inflight = [(BufferId(0, 1), make_message("Boom")),
                    (BufferId(0, 2), make_message("Ping")),
                    (BufferId(2, 0), make_message("Ping"))]
        return states, inflight

    def handle(self, proc, st, msg, ctx):
        self.starts.append((proc, list(ctx.outbox), list(ctx.internals)))
        st["n"] += 1
        if msg.verb == "Boom":
            ctx.send(2, "Lost")
            ctx.broadcast((0, 2), "LostToo")
            ctx.internal("Gone")
            ctx.point("boom")
            raise ValueError("boom")
        ctx.point(f"ping{proc}")
        ctx.internal("Pinged", n=st["n"])
        ctx.send((proc + 1) % 3, "Ping")

    def persistent_state(self, proc, st):
        return None

    def snapshot(self, proc, st):
        return (st["n"],)


def run_one_context(sut, schedule):
    """execute_schedule's step loop with its one turn function, keeping the
    HarnessState."""
    assert all(op == DELIVER for _, op, _ in schedule.steps)
    hs = init_state(sut)
    harness.stepper(sut, hs)(schedule.steps, 0)
    return hs


def _deliver(s, r, n=1):
    return ScheduleStep(BufferId(s, r), DELIVER, n)


def test_an_aborted_turn_leaves_nothing_in_the_shared_context():
    sut = Doomed()
    # Boom kills 1; then Pings go round; then the buffers the lost sends
    # would have filled are tried.
    s = Schedule(steps=(_deliver(0, 1), _deliver(0, 2), _deliver(2, 0, 2),
                        _deliver(1, 2), _deliver(1, 0), _deliver(0, 1), _deliver(0, 2)))
    hs = run_one_context(sut, s)
    assert sut.starts[0][0] == 1 and len(sut.starts) >= 3
    assert all(out == [] and internals == [] for _, out, internals in sut.starts)
    assert not any(m.verb in LOST for q in hs.buffers.values() for m in q)
    assert not any(e.verb in LOST for e in hs.events)
    assert "boom" in hs.points and "ping2" in hs.points
    assert [v.kind for v in hs.violations] == [PANIC]

    result = harness.execute_schedule(Doomed(), s)
    ref, ref_hs = reference_run(Doomed(), s)
    assert result == ref
    assert "boom" in result.points_hit
    assert not any(e.verb in LOST for e in result.trace.events)
    assert run_one_context(Doomed(), s) == ref_hs


def test_random_runs_of_the_shared_context_match_the_reference_turn():
    params = GenParams(3, 30, 3, 0, ())
    rng = random.Random(5)
    booms = 0
    for _ in range(300):
        s = generate_random_schedule(params, rng)
        sut = Doomed()
        ref, ref_hs = reference_run(Doomed(), s)
        assert harness.execute_schedule(Doomed(), s) == ref
        assert run_one_context(sut, s) == ref_hs
        assert all(out == [] and internals == [] for _, out, internals in sut.starts)
        booms += "boom" in ref.points_hit
    assert booms > 50
