import random
from itertools import combinations

from schedfuzz.benchmarks import build_micro
from schedfuzz.benchmarks.micro import NULL_DEREF, MicroState
from schedfuzz.coverage import enumerate_orderings
from schedfuzz.harness import ASSERTION, execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import bfs_reachable, run_actions
from schedfuzz.schedule import BufferId, DELIVER, Schedule, ScheduleStep, generate_random_schedule


def deliver(sender, receiver):
    return ScheduleStep(BufferId(sender, receiver), DELIVER, 1)


# Delivery order: Register(t), Register(w), Request(r), Terminate(w), Flush,
# Execute(r) -- the mutated execution that races Flush ahead of the task.
FLUSH_BEFORE_TASK = Schedule(
    steps=(
        deliver(2, 0),  # Register(t)
        deliver(1, 0),  # Register(w)
        deliver(0, 0),  # Request(r)
        deliver(0, 2),  # Terminate(w)
        deliver(2, 1),  # Flush
        deliver(0, 1),  # Execute(r)
    )
)


def test_process_set_size_is_three():
    assert build_micro(1, 1, True).sut.process_count == 3


def test_flush_before_final_task_trips_null_deref():
    bench = build_micro(1, 1, True)
    result = execute_schedule(bench.sut, FLUSH_BEFORE_TASK)
    deliveries = [e for e in result.trace.events if e.kind == "deliver"]
    assert len(deliveries) == 6
    assert [v.kind for v in result.violations] == [ASSERTION]
    assert "NullDeref" in result.violations[0].description


def test_guard_restores_safety_on_same_order():
    bench = build_micro(1, 1, False)
    result = execute_schedule(bench.sut, FLUSH_BEFORE_TASK)
    assert result.violations == ()


def test_bug_free_variant_has_no_violations_over_random_schedules():
    bench = build_micro(2, 3, False)
    rng = random.Random(8)
    for _ in range(1500):
        s = generate_random_schedule(bench.gen_defaults, rng)
        assert execute_schedule(bench.sut, s).violations == ()


def test_deep_bug_reachable_by_exhaustive_enumeration():
    res = enumerate_orderings(build_micro(2, 3, True), max_depth=12)
    assert any("NullDeref" in key for key in res.violation_keys)
    assert NULL_DEREF in next(iter(res.violation_keys))


def test_initial_model_states_visited_by_registrations():
    from schedfuzz.model import ModelAction

    bench = build_micro(1, 1, True)
    lts = bench.lts
    w, t = 1, 2
    run = run_actions(lts, [ModelAction("Register", (w,)), ModelAction("Register", (t,))])
    empty = MicroState((), (), (0,), (0,), (), ())
    after_w = empty._replace(registered=(w,))
    after_wt = empty._replace(registered=(w, t))
    assert run.path == (empty, after_w, after_wt)
    assert run.unmatched == ()


def test_execute_before_request_is_unmatched():
    from schedfuzz.model import ModelAction

    bench = build_micro(1, 1, True)
    run = run_actions(bench.lts, [ModelAction("Execute", (1, 1))])
    assert run.unmatched == (0,)
    initial = MicroState((), (), (0,), (0,), (), ())
    assert run.path == (initial, initial)  # a rejected action leaves the state


def test_empty_action_list_visits_only_initial():
    bench = build_micro(1, 1, True)
    run = run_actions(bench.lts, [])
    assert run.path == (bench.lts.initial,)
    assert run.unmatched == ()


def test_simulation_soundness_micro():
    bench = build_micro(2, 3, True)
    rng = random.Random(4)
    for _ in range(400):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        run = run_actions(bench.lts, map_events(bench, result.trace))
        assert run.unmatched == ()


def test_two_executions_cover_all_reachable_states():
    bench = build_micro(1, 1, True)
    res = enumerate_orderings(bench, max_depth=12)
    full = bfs_reachable(bench.lts).fingerprints
    assert not any(rec.state_fps == full for rec in res.records)
    assert any(
        a.state_fps | b.state_fps == full for a, b in combinations(res.records, 2)
    )
