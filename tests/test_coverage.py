import dataclasses
import random

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite
from schedfuzz.coverage import (
    CoverageContractError,
    EnumerationExplosion,
    assess,
    canonical_linearization,
    default_dependent,
    enumerate_orderings,
    trace_fingerprint,
)
from schedfuzz.harness import ConcreteEvent, ConcreteEventTrace, execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import bfs_reachable, run_actions
from schedfuzz.schedule import (
    BufferId,
    DELIVER,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
)


def _deliver(recv, send, verb, step=0, **fields):
    return ConcreteEvent("deliver", recv, send, verb, tuple(sorted(fields.items())), step)


def _trace(*events):
    return ConcreteEventTrace(tuple(events), ())


def test_commuting_deliveries_share_a_fingerprint():
    execute = _deliver(1, 0, "Execute", idx=1)
    terminate = _deliver(2, 0, "Terminate", worker=1)
    assert trace_fingerprint(_trace(execute, terminate)) == trace_fingerprint(
        _trace(terminate, execute)
    )


def test_same_receiver_swap_changes_the_fingerprint():
    a = _deliver(0, 1, "Register", proc=1)
    b = _deliver(0, 2, "Register", proc=2)
    assert trace_fingerprint(_trace(a, b)) != trace_fingerprint(_trace(b, a))


def test_single_event_fingerprint_is_stable():
    ev = _deliver(1, 0, "Execute", idx=1)
    assert trace_fingerprint(_trace(ev)) == trace_fingerprint(_trace(ev))


def test_crash_is_dependent_with_everything_touching_its_process():
    crash = ConcreteEvent("crash", 1, None, "", (), 0)
    to_p = _deliver(1, 0, "Execute", idx=1)
    from_p = _deliver(0, 1, "Relay", idx=2)
    elsewhere = _deliver(2, 0, "Terminate", worker=1)
    assert default_dependent(crash, to_p)
    assert default_dependent(crash, from_p)
    assert not default_dependent(crash, elsewhere)
    # reordering a crash against a message its process sent changes the class
    assert trace_fingerprint(_trace(from_p, crash)) != trace_fingerprint(
        _trace(crash, from_p)
    )


def _swap_closure(word, dependent):
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            if not dependent(w[i], w[i + 1]):
                w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return seen


def test_fingerprint_equality_is_exactly_swap_reachability():
    res = enumerate_orderings(build_micro(1, 1, True), max_depth=12, keep_events=True)
    # Equivalence is over event content; drop the step-index bookkeeping.
    words = [
        tuple(e._replace(step=0) for e in rec.events if e.kind == "deliver")
        for rec in res.records
    ]
    fps = [rec.trace_fp for rec in res.records]
    closures = [_swap_closure(w, default_dependent) for w in words]
    for i in range(len(words)):
        for j in range(len(words)):
            equivalent = words[j] in closures[i]
            assert equivalent == (fps[i] == fps[j]), (i, j)


def test_canonical_linearization_is_a_permutation():
    res = enumerate_orderings(build_micro(2, 2, True), max_depth=10, keep_events=True)
    for rec in res.records[:50]:
        events = [e for e in rec.events if e.kind == "deliver"]
        order = canonical_linearization(events)
        assert sorted(order) == list(range(len(events)))


def test_custom_relation_falls_back_to_generic_graph():
    def total_dependence(a, b):
        return True

    a = _deliver(1, 0, "Execute", idx=1)
    b = _deliver(2, 0, "Terminate", worker=1)
    # with everything dependent, order is preserved verbatim
    assert canonical_linearization([a, b], total_dependence) == [0, 1]
    assert canonical_linearization([b, a], total_dependence) == [0, 1]
    # the default relation lets the two commute into one canonical order
    ab, ba = canonical_linearization([a, b]), canonical_linearization([b, a])
    assert [[a, b][i] for i in ab] == [[b, a][i] for i in ba]


def _fingerprinted(events):
    return [e for e in events if e.kind != "internal"]


def test_sparse_graph_matches_dense_reference():
    micro = enumerate_orderings(build_micro(1, 1, True), max_depth=12, keep_events=True)
    traces = [_fingerprinted(rec.events) for rec in micro.records]
    bench = build_raftlite(5, 2)
    crash_heavy = dataclasses.replace(bench.gen_defaults, crash_quota=30)
    rng = random.Random(11)
    for _ in range(1200):
        result = execute_schedule(bench.sut, generate_random_schedule(crash_heavy, rng))
        traces.append(_fingerprinted(result.trace.events))
    assert sum(any(e.kind == "crash" for e in t) for t in traces) > 1000
    for events in traces:
        assert canonical_linearization(events) == canonical_linearization(
            events, default_dependent
        )


# --- assess ------------------------------------------------------------------

E5 = ("Register@w", "Register@t", "Request", "Execute", "Terminate", "Flush")


def _micro_exec(order):
    buffers = {
        "Register@w": BufferId(1, 0),
        "Register@t": BufferId(2, 0),
        "Request": BufferId(0, 0),
        "Execute": BufferId(0, 1),
        "Terminate": BufferId(0, 2),
        "Flush": BufferId(2, 1),
    }
    bench = build_micro(1, 1, True)
    steps = tuple(ScheduleStep(buffers[x], DELIVER, 1) for x in order)
    result = execute_schedule(bench.sut, Schedule(steps=steps))
    run = run_actions(bench.lts, map_events("micro", result.trace))
    return bench, result, run


def test_model_notion_reports_post_request_states():
    shallow_items = set()
    for order in (
        ("Request", "Register@w", "Register@t"),
        ("Register@w", "Request", "Register@t"),
        ("Request", "Register@t", "Register@w"),
        ("Register@t", "Request", "Register@w"),
    ):
        bench, result, run = _micro_exec(order)
        shallow_items |= assess("model", result, run, bench.lts).items
    for order in (
        E5,
        ("Register@t", "Register@w", "Request", "Terminate", "Execute", "Flush"),
    ):
        bench, result, run = _micro_exec(order)
        deep = assess("model", result, run, bench.lts).items
        assert deep - shallow_items  # the states past the served request


def test_trace_notion_distinguishes_e1_and_e2():
    _, r1, _ = _micro_exec(("Request", "Register@w", "Register@t"))
    _, r2, _ = _micro_exec(("Register@w", "Request", "Register@t"))
    i1 = assess("trace", r1).items
    i2 = assess("trace", r2).items
    assert i1 != i2


def test_random_notion_is_empty():
    _, result, _ = _micro_exec(E5)
    assert assess("random", result).items == frozenset()


def test_line_notion_reports_points():
    _, result, _ = _micro_exec(E5)
    items = assess("line", result).items
    assert ("line", "am.request.served") in items


def test_notion_input_contract_enforced():
    bench, result, run = _micro_exec(E5)
    with pytest.raises(CoverageContractError):
        assess("model", result)  # missing model run
    with pytest.raises(CoverageContractError):
        assess("trace", result, run)  # extraneous model run
    with pytest.raises(CoverageContractError):
        assess("branch", result)


def test_item_tags_never_collide_across_notions():
    bench, result, run = _micro_exec(E5)
    model_items = assess("model", result, run, bench.lts).items
    trace_items = assess("trace", result).items
    line_items = assess("line", result).items
    assert not (model_items & trace_items)
    assert not (model_items & line_items)
    assert not (trace_items & line_items)


def test_enumeration_guard_aborts_with_count():
    with pytest.raises(EnumerationExplosion):
        enumerate_orderings(build_micro(2, 2, True), max_depth=10, max_orderings=5)


def test_depth_limit_counts_only_completed_orderings():
    bench = build_micro(1, 1, True)
    res = enumerate_orderings(bench, max_depth=1)
    assert res.orderings == 0  # nothing quiesces after one delivery
    full = enumerate_orderings(bench, max_depth=3)
    # the four dropped-request prefixes complete at depth 3
    assert full.orderings == 4


def test_strictly_sequential_system_has_one_ordering():
    from schedfuzz.benchmarks import build_tpc

    # tpc(1,1,1) keeps exactly one message in flight at every point:
    # request -> prepare -> vote -> decision, a single chain.
    res = enumerate_orderings(build_tpc(1, 1, 1), max_depth=8)
    assert res.orderings == 1
    assert res.trace_classes == 1
