import dataclasses
import heapq
import random
from collections import deque

import pytest

import test_turns

from schedfuzz import coverage
from schedfuzz import fingerprint as fp_memo
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.coverage import (
    CoverageContractError,
    EnumerationExplosion,
    OrderingRecord,
    assess,
    canonical_linearization,
    enumerate_orderings,
    model_state_items,
    trace_fingerprint,
)
from schedfuzz.fingerprint import digest128, encode_canonical, fingerprint
from schedfuzz.harness import (
    ConcreteEvent,
    ConcreteEventTrace,
    HarnessState,
    clone_hs,
    execute_schedule,
    init_state,
    stepper,
)
from schedfuzz.mapper import map_events
from schedfuzz.model import bfs_reachable, run_actions
from schedfuzz.schedule import (
    BufferId,
    CRASH,
    DELIVER,
    RESTART,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
)


def _deliver(recv, send, verb, step=0, **fields):
    return ConcreteEvent("deliver", recv, send, verb, tuple(sorted(fields.items())), step)


def _trace(*events):
    return ConcreteEventTrace(tuple(events), ())


def _touches(ev, p: int) -> bool:
    return ev.recv == p or ev.send == p


def default_dependent(e1, e2) -> bool:
    """Trace coverage's dependence relation, as a predicate: same receiver, or
    a crash/restart entangled with anything at its process."""
    if e1.recv == e2.recv:
        return True
    if e1.kind in ("crash", "restart") and _touches(e2, e1.recv):
        return True
    if e2.kind in ("crash", "restart") and _touches(e1, e2.recv):
        return True
    return False


def dense_linearization(events):
    """canonical_linearization over default_dependent's dense O(n^2) graph,
    with every event key encoded afresh: the reference for the sparse graph."""
    n = len(events)
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for j in range(n):
        for i in range(j):
            if default_dependent(events[i], events[j]):
                succs[i].append(j)
                indeg[j] += 1
    keys = [encode_canonical((e.kind, e.recv, -1 if e.send is None else e.send,
                              e.verb, e.fields)) for e in events]
    heap = [(keys[i], i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, i = heapq.heappop(heap)
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, (keys[j], j))
    assert len(order) == n, "dependence graph has a cycle"
    return order


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


def test_commuting_deliveries_share_a_canonical_order():
    a = _deliver(1, 0, "Execute", idx=1)
    b = _deliver(2, 0, "Terminate", worker=1)
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
        assert canonical_linearization(events) == dense_linearization(events)


def _reference_fingerprint(trace):
    """trace_fingerprint without the event-key memo: every key encoded afresh."""
    events = _fingerprinted(trace.events)
    order = dense_linearization(events)
    return digest128(b"".join(
        encode_canonical((e.kind, e.recv, -1 if e.send is None else e.send,
                          e.verb, e.fields))
        for e in (events[i] for i in order)
    ))


def _random_traces(per_bench=150):
    """Traces of random schedules on micro, tpc(3, 2, 3), fault-free raftlite
    (whose internal events the merge path skips) and crash-heavy raftlite."""
    micro, tpc, raft = build_micro(), build_tpc(3, 2, 3), build_raftlite(5, 2)
    benches = [
        (micro, micro.gen_defaults),
        (tpc, tpc.gen_defaults),
        (raft, dataclasses.replace(raft.gen_defaults, crash_quota=0)),
        (raft, dataclasses.replace(raft.gen_defaults, crash_quota=30)),
    ]
    rng = random.Random(5)
    traces = []
    for bench, gen in benches:
        for _ in range(per_bench):
            schedule = generate_random_schedule(gen, rng)
            traces.append(execute_schedule(bench.sut, schedule).trace)
    return traces


def _with_fresh_kinds(trace):
    """``trace`` with each event kind an equal string that is not interned,
    as events read back from JSON carry."""
    events = tuple(e._replace(kind=e.kind.encode().decode()) for e in trace.events)
    assert all(a.kind is not b.kind for a, b in zip(events, trace.events))
    return trace._replace(events=events)


def test_memoised_trace_fingerprint_matches_reference(monkeypatch):
    traces = _random_traces(per_bench=1000)
    # Random crashes are restarted later in the run; the prefixes before the
    # first restart hold crashes alone.
    for t in traces[:]:
        cut = next((i for i, e in enumerate(t.events) if e.kind == "restart"), 0)
        if any(e.kind == "crash" for e in t.events[:cut]):
            traces.append(t._replace(events=t.events[:cut]))
    kinds = [{e.kind for e in t.events} for t in traces]
    faulty = sum(bool(k & {"crash", "restart"}) for k in kinds)
    skips = sum(k == {"deliver", "internal"} for k in kinds)
    assert faulty > 1500 and len(traces) - faulty > 2500 and skips > 300
    expected = [_reference_fingerprint(t) for t in traces]
    # Count the traces that take the dependence graph, not the chain merge.
    graph = []
    linearize = coverage._linearize
    monkeypatch.setattr(coverage, "_linearize",
                        lambda events, keys: graph.append(1) or linearize(events, keys))
    fp_memo.clear_cache()
    # The first pass fills the memo, the second reads every key from it, and
    # the third reads it through kinds that are equal but not identical.
    for rebuild in (None, None, _with_fresh_kinds):
        graph.clear()
        for trace, want in zip(traces, expected):
            assert trace_fingerprint(rebuild(trace) if rebuild else trace) == want
        assert len(graph) == faulty
    assert fp_memo._encoded


def test_full_event_key_memo_is_emptied_and_fingerprints_hold(monkeypatch):
    traces = _random_traces(per_bench=40)
    expected = [_reference_fingerprint(t) for t in traces]
    limit = 16
    monkeypatch.setattr(fp_memo, "CACHE_LIMIT", limit)
    fp_memo.clear_cache()
    memo = fp_memo._encoded
    largest = 0
    for _ in range(2):
        for trace, want in zip(traces, expected):
            assert trace_fingerprint(trace) == want
            assert len(memo) <= limit
            largest = max(largest, len(memo))
    assert largest == limit
    assert fp_memo._encoded is memo
    fp_memo.clear_cache()


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
    run = run_actions(bench.lts, map_events(bench, result.trace))
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
        shallow_items |= model_state_items(run, bench.lts)
    for order in (
        E5,
        ("Register@t", "Register@w", "Request", "Terminate", "Execute", "Flush"),
    ):
        bench, result, run = _micro_exec(order)
        deep = model_state_items(run, bench.lts)
        assert deep - shallow_items  # the states past the served request


def test_trace_notion_distinguishes_e1_and_e2():
    _, r1, _ = _micro_exec(("Request", "Register@w", "Register@t"))
    _, r2, _ = _micro_exec(("Register@w", "Request", "Register@t"))
    i1 = assess("trace", r1)
    i2 = assess("trace", r2)
    assert i1 != i2


def test_random_notion_is_empty():
    _, result, _ = _micro_exec(E5)
    assert assess("random", result) == frozenset()


def test_line_notion_reports_points():
    _, result, _ = _micro_exec(E5)
    items = assess("line", result)
    assert ("line", "am.request.served") in items


def test_notion_input_contract_enforced():
    _, result, _ = _micro_exec(E5)
    with pytest.raises(CoverageContractError, match="model_state_items"):
        assess("model", result)  # state items need a model run
    with pytest.raises(CoverageContractError):
        assess("branch", result)


def test_item_tags_never_collide_across_notions():
    bench, result, run = _micro_exec(E5)
    model_items = model_state_items(run, bench.lts)
    trace_items = assess("trace", result)
    line_items = assess("line", result)
    assert not (model_items & trace_items)
    assert not (model_items & line_items)
    assert not (trace_items & line_items)


def test_enumeration_guard_aborts_with_count():
    with pytest.raises(EnumerationExplosion):
        enumerate_orderings(build_micro(2, 2, True), max_depth=10, max_orderings=5)


def test_cut_branches_count_against_the_enumeration_limit():
    # tpc with its defaults completes no ordering within depth 12, so only
    # the cut branches can reach the limit.
    with pytest.raises(EnumerationExplosion) as e:
        enumerate_orderings(build_tpc(), max_depth=12, max_orderings=500)
    assert e.value.count == 500
    assert "after 500 orderings" in str(e.value)


def reference_orderings(bench, max_depth: int) -> tuple:
    """enumerate_orderings' records and violation keys as first written: the
    moves are the buffers that hold a message for a live receiver, rescanned
    from ``hs.buffers``, and test_turns' reference ``_deliver`` makes each
    move; a branch cut at ``max_depth`` surfaces its violations too."""
    sut, records, keys = bench.sut, [], set()

    def walk(hs, depth):
        options = sorted(b for b, q in hs.buffers.items() if q and b.receiver in hs.alive)
        if not options:
            trace = ConcreteEventTrace(tuple(hs.events), ())
            run = run_actions(bench.lts, map_events(bench, trace))
            records.append(OrderingRecord(
                trace_fingerprint(trace), frozenset(fingerprint(s) for s in run.path),
                trace.events))
        elif depth < max_depth:
            for buf in options:
                child = clone_hs(hs)
                test_turns._deliver(sut, child, depth, buf, 1)
                walk(child, depth + 1)
            return
        keys.update(v.key for v in hs.violations)

    walk(init_state(sut), 0)
    return tuple(records), frozenset(keys)


@pytest.mark.parametrize("make, depth", [
    (lambda: build_micro(1, 1, True), 12),
    (lambda: build_micro(2, 2, True), 10),
    (lambda: build_tpc(3, 1, 1), 10),
    (lambda: build_tpc(1, 1, 3), 12),
    # Only control buffers are ever deliverable: the one empty ordering.
    (lambda: build_raftlite(3), 4),
], ids=["micro(1,1)", "micro(2,2)", "tpc(3,1,1)", "tpc(1,1,3)", "raftlite(3)"])
def test_enumeration_matches_the_buffer_rescan_reference(make, depth):
    bench = make()
    res = enumerate_orderings(bench, max_depth=depth, keep_events=True)
    assert (res.records, res.violation_keys) == reference_orderings(bench, depth)
    assert res.orderings == len(res.records) > 0


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


def _mutable_ids(value, out):
    """Add the ids of every list, dict, set and deque reachable from ``value``."""
    if isinstance(value, (list, dict, set, deque)):
        out.add(id(value))
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, set, deque, tuple)):
        for v in value:
            _mutable_ids(v, out)
    return out


def test_clone_copies_every_harness_field():
    raft = build_raftlite(5, 2, quorum_bug=True, crash_quota=30)
    tpc = build_tpc(3, 2, 3)
    rng = random.Random(3)
    # Random crash schedules, sampled every tenth step; random tpc schedules,
    # whose states and oracle nest sets in dicts, sampled every fifth step;
    # a raftlite commit whose follower then crashes and restarts, since
    # random schedules seldom commit; and micro's assertion bug (Flush
    # overtakes the last task), whose violation kills a process.
    runs = [(raft.sut, generate_random_schedule(raft.gen_defaults, rng), 10)
            for _ in range(30)]
    runs += [(tpc.sut, generate_random_schedule(tpc.gen_defaults, rng), 5)
             for _ in range(30)]
    commit_then_crash = Schedule(tuple(
        ScheduleStep(BufferId(a, b), op, count) for a, b, op, count in (
            (0, 0, DELIVER, 1), (0, 1, DELIVER, 1), (1, 0, DELIVER, 1), (0, 0, DELIVER, 1),
            (0, 1, DELIVER, 2), (1, 0, DELIVER, 2), (0, 1, DELIVER, 1),
            (1, 1, CRASH, 1), (1, 1, RESTART, 1))))
    runs.append((build_raftlite(3, 1).sut, commit_then_crash, 1))
    flush_first = Schedule(tuple(
        ScheduleStep(BufferId(a, b), DELIVER, 1)
        for a, b in ((2, 0), (1, 0), (0, 0), (0, 2), (2, 1), (0, 1))))
    runs.append((build_micro(1, 1, True).sut, flush_first, 1))
    seen = set()
    for sut, s, every in runs:
        hs = init_state(sut)
        run = stepper(sut, hs)
        for idx, step in enumerate(s.steps):
            run((step,), idx)
            if idx % every:
                continue
            clone = clone_hs(hs)
            for f in dataclasses.fields(HarnessState):
                mine, theirs = getattr(clone, f.name), getattr(hs, f.name)
                assert mine == theirs, f.name
                assert not _mutable_ids(mine, set()) & _mutable_ids(theirs, set()), f.name
                if mine:
                    seen.add(f.name)
            if any(not q for q in hs.buffers.values()):
                seen.add("empty buffer")
            for where, held in (("states", hs.states), ("persisted", hs.persisted.values())):
                if any(st and st.get("applied") for st in held):
                    seen.add(f"applied entries in {where}")
    # Every field was checked holding something, empty buffers and raftlite's
    # applied entries included.
    assert seen == {f.name for f in dataclasses.fields(HarnessState)} | {
        "empty buffer", "applied entries in states", "applied entries in persisted"}
