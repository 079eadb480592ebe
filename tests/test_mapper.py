import random

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.harness import ConcreteEvent, ConcreteEventTrace, execute_schedule
from schedfuzz.mapper import MapperError, event_to_obj, map_events
from schedfuzz.schedule import generate_random_schedule


def _deliver(recv, send, verb, step=0, **fields):
    return ConcreteEvent("deliver", recv, send, verb, tuple(sorted(fields.items())), step)


def test_micro_register_maps_to_register_action():
    trace = ConcreteEventTrace((_deliver(0, 1, "Register", proc=1),), ())
    (action,) = map_events("micro", trace)
    assert action.name == "Register" and action.args == (1,)


def test_empty_trace_maps_to_no_actions():
    assert map_events("micro", ConcreteEventTrace((), ())) == []


def test_crash_and_restart_map_to_cluster_actions():
    trace = ConcreteEventTrace(
        (
            ConcreteEvent("crash", 2, None, "", (), 3),
            ConcreteEvent("restart", 2, None, "", (), 9),
        ),
        (),
    )
    actions = map_events("raftlite", trace)
    assert [(a.name, a.args) for a in actions] == [("Crash", (2,)), ("Restart", (2,))]


def test_unmappable_verb_names_the_verb():
    trace = ConcreteEventTrace((_deliver(0, 1, "Gossip"),), ())
    with pytest.raises(MapperError, match="Gossip"):
        map_events("micro", trace)


def test_mapping_is_order_preserving():
    bench = build_tpc(2, 1, 2)
    rng = random.Random(3)
    s = generate_random_schedule(bench.gen_defaults, rng)
    result = execute_schedule(bench.sut, s)
    actions = map_events("tpc", result.trace)
    assert len(actions) == len(result.trace.events)  # tpc maps 1:1


def test_mapping_total_over_random_schedules():
    for bench in (build_micro(2, 2, True), build_tpc(3, 2, 3), build_raftlite(3, 2)):
        rng = random.Random(14)
        for _ in range(200):
            s = generate_random_schedule(bench.gen_defaults, rng)
            result = execute_schedule(bench.sut, s)
            map_events(bench.name, result.trace)  # must not raise


def test_crash_event_json_shape():
    ev = ConcreteEvent("crash", 2, None, "", (), 17)
    assert event_to_obj(ev) == {"kind": "crash", "proc": 2, "step": 17}


def test_deliver_event_json_shape():
    ev = _deliver(1, 0, "AppendEntries", step=4, term=2, entries="1:7")
    assert event_to_obj(ev) == {
        "kind": "deliver", "from": 0, "to": 1, "verb": "AppendEntries",
        "fields": {"entries": "1:7", "term": 2}, "step": 4,
    }
    bare = _deliver(0, 2, "Flush", step=3)
    assert event_to_obj(bare) == {"kind": "deliver", "from": 2, "to": 0, "verb": "Flush", "step": 3}


def test_internal_event_json_shape():
    ev = ConcreteEvent("internal", 1, None, "LeaderElected", (("term", 3),), 8)
    assert event_to_obj(ev) == {
        "kind": "internal", "to": 1, "verb": "LeaderElected", "fields": {"term": 3}, "step": 8,
    }
