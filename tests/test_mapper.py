import ast
import dataclasses
import random
import re
from pathlib import Path

import pytest

import schedfuzz
from schedfuzz.benchmarks import BENCHMARKS, build_micro, build_raftlite, build_tpc
from schedfuzz.cli import event_to_obj
from schedfuzz.harness import (
    EV_CRASH,
    EV_INTERNAL,
    EV_RESTART,
    ConcreteEvent,
    ConcreteEventTrace,
    execute_schedule,
)
from schedfuzz.mapper import MapperError, map_events
from schedfuzz.model import ModelAction, run_actions
from schedfuzz.schedule import generate_random_schedule


def _deliver(recv, send, verb, step=0, **fields):
    return ConcreteEvent("deliver", recv, send, verb, tuple(sorted(fields.items())), step)


def test_micro_register_maps_to_register_action():
    trace = ConcreteEventTrace((_deliver(0, 1, "Register", proc=1),), ())
    (action,) = map_events(build_micro(), trace)
    assert action.name == "Register" and action.args == (1,)


def test_empty_trace_maps_to_no_actions():
    assert map_events(build_micro(), ConcreteEventTrace((), ())) == []


def test_crash_and_restart_map_to_cluster_actions():
    trace = ConcreteEventTrace(
        (
            ConcreteEvent("crash", 2, None, "", (), 3),
            ConcreteEvent("restart", 2, None, "", (), 9),
        ),
        (),
    )
    actions = map_events(build_raftlite(), trace)
    assert [(a.name, a.args) for a in actions] == [("Crash", (2,)), ("Restart", (2,))]


def test_unmappable_verb_names_the_benchmark_and_the_verb():
    trace = ConcreteEventTrace((_deliver(0, 1, "Gossip"),), ())
    with pytest.raises(MapperError, match="'micro' maps no verb 'Gossip'"):
        map_events(build_micro(), trace)
    # A verb of another benchmark is just as unknown.
    trace = ConcreteEventTrace((_deliver(1, 0, "Prepare", tx=0),), ())
    with pytest.raises(MapperError, match="'raftlite' maps no verb 'Prepare'"):
        map_events(build_raftlite(), trace)


def test_missing_field_names_the_field():
    trace = ConcreteEventTrace((_deliver(0, 3, "Vote", tx=1),), ())  # no granted
    with pytest.raises(MapperError, match="'Vote' is missing field 'granted'"):
        map_events(build_tpc(), trace)


def test_sources_read_receiver_sender_and_fields():
    vote = _deliver(0, 3, "Vote", tx=1, granted=0, rm=3)
    decision = _deliver(2, 0, "Decision", tx=4, commit=1)
    actions = map_events(build_tpc(), ConcreteEventTrace((vote, decision), ()))
    assert actions == [ModelAction("HandleVote", (1, 3, 0)),
                       ModelAction("HandleDecision", (2, 4, 1))]


def test_mapping_is_order_preserving():
    bench = build_tpc(2, 1, 2)
    rng = random.Random(3)
    s = generate_random_schedule(bench.gen_defaults, rng)
    result = execute_schedule(bench.sut, s)
    actions = map_events(bench, result.trace)
    assert len(actions) == len(result.trace.events)  # tpc maps 1:1


def test_mapping_total_over_random_schedules():
    for bench in (build_micro(2, 2, True), build_tpc(3, 2, 3), build_raftlite(3, 2)):
        rng = random.Random(14)
        for _ in range(200):
            s = generate_random_schedule(bench.gen_defaults, rng)
            result = execute_schedule(bench.sut, s)
            map_events(bench, result.trace)  # must not raise


# --- the hand-written rules the tables replaced, as the reference ----------

def _f(ev, key):
    v = ev.field(key)
    if v is None:
        raise MapperError(f"event {ev.verb!r} is missing field {key!r}")
    return v


def _map_micro(ev):
    v = ev.verb
    if ev.kind == EV_INTERNAL:
        raise MapperError(f"micro emits no internal events, got {v!r}")
    if v == "Register":
        return ModelAction("Register", (_f(ev, "proc"),))
    if v == "Request":
        return ModelAction("Request", (_f(ev, "req"),))
    if v == "Execute":
        return ModelAction("Execute", (ev.recv, _f(ev, "idx")))
    if v == "Relay":
        return ModelAction("Relay", (_f(ev, "worker"), _f(ev, "idx")))
    if v == "Terminate":
        return ModelAction("Terminate", (_f(ev, "worker"),))
    if v == "Flush":
        return ModelAction("Flush", (ev.recv,))
    raise MapperError(f"unmappable micro verb {v!r}")


def _map_tpc(ev):
    v = ev.verb
    if ev.kind == EV_INTERNAL:
        raise MapperError(f"tpc emits no internal events, got {v!r}")
    if v == "TxRequest":
        return ModelAction("ClientRequest", (_f(ev, "tx"),))
    if v == "Prepare":
        return ModelAction("HandlePrepare", (ev.recv, _f(ev, "tx")))
    if v == "Vote":
        return ModelAction("HandleVote", (_f(ev, "tx"), ev.send, _f(ev, "granted")))
    if v == "Decision":
        return ModelAction("HandleDecision", (ev.recv, _f(ev, "tx"), _f(ev, "commit")))
    raise MapperError(f"unmappable tpc verb {v!r}")


def _map_raftlite(ev):
    v = ev.verb
    if ev.kind == EV_INTERNAL:
        if v == "LeaderElected":
            return ModelAction("ElectLeader", (ev.recv, _f(ev, "term")))
        if v == "ClientRequestServed":
            return ModelAction("ClientRequest", (ev.recv, _f(ev, "serial")))
        if v == "SnapshotCompacted":
            return ModelAction("UpdateSnapshotIndex", (ev.recv, _f(ev, "index")))
        raise MapperError(f"unmappable raftlite marker {v!r}")
    if v == "Timeout":
        return ModelAction("Timeout", (ev.recv,))
    if v == "RequestVote":
        return ModelAction(
            "HandleRequestVoteRequest", (ev.recv, _f(ev, "term"), _f(ev, "cand"))
        )
    if v == "RequestVoteResponse":
        return ModelAction(
            "HandleRequestVoteResponse", (ev.recv, _f(ev, "term"), _f(ev, "granted"))
        )
    if v == "AppendEntries":
        return ModelAction(
            "HandleAppendEntriesRequest",
            (
                ev.recv,
                _f(ev, "term"),
                _f(ev, "prev_idx"),
                _f(ev, "prev_term"),
                ev.field("entries", ""),
                _f(ev, "commit"),
            ),
        )
    if v == "AppendEntriesResponse":
        if _f(ev, "nil"):
            return ModelAction("HandleNilAppendEntriesResponse", (ev.recv, _f(ev, "term")))
        return ModelAction(
            "HandleAppendEntriesResponse",
            (ev.recv, _f(ev, "term"), _f(ev, "success"), _f(ev, "match")),
        )
    raise MapperError(f"unmappable raftlite verb {v!r}")


_REFERENCE_RULES = {"micro": _map_micro, "tpc": _map_tpc, "raftlite": _map_raftlite}
NIL = "HandleNilAppendEntriesResponse"


def _reference_map(name, trace) -> list:
    rules = _REFERENCE_RULES[name]
    return [ModelAction(e.kind.title(), (e.recv,)) if e.kind in (EV_CRASH, EV_RESTART)
            else rules(e) for e in trace.events]


def _reference_lts(bench):
    """The model as it was when the reference rules were written: raftlite
    handled the nil response in HandleAppendEntriesResponse's branch, here an
    alias row."""
    actions = bench.lts.actions
    if "HandleAppendEntriesResponse" not in actions:
        return bench.lts
    return dataclasses.replace(bench.lts, actions={
        **actions, NIL: actions["HandleAppendEntriesResponse"]})


@pytest.mark.parametrize("bench", [
    build_micro(), build_tpc(3, 2, 3), build_raftlite(5, quorum_bug=True, crash_quota=30),
], ids=lambda b: b.name)
def test_tables_map_like_the_reference_rules(bench):
    """Same actions as the hand-written rules but for the nil fold, and the
    same model runs, forwards and reversed, over 1,000 random schedules."""
    ref_lts = _reference_lts(bench)
    rng = random.Random(12)
    folded = 0
    for _ in range(1000):
        trace = execute_schedule(bench.sut, generate_random_schedule(bench.gen_defaults, rng)).trace
        actions, want = map_events(bench, trace), _reference_map(bench.name, trace)
        assert len(actions) == len(want)
        for got, ref in zip(actions, want):
            if ref.name == NIL:
                folded += 1
                assert got.name == "HandleAppendEntriesResponse" and got.args[:2] == ref.args
            else:
                assert got == ref
        for acts, ref_acts in ((actions, want), (actions[::-1], want[::-1])):
            assert run_actions(bench.lts, acts) == run_actions(ref_lts, ref_acts)
    assert (folded > 0) == (bench.name == "raftlite")


def test_generic_layers_name_no_benchmark():
    """Each benchmark owns its model layer: the generic modules hold no string
    that names a benchmark, so adding one touches only its own module."""
    pattern = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, BENCHMARKS)))
    package = Path(schedfuzz.__file__).parent
    for module in ("mapper", "model", "coverage", "harness", "fuzzer"):
        tree = ast.parse((package / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not pattern.search(node.value), (module, node.lineno, node.value)


# --- JSON event export (replay --json-out) ---------------------------------

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
