"""Translate concrete event traces into model action sequences.

The translation is purely syntactic on (event kind, verb, fields): deliver
events map to protocol-handling actions, crash/restart to cluster actions,
and internal markers to the model actions that have no message of their own
(leader election, snapshot compaction, client-request serving).  Every verb
a benchmark can emit must be covered here; an unknown verb is a contract
violation, never a silent skip.
"""

from __future__ import annotations

from .harness import (
    EV_CRASH,
    EV_DELIVER,
    EV_INTERNAL,
    EV_RESTART,
    ConcreteEvent,
    ConcreteEventTrace,
)
from .model import ModelAction


class MapperError(ValueError):
    """Unmappable verb or event."""


def map_events(kind: str, trace: ConcreteEventTrace) -> list:
    try:
        rules = _RULES[kind]
    except KeyError:
        raise MapperError(f"no event mapping for benchmark {kind!r}") from None
    actions = []
    for ev in trace.events:
        if ev.kind == EV_CRASH:
            actions.append(ModelAction("Crash", (ev.recv,)))
        elif ev.kind == EV_RESTART:
            actions.append(ModelAction("Restart", (ev.recv,)))
        else:
            act = rules(ev)
            if act is not None:
                actions.append(act)
    return actions


def _f(ev: ConcreteEvent, key):
    v = ev.field(key)
    if v is None:
        raise MapperError(f"event {ev.verb!r} is missing field {key!r}")
    return v


def _map_micro(ev: ConcreteEvent):
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


def _map_tpc(ev: ConcreteEvent):
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


def _map_raftlite(ev: ConcreteEvent):
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


_RULES = {"micro": _map_micro, "tpc": _map_tpc, "raftlite": _map_raftlite}


# --- JSON event export ------------------------------------------------------

def event_to_obj(ev: ConcreteEvent) -> dict:
    if ev.kind == EV_DELIVER:
        obj = {"kind": "deliver", "from": ev.send, "to": ev.recv, "verb": ev.verb}
    elif ev.kind == EV_INTERNAL:
        obj = {"kind": "internal", "to": ev.recv, "verb": ev.verb}
    elif ev.kind in (EV_CRASH, EV_RESTART):
        return {"kind": ev.kind, "proc": ev.recv, "step": ev.step}
    else:
        raise MapperError(f"unknown event kind {ev.kind!r}")
    if ev.fields:
        obj["fields"] = dict(ev.fields)
    obj["step"] = ev.step
    return obj
