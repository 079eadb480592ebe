"""Translate concrete event traces into model action sequences.  A benchmark's
``events`` table maps each verb to ``(model action, argument sources)``; a source
is RECV (the receiver), SEND (the sender) or a field name.  Crash and restart
map to Crash(p) and Restart(p) on every benchmark."""

from .harness import EV_CRASH, EV_RESTART
from .model import ModelAction

RECV, SEND = "<recv>", "<send>"  # no field is named like these
_CLUSTER = {EV_CRASH: "Crash", EV_RESTART: "Restart"}


class MapperError(ValueError):
    """A verb the table does not map, or an event missing a field its rule reads."""


def map_events(bench, trace) -> list:
    """The model actions of ``trace`` under ``bench.events``, in trace order."""
    table, actions = bench.events, []
    for ev in trace.events:
        name = _CLUSTER.get(ev.kind)
        if name is not None:
            actions.append(ModelAction(name, (ev.recv,)))
            continue
        try:
            name, sources = table[ev.verb]
        except KeyError:
            raise MapperError(f"benchmark {bench.name!r} maps no verb {ev.verb!r}") from None
        args = []
        for src in sources:
            if src == RECV:
                args.append(ev.recv)
            elif src == SEND:
                args.append(ev.send)
            else:
                for key, value in ev.fields:
                    if key == src:
                        args.append(value)
                        break
                else:
                    raise MapperError(f"event {ev.verb!r} is missing field {src!r}")
        actions.append(ModelAction(name, tuple(args)))
    return actions
