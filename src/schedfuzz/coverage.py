"""Coverage notions: model states, Mazurkiewicz traces, structural points.

Each executed schedule yields a frozenset of opaque coverage items under one
notion: ("state", fp) from model_state_items, ("trace", fp) or
("line", point_id) from assess.  Trace coverage canonicalizes the execution's
dependence partial order: two executions fingerprint equally iff one can be
turned into the other by swapping adjacent independent events.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .fingerprint import _encoded, digest128, encode_canonical, fingerprint, remember
from .harness import (
    EV_CRASH,
    EV_DELIVER,
    EV_INTERNAL,
    EV_RESTART,
    ConcreteEventTrace,
    ExecutionResult,
    clone_hs,
    init_state,
    stepper,
)
from .mapper import map_events
from .model import run_actions
from .schedule import DELIVER

MODEL = "model"
TRACE = "trace"
LINE = "line"
RANDOM = "random"
NOTIONS = (MODEL, TRACE, LINE, RANDOM)


class CoverageContractError(ValueError):
    """Notion and provided inputs do not match."""


class EnumerationExplosion(RuntimeError):
    def __init__(self, count: int):
        super().__init__(f"ordering enumeration aborted after {count} orderings "
                         "(branches cut at the depth limit included)")
        self.count = count


def _event_key(ev) -> bytes:
    """The canonical encoding of an event's identity, memoised per value
    (kind, recv, send, verb, fields): the event's first five fields."""
    value = ev[:5]
    try:
        return _encoded[value]
    except KeyError:
        kind, recv, send, verb, fields = value
        return remember(_encoded, value, encode_canonical(
            (kind, recv, -1 if send is None else send, verb, fields)))


def canonical_linearization(events):
    """Indices of ``events`` in the canonical (lexicographically least) order.

    Greedy over the dependence partial order: repeatedly emit the least-keyed
    event whose dependence predecessors are all emitted.  Two events depend
    on each other when they share a receiver, or when one is a crash or
    restart of a process the other touches.  Two co-available events never
    share a key (equal keys imply equal receivers, hence dependence), so the
    result is order-canonical.
    """
    return _linearize(events, [_event_key(e) for e in events])


def _linearize(events, keys):
    """canonical_linearization over precomputed event keys."""
    n = len(events)
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n

    def edge(i: int, j: int) -> None:
        succs[i].append(j)
        indeg[j] += 1

    # Same-receiver chains carry ordinary dependence; crash/restart
    # additionally pin every message their process sent.
    last_recv: dict[int, int] = {}
    last_fault: dict[int, int] = {}
    pending_sends: dict[int, list] = {}
    for j, ev in enumerate(events):
        p = ev.recv
        if p in last_recv:
            edge(last_recv[p], j)
        last_recv[p] = j
        if ev.kind in (EV_CRASH, EV_RESTART):
            for i in pending_sends.get(p, ()):
                edge(i, j)
            pending_sends[p] = []
            last_fault[p] = j
        elif ev.send is not None and ev.send != ev.recv:
            s = ev.send
            if s in last_fault:
                edge(last_fault[s], j)
            pending_sends.setdefault(s, []).append(j)

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
    if len(order) != n:
        raise RuntimeError("dependence graph has a cycle; relation is broken")
    return order


def trace_fingerprint(trace: ConcreteEventTrace) -> bytes:
    """128-bit id of the execution's Mazurkiewicz equivalence class.

    Without a crash or restart, two deliveries depend only when they share a
    receiver, so the canonical order merges the per-receiver chains, each
    step emitting the least chain head as _linearize's heap would.  A
    delivery's key encodes the kind "deliver", then its receiver, and the
    encoding is prefix-free, so all keys of one chain order against all keys
    of another as their heads do: the merge emits whole chains, least head
    first.  Any other trace takes the dependence graph.
    """
    chains: dict[int, list] = {}
    for ev in trace.events:
        if ev.kind == EV_DELIVER:
            chains.setdefault(ev.recv, []).append(_event_key(ev))
        elif ev.kind != EV_INTERNAL:
            break
    else:
        return digest128(b"".join(map(b"".join, sorted(chains.values()))))
    events = [e for e in trace.events if e.kind in (EV_DELIVER, EV_CRASH, EV_RESTART)]
    keys = [_event_key(e) for e in events]
    return digest128(b"".join(keys[i] for i in _linearize(events, keys)))


def model_state_items(run, lts, cur=None, curs=None) -> frozenset:
    """State coverage items of a model run: its path after the model's
    abstraction (``lts.merges``), deduplicated and fingerprinted in one pass.
    ``cur`` is the abstracted state at ``run.path[0]`` of a resumed run, and
    each path index in the dict ``curs`` gets the abstracted state there."""
    merges, path = lts.merges, run.path
    cur = path[0] if cur is None else cur
    items = {("state", fingerprint(cur))}
    i, curs = 0, curs or {}
    for stop in [*sorted(curs), len(path) - 1]:
        for prev, state in zip(path[i:stop], path[i + 1:stop + 1]):
            if state is not prev and not (merges and merges(cur, state)):
                cur = state
                items.add(("state", fingerprint(cur)))
        if stop in curs:
            curs[stop] = cur
        i = stop
    return frozenset(items)


def assess(notion: str, exec_result: ExecutionResult) -> frozenset:
    """Coverage items of one execution under the trace, line or random notion."""
    if notion == TRACE:
        return frozenset({("trace", trace_fingerprint(exec_result.trace))})
    if notion == LINE:
        return frozenset(("line", p) for p in exec_result.points_hit)
    if notion == RANDOM:
        return frozenset()
    if notion == MODEL:
        raise CoverageContractError(
            "model-state coverage needs a model run: use model_state_items(run, lts)"
        )
    raise CoverageContractError(f"unknown coverage notion {notion!r}")


# --- exhaustive ordering enumeration (oracle for small instances) ----------

class OrderingRecord(NamedTuple):
    trace_fp: bytes
    state_fps: frozenset    # model states visited by this ordering
    events: tuple = ()      # full trace events, kept only on request


class EnumerationResult(NamedTuple):
    orderings: int
    trace_classes: int
    records: tuple
    violation_keys: frozenset


def enumerate_orderings(bench, max_depth: int,
                        max_orderings: int = 1_000_000,
                        keep_events: bool = False) -> EnumerationResult:
    """DFS over every complete delivery ordering of a small instance.

    One message at a time, no crashes, perpetual control channels excluded
    (they never quiesce).  An ordering is complete when no real buffer holds
    a message; branches still live at ``max_depth`` are not counted as
    orderings, but they count against ``max_orderings`` as orderings do.
    """
    sut, lts = bench.sut, bench.lts
    bits = sut.ready_bits
    moves = sorted((buf, b) for buf, b in bits.bit.items() if not b & bits.control)
    records = []
    cuts = 0
    all_violations = set()

    def walk(hs, depth: int) -> None:
        nonlocal cuts
        options = [buf for buf, b in moves if hs.ready & b]
        if options and depth < max_depth:
            for buf in options:
                child = clone_hs(hs)
                stepper(sut, child)(((buf, DELIVER, 1),), depth)
                walk(child, depth + 1)
            return
        if len(records) + cuts >= max_orderings:
            raise EnumerationExplosion(len(records) + cuts)
        keys = tuple(v.key for v in hs.violations)
        all_violations.update(keys)  # a cut branch surfaces its violations too
        if options:
            cuts += 1
            return
        trace = ConcreteEventTrace(tuple(hs.events), ())
        run = run_actions(lts, map_events(bench, trace))
        records.append(OrderingRecord(
            trace_fingerprint(trace), frozenset(fingerprint(s) for s in run.path),
            trace.events if keep_events else ()))

    walk(init_state(sut), 0)
    return EnumerationResult(
        orderings=len(records),
        trace_classes=len({r.trace_fp for r in records}),
        records=tuple(records),
        violation_keys=frozenset(all_violations),
    )
