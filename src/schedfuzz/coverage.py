"""Coverage notions: model states, Mazurkiewicz traces, structural points.

Each executed schedule yields a CoverageReport, a set of opaque coverage
items under one notion.  Trace coverage canonicalizes the execution's
dependence partial order: two executions fingerprint equally iff one can be
turned into the other by swapping adjacent independent events.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .fingerprint import digest128, encode_canonical, fingerprint
from .harness import (
    EV_CRASH,
    EV_DELIVER,
    EV_RESTART,
    ConcreteEventTrace,
    ExecutionResult,
    HarnessState,
    deliver,
    init_state,
)
from .mapper import map_events
from .model import run_actions

MODEL = "model"
TRACE = "trace"
LINE = "line"
RANDOM = "random"
NOTIONS = (MODEL, TRACE, LINE, RANDOM)


class CoverageContractError(ValueError):
    """Notion and provided inputs do not match."""


class EnumerationExplosion(RuntimeError):
    def __init__(self, count: int):
        super().__init__(f"ordering enumeration aborted after {count} orderings")
        self.count = count


@dataclass(frozen=True)
class CoverageReport:
    items: frozenset  # ("state", fp) | ("trace", fp) | ("line", point_id)
    notion: str


def _touches(ev, p: int) -> bool:
    return ev.recv == p or ev.send == p


def default_dependent(e1, e2) -> bool:
    """Same receiver, or a crash/restart entangled with anything at its process."""
    if e1.recv == e2.recv:
        return True
    if e1.kind in (EV_CRASH, EV_RESTART) and _touches(e2, e1.recv):
        return True
    if e2.kind in (EV_CRASH, EV_RESTART) and _touches(e1, e2.recv):
        return True
    return False


def _event_key(ev) -> bytes:
    send = -1 if ev.send is None else ev.send
    return encode_canonical((ev.kind, ev.recv, send, ev.verb, ev.fields))


def canonical_linearization(events, dependent=None):
    """Indices of ``events`` in the canonical (lexicographically least) order.

    Greedy over the dependence partial order: repeatedly emit the least-keyed
    event whose dependence predecessors are all emitted.  Two co-available
    events never share a key under the default relation (equal keys imply
    equal receivers, hence dependence), so the result is order-canonical.

    ``dependent=None`` builds default_dependent's sparse graph; a predicate
    builds its dense O(n^2) graph, the tests' reference for the sparse one.
    """
    n = len(events)
    keys = [_event_key(e) for e in events]
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n

    def edge(i: int, j: int) -> None:
        succs[i].append(j)
        indeg[j] += 1

    if dependent is None:
        # Sparse construction: same-receiver chains carry ordinary dependence;
        # crash/restart additionally pin every message their process sent.
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
    else:
        for j in range(n):
            for i in range(j):
                if dependent(events[i], events[j]):
                    edge(i, j)

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
    """128-bit id of the execution's Mazurkiewicz equivalence class."""
    events = [e for e in trace.events if e.kind in (EV_DELIVER, EV_CRASH, EV_RESTART)]
    order = canonical_linearization(events)
    return digest128(b"".join(_event_key(events[i]) for i in order))


def model_state_items(model_run, lts=None) -> frozenset:
    """State coverage items of a model run, after the model's abstraction."""
    if lts is not None and lts.abstraction is not None:
        path = []
        for frontier in model_run.frontiers:
            if len(frontier) != 1:
                raise CoverageContractError(
                    "state abstraction requires a deterministic model run"
                )
            path.append(frontier[0])
        states = lts.abstraction(path)
    else:
        states = model_run.states
    return frozenset(("state", fingerprint(s)) for s in states)


def assess(notion: str, exec_result: ExecutionResult, model_run=None,
           lts=None) -> CoverageReport:
    if notion == MODEL:
        if model_run is None:
            raise CoverageContractError("model-state coverage needs a model run")
        return CoverageReport(model_state_items(model_run, lts), notion)
    if model_run is not None:
        raise CoverageContractError(f"notion {notion!r} takes no model run")
    if notion == TRACE:
        return CoverageReport(
            frozenset({("trace", trace_fingerprint(exec_result.trace))}), notion
        )
    if notion == LINE:
        return CoverageReport(
            frozenset(("line", p) for p in exec_result.points_hit), notion
        )
    if notion == RANDOM:
        return CoverageReport(frozenset(), notion)
    raise CoverageContractError(f"unknown coverage notion {notion!r}")


# --- exhaustive ordering enumeration (oracle for small instances) ----------

class OrderingRecord(NamedTuple):
    deliveries: tuple       # (sender, receiver, verb) per delivery, in order
    trace_fp: bytes
    state_fps: frozenset    # model states visited by this ordering
    violation_keys: tuple
    events: tuple = ()      # full trace events, kept only on request


class EnumerationResult(NamedTuple):
    orderings: int
    trace_classes: int
    records: tuple
    violation_keys: frozenset


def _clone_hs(sut, hs: HarnessState) -> HarnessState:
    c = HarnessState(
        states=[
            sut.clone_state(p, s) if s is not None else None
            for p, s in enumerate(hs.states)
        ]
    )
    c.buffers = {b: deque(q) for b, q in hs.buffers.items() if q}
    c.alive = set(hs.alive)
    c.persisted = dict(hs.persisted)
    c.events = list(hs.events)
    c.skipped = list(hs.skipped)
    c.points = set(hs.points)
    c.violations = list(hs.violations)
    c.oracle = sut.clone_oracle(hs.oracle)
    return c


def enumerate_orderings(bench, max_depth: int,
                        max_orderings: int = 1_000_000,
                        keep_events: bool = False) -> EnumerationResult:
    """DFS over every complete delivery ordering of a small instance.

    One message at a time, no crashes, perpetual control channels excluded
    (they never quiesce).  An ordering is complete when no real buffer holds
    a message; branches still live at ``max_depth`` are not counted.
    """
    sut, lts, kind = bench.sut, bench.lts, bench.name
    records = []
    all_violations = set()

    def leaf(hs: HarnessState) -> None:
        if len(records) >= max_orderings:
            raise EnumerationExplosion(len(records))
        trace = ConcreteEventTrace(tuple(hs.events), ())
        run = run_actions(lts, map_events(kind, trace))
        deliveries = tuple(
            (e.send, e.recv, e.verb) for e in trace.events if e.kind == EV_DELIVER
        )
        keys = tuple(v.key for v in hs.violations)
        all_violations.update(keys)
        records.append(
            OrderingRecord(
                deliveries, trace_fingerprint(trace), run.visited, keys,
                trace.events if keep_events else (),
            )
        )

    def walk(hs: HarnessState, depth: int) -> None:
        options = sorted(b for b, q in hs.buffers.items()
                         if q and b.receiver in hs.alive)
        if not options:
            leaf(hs)
            return
        if depth >= max_depth:
            # Branch cut; still surface violations seen along the way.
            all_violations.update(v.key for v in hs.violations)
            return
        for buf in options:
            child = _clone_hs(sut, hs)
            deliver(sut, child, depth, buf, 1)
            walk(child, depth + 1)

    walk(init_state(sut), 0)
    return EnumerationResult(
        orderings=len(records),
        trace_classes=len({r.trace_fp for r in records}),
        records=tuple(records),
        violation_keys=frozenset(all_violations),
    )
