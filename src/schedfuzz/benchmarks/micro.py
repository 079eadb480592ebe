"""Master/worker/terminator microbenchmark with a seeded message-race bug.

Process 0 is the master, processes 1..m are workers, process m+1 is the
terminator.  Workers and the terminator register with the master at startup;
one client request sits in the injection channel (0, 0).  Once everyone has
registered, a delivered request starts a chain of n task messages on worker
1 (each task relayed back through the master so every hop crosses a real
buffer) and tells the terminator to flush that worker.

The seeded bug: a flushed worker's task buffer is gone, and with
``bug_enabled`` the guard on the buffer is missing, so a task message that
arrives after the flush dereferences null.  With the guard present the late
task is ignored.
"""

from __future__ import annotations

from typing import NamedTuple

from ..harness import AssertionBug, SystemUnderTest, make_message
from ..mapper import RECV
from ..model import Lts, ModelAction
from ..schedule import BufferId

NULL_DEREF = "NullDeref: task buffer flushed before final task"


class MicroBench(SystemUnderTest):
    name = "micro"
    # The master gets Register, Request and Relay, the workers Execute and
    # Flush, and the terminator Terminate.
    handlers = {"Register": "_on_register", "Request": "_on_request", "Relay": "_on_relay",
                "Execute": "_on_execute", "Flush": "_on_flush", "Terminate": "_on_terminate"}

    def __init__(self, m: int, n: int, bug_enabled: bool):
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 workers and n >= 1 tasks")
        self.m = m
        self.n = n
        self.bug_enabled = bug_enabled
        self.process_count = m + 2
        self.master = 0
        self.workers = tuple(range(1, m + 1))
        self.terminator = m + 1
        self.extra_buffers = (BufferId(0, 0),)  # client request channel
        self._inflight = (
            *((BufferId(p, 0), make_message("Register", proc=p))
              for p in (*self.workers, self.terminator)),
            (BufferId(0, 0), make_message("Request", req=0)))

    def init(self):
        states = [{"registered": set(), "served": set()}]
        for _ in self.workers:
            states.append({"buffer_ok": True, "progress": 0})
        states.append({"to_terminate": set()})
        return states, self._inflight

    def _on_register(self, proc, state, msg, ctx):
        state["registered"].add(msg.field("proc"))
        ctx.point("am.register")

    def _on_request(self, proc, state, msg, ctx):
        if len(state["registered"]) == self.m + 1:
            req = msg.field("req")
            state["served"].add(req)
            ctx.point("am.request.served")
            ctx.send(self.workers[0], "Execute", req=req, idx=1)
            ctx.send(self.terminator, "Terminate", worker=self.workers[0])
        else:
            ctx.point("am.request.dropped")

    def _on_relay(self, proc, state, msg, ctx):
        ctx.point("am.relay")
        ctx.send(msg.field("worker"), "Execute", req=msg.field("req"), idx=msg.field("idx"))

    def _on_execute(self, proc, state, msg, ctx):
        idx = msg.field("idx")
        if idx < self.n:
            # Intermediate tasks rebuild the scratch buffer before running,
            # so only a flush landing after the last of them leaves the
            # final task exposed.
            state["buffer_ok"] = True
            state["progress"] = idx
            ctx.point("worker.execute")
            ctx.send(self.master, "Relay", req=msg.field("req"), idx=idx + 1, worker=proc)
        elif not state["buffer_ok"]:
            if self.bug_enabled:
                # runTask(buffer, r) with buffer == null
                raise AssertionBug(NULL_DEREF)
            ctx.point("worker.execute.flushed")
        else:
            state["progress"] = idx
            ctx.point("worker.chain.done")

    def _on_flush(self, proc, state, msg, ctx):
        state["buffer_ok"] = False
        ctx.point("worker.flush")

    def _on_terminate(self, proc, state, msg, ctx):
        w = msg.field("worker")
        state["to_terminate"].add(w)
        ctx.point("term.terminate")
        ctx.send(w, "Flush")

    def snapshot(self, proc, state):
        if proc == self.master:
            return ("master", tuple(sorted(state["registered"])), tuple(sorted(state["served"])))
        if proc == self.terminator:
            return ("terminator", tuple(sorted(state["to_terminate"])))
        return ("worker", state["buffer_ok"], state["progress"])


class MicroState(NamedTuple):
    """<registered, requests, completed, dispatched, to_terminate, terminated>.

    ``completed`` tracks per-worker chain progress (0..n tasks done) and
    ``dispatched`` the highest task index the master has sent to each worker
    (at n = 1 it mirrors ``requests``, recovering the plain five-component
    state); the remaining fields are sorted id tuples standing for sets.
    """

    registered: tuple
    requests: tuple
    completed: tuple
    dispatched: tuple
    to_terminate: tuple
    terminated: tuple


EVENTS = {
    "Register": ("Register", ("proc",)),
    "Request": ("Request", ("req",)),
    "Execute": ("Execute", (RECV, "idx")),
    "Relay": ("Relay", ("worker", "idx")),
    "Terminate": ("Terminate", ("worker",)),
    "Flush": ("Flush", (RECV,)),
}


def micro_model(m: int, n: int) -> Lts:
    procs = tuple(range(1, m + 2))  # workers then terminator
    target = 1  # requests are dispatched to the first worker
    initial = MicroState((), (), (0,) * m, (0,) * m, (), ())

    def register(q: MicroState, p):
        registered, requests, completed, dispatched, to_terminate, terminated = q
        if p in registered or p not in procs:
            return None
        return MicroState(tuple(sorted(registered + (p,))), requests, completed,
                          dispatched, to_terminate, terminated)
    def request(q: MicroState, r):
        registered, requests, completed, dispatched, to_terminate, terminated = q
        if r in requests:
            return None
        if len(registered) == m + 1:
            # the first task goes out with the grant
            sent = dispatched[:target - 1] + (1,) + dispatched[target:]
            return MicroState(registered, tuple(sorted(requests + (r,))), completed,
                              sent, to_terminate, terminated)
        return q  # dropped before the cluster is ready
    def relay(q: MicroState, w, idx):
        registered, requests, completed, dispatched, to_terminate, terminated = q
        if not requests or not (1 <= w <= m) or idx > n:
            return None
        if dispatched[w - 1] != idx - 1 or completed[w - 1] != idx - 1:
            return None
        sent = dispatched[:w - 1] + (idx,) + dispatched[w:]
        return MicroState(registered, requests, completed, sent, to_terminate, terminated)
    def execute(q: MicroState, w, idx):
        registered, requests, completed, dispatched, to_terminate, terminated = q
        if not requests or not (1 <= w <= m):
            return None
        if idx != completed[w - 1] + 1 or idx > n or dispatched[w - 1] != idx:
            return None
        done = completed[:w - 1] + (idx,) + completed[w:]
        if idx < n:
            # An intermediate task heals a flushed buffer.
            terminated = tuple(x for x in terminated if x != w)
        elif w in terminated:
            return q  # final task is dropped (or dies) after a flush
        return MicroState(registered, requests, done, dispatched, to_terminate, terminated)
    def terminate(q: MicroState, w):
        registered, requests, completed, dispatched, to_terminate, terminated = q
        if not requests or w in to_terminate:
            return None
        return MicroState(registered, requests, completed, dispatched,
                          tuple(sorted(to_terminate + (w,))), terminated)
    def flush(q: MicroState, w):
        registered, requests, completed, dispatched, to_terminate, terminated = q
        if w not in to_terminate or w in terminated:
            return None
        return MicroState(registered, requests, completed, dispatched, to_terminate,
                          tuple(sorted(terminated + (w,))))

    def enabled(q: MicroState):
        acts = [ModelAction("Register", (p,)) for p in procs if p not in q.registered]
        if len(q.registered) == m + 1 and 0 not in q.requests:
            acts.append(ModelAction("Request", (0,)))
        if q.requests:
            w = target
            done = q.completed[w - 1]
            sent = q.dispatched[w - 1]
            if sent == done and done + 1 <= n:
                acts.append(ModelAction("Relay", (w, done + 1)))
            idx = done + 1
            if idx <= n and sent == idx and (idx < n or w not in q.terminated):
                acts.append(ModelAction("Execute", (w, idx)))
            if w not in q.to_terminate:
                acts.append(ModelAction("Terminate", (w,)))
            if w in q.to_terminate and w not in q.terminated:
                acts.append(ModelAction("Flush", (w,)))
        return acts

    actions = {"Register": register, "Request": request, "Relay": relay,
               "Execute": execute, "Terminate": terminate, "Flush": flush}
    return Lts(initial=initial, actions=actions, enabled=enabled)

