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

from ..harness import AssertionBug, HarnessError, Message, SystemUnderTest, make_message
from ..model import Lts, MappingContractError, ModelAction
from ..schedule import BufferId

NULL_DEREF = "NullDeref: task buffer flushed before final task"


class MicroBench(SystemUnderTest):
    name = "micro"
    crashes_allowed = False

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

    def init(self):
        states = [{"registered": set(), "served": set()}]
        for _ in self.workers:
            states.append({"buffer_ok": True, "progress": 0})
        states.append({"to_terminate": set()})
        inflight = [(BufferId(w, 0), make_message("Register", proc=w)) for w in self.workers]
        inflight.append(
            (BufferId(self.terminator, 0), make_message("Register", proc=self.terminator))
        )
        inflight.append((BufferId(0, 0), make_message("Request", req=0)))
        return states, inflight

    def handle(self, proc, state, msg: Message, ctx):
        if proc == self.master:
            self._handle_master(state, msg, ctx)
        elif proc == self.terminator:
            self._handle_terminator(state, msg, ctx)
        else:
            self._handle_worker(proc, state, msg, ctx)

    def _handle_master(self, state, msg, ctx):
        if msg.verb == "Register":
            state["registered"].add(msg.field("proc"))
            ctx.point("am.register")
        elif msg.verb == "Request":
            if len(state["registered"]) == self.m + 1:
                req = msg.field("req")
                state["served"].add(req)
                ctx.point("am.request.served")
                ctx.send(self.workers[0], "Execute", req=req, idx=1)
                ctx.send(self.terminator, "Terminate", worker=self.workers[0])
            else:
                ctx.point("am.request.dropped")
        elif msg.verb == "Relay":
            ctx.point("am.relay")
            ctx.send(msg.field("worker"), "Execute", req=msg.field("req"), idx=msg.field("idx"))
        else:
            raise HarnessError(f"master got unexpected {msg.verb}")

    def _handle_worker(self, proc, state, msg, ctx):
        if msg.verb == "Execute":
            idx = msg.field("idx")
            if idx < self.n:
                # Intermediate tasks rebuild the scratch buffer before
                # running, so only a flush landing after the last of them
                # leaves the final task exposed.
                state["buffer_ok"] = True
                state["progress"] = idx
                ctx.point("worker.execute")
                ctx.send(self.master, "Relay", req=msg.field("req"), idx=idx + 1, worker=proc)
            else:
                if not state["buffer_ok"]:
                    if self.bug_enabled:
                        # runTask(buffer, r) with buffer == null
                        raise AssertionBug(NULL_DEREF)
                    ctx.point("worker.execute.flushed")
                    return
                state["progress"] = idx
                ctx.point("worker.chain.done")
        elif msg.verb == "Flush":
            state["buffer_ok"] = False
            ctx.point("worker.flush")
        else:
            raise HarnessError(f"worker got unexpected {msg.verb}")

    def _handle_terminator(self, state, msg, ctx):
        if msg.verb == "Terminate":
            w = msg.field("worker")
            state["to_terminate"].add(w)
            ctx.point("term.terminate")
            ctx.send(w, "Flush")
        else:
            raise HarnessError(f"terminator got unexpected {msg.verb}")

    def persistent_state(self, proc, state):
        return None  # a dead micro process stays dead

    def recover(self, proc, persisted, ctx):
        raise HarnessError("micro benchmark does not support crash/restart")

    def snapshot(self, proc, state):
        if proc == self.master:
            return ("master", tuple(sorted(state["registered"])), tuple(sorted(state["served"])))
        if proc == self.terminator:
            return ("terminator", tuple(sorted(state["to_terminate"])))
        return ("worker", state["buffer_ok"], state["progress"])

    def clone_state(self, proc, state):
        return {k: set(v) if isinstance(v, set) else v for k, v in state.items()}

    def clone_oracle(self, ostate):
        return None


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


def micro_model(m: int, n: int) -> Lts:
    procs = tuple(range(1, m + 2))  # workers then terminator
    target = 1  # requests are dispatched to the first worker
    initial = MicroState((), (), (0,) * m, (0,) * m, (), ())

    def step(q: MicroState, a: ModelAction):
        name = a.name
        if name == "Register":
            (p,) = a.args
            if p in q.registered or p not in procs:
                return ()
            return (q._replace(registered=tuple(sorted(q.registered + (p,)))),)
        if name == "Request":
            (r,) = a.args
            if r in q.requests:
                return ()
            if len(q.registered) == m + 1:
                sent = list(q.dispatched)
                sent[target - 1] = 1  # first task goes out with the grant
                return (
                    q._replace(requests=tuple(sorted(q.requests + (r,))),
                               dispatched=tuple(sent)),
                )
            return (q,)  # dropped before the cluster is ready
        if name == "Relay":
            w, idx = a.args
            if not q.requests or not (1 <= w <= m) or idx > n:
                return ()
            if q.dispatched[w - 1] != idx - 1 or q.completed[w - 1] != idx - 1:
                return ()
            sent = list(q.dispatched)
            sent[w - 1] = idx
            return (q._replace(dispatched=tuple(sent)),)
        if name == "Execute":
            w, idx = a.args
            if not q.requests or not (1 <= w <= m):
                return ()
            if idx != q.completed[w - 1] + 1 or idx > n or q.dispatched[w - 1] != idx:
                return ()
            done = list(q.completed)
            done[w - 1] = idx
            if idx < n:
                # An intermediate task heals a flushed buffer.
                healed = tuple(x for x in q.terminated if x != w)
                return (q._replace(completed=tuple(done), terminated=healed),)
            if w in q.terminated:
                return (q,)  # final task is dropped (or dies) after a flush
            return (q._replace(completed=tuple(done)),)
        if name == "Terminate":
            (w,) = a.args
            if not q.requests or w in q.to_terminate:
                return ()
            return (q._replace(to_terminate=tuple(sorted(q.to_terminate + (w,)))),)
        if name == "Flush":
            (w,) = a.args
            if w not in q.to_terminate or w in q.terminated:
                return ()
            return (q._replace(terminated=tuple(sorted(q.terminated + (w,)))),)
        raise MappingContractError(f"micro model knows no action {name!r}")

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

    return Lts(name="micro", initial=(initial,), step=step, enabled=enabled)

