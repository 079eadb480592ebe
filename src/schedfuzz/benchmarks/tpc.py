"""Two-phase commit over lock-guarded transaction variables.

Process 0 is the transaction manager; processes 1..rm_count are resource
managers.  Commit requests wait in the injection channel (0, 0), one per
transaction; transaction i writes the variable pair {i % V, (i+1) % V}, so
small V forces conflicts.  An RM votes commit iff none of the requested
variables is locked, taking the locks; any abort vote aborts the
transaction globally.  Not fault-tolerant: crash schedules are rejected.

Oracles: atomicity (no transaction committed at one RM and aborted at
another) and decision stability (an RM never changes a decided transaction).
"""

from __future__ import annotations

from typing import NamedTuple

from ..harness import HarnessError, Message, SystemUnderTest, make_message
from ..model import Lts, MappingContractError, ModelAction
from ..schedule import BufferId

# Per-transaction phases (TM) and statuses (RM); RM statuses reuse the
# COMMITTED/ABORTED codes once a decision is applied.
INIT, COLLECTING, COMMITTED, ABORTED = 0, 1, 2, 3
WORKING, PREPARED, REFUSED = 0, 1, 4


def tx_vars(tx: int, var_count: int) -> tuple:
    return tuple(sorted({tx % var_count, (tx + 1) % var_count}))


class TpcBench(SystemUnderTest):
    name = "tpc"
    crashes_allowed = False

    def __init__(self, rm_count: int, var_count: int, request_count: int):
        if rm_count < 1 or var_count < 1 or request_count < 1:
            raise ValueError("need rm_count, var_count, request_count >= 1")
        self.rm_count = rm_count
        self.var_count = var_count
        self.request_count = request_count
        self.process_count = rm_count + 1
        self.tm = 0
        self.rms = tuple(range(1, rm_count + 1))
        self.extra_buffers = (BufferId(0, 0),)  # client request channel

    def init(self):
        states = [{"phase": {}, "yes": {}}]
        states += [{"locks": {}, "status": {}} for _ in self.rms]
        inflight = [
            (BufferId(0, 0), make_message("TxRequest", tx=tx))
            for tx in range(self.request_count)
        ]
        return states, inflight

    def handle(self, proc, state, msg: Message, ctx):
        if proc == self.tm:
            self._handle_tm(state, msg, ctx)
        else:
            self._handle_rm(proc, state, msg, ctx)

    def _handle_tm(self, state, msg, ctx):
        if msg.verb == "TxRequest":
            tx = msg.field("tx")
            state["phase"][tx] = COLLECTING
            state["yes"][tx] = set()
            ctx.point("tm.request")
            for rm in self.rms:
                ctx.send(rm, "Prepare", tx=tx)
        elif msg.verb == "Vote":
            tx = msg.field("tx")
            if state["phase"].get(tx) != COLLECTING:
                ctx.point("tm.vote.late")
                return
            if msg.field("granted"):
                state["yes"][tx].add(msg.field("rm"))
                ctx.point("tm.vote.yes")
                if len(state["yes"][tx]) == self.rm_count:
                    state["phase"][tx] = COMMITTED
                    ctx.point("tm.commit")
                    for rm in self.rms:
                        ctx.send(rm, "Decision", tx=tx, commit=1)
            else:
                state["phase"][tx] = ABORTED
                ctx.point("tm.abort")
                for rm in self.rms:
                    ctx.send(rm, "Decision", tx=tx, commit=0)
        else:
            raise HarnessError(f"TM got unexpected {msg.verb}")

    def _handle_rm(self, proc, state, msg, ctx):
        if msg.verb == "Prepare":
            tx = msg.field("tx")
            needed = tx_vars(tx, self.var_count)
            if any(v in state["locks"] for v in needed):
                state["status"][tx] = REFUSED
                ctx.point("rm.vote.refuse")
                ctx.send(self.tm, "Vote", tx=tx, granted=0, rm=proc)
            else:
                for v in needed:
                    state["locks"][v] = tx
                state["status"][tx] = PREPARED
                ctx.point("rm.vote.grant")
                ctx.send(self.tm, "Vote", tx=tx, granted=1, rm=proc)
        elif msg.verb == "Decision":
            tx = msg.field("tx")
            state["status"][tx] = COMMITTED if msg.field("commit") else ABORTED
            state["locks"] = {v: o for v, o in state["locks"].items() if o != tx}
            ctx.point("rm.decision")
        else:
            raise HarnessError(f"RM got unexpected {msg.verb}")

    def persistent_state(self, proc, state):
        return None  # protocol is not fault-tolerant; dead RMs stay dead

    def recover(self, proc, persisted, ctx):
        raise HarnessError("tpc benchmark does not support crash/restart")

    def snapshot(self, proc, state):
        if proc == self.tm:
            return (
                "tm",
                tuple(sorted(state["phase"].items())),
                tuple(sorted((tx, tuple(sorted(s))) for tx, s in state["yes"].items())),
            )
        return (
            "rm",
            tuple(sorted(state["locks"].items())),
            tuple(sorted(state["status"].items())),
        )

    def clone_state(self, proc, state):
        if proc == self.tm:
            return {"phase": dict(state["phase"]),
                    "yes": {tx: set(s) for tx, s in state["yes"].items()}}
        return {"locks": dict(state["locks"]), "status": dict(state["status"])}

    def clone_oracle(self, ostate):
        return {"decided": dict(ostate["decided"])}

    def oracle_init(self):
        return {"decided": {}}  # (rm, tx) -> status

    def oracle_observe(self, ostate, event, states, alive):
        if event.verb != "Decision" or event.kind != "deliver":
            return []
        out = []
        decided = ostate["decided"]
        for rm in self.rms:
            if rm not in alive:
                continue
            for tx, status in states[rm]["status"].items():
                if status not in (COMMITTED, ABORTED):
                    continue
                prev = decided.get((rm, tx))
                if prev is None:
                    decided[(rm, tx)] = status
                elif prev != status:
                    out.append("Stability: an RM re-decided a transaction")
        by_tx = {}
        for (rm, tx), status in decided.items():
            by_tx.setdefault(tx, set()).add(status)
        if any(len(s) > 1 for s in by_tx.values()):
            out.append("Atomicity: transaction committed and aborted")
        return out


class TpcState(NamedTuple):
    """<tm phases, rm statuses, rm lock tables, decided set>.

    Deliberately coarse: vote tallies and lock owners are implementation
    bookkeeping (two prepared transactions can never share a variable, so
    ownership is derivable from the statuses).  The transaction manager's
    commit becomes visible when its decision messages start arriving.  A run
    through this model changes state on request arrival, prepare handling,
    and decision application; vote deliveries are self-loops.
    """

    tm: tuple       # per tx: phase
    rm: tuple       # per rm: per tx status
    locks: tuple    # per rm: per var locked flag
    decided: tuple  # sorted (tx, COMMITTED|ABORTED) pairs


def tpc_model(rm_count: int, var_count: int, request_count: int) -> Lts:
    txs = range(request_count)
    initial = TpcState(
        tm=tuple(INIT for _ in txs),
        rm=tuple(tuple(WORKING for _ in txs) for _ in range(rm_count)),
        locks=tuple(tuple(0 for _ in range(var_count)) for _ in range(rm_count)),
        decided=(),
    )

    def step(q: TpcState, a: ModelAction):
        name = a.name
        if name == "ClientRequest":
            (tx,) = a.args
            if not _valid_tx(tx) or q.tm[tx] != INIT:
                return ()
            return (q._replace(tm=_set(q.tm, tx, COLLECTING)),)
        if name == "HandlePrepare":
            rm, tx = a.args
            if not _valid_rm(rm) or not _valid_tx(tx):
                return ()
            if q.tm[tx] == INIT or q.rm[rm - 1][tx] != WORKING:
                return ()
            locks = q.locks[rm - 1]
            needed = tx_vars(tx, var_count)
            if any(locks[v] for v in needed):
                return (q._replace(rm=_set2(q.rm, rm - 1, tx, REFUSED)),)
            new_locks = list(locks)
            for v in needed:
                new_locks[v] = 1
            return (
                q._replace(
                    rm=_set2(q.rm, rm - 1, tx, PREPARED),
                    locks=_set(q.locks, rm - 1, tuple(new_locks)),
                ),
            )
        if name == "HandleVote":
            tx, rm, granted = a.args
            if not _valid_rm(rm) or not _valid_tx(tx):
                return ()
            if q.rm[rm - 1][tx] == WORKING or q.tm[tx] == INIT:
                return ()  # that RM has not voted
            if q.tm[tx] == COLLECTING and not granted:
                return (
                    q._replace(
                        tm=_set(q.tm, tx, ABORTED),
                        decided=tuple(sorted(q.decided + ((tx, ABORTED),))),
                    ),
                )
            return (q,)  # tallying is invisible until a decision shows up
        if name == "HandleDecision":
            rm, tx, commit = a.args
            if not _valid_rm(rm) or not _valid_tx(tx):
                return ()
            want = COMMITTED if commit else ABORTED
            tm = q.tm
            decided = q.decided
            if q.tm[tx] == COLLECTING and commit:
                # first commit decision observed: the tally filled up
                tm = _set(q.tm, tx, COMMITTED)
                decided = tuple(sorted(decided + ((tx, COMMITTED),)))
            if tm[tx] != want or q.rm[rm - 1][tx] in (COMMITTED, ABORTED):
                return ()
            locks = q.locks[rm - 1]
            if q.rm[rm - 1][tx] == PREPARED:
                # release exactly this transaction's variables: no other
                # prepared transaction can share them
                held = set(tx_vars(tx, var_count))
                locks = tuple(
                    0 if v in held else flag for v, flag in enumerate(locks)
                )
            return (
                q._replace(
                    tm=tm,
                    rm=_set2(q.rm, rm - 1, tx, want),
                    locks=_set(q.locks, rm - 1, locks),
                    decided=decided,
                ),
            )
        raise MappingContractError(f"tpc model knows no action {name!r}")

    def _valid_tx(tx) -> bool:
        return 0 <= tx < request_count

    def _valid_rm(rm) -> bool:
        return 1 <= rm <= rm_count

    def enabled(q: TpcState):
        acts = []
        for tx in txs:
            phase = q.tm[tx]
            if phase == INIT:
                acts.append(ModelAction("ClientRequest", (tx,)))
                continue
            statuses = [q.rm[rm - 1][tx] for rm in range(1, rm_count + 1)]
            for rm, status in zip(range(1, rm_count + 1), statuses):
                if status == WORKING:
                    acts.append(ModelAction("HandlePrepare", (rm, tx)))
                elif phase == COLLECTING and status == REFUSED:
                    acts.append(ModelAction("HandleVote", (tx, rm, 0)))
            if phase == COLLECTING and all(s == PREPARED for s in statuses):
                for rm in range(1, rm_count + 1):
                    acts.append(ModelAction("HandleDecision", (rm, tx, 1)))
            if phase in (COMMITTED, ABORTED):
                commit = 1 if phase == COMMITTED else 0
                for rm in range(1, rm_count + 1):
                    if q.rm[rm - 1][tx] not in (COMMITTED, ABORTED):
                        acts.append(ModelAction("HandleDecision", (rm, tx, commit)))
        return acts

    return Lts(name="tpc", initial=(initial,), step=step, enabled=enabled)


def _set(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1:]


def _set2(t: tuple, i: int, j: int, v) -> tuple:
    return _set(t, i, _set(t[i], j, v))
