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
from ..mapper import RECV, SEND
from ..model import Lts, MappingContractError, ModelAction, _set
from ..schedule import BufferId

# Per-transaction phases (TM) and statuses (RM); RM statuses reuse the
# COMMITTED/ABORTED codes once a decision is applied.
INIT, COLLECTING, COMMITTED, ABORTED = 0, 1, 2, 3
WORKING, PREPARED, REFUSED = 0, 1, 4


def tx_vars(tx: int, var_count: int) -> tuple:
    """Transaction ``tx``'s two variables, sorted (the same one twice when V = 1)."""
    return tuple(sorted((tx % var_count, (tx + 1) % var_count)))


class TpcBench(SystemUnderTest):
    name = "tpc"

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
        self._vars = tuple(tx_vars(tx, var_count) for tx in range(request_count))
        self._requests = tuple(make_message("TxRequest", tx=tx) for tx in range(request_count))

    def init(self):
        states = [{"phase": {}, "yes": {}}]
        states += [{"locks": {}, "status": {}} for _ in self.rms]
        return states, [(BufferId(0, 0), msg) for msg in self._requests]

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
            ctx.broadcast(self.rms, "Prepare", tx=tx)
        elif msg.verb == "Vote":
            f = dict(msg.fields)
            tx = f["tx"]
            if state["phase"].get(tx) != COLLECTING:
                ctx.point("tm.vote.late")
                return
            if f["granted"]:
                state["yes"][tx].add(f["rm"])
                ctx.point("tm.vote.yes")
                if len(state["yes"][tx]) == self.rm_count:
                    state["phase"][tx] = COMMITTED
                    ctx.point("tm.commit")
                    ctx.broadcast(self.rms, "Decision", tx=tx, commit=1)
            else:
                state["phase"][tx] = ABORTED
                ctx.point("tm.abort")
                ctx.broadcast(self.rms, "Decision", tx=tx, commit=0)
        else:
            raise HarnessError(f"TM got unexpected {msg.verb}")

    def _handle_rm(self, proc, state, msg, ctx):
        if msg.verb == "Prepare":
            tx = msg.field("tx")
            lo, hi = self._vars[tx]
            locks = state["locks"]
            if lo in locks or hi in locks:
                state["status"][tx] = REFUSED
                ctx.point("rm.vote.refuse")
                ctx.send(self.tm, "Vote", tx=tx, granted=0, rm=proc)
            else:
                locks[lo] = locks[hi] = tx
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

    def oracle_init(self):
        # (rm, tx) -> status; tx -> the statuses decided for it; whether a tx
        # has two.  A decided entry is never overwritten, so "split" is sticky.
        return {"decided": {}, "by_tx": {}, "split": False}

    def oracle_observe(self, ostate, event, states, alive):
        if event.verb != "Decision" or event.kind != "deliver":
            return []
        out = []
        decided, by_tx = ostate["decided"], ostate["by_tx"]
        for rm in self.rms:
            if rm not in alive:
                continue
            for tx, status in states[rm]["status"].items():
                if status not in (COMMITTED, ABORTED):
                    continue
                prev = decided.get((rm, tx))
                if prev is None:
                    decided[(rm, tx)] = status
                    seen = by_tx.setdefault(tx, set())
                    seen.add(status)
                    if len(seen) > 1:
                        ostate["split"] = True
                elif prev != status:
                    out.append("Stability: an RM re-decided a transaction")
        if ostate["split"]:
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


EVENTS = {
    "TxRequest": ("ClientRequest", ("tx",)),
    "Prepare": ("HandlePrepare", (RECV, "tx")),
    "Vote": ("HandleVote", ("tx", SEND, "granted")),
    "Decision": ("HandleDecision", (RECV, "tx", "commit")),
}


def tpc_model(rm_count: int, var_count: int, request_count: int) -> Lts:
    txs = range(request_count)
    initial = TpcState(
        tm=tuple(INIT for _ in txs),
        rm=tuple(tuple(WORKING for _ in txs) for _ in range(rm_count)),
        locks=tuple(tuple(0 for _ in range(var_count)) for _ in range(rm_count)),
        decided=(),
    )

    def step(q: TpcState, a: ModelAction):
        tm, rms, locks, decided = q
        name, args = a
        if name == "ClientRequest":
            (tx,) = args
            if not _valid_tx(tx) or tm[tx] != INIT:
                return None
            return TpcState(_set(tm, tx, COLLECTING), rms, locks, decided)
        if name == "HandlePrepare":
            rm, tx = args
            if not _valid_rm(rm) or not _valid_tx(tx):
                return None
            if tm[tx] == INIT or rms[rm - 1][tx] != WORKING:
                return None
            held = locks[rm - 1]
            needed = tx_vars(tx, var_count)
            if any(held[v] for v in needed):
                return TpcState(tm, _set2(rms, rm - 1, tx, REFUSED), locks, decided)
            new_locks = list(held)
            for v in needed:
                new_locks[v] = 1
            return TpcState(tm, _set2(rms, rm - 1, tx, PREPARED),
                            _set(locks, rm - 1, tuple(new_locks)), decided)
        if name == "HandleVote":
            tx, rm, granted = args
            if not _valid_rm(rm) or not _valid_tx(tx):
                return None
            if rms[rm - 1][tx] == WORKING or tm[tx] == INIT:
                return None  # that RM has not voted
            if tm[tx] == COLLECTING and not granted:
                return TpcState(_set(tm, tx, ABORTED), rms, locks,
                                tuple(sorted(decided + ((tx, ABORTED),))))
            return q  # tallying is invisible until a decision shows up
        if name == "HandleDecision":
            rm, tx, commit = args
            if not _valid_rm(rm) or not _valid_tx(tx):
                return None
            want = COMMITTED if commit else ABORTED
            if tm[tx] == COLLECTING and commit:
                # first commit decision observed: the tally filled up
                tm = _set(tm, tx, COMMITTED)
                decided = tuple(sorted(decided + ((tx, COMMITTED),)))
            status = rms[rm - 1][tx]
            if tm[tx] != want or status in (COMMITTED, ABORTED):
                return None
            held = locks[rm - 1]
            if status == PREPARED:
                # release exactly this transaction's variables: no other
                # prepared transaction can share them
                needed = set(tx_vars(tx, var_count))
                held = tuple(0 if v in needed else flag for v, flag in enumerate(held))
            return TpcState(tm, _set2(rms, rm - 1, tx, want), _set(locks, rm - 1, held),
                            decided)
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

    return Lts(initial=initial, step=step, enabled=enabled)


def _set2(t: tuple, i: int, j: int, v) -> tuple:
    return _set(t, i, _set(t[i], j, v))
