"""Leader-election/log-replication consensus benchmark with faults.

A trimmed Raft-style protocol: explicit timeout control messages (one
perpetual channel per process) start elections, leaders serve a bounded
number of client requests on timeout ticks, log replication runs over
AppendEntries with conflict backoff, and leaders compact their log into a
snapshot once it grows past a threshold.  There are no periodic heartbeats;
empty AppendEntries are sent only to announce leadership or propagate a
commit-index advance, so the schedule owns all nondeterminism.

The seeded bug swaps the election quorum n//2+1 for n//3+1, which lets two
candidates win the same term once n >= 5 (at n = 3 and 4 the two formulas
agree on 2, see the quorum arithmetic test).

Safety oracles: ElectionSafety (at most one leader per term), LogMatching
(applied committed prefixes agree across processes), TermMonotonicity.
"""

from __future__ import annotations

from typing import NamedTuple

from ..harness import SystemUnderTest, make_message
from ..mapper import RECV
from ..model import Lts, ModelAction, _set
from ..schedule import BufferId

FOLLOWER, CANDIDATE, LEADER = 0, 1, 2

ELECTION_SAFETY = "ElectionSafety: two leaders elected in one term"
LOG_MATCHING = "LogMatching: committed prefixes diverge"
TERM_MONOTONICITY = "TermMonotonicity: a process's term decreased"

TIMEOUT = make_message("Timeout")  # the one message of every control channel

# The fields of a process state that survive a crash.
PERSISTENT = ("term", "voted_for", "log", "snap_index", "snap_term", "served", "applied")


def encode_entries(entries) -> str:
    return ",".join(f"{t}:{s}" for t, s in entries)


def parse_entries(text: str) -> tuple:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        t, s = part.split(":")
        out.append((int(t), int(s)))
    return tuple(out)


class RaftLiteBench(SystemUnderTest):
    name = "raftlite"
    crashes_allowed = True
    handlers = {"Timeout": "_on_timeout", "RequestVote": "_on_request_vote",
                "RequestVoteResponse": "_on_vote_response", "AppendEntries": "_on_append",
                "AppendEntriesResponse": "_on_append_response"}

    def __init__(self, proc_count: int, request_count: int,
                 quorum_bug: bool, snapshot_threshold: int):
        if proc_count < 3 or proc_count % 2 == 0:
            raise ValueError("need an odd proc_count >= 3")
        if request_count < 1:
            raise ValueError("need request_count >= 1")
        if snapshot_threshold < 0:
            raise ValueError("need snapshot_threshold >= 0")
        self.process_count = proc_count
        self.request_count = request_count
        self.quorum_bug = quorum_bug
        self.snapshot_threshold = snapshot_threshold
        self.election_quorum = (
            proc_count // 3 + 1 if quorum_bug else proc_count // 2 + 1
        )
        self.commit_quorum = proc_count // 2 + 1
        self.extra_buffers = tuple(BufferId(p, p) for p in range(proc_count))
        self.control_buffers = dict.fromkeys(self.extra_buffers, TIMEOUT)
        # Per process, every other process in id order.
        self._peers = tuple(
            tuple(q for q in range(proc_count) if q != p) for p in range(proc_count)
        )

    def init(self):
        states = [self._fresh_state() for _ in range(self.process_count)]
        return states, []

    def _fresh_state(self):
        return {
            # PERSISTENT
            "term": 0, "voted_for": -1, "log": [],
            "snap_index": 0, "snap_term": 0, "served": 0, "applied": [],
            # volatile
            "role": FOLLOWER, "commit": 0, "votes": set(),
            "next": {}, "match": {},
        }

    # -- log helpers (absolute 1-based indices; log holds > snap_index) ----

    @staticmethod
    def _last_index(st) -> int:
        return st["snap_index"] + len(st["log"])

    @staticmethod
    def _term_at(st, idx: int) -> int:
        if idx == 0:
            return 0
        if idx == st["snap_index"]:
            return st["snap_term"]
        return st["log"][idx - st["snap_index"] - 1][0]

    # -- handlers ----------------------------------------------------------

    def _on_timeout(self, proc, st, msg, ctx):
        if st["role"] != LEADER:
            st["term"] += 1
            st["role"] = CANDIDATE
            st["voted_for"] = proc
            st["votes"] = {proc}
            ctx.point("timeout.candidate")
            last = self._last_index(st)
            ctx.broadcast(self._peers[proc], "RequestVote", term=st["term"], cand=proc,
                          last_idx=last, last_term=self._term_at(st, last))
        elif st["served"] < self.request_count:
            serial = proc * 10000 + st["served"]
            st["served"] += 1
            st["log"].append((st["term"], serial))
            ctx.internal("ClientRequestServed", serial=serial)
            ctx.point("leader.request")
            for q in self._peers[proc]:
                self._send_append(proc, st, q, ctx)
        else:
            ctx.point("leader.idle")

    def _on_request_vote(self, proc, st, msg, ctx):
        f = dict(msg.fields)
        t, cand = f["term"], f["cand"]
        if t > st["term"]:
            st["term"] = t
            st["role"] = FOLLOWER
            st["voted_for"] = -1
            ctx.point("rv.term_bump")
        mine = (self._term_at(st, self._last_index(st)), self._last_index(st))
        up_to_date = (f["last_term"], f["last_idx"]) >= mine
        grant = t == st["term"] and st["voted_for"] in (-1, cand) and up_to_date
        if grant:
            st["voted_for"] = cand
            ctx.point("rv.grant")
        else:
            ctx.point("rv.reject")
        ctx.send(cand, "RequestVoteResponse", term=st["term"],
                 granted=int(grant), voter=proc)

    def _on_vote_response(self, proc, st, msg, ctx):
        f = dict(msg.fields)
        t = f["term"]
        if t > st["term"]:
            st["term"] = t
            st["role"] = FOLLOWER
            st["voted_for"] = -1
            ctx.point("rvr.term_bump")
            return
        if st["role"] != CANDIDATE or t != st["term"] or not f["granted"]:
            ctx.point("rvr.ignored")
            return
        st["votes"].add(f["voter"])
        if len(st["votes"]) >= self.election_quorum:
            st["role"] = LEADER
            st["next"] = {q: self._last_index(st) + 1 for q in self._peers[proc]}
            st["match"] = {q: 0 for q in self._peers[proc]}
            ctx.internal("LeaderElected", term=st["term"])
            ctx.point("leader.won")
            for q in self._peers[proc]:
                self._send_append(proc, st, q, ctx)

    def _send_append(self, proc, st, to, ctx):
        ni = max(st["next"].get(to, self._last_index(st) + 1), st["snap_index"] + 1)
        st["next"][to] = ni
        prev = ni - 1
        entries = st["log"][ni - st["snap_index"] - 1:]
        ctx.send(
            to, "AppendEntries",
            term=st["term"], leader=proc, prev_idx=prev,
            prev_term=self._term_at(st, prev),
            entries=encode_entries(entries), commit=st["commit"],
        )

    def _on_append(self, proc, st, msg, ctx):
        f = dict(msg.fields)
        t, leader = f["term"], f["leader"]
        if t < st["term"]:
            ctx.point("ae.stale")
            ctx.send(leader, "AppendEntriesResponse", term=st["term"],
                     success=0, match=0, nil=0, follower=proc)
            return
        if t > st["term"]:
            st["term"] = t
            st["voted_for"] = -1
        st["role"] = FOLLOWER
        prev_idx = f["prev_idx"]
        prev_term = f["prev_term"]
        entries = parse_entries(f["entries"])
        if prev_idx < st["snap_index"]:
            # Prefix already compacted here: those entries were committed,
            # so they match by construction; splice off the covered part.
            drop = st["snap_index"] - prev_idx
            entries = entries[drop:]
            prev_idx = st["snap_index"]
            prev_term = st["snap_term"]
        if prev_idx > self._last_index(st):
            ctx.point("ae.gap")
            ctx.send(leader, "AppendEntriesResponse", term=st["term"],
                     success=0, match=0, nil=0, follower=proc)
            return
        if self._term_at(st, prev_idx) != prev_term:
            ctx.point("ae.conflict")
            ctx.send(leader, "AppendEntriesResponse", term=st["term"],
                     success=0, match=0, nil=0, follower=proc)
            return
        idx = prev_idx
        for e in entries:
            idx += 1
            if idx <= self._last_index(st):
                if self._term_at(st, idx) == e[0]:
                    continue
                del st["log"][idx - st["snap_index"] - 1:]
            st["log"].append(e)
        ctx.point("ae.append")
        lc = f["commit"]
        if lc > st["commit"]:
            st["commit"] = max(st["commit"], min(lc, prev_idx + len(entries)))
            self._apply_committed(st)
            ctx.point("ae.commit_advance")
        ctx.send(leader, "AppendEntriesResponse", term=st["term"], success=1,
                 match=prev_idx + len(entries), nil=int(not entries),
                 follower=proc)

    def _on_append_response(self, proc, st, msg, ctx):
        f = dict(msg.fields)
        t, follower = f["term"], f["follower"]
        if t > st["term"]:
            st["term"] = t
            st["role"] = FOLLOWER
            st["voted_for"] = -1
            ctx.point("aer.term_bump")
            return
        if st["role"] != LEADER or t != st["term"]:
            ctx.point("aer.stale")
            return
        if f["success"]:
            match = f["match"]
            if match > st["match"].get(follower, 0):
                st["match"][follower] = match
            st["next"][follower] = st["match"].get(follower, 0) + 1
            self._advance_commit(proc, st, ctx)
        else:
            ctx.point("aer.backoff")
            nxt = st["next"].get(follower, self._last_index(st) + 1) - 1
            st["next"][follower] = max(1, st["snap_index"] + 1, nxt)
            self._send_append(proc, st, follower, ctx)

    def _advance_commit(self, proc, st, ctx):
        new_commit = st["commit"]
        for idx in range(st["commit"] + 1, self._last_index(st) + 1):
            if self._term_at(st, idx) != st["term"]:
                continue
            votes = 1 + sum(1 for m in st["match"].values() if m >= idx)
            if votes >= self.commit_quorum:
                new_commit = idx
        if new_commit == st["commit"]:
            return
        st["commit"] = new_commit
        self._apply_committed(st)
        ctx.point("leader.commit_advance")
        if len(st["log"]) > self.snapshot_threshold and st["commit"] > st["snap_index"]:
            st["snap_term"] = self._term_at(st, st["commit"])
            del st["log"][: st["commit"] - st["snap_index"]]
            st["snap_index"] = st["commit"]
            ctx.internal("SnapshotCompacted", index=st["commit"])
            ctx.point("leader.compact")
        for q in self._peers[proc]:
            self._send_append(proc, st, q, ctx)

    def _apply_committed(self, st):
        while len(st["applied"]) < st["commit"]:
            idx = len(st["applied"]) + 1
            st["applied"].append((idx, self._term_at(st, idx)))

    # -- fault handling ------------------------------------------------------

    def persistent_state(self, proc, st):
        return {k: st[k] for k in PERSISTENT}

    def recover(self, proc, persisted, ctx):
        st = self._fresh_state()
        st.update(persisted, commit=persisted["snap_index"])
        ctx.point("recover")
        return st

    def snapshot(self, proc, st):
        return (
            "raft", st["term"], st["role"], st["voted_for"], tuple(st["log"]),
            st["snap_index"], st["snap_term"], st["commit"],
            tuple(st["applied"]), st["served"], tuple(sorted(st["votes"])),
        )

    # -- safety oracles ------------------------------------------------------

    def oracle_init(self):
        return {"leaders": {}, "prefix": [], "terms": [0] * self.process_count}

    def oracle_observe(self, ostate, event, states, alive):
        out = []
        if event.kind == "internal" and event.verb == "LeaderElected":
            winners = ostate["leaders"].setdefault(event.field("term"), set())
            winners.add(event.recv)
            if len(winners) > 1:
                out.append(ELECTION_SAFETY)
        p = event.recv
        st = states[p] if p < len(states) else None
        if st is not None:
            if st["term"] < ostate["terms"][p]:
                out.append(TERM_MONOTONICITY)
            ostate["terms"][p] = max(ostate["terms"][p], st["term"])
        if event.verb in ("AppendEntries", "AppendEntriesResponse"):
            prefix = ostate["prefix"]
            for q in alive:
                ap = states[q]["applied"]
                m = min(len(ap), len(prefix))
                if ap[:m] != prefix[:m]:
                    out.append(LOG_MATCHING)
                    break
                if len(ap) > len(prefix):
                    ostate["prefix"] = prefix = list(ap)
        return out


# --- abstract model ---------------------------------------------------------

class RaftState(NamedTuple):
    """<per-process term, role, log, snapshot index; active processes>."""

    terms: tuple
    roles: tuple
    logs: tuple   # absolute full logs of (term, serial) entries
    snaps: tuple
    active: tuple  # sorted live process ids


def merge_terms(a: RaftState, b: RaftState) -> bool:
    """Whether state ``b`` merges into ``a``: the two differ only in the
    current terms of processes that are not leaders (term-number churn)."""
    if a is b:
        return True
    if a.roles != b.roles or a.logs != b.logs or a.snaps != b.snaps or a.active != b.active:
        return False
    for ta, tb, role in zip(a.terms, b.terms, a.roles):
        if ta != tb and role == LEADER:
            return False
    return True


# A nil AppendEntriesResponse maps like any other: the model reads only its term.
EVENTS = {
    "LeaderElected": ("ElectLeader", (RECV, "term")),
    "ClientRequestServed": ("ClientRequest", (RECV, "serial")),
    "SnapshotCompacted": ("UpdateSnapshotIndex", (RECV, "index")),
    "Timeout": ("Timeout", (RECV,)),
    "RequestVote": ("HandleRequestVoteRequest", (RECV, "term", "cand")),
    "RequestVoteResponse": ("HandleRequestVoteResponse", (RECV, "term", "granted")),
    "AppendEntries": ("HandleAppendEntriesRequest",
                      (RECV, "term", "prev_idx", "prev_term", "entries", "commit")),
    "AppendEntriesResponse": ("HandleAppendEntriesResponse",
                              (RECV, "term", "success", "match")),
}


def live(rule):
    """``rule`` at a live process, its first argument; elsewhere the action is disabled."""
    def at_live(q: RaftState, p, *args):
        return rule(q, p, *args) if p in q.active else None
    return at_live


def raftlite_model(proc_count: int) -> Lts:
    initial = RaftState(
        terms=(0,) * proc_count,
        roles=(FOLLOWER,) * proc_count,
        logs=((),) * proc_count,
        snaps=(0,) * proc_count,
        active=tuple(range(proc_count)),
    )

    def crash(q: RaftState, p):
        terms, roles, logs, snaps, active = q
        return RaftState(terms, roles, logs, snaps, tuple(x for x in active if x != p))
    def restart(q: RaftState, p):
        terms, roles, logs, snaps, active = q
        if p in active or not (0 <= p < proc_count):
            return None
        return RaftState(terms, _set(roles, p, FOLLOWER), logs, snaps,
                         tuple(sorted(active + (p,))))
    def timeout(q: RaftState, p):
        terms, roles, logs, snaps, active = q
        if roles[p] == LEADER:
            return q  # leader ticks serve requests, modeled separately
        return RaftState(_set(terms, p, terms[p] + 1), _set(roles, p, CANDIDATE),
                         logs, snaps, active)
    def elect_leader(q: RaftState, p, term):
        terms, roles, logs, snaps, active = q
        return RaftState(_set(terms, p, term), _set(roles, p, LEADER), logs, snaps, active)
    def client_request(q: RaftState, p, serial):
        terms, roles, logs, snaps, active = q
        if roles[p] != LEADER:
            return None
        entry = (terms[p], serial)
        return RaftState(terms, roles, _set(logs, p, logs[p] + (entry,)), snaps, active)
    def term_bump(q: RaftState, p, term, *_):
        terms, roles, logs, snaps, active = q
        if term <= terms[p]:
            return q
        return RaftState(_set(terms, p, term), _set(roles, p, FOLLOWER), logs, snaps, active)
    def append_entries(q: RaftState, p, term, prev_idx, prev_term, entries_str, _commit):
        terms, roles, logs, snaps, active = q
        if term < terms[p]:
            return q  # stale append is acknowledged but changes nothing
        terms, roles = _set(terms, p, term), _set(roles, p, FOLLOWER)
        log = logs[p]
        if prev_idx > len(log) or prev_idx >= 1 and log[prev_idx - 1][0] != prev_term:
            return RaftState(terms, roles, logs, snaps, active)
        entries = parse_entries(entries_str)
        merged = list(log)
        idx = prev_idx
        for e in entries:
            idx += 1
            if idx <= len(merged):
                if merged[idx - 1][0] == e[0]:
                    continue
                del merged[idx - 1:]
            merged.append(e)
        return RaftState(terms, roles, _set(logs, p, tuple(merged)), snaps, active)
    def update_snapshot_index(q: RaftState, p, snap):
        terms, roles, logs, snaps, active = q
        return RaftState(terms, roles, logs, _set(snaps, p, max(snaps[p], snap)), active)

    def enabled(q: RaftState):
        # Control skeleton only: message-handling actions take unbounded
        # arguments from the network, which this model does not carry, so
        # exhaustive reachability is defined just for elections and faults.
        acts = []
        for p in range(proc_count):
            if p in q.active:
                acts.append(ModelAction("Crash", (p,)))
                if q.roles[p] != LEADER:
                    acts.append(ModelAction("Timeout", (p,)))
                if q.roles[p] == CANDIDATE:
                    acts.append(ModelAction("ElectLeader", (p, q.terms[p])))
            else:
                acts.append(ModelAction("Restart", (p,)))
        return acts

    actions = {"Crash": live(crash), "Restart": restart, "Timeout": live(timeout),
               "ElectLeader": live(elect_leader), "ClientRequest": live(client_request),
               "HandleAppendEntriesRequest": live(append_entries),
               "UpdateSnapshotIndex": live(update_snapshot_index),
               **dict.fromkeys(("HandleRequestVoteRequest", "HandleRequestVoteResponse",
                                "HandleAppendEntriesResponse"), live(term_bump))}
    return Lts(initial=initial, actions=actions, enabled=enabled, merges=merge_terms)
