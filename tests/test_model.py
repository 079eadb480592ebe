import hashlib
import random
from collections import Counter

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.benchmarks.raftlite import (
    CANDIDATE,
    FOLLOWER,
    LEADER,
    RaftState,
    encode_entries,
    merge_terms,
    parse_entries,
)
from schedfuzz.coverage import model_state_items
from schedfuzz.fingerprint import digest128, encode_canonical, fingerprint
from schedfuzz.harness import execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import (
    MappingContractError,
    ModelAction,
    bfs_reachable,
    run_actions,
)
from schedfuzz.schedule import generate_random_schedule


def abstract_raft_states(path) -> list:
    """A state path as coverage sees it: each state that merge_terms merges
    into the state before it on the output is replaced by that state
    (model_state_items does this in one pass)."""
    out = list(path[:1])
    for state in path[1:]:
        out.append(out[-1] if merge_terms(out[-1], state) else state)
    return out


def test_bfs_depth_zero_is_exactly_initial():
    bench = build_micro(1, 1, True)
    res = bfs_reachable(bench.lts, depth_limit=0)
    assert res.states == frozenset({bench.lts.initial})


def test_micro_and_tpc_fingerprints_disjoint():
    micro = bfs_reachable(build_micro(1, 1, True).lts)
    tpc = bfs_reachable(build_tpc(2, 1, 1).lts)
    assert micro.fingerprints.isdisjoint(tpc.fingerprints)


@pytest.mark.parametrize("args", [(1,), ()])
@pytest.mark.parametrize("build, before", [
    (lambda: build_micro(1, 1, True), []),
    (lambda: build_tpc(2, 1, 1), []),
    (lambda: build_raftlite(3), []),
    # raftlite's model used to test for a live process before the name, so
    # an unknown action at a crashed one was filed as merely unmatched.
    (lambda: build_raftlite(3), [ModelAction("Crash", (1,))]),
], ids=["micro", "tpc", "raftlite", "raftlite-crashed"])
def test_unknown_action_is_a_mapping_contract_error(build, before, args):
    with pytest.raises(MappingContractError):
        run_actions(build().lts, [*before, ModelAction("Levitate", args)])


def test_visited_is_subset_of_bfs_reachable():
    for bench in (build_micro(2, 2, True), build_tpc(2, 2, 2)):
        bfs_states = bfs_reachable(bench.lts).states
        rng = random.Random(31)
        for _ in range(150):
            s = generate_random_schedule(bench.gen_defaults, rng)
            result = execute_schedule(bench.sut, s)
            run = run_actions(bench.lts, map_events(bench, result.trace))
            assert set(run.path) <= bfs_states


def _raft_state(**kw):
    base = dict(
        terms=(1, 1, 1),
        roles=(FOLLOWER, FOLLOWER, FOLLOWER),
        logs=((), (), ()),
        snaps=(0, 0, 0),
        active=(0, 1, 2),
    )
    base.update(kw)
    return RaftState(**base)


def test_term_abstraction_merges_follower_term_churn():
    a = _raft_state()
    b = _raft_state(terms=(1, 1, 2))
    out = abstract_raft_states([a, b])
    assert out == [a, a]
    assert fingerprint(out[0]) == fingerprint(out[1])


def test_term_abstraction_keeps_leader_terms():
    a = _raft_state(roles=(LEADER, FOLLOWER, FOLLOWER))
    b = _raft_state(roles=(LEADER, FOLLOWER, FOLLOWER), terms=(2, 1, 1))
    assert abstract_raft_states([a, b]) == [a, b]


def test_term_abstraction_requires_terms_only_difference():
    a = _raft_state()
    b = _raft_state(terms=(1, 1, 2), logs=(((1, 5),), (), ()))
    assert abstract_raft_states([a, b]) == [a, b]


def test_term_abstraction_collapses_candidate_cycles():
    a = _raft_state(roles=(CANDIDATE, FOLLOWER, FOLLOWER), terms=(2, 1, 1))
    b = a._replace(terms=(3, 1, 1))
    c = a._replace(terms=(4, 1, 1))
    assert abstract_raft_states([a, b, c]) == [a, a, a]


def test_term_abstraction_is_idempotent():
    bench = build_raftlite(3, 2)
    rng = random.Random(9)
    for _ in range(60):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        run = run_actions(bench.lts, map_events(bench, result.trace))
        once = abstract_raft_states(run.path)
        assert abstract_raft_states(once) == once


def test_fingerprint_distinguishes_all_bfs_states():
    bfs = bfs_reachable(build_micro(1, 1, True).lts)
    fps = {fingerprint(s) for s in bfs.states}
    assert len(fps) == len(bfs.states)


def test_fingerprint_stable_across_construction_order():
    a = MicroStateFrom(registered=(1, 2))
    b = MicroStateFrom(registered=tuple(sorted((2, 1))))
    assert a == b
    assert fingerprint(a) == fingerprint(b)


def MicroStateFrom(**kw):
    from schedfuzz.benchmarks.micro import MicroState

    base = dict(
        registered=(), requests=(), completed=(0,), dispatched=(0,),
        to_terminate=(), terminated=(),
    )
    base.update(kw)
    return MicroState(**base)


# sha256 over each run's sorted state items and unmatched indices, for 200
# seeded random schedules per benchmark, each run forwards and reversed (the
# reversed runs exercise unmatched actions).  Any change to the states or
# unmatched actions the model path reports shows here.
MODEL_PATH_PINS = {
    "micro": ("5977b6f91a6efeba6e83d3ed3a5f30597b010b732ab719c16d6bc6d0ec9484c6", 242),
    "tpc": ("ea418b7a2b9e023cab643b3c992d9f92175b5e582fdd2c304e4dbc07d959afd2", 8425),
    "raftlite": ("e9216fc7646e4a164ffceaf84ccef7c30f18217ac475c11a3c1f668425d9215d", 2432),
}


@pytest.mark.parametrize("bench", [build_micro(), build_tpc(), build_raftlite(crash_quota=30)],
                         ids=lambda b: b.name)
def test_model_path_is_pinned(bench):
    h = hashlib.sha256()
    unmatched = 0
    rng = random.Random(4)
    for _ in range(200):
        s = generate_random_schedule(bench.gen_defaults, rng)
        actions = map_events(bench, execute_schedule(bench.sut, s).trace)
        for acts in (actions, actions[::-1]):
            run = run_actions(bench.lts, acts)
            h.update(b"".join(fp for _, fp in sorted(model_state_items(run, bench.lts))))
            h.update(repr(run.unmatched).encode() + b"\n")
            unmatched += len(run.unmatched)
    assert (h.hexdigest(), unmatched) == MODEL_PATH_PINS[bench.name]


@pytest.mark.parametrize("bench,depth,count", [
    (build_micro(1, 1), None, 10),
    (build_micro(), None, 38),
    (build_micro(), 12, 32),
    (build_tpc(2, 1, 2), None, 238),
    (build_raftlite(), 2, 28),
    (build_raftlite(), 4, 228),
    (build_raftlite(5), 3, 291),
], ids=lambda v: getattr(v, "name", str(v)))
def test_bfs_counts_are_pinned(bench, depth, count):
    assert len(bfs_reachable(bench.lts, depth_limit=depth).states) == count


# --- references for the optimised model layers -------------------------------

def _reference_merge_terms(a, b) -> bool:
    """The term abstraction's predicate as first written, with _replace."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if a._replace(terms=b.terms) != b:
        return False
    for ta, tb, role in zip(a.terms, b.terms, a.roles):
        if ta != tb and role == LEADER:
            return False
    return True


def _reference_state_items(path, lts) -> frozenset:
    """model_state_items as first written: abstract the whole path, dedupe the
    states in a set, then encode and digest each one from scratch."""
    if lts.merges is not None:
        out = [path[0]]
        for state in path[1:]:
            out.append(out[-1] if _reference_merge_terms(out[-1], state) else state)
        assert abstract_raft_states(path) == out
        path = out
    return frozenset(("state", digest128(encode_canonical(s))) for s in set(path))


@pytest.mark.parametrize("bench", [build_micro(), build_tpc(), build_raftlite(crash_quota=30)],
                         ids=lambda b: b.name)
def test_state_items_match_the_reference_formula(bench):
    rng = random.Random(41)
    states = set()
    for _ in range(1000):
        s = generate_random_schedule(bench.gen_defaults, rng)
        actions = map_events(bench, execute_schedule(bench.sut, s).trace)
        for acts in (actions, actions[::-1]):
            run = run_actions(bench.lts, acts)
            items = model_state_items(run, bench.lts)
            assert items == _reference_state_items(run.path, bench.lts)
            states |= items
    assert len(states) > 20


def _reference_raft_step(proc_count):
    """raftlite's model step as first written, with chained _replace calls."""
    def _set(t, i, v):
        return t[:i] + (v,) + t[i + 1:]

    def step(q, a):
        name = a.name
        if name == "Crash":
            (p,) = a.args
            if p not in q.active:
                return None
            return q._replace(active=tuple(x for x in q.active if x != p))
        if name == "Restart":
            (p,) = a.args
            if p in q.active or not (0 <= p < proc_count):
                return None
            return q._replace(active=tuple(sorted(q.active + (p,))),
                              roles=_set(q.roles, p, FOLLOWER))
        p = a.args[0]
        if p not in q.active:
            return None
        if name == "Timeout":
            if q.roles[p] == LEADER:
                return q
            return q._replace(terms=_set(q.terms, p, q.terms[p] + 1),
                              roles=_set(q.roles, p, CANDIDATE))
        if name == "ElectLeader":
            _, term = a.args
            return q._replace(roles=_set(q.roles, p, LEADER),
                              terms=_set(q.terms, p, term))
        if name == "ClientRequest":
            _, serial = a.args
            if q.roles[p] != LEADER:
                return None
            return q._replace(logs=_set(q.logs, p, q.logs[p] + ((q.terms[p], serial),)))
        if name in ("HandleRequestVoteRequest", "HandleRequestVoteResponse",
                    "HandleAppendEntriesResponse"):
            term = a.args[1]
            if term > q.terms[p]:
                return q._replace(terms=_set(q.terms, p, term),
                                  roles=_set(q.roles, p, FOLLOWER))
            return q
        if name == "HandleAppendEntriesRequest":
            _, term, prev_idx, prev_term, entries_str, _commit = a.args
            if term < q.terms[p]:
                return q
            q = q._replace(terms=_set(q.terms, p, term), roles=_set(q.roles, p, FOLLOWER))
            log = q.logs[p]
            if prev_idx > len(log):
                return q
            if prev_idx >= 1 and log[prev_idx - 1][0] != prev_term:
                return q
            merged = list(log)
            idx = prev_idx
            for e in parse_entries(entries_str):
                idx += 1
                if idx <= len(merged):
                    if merged[idx - 1][0] == e[0]:
                        continue
                    del merged[idx - 1:]
                merged.append(e)
            return q._replace(logs=_set(q.logs, p, tuple(merged)))
        if name == "UpdateSnapshotIndex":
            _, snap = a.args
            return q._replace(snaps=_set(q.snaps, p, max(q.snaps[p], snap)))
        raise MappingContractError(name)

    return step


def _random_raft_action(rng, procs):
    p = rng.randrange(procs + 1)  # procs itself is out of range: rejected
    term = rng.randrange(5)
    name = rng.choice([
        "Crash", "Restart", "Timeout", "ElectLeader", "ClientRequest",
        "HandleRequestVoteRequest", "HandleRequestVoteResponse",
        "HandleAppendEntriesResponse",
        "HandleAppendEntriesRequest", "UpdateSnapshotIndex",
    ])
    if name in ("Crash", "Restart", "Timeout"):
        return ModelAction(name, (p,))
    if name == "HandleAppendEntriesRequest":
        entries = encode_entries([(rng.randrange(5), rng.randrange(9))
                                  for _ in range(rng.randrange(4))])
        return ModelAction(name, (p, term, rng.randrange(4), rng.randrange(5),
                                  entries, rng.randrange(4)))
    return ModelAction(name, (p, term if name != "ClientRequest" else rng.randrange(99)))


@pytest.mark.parametrize("procs", [3, 5])
def test_raft_step_and_merge_match_the_replace_references(procs):
    lts = build_raftlite(procs).lts
    reference = _reference_raft_step(procs)
    rng = random.Random(procs)
    outcomes = Counter()
    for _ in range(1500):
        q = lts.initial
        for _ in range(40):
            a = _random_raft_action(rng, procs)
            nxt, want = lts.step(q, a), reference(q, a)
            assert nxt == want and type(nxt) is type(want), a
            if nxt is not None:
                assert merge_terms(q, nxt) == _reference_merge_terms(q, nxt), a
            outcomes[a.name, "rejected" if nxt is None else
                     "unchanged" if nxt == q else "changed"] += 1
            q = q if nxt is None else nxt
    # Each action kind changed the state somewhere, and the kinds that can be
    # rejected were rejected somewhere.
    for name in ("Crash", "Restart", "Timeout", "ElectLeader", "ClientRequest",
                 "HandleRequestVoteRequest", "HandleAppendEntriesRequest",
                 "UpdateSnapshotIndex"):
        assert outcomes[name, "changed"] > 0, name
    for name in ("Crash", "Restart", "Timeout", "ClientRequest",
                 "HandleAppendEntriesRequest"):
        assert outcomes[name, "rejected"] > 0, name


def test_compacting_raft_runs_match_the_references():
    """Runs of a raftlite that compacts its logs (threshold 2, six requests)
    through the state-items, step and merge references: the only runs where
    UpdateSnapshotIndex moves a state and merge_terms compares snaps."""
    reference = _reference_raft_step(3)
    rng = random.Random(47)
    compacting = snaps_moved = 0
    for quota in (0, 10):
        bench = build_raftlite(3, 6, snapshot_threshold=2, crash_quota=quota)
        lts = bench.lts
        for _ in range(500):
            s = generate_random_schedule(bench.gen_defaults, rng)
            actions = map_events(bench, execute_schedule(bench.sut, s).trace)
            compacting += any(a.name == "UpdateSnapshotIndex" for a in actions)
            run = run_actions(lts, actions)
            assert model_state_items(run, lts) == _reference_state_items(run.path, lts)
            q = lts.initial
            for a in actions:
                nxt, want = lts.step(q, a), reference(q, a)
                assert nxt == want and type(nxt) is type(want), a
                if nxt is not None:
                    assert merge_terms(q, nxt) == _reference_merge_terms(q, nxt), a
                    snaps_moved += nxt.snaps != q.snaps
                    q = nxt
    assert compacting >= 20 and snaps_moved >= 20, (compacting, snaps_moved)


def _reference_micro_step(m, n):
    """micro's model step as first written, with _replace."""
    procs = tuple(range(1, m + 2))
    target = 1

    def step(q, a):
        name = a.name
        if name == "Register":
            (p,) = a.args
            if p in q.registered or p not in procs:
                return None
            return q._replace(registered=tuple(sorted(q.registered + (p,))))
        if name == "Request":
            (r,) = a.args
            if r in q.requests:
                return None
            if len(q.registered) == m + 1:
                sent = list(q.dispatched)
                sent[target - 1] = 1
                return q._replace(requests=tuple(sorted(q.requests + (r,))),
                                  dispatched=tuple(sent))
            return q
        if name == "Relay":
            w, idx = a.args
            if not q.requests or not (1 <= w <= m) or idx > n:
                return None
            if q.dispatched[w - 1] != idx - 1 or q.completed[w - 1] != idx - 1:
                return None
            sent = list(q.dispatched)
            sent[w - 1] = idx
            return q._replace(dispatched=tuple(sent))
        if name == "Execute":
            w, idx = a.args
            if not q.requests or not (1 <= w <= m):
                return None
            if idx != q.completed[w - 1] + 1 or idx > n or q.dispatched[w - 1] != idx:
                return None
            done = list(q.completed)
            done[w - 1] = idx
            if idx < n:
                healed = tuple(x for x in q.terminated if x != w)
                return q._replace(completed=tuple(done), terminated=healed)
            if w in q.terminated:
                return q
            return q._replace(completed=tuple(done))
        if name == "Terminate":
            (w,) = a.args
            if not q.requests or w in q.to_terminate:
                return None
            return q._replace(to_terminate=tuple(sorted(q.to_terminate + (w,))))
        if name == "Flush":
            (w,) = a.args
            if w not in q.to_terminate or w in q.terminated:
                return None
            return q._replace(terminated=tuple(sorted(q.terminated + (w,))))
        raise MappingContractError(name)

    return step


def _reference_tpc_step(rm_count, var_count, request_count):
    """tpc's model step as first written, with _replace and a variable set."""
    from schedfuzz.benchmarks.tpc import ABORTED, COLLECTING, COMMITTED, INIT
    from schedfuzz.benchmarks.tpc import PREPARED, REFUSED, WORKING

    def tx_vars(tx):
        return tuple(sorted({tx % var_count, (tx + 1) % var_count}))

    def _set(t, i, v):
        return t[:i] + (v,) + t[i + 1:]

    def _set2(t, i, j, v):
        return _set(t, i, _set(t[i], j, v))

    def valid(rm, tx):
        return 1 <= rm <= rm_count and 0 <= tx < request_count

    def step(q, a):
        name = a.name
        if name == "ClientRequest":
            (tx,) = a.args
            if not 0 <= tx < request_count or q.tm[tx] != INIT:
                return None
            return q._replace(tm=_set(q.tm, tx, COLLECTING))
        if name == "HandlePrepare":
            rm, tx = a.args
            if not valid(rm, tx):
                return None
            if q.tm[tx] == INIT or q.rm[rm - 1][tx] != WORKING:
                return None
            locks = q.locks[rm - 1]
            needed = tx_vars(tx)
            if any(locks[v] for v in needed):
                return q._replace(rm=_set2(q.rm, rm - 1, tx, REFUSED))
            new_locks = list(locks)
            for v in needed:
                new_locks[v] = 1
            return q._replace(rm=_set2(q.rm, rm - 1, tx, PREPARED),
                              locks=_set(q.locks, rm - 1, tuple(new_locks)))
        if name == "HandleVote":
            tx, rm, granted = a.args
            if not valid(rm, tx):
                return None
            if q.rm[rm - 1][tx] == WORKING or q.tm[tx] == INIT:
                return None
            if q.tm[tx] == COLLECTING and not granted:
                return q._replace(tm=_set(q.tm, tx, ABORTED),
                                  decided=tuple(sorted(q.decided + ((tx, ABORTED),))))
            return q
        if name == "HandleDecision":
            rm, tx, commit = a.args
            if not valid(rm, tx):
                return None
            want = COMMITTED if commit else ABORTED
            tm, decided = q.tm, q.decided
            if q.tm[tx] == COLLECTING and commit:
                tm = _set(q.tm, tx, COMMITTED)
                decided = tuple(sorted(decided + ((tx, COMMITTED),)))
            if tm[tx] != want or q.rm[rm - 1][tx] in (COMMITTED, ABORTED):
                return None
            locks = q.locks[rm - 1]
            if q.rm[rm - 1][tx] == PREPARED:
                held = set(tx_vars(tx))
                locks = tuple(0 if v in held else flag for v, flag in enumerate(locks))
            return q._replace(tm=tm, rm=_set2(q.rm, rm - 1, tx, want),
                              locks=_set(q.locks, rm - 1, locks), decided=decided)
        raise MappingContractError(name)

    return step


@pytest.mark.parametrize("bench,reference", [
    (build_micro(), _reference_micro_step(2, 5)),
    (build_micro(3, 2), _reference_micro_step(3, 2)),
    (build_tpc(), _reference_tpc_step(3, 2, 5)),
    (build_tpc(4, 1, 4), _reference_tpc_step(4, 1, 4)),
], ids=lambda v: getattr(v, "name", ""))
def test_micro_and_tpc_steps_match_the_replace_references(bench, reference):
    """Every step of 1,000 random runs, each forwards and reversed (reversed
    runs reach the rejections), against the step written with _replace."""
    lts = bench.lts
    rng = random.Random(len(bench.sut.extra_buffers) + bench.sut.process_count)
    outcomes = Counter()
    for _ in range(1000):
        s = generate_random_schedule(bench.gen_defaults, rng)
        actions = map_events(bench, execute_schedule(bench.sut, s).trace)
        for acts in (actions, actions[::-1]):
            q = lts.initial
            for a in acts:
                nxt, want = lts.step(q, a), reference(q, a)
                assert nxt == want and type(nxt) is type(want), a
                outcomes[a.name, "rejected" if nxt is None else
                         "unchanged" if nxt == q else "changed"] += 1
                q = q if nxt is None else nxt
    names = {name for name, _ in outcomes}
    for name in names:
        assert outcomes[name, "changed"] > 0, name
    assert sum(outcomes[name, "rejected"] for name in names) > 250, outcomes
