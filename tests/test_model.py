import hashlib
import random

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.benchmarks.raftlite import CANDIDATE, FOLLOWER, LEADER, RaftState
from schedfuzz.coverage import model_state_items
from schedfuzz.fingerprint import fingerprint
from schedfuzz.harness import execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import (
    MappingContractError,
    ModelAction,
    abstract_raft_states,
    bfs_reachable,
    run_actions,
)
from schedfuzz.schedule import generate_random_schedule


def test_bfs_depth_zero_is_exactly_initial():
    bench = build_micro(1, 1, True)
    res = bfs_reachable(bench.lts, depth_limit=0)
    assert res.states == frozenset({bench.lts.initial})


def test_micro_and_tpc_fingerprints_disjoint():
    micro = bfs_reachable(build_micro(1, 1, True).lts)
    tpc = bfs_reachable(build_tpc(2, 1, 1).lts)
    assert micro.fingerprints.isdisjoint(tpc.fingerprints)


def test_unknown_action_is_a_mapping_contract_error():
    bench = build_micro(1, 1, True)
    with pytest.raises(MappingContractError):
        run_actions(bench.lts, [ModelAction("Levitate", (1,))])


def test_visited_is_subset_of_bfs_reachable():
    for bench in (build_micro(2, 2, True), build_tpc(2, 2, 2)):
        bfs_states = bfs_reachable(bench.lts).states
        rng = random.Random(31)
        for _ in range(150):
            s = generate_random_schedule(bench.gen_defaults, rng)
            result = execute_schedule(bench.sut, s)
            run = run_actions(bench.lts, map_events(bench.name, result.trace))
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
        run = run_actions(bench.lts, map_events("raftlite", result.trace))
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
        actions = map_events(bench.name, execute_schedule(bench.sut, s).trace)
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
