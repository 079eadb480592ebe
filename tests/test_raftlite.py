import random

import pytest

from schedfuzz.benchmarks import build_raftlite
from schedfuzz.benchmarks.raftlite import (
    ELECTION_SAFETY,
    LEADER,
    LOG_MATCHING,
    RaftLiteBench,
    encode_entries,
    parse_entries,
)
from schedfuzz.harness import execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import run_actions
from schedfuzz.schedule import (
    CRASH,
    DELIVER,
    RESTART,
    BufferId,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
)


def test_quorum_arithmetic_for_small_clusters():
    # The seeded bug only opens a window once the two formulas diverge;
    # clusters are odd-sized, so n = 5 is the smallest usable config.
    quorums = {n: (n // 2 + 1, n // 3 + 1) for n in (3, 4, 5)}
    assert quorums[3] == (2, 2)  # identical: bug invisible at n = 3
    assert quorums[4] == (3, 2)
    assert quorums[5] == (3, 2)  # two disjoint "quorums" of 2 fit in 5


def test_paper_scale_configuration_builds():
    bench = build_raftlite(3, 5, quorum_bug=False)
    assert bench.sut.process_count == 3
    assert bench.gen_defaults.crash_quota == 10
    assert bench.gen_defaults.max_messages_per_step == 5


def test_even_or_tiny_clusters_rejected():
    with pytest.raises(ValueError):
        build_raftlite(proc_count=4)
    with pytest.raises(ValueError):
        build_raftlite(proc_count=1)


def test_no_timeouts_means_no_leader_and_no_violations():
    bench = build_raftlite(3, 2)
    # Deliver only from ordinary (empty) buffers: every step is skipped.
    steps = tuple(
        ScheduleStep(BufferId(i, j), DELIVER, 1)
        for i in range(3)
        for j in range(3)
        if i != j
    )
    result = execute_schedule(bench.sut, Schedule(steps=steps))
    assert result.trace.events == ()
    assert result.violations == ()
    assert all(st[2] != LEADER for st in result.final_states)  # role field


def test_timeout_channel_is_perpetually_available():
    bench = build_raftlite(3, 2)
    # The channel regenerates one tick per step: never skipped, one timeout
    # per deliver step no matter the requested count.
    s = Schedule(steps=(
        ScheduleStep(BufferId(0, 0), DELIVER, 3),
        ScheduleStep(BufferId(0, 0), DELIVER, 1),
    ))
    result = execute_schedule(bench.sut, s)
    timeouts = [e for e in result.trace.events if e.verb == "Timeout"]
    assert len(timeouts) == 2
    assert result.trace.skipped == ()


def test_entry_codec_round_trip():
    entries = ((1, 10000), (3, 20001), (3, 20002))
    assert parse_entries(encode_entries(entries)) == entries
    assert parse_entries("") == ()


def test_correct_protocol_has_no_violations_with_crashes():
    bench = build_raftlite(3, 2, quorum_bug=False, snapshot_threshold=4)
    rng = random.Random(20)
    for _ in range(800):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        assert result.violations == (), result.violations[0]


# raftlite(3, 3) with snapshot threshold 1: a leader commits and compacts,
# then a follower that applied the commits crashes, restarts and catches up.
# Random schedules seldom get this far.
COMMIT_COMPACT_RESTART = Schedule(tuple(
    ScheduleStep(BufferId(a, b), op, count) for a, b, op, count in (
        (0, 0, DELIVER, 1),                      # 0 times out: candidate of term 1
        (0, 1, DELIVER, 1),                      # 1 grants its vote
        (1, 0, DELIVER, 1),                      # 0 wins and announces itself
        (0, 0, DELIVER, 1), (0, 0, DELIVER, 1),  # 0 serves two requests
        (0, 1, DELIVER, 3),                      # 1 appends both entries
        (1, 0, DELIVER, 3),                      # 0 commits 1, compacts it, commits 2
        (0, 1, DELIVER, 2),                      # 1 learns both commits
        (1, 1, CRASH, 1), (1, 1, RESTART, 1),
        (0, 0, DELIVER, 1),                      # 0 serves the third request
        (0, 1, DELIVER, 1),                      # the restarted 1 appends it
        (1, 0, DELIVER, 3),                      # 0 commits 3 and compacts again
        (0, 1, DELIVER, 1),                      # 1 learns commit 3
    )))


class WrongTermOnFollowers(RaftLiteBench):
    """Mutant: a follower applies committed entries under a wrong term."""

    def _apply_committed(self, st):
        start = len(st["applied"])
        super()._apply_committed(st)
        if st["role"] != LEADER:
            st["applied"][start:] = [(i, t + 1) for i, t in st["applied"][start:]]


def test_commit_compaction_and_restart_path():
    bench = build_raftlite(3, 3, snapshot_threshold=1)
    result = execute_schedule(bench.sut, COMMIT_COMPACT_RESTART)
    assert result.violations == ()
    assert result.trace.skipped == ()
    assert {"leader.commit_advance", "ae.commit_advance", "leader.compact",
            "recover"} <= result.points_hit
    leader, follower, _ = result.final_states
    applied = ((1, 1), (2, 1), (3, 1))
    assert (leader[5], leader[8]) == (3, applied)  # snapshot index, applied
    assert follower[8] == applied
    mutant = WrongTermOnFollowers(3, 3, quorum_bug=False, snapshot_threshold=1)
    bad = execute_schedule(mutant, COMMIT_COMPACT_RESTART)
    assert bad.violations and {v.description for v in bad.violations} == {LOG_MATCHING}


def test_simulation_soundness_raftlite():
    bench = build_raftlite(3, 2, snapshot_threshold=4)
    rng = random.Random(30)
    for _ in range(400):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        run = run_actions(bench.lts, map_events(bench, result.trace))
        assert run.unmatched == ()


def test_snapshot_index_never_exceeds_commit_and_survives_restart():
    bench = build_raftlite(3, 3, snapshot_threshold=2)
    rng = random.Random(40)
    compactions = 0
    for _ in range(600):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        for ev in result.trace.events:
            if ev.kind == "internal" and ev.verb == "SnapshotCompacted":
                compactions += 1
        for snap in result.final_states:
            if snap is None:
                continue
            _, _, _, _, _, snap_index, _, commit, applied, _, _ = snap
            assert snap_index <= commit
            assert len(applied) >= snap_index
    assert compactions > 0  # threshold 2 actually triggers compaction


def test_quorum_bug_yields_election_safety_violation():
    bench = build_raftlite(5, 2, quorum_bug=True)
    rng = random.Random(5)
    keys = set()
    for _ in range(1500):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        keys.update(v.description for v in result.violations)
        if ELECTION_SAFETY in keys:
            break
    assert ELECTION_SAFETY in keys


def test_crashed_process_receives_nothing_until_restart():
    bench = build_raftlite(3, 2)
    rng = random.Random(50)
    for _ in range(200):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        dead = set()
        for ev in result.trace.events:
            if ev.kind == "crash":
                dead.add(ev.recv)
            elif ev.kind == "restart":
                dead.discard(ev.recv)
            elif ev.kind == "deliver":
                assert ev.recv not in dead
