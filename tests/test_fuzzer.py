import random

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.fuzzer import (
    AUTO,
    SWAP_BUFFERS,
    SWAP_CRASH_PROCESSES,
    SWAP_MAX_MESSAGES,
    CampaignConfig,
    CampaignConfigError,
    assign_energy,
    fuzz_campaign,
    mutate,
)
from schedfuzz.harness import execute_schedule
from schedfuzz.schedule import (
    CRASH,
    DELIVER,
    BufferId,
    GenParams,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
    validate_schedule,
)


def test_energy_is_linear_in_new_items():
    assert assign_energy(0, 5) == 0
    assert assign_energy(1, 5) == 5
    assert assign_energy(3, 5) == 15
    assert assign_energy(4, 5) == 20


def test_swap_max_messages_swaps_counts_only():
    steps = (
        ScheduleStep(BufferId(0, 1), DELIVER, 2),
        ScheduleStep(BufferId(1, 0), DELIVER, 5),
    )
    rng = random.Random(0)
    out = mutate(Schedule(steps), SWAP_MAX_MESSAGES, rng, num_processes=2)
    assert [st.count for st in out.steps] == [5, 2]
    assert [st.buffer for st in out.steps] == [BufferId(0, 1), BufferId(1, 0)]


def test_single_crash_retargets_to_a_different_process():
    steps = (
        ScheduleStep(BufferId(0, 1), CRASH),
        ScheduleStep(BufferId(0, 2), DELIVER, 1),
    )
    for seed in range(20):
        out = mutate(Schedule(steps), SWAP_CRASH_PROCESSES, random.Random(seed),
                     num_processes=3)
        (crash,) = [st for st in out.steps if st.op == CRASH]
        assert crash.buffer.receiver in (0, 2)


def test_two_crashes_swap_positions():
    steps = (
        ScheduleStep(BufferId(0, 1), CRASH),
        ScheduleStep(BufferId(1, 2), DELIVER, 1),
        ScheduleStep(BufferId(0, 2), CRASH),
    )
    out = mutate(Schedule(steps), SWAP_CRASH_PROCESSES, random.Random(1),
                 num_processes=3)
    assert out.steps[0].buffer.receiver == 2
    assert out.steps[2].buffer.receiver == 1


def test_short_schedule_swap_buffers_is_noop():
    s = Schedule((ScheduleStep(BufferId(0, 1), DELIVER, 1),))
    assert mutate(s, SWAP_BUFFERS, random.Random(0), num_processes=2) == s


def test_mutation_closure_preserves_invariants():
    rng = random.Random(123)
    params = GenParams(4, 30, 5, 6)
    for _ in range(2000):
        s = generate_random_schedule(params, random.Random(rng.getrandbits(32)))
        m = mutate(s, AUTO, rng, num_processes=4)
        validate_schedule(m, params)


def test_mutated_schedules_always_execute():
    bench = build_raftlite(3, 2)
    rng = random.Random(7)
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        m = mutate(s, AUTO, rng, num_processes=3)
        execute_schedule(bench.sut, m)  # must not raise


def _campaign(notion="model", budget=300, seed=11, bench=None, **kw):
    bench = bench or build_micro(2, 2, True, max_steps=30)
    return fuzz_campaign(
        CampaignConfig(
            benchmark=bench, notion=notion, budget=budget, master_seed=seed, **kw
        )
    )


def test_random_notion_never_gains_energy():
    res = _campaign(notion="random")
    assert res.spawned_mutants == 0
    assert res.corpus == []
    assert res.repopulations > 0


def test_campaign_is_deterministic():
    a = _campaign()
    b = _campaign()
    assert a.timeline == b.timeline
    assert [(r.key, r.first_iteration) for r in a.bug_log] == [
        (r.key, r.first_iteration) for r in b.bug_log
    ]
    assert a.total_coverage == b.total_coverage


def test_total_coverage_is_monotone():
    res = _campaign(budget=500)
    last = 0
    for _, cov, _, _ in res.timeline:
        assert cov >= last
        last = cov


def test_corpus_accounting_balances_exactly():
    res = _campaign(budget=777, corpus_size=20)
    enqueued = 20 * (1 + res.repopulations) + res.spawned_mutants
    assert res.iterations + res.queue_left == enqueued


def test_crash_quota_rejected_when_sut_cannot_crash():
    bench = build_tpc(2, 1, 1)
    gen = GenParams(3, 10, 2, 1, extra_buffers=tuple(bench.sut.extra_buffers))
    with pytest.raises(CampaignConfigError):
        fuzz_campaign(
            CampaignConfig(benchmark=bench, notion="model", budget=10,
                           master_seed=0, gen=gen)
        )


def test_stop_on_bug_halts_early():
    res = _campaign(notion="model", budget=10_000, stop_on_bug="NullDeref")
    assert res.iterations < 10_000
    assert res.first_bug_iteration("NullDeref") == res.iterations


def test_state_metric_tracked_for_other_notions():
    res = _campaign(notion="trace", budget=200, track_states=True)
    assert len(res.state_coverage) > 0
    assert all(tag == "state" for tag, _ in res.state_coverage)
    assert all(tag == "trace" for tag, _ in res.total_coverage)
