"""The generator and the mutation draws against their reference path.

``generate_random_schedule`` and ``draw_mutation`` draw from
``rng.getrandbits`` directly.  The references below are the same functions
written with ``rng.choice``, ``rng.randint`` and ``rng.sample``: every draw
must give the same result and leave the rng in the same state.
"""

import random

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.fuzzer import (
    AUTO,
    MUTATION_KINDS,
    SWAP_BUFFERS,
    SWAP_CRASH_PROCESSES,
    SWAP_MAX_MESSAGES,
    Mutation,
    MutationSummary,
    draw_mutation,
    mutation_summary,
)
from schedfuzz.schedule import (
    CRASH,
    DELIVER,
    RESTART,
    BufferId,
    GenParams,
    Schedule,
    ScheduleError,
    ScheduleStep,
    generate_random_schedule,
    randbelow,
)


def reference_generate(params: GenParams, rng: random.Random) -> Schedule:
    """generate_random_schedule as first written, drawing through rng.choice
    and rng.randint."""
    if params.num_processes < 2:
        raise ScheduleError("need at least 2 processes")
    if params.max_steps < 1:
        raise ScheduleError("need at least 1 step")
    if params.max_messages_per_step < 1:
        raise ScheduleError("need max_messages_per_step >= 1")
    if params.crash_quota < 0:
        raise ScheduleError("crash quota must be >= 0")

    universe = params.buffer_universe()
    slots: list[ScheduleStep | None] = [None] * params.max_steps
    crash_prob = params.crash_quota / params.max_steps
    crashes_left = params.crash_quota
    # Processes with a pending restart slot: no further crash of the same
    # process until past that slot, so crash/restart alternate per process.
    blocked_until: dict[int, int] = {}

    for i in range(params.max_steps):
        if slots[i] is not None:
            continue
        buf = rng.choice(universe)
        target = buf.receiver
        blocked = blocked_until.get(target, -1) >= i
        if crashes_left > 0 and not blocked and rng.random() < crash_prob:
            slots[i] = ScheduleStep(buf, CRASH)
            crashes_left -= 1
            free = [j for j in range(i + 1, params.max_steps) if slots[j] is None]
            if free:
                j = rng.choice(free)
                slots[j] = ScheduleStep(buf, RESTART)
                blocked_until[target] = j
        else:
            count = rng.randint(1, params.max_messages_per_step)
            slots[i] = ScheduleStep(buf, DELIVER, count)

    steps = tuple(s for s in slots if s is not None)
    return Schedule(steps=steps, seed=rng.getrandbits(64))


def reference_draw(summary: MutationSummary, kind: str,
                   rng: random.Random) -> Mutation | None:
    """draw_mutation as first written, drawing through rng.choice and
    rng.sample."""
    delivers, crashes = summary.delivers, summary.crashes
    if kind == AUTO:
        kinds = []
        if len(delivers) >= 2:
            kinds.append(SWAP_BUFFERS)
            # Swapping counts only mutates anything when two counts differ.
            if summary.counts_differ:
                kinds.append(SWAP_MAX_MESSAGES)
        if crashes:
            kinds.append(SWAP_CRASH_PROCESSES)
        kind = rng.choice(kinds) if kinds else SWAP_BUFFERS

    if kind in (SWAP_BUFFERS, SWAP_MAX_MESSAGES):
        if len(delivers) < 2:
            return None
        return Mutation(kind, *rng.sample(delivers, 2))
    if kind == SWAP_CRASH_PROCESSES:
        if len(crashes) >= 2:
            return Mutation(kind, *rng.sample(crashes, 2))
        if crashes and summary.retarget:
            return Mutation(kind, crashes[0], crashes[0],
                            rng.choice(summary.retarget))
        return None
    raise ValueError(f"unknown mutation kind {kind!r}")


def assert_same_schedules(params, seed, count):
    fast, ref = random.Random(seed), random.Random(seed)
    for _ in range(count):
        assert generate_random_schedule(params, fast) == reference_generate(params, ref)
        assert fast.getstate() == ref.getstate()


def test_randbelow_draws_as_choice_does():
    for n in [*range(1, 70), 2**16 - 1, 2**16, 2**16 + 1, 10**30]:
        fast, ref = random.Random(n), random.Random(n)
        for _ in range(50):
            assert randbelow(fast, n) == ref.randrange(n)
        assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("bench", [
    build_micro(), build_tpc(), build_raftlite(), build_raftlite(5, crash_quota=30),
], ids=["micro", "tpc", "raftlite", "raftlite5-quota30"])
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
def test_generator_draws_as_the_reference(bench, seed):
    assert_same_schedules(bench.gen_defaults, seed, 300)


@pytest.mark.parametrize("params", [
    GenParams(3, 50, 1, 5),                # randint(1, 1) still draws a bit
    GenParams(2, 30, 4, 0),                # a universe of two buffers
    GenParams(3, 40, 8, 3, (BufferId(0, 0), BufferId(1, 1))),  # of eight
    GenParams(4, 12, 3, 12),               # crash quota == max steps
    GenParams(2, 1, 1, 1),                 # a crash with no slot to restart in
    GenParams(3, 1, 2, 0),                 # one step, no crash
    GenParams(3, 2, 2, 2),                 # two steps, crash quota == max steps
    GenParams(2, 2, 1, 1),
    GenParams(6, 30, 5, 30),               # every slot a crash candidate
    build_raftlite(5, crash_quota=30).gen_defaults,
    GenParams(5, 64, 7, 40),
], ids=repr)
def test_generator_edge_cases_draw_as_the_reference(params):
    for seed in range(5):
        assert_same_schedules(params, seed, 200)


def test_random_parameters_draw_as_the_reference():
    rng = random.Random(2025)
    for seed in range(500):
        params = GenParams(
            num_processes=rng.randint(2, 6),
            max_steps=rng.randint(1, 60),
            max_messages_per_step=rng.randint(1, 9),
            crash_quota=rng.randint(0, 12),
        )
        assert_same_schedules(params, seed, 3)


def assert_same_draws(summary, kind, seed, count=40):
    fast, ref = random.Random(seed), random.Random(seed)
    for _ in range(count):
        assert draw_mutation(summary, kind, fast) == reference_draw(summary, kind, ref)
        assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("kind", [AUTO, *MUTATION_KINDS])
def test_draws_on_every_population_size_match_the_reference(kind):
    # sample() keeps a pool for up to 21 items and a set of picks above.
    for n in range(0, 30):
        for crashes in (0, 1, 2, 3, 20, 21, 22, 25):
            for retarget in ((), (0,), (0, 2, 3, 4)):
                summary = MutationSummary(tuple(range(5, 5 + n)), n % 3 != 0,
                                          tuple(range(100, 100 + crashes)), retarget)
                assert_same_draws(summary, kind, seed=n * 100 + crashes)


@pytest.mark.parametrize("bench", [
    build_micro(), build_tpc(), build_raftlite(5, crash_quota=1),
    build_raftlite(5, crash_quota=30),
], ids=["micro", "tpc", "raftlite5-quota1", "raftlite5-quota30"])
def test_draws_on_generated_schedules_match_the_reference(bench):
    # Crash quota 1 leaves most schedules with one crash to retarget.
    gen_rng = random.Random(31)
    for seed in range(300):
        s = generate_random_schedule(bench.gen_defaults, gen_rng)
        summary = mutation_summary(s, bench.sut.process_count)
        for kind in (AUTO, *MUTATION_KINDS):
            assert_same_draws(summary, kind, seed, count=5)
