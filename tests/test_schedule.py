import hashlib
import random

import pytest

from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
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
    parse_schedule,
    serialize_schedule,
    validate_schedule,
)


def test_two_process_universe_has_two_ordered_buffers():
    params = GenParams(2, 1, 1, 0)
    assert set(params.buffer_universe()) == {BufferId(0, 1), BufferId(1, 0)}
    for seed in range(20):
        s = generate_random_schedule(params, random.Random(seed))
        assert len(s.steps) == 1
        step = s.steps[0]
        assert step.op == DELIVER and step.count == 1
        assert step.buffer in (BufferId(0, 1), BufferId(1, 0))


def test_generated_schedule_shape_matches_params():
    params = GenParams(3, 100, 5, 10)
    s = generate_random_schedule(params, random.Random(42))
    assert len(s.steps) == 100
    crashes = [st for st in s.steps if st.op == CRASH]
    assert len(crashes) <= 10
    for st in s.steps:
        if st.op == DELIVER:
            assert 1 <= st.count <= 5
    validate_schedule(s, params)


def test_generation_is_deterministic():
    params = GenParams(3, 100, 5, 10)
    a = generate_random_schedule(params, random.Random(7))
    b = generate_random_schedule(params, random.Random(7))
    assert a == b
    assert serialize_schedule(a) == serialize_schedule(b)


def test_schedule_hash_is_the_dataclass_hash_computed_once():
    params = GenParams(3, 100, 5, 10)
    rng = random.Random(5)
    for _ in range(50):
        s = generate_random_schedule(params, rng)
        assert "_hash" not in vars(s)
        assert hash(s) == hash((s.steps, s.seed))
        # The first hash stores the value that later ones read.
        assert vars(s)["_hash"] == hash(s)
        copy = Schedule(tuple(s.steps), s.seed)
        assert copy == s and hash(copy) == hash(s) and {s: 1}[copy] == 1


def test_generated_schedules_always_valid():
    rng = random.Random(2024)
    for _ in range(1000):
        params = GenParams(
            num_processes=rng.randint(2, 6),
            max_steps=rng.randint(1, 60),
            max_messages_per_step=rng.randint(1, 5),
            crash_quota=rng.randint(0, 10),
        )
        s = generate_random_schedule(params, random.Random(rng.getrandbits(32)))
        assert len(s.steps) == params.max_steps
        validate_schedule(s, params)


def test_invalid_params_rejected():
    rng = random.Random(0)
    with pytest.raises(ScheduleError):
        generate_random_schedule(GenParams(1, 10, 1, 0), rng)
    with pytest.raises(ScheduleError):
        generate_random_schedule(GenParams(2, 0, 1, 0), rng)
    with pytest.raises(ScheduleError):
        generate_random_schedule(GenParams(2, 10, 0, 0), rng)


def test_round_trip_empty_schedule():
    s = Schedule(steps=(), seed=99)
    assert parse_schedule(serialize_schedule(s)) == s


def test_round_trip_generated_schedules():
    rng = random.Random(5)
    for _ in range(50):
        params = GenParams(4, 40, 5, 6)
        s = generate_random_schedule(params, random.Random(rng.getrandbits(32)))
        assert parse_schedule(serialize_schedule(s)) == s


def test_truncated_json_is_a_parse_error():
    data = serialize_schedule(
        Schedule((ScheduleStep(BufferId(0, 1), DELIVER, 2),), seed=1)
    )
    with pytest.raises(ScheduleError):
        parse_schedule(data[: len(data) // 2])


def test_malformed_step_reports_index():
    with pytest.raises(ScheduleError, match="step 1"):
        parse_schedule(
            b'{"seed":0,"steps":[{"from":0,"to":1,"op":"deliver","n":1},'
            b'{"from":0,"to":1,"op":"teleport"}]}'
        )


@pytest.mark.parametrize("data", [
    b'{"seed":0}', b'{"seed":0,"steps":5}', b'[1]',
    b'{"seed":null,"steps":[]}', b'{"seed":"x","steps":[]}',
])
def test_malformed_top_level_is_a_parse_error(data):
    with pytest.raises(ScheduleError, match="malformed schedule"):
        parse_schedule(data)


def test_deeply_nested_json_is_a_parse_error():
    # json.dumps cannot build this; json.loads raises RecursionError on it.
    with pytest.raises(ScheduleError, match="malformed schedule JSON"):
        parse_schedule(b"[" * 100_000 + b"]" * 100_000)


def test_alternation_invariant_enforced():
    crash = ScheduleStep(BufferId(0, 1), CRASH)
    restart = ScheduleStep(BufferId(0, 1), RESTART)
    validate_schedule(Schedule((crash, restart)))
    validate_schedule(Schedule((crash,)))  # a crash needs no restart
    validate_schedule(Schedule((restart,)))  # bare restart is a harness no-op
    with pytest.raises(ScheduleError):
        validate_schedule(Schedule((crash, restart, restart)))


@pytest.mark.parametrize("data", [
    b'{"seed":0,"steps":[{"from":0,"to":1,"op":"deliver","count":2}]}',
    b'{"seed":0,"steps":[{"from":0.5,"to":1,"op":"deliver"}]}',
    b'{"seed":0,"steps":[{"from":"0","to":1,"op":"deliver"}]}',
    b'{"seed":0,"steps":[{"from":0,"to":1,"op":"deliver","n":true}]}',
    b'{"seed":0,"steps":[{"from":0,"to":1,"op":"deliver","n":1.9}]}',
    b'{"seed":0,"steps":[{"from":0,"to":1,"op":"crash","n":false}]}',
    b'{"seed":0,"steps":[{"from":0,"to":true,"op":"restart"}]}',
    b'{"seed":0,"steps":[{"from":0,"op":"restart"}]}',
    b'{"seed":0,"steps":["deliver"]}',
    b'{"seed":1.5,"steps":[]}',
    b'{"seed":true,"steps":[]}',
    b'{"seed":"0","steps":[]}',
])
def test_schedule_fields_are_parsed_strictly(data):
    with pytest.raises(ScheduleError):
        parse_schedule(data)


@pytest.mark.parametrize("bench", [
    build_micro(), build_tpc(), build_raftlite(5, crash_quota=30),
], ids=lambda b: b.name)
def test_every_written_schedule_parses_back(bench):
    rng = random.Random(12)
    for _ in range(200):
        s = generate_random_schedule(bench.gen_defaults, rng)
        assert parse_schedule(serialize_schedule(s)) == s
    big = Schedule((ScheduleStep(BufferId(0, 1), DELIVER, 7),), seed=2**64 - 1)
    assert parse_schedule(serialize_schedule(big)) == big


# sha256 over 500 generated schedules per benchmark and the final rng state.
# Any change to the draws the generator makes, or to the order it makes them
# in, shows here.
GENERATED_PINS = {
    "micro": "f7dfc44ff7f7c0ed8edaf1e5fbca99d86e2dafb4f4bd4bb15b80dacd46303581",
    "tpc": "610c48c0e58d7a60973f81c45a56c12a3172e36665079b698cc13329ade7fc60",
    "raftlite": "e6ed9ebf9990cba62d142de4de7566cefbb54a404324dca6a606ca14081e19c5",
}


@pytest.mark.parametrize("bench", [
    build_micro(), build_tpc(), build_raftlite(crash_quota=30),
], ids=lambda b: b.name)
def test_generated_schedules_are_pinned(bench):
    rng = random.Random(9)
    schedules = [generate_random_schedule(bench.gen_defaults, rng) for _ in range(500)]
    digest = hashlib.sha256(repr((schedules, rng.getstate())).encode()).hexdigest()
    assert digest == GENERATED_PINS[bench.name]
