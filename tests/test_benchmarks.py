import pytest

from schedfuzz.benchmarks import BENCHMARKS, make_benchmark


def test_defaults_without_params():
    micro = make_benchmark("micro")
    assert (micro.sut.m, micro.sut.n, micro.sut.bug_enabled) == (2, 5, True)
    assert micro.gen_defaults.max_steps == 60

    tpc = make_benchmark("tpc")
    assert (tpc.sut.rm_count, tpc.sut.var_count, tpc.sut.request_count) == (3, 2, 5)
    assert tpc.gen_defaults.max_steps == 100

    raft = make_benchmark("raftlite")
    sut = raft.sut
    assert (sut.process_count, sut.request_count, sut.quorum_bug,
            sut.snapshot_threshold) == (3, 2, False, 8)
    assert (raft.gen_defaults.max_steps, raft.gen_defaults.crash_quota) == (100, 10)


@pytest.mark.parametrize("value, expected", [
    (True, True), (False, False), ("1", True), ("0", False),
    ("TRUE", True), ("false", False), ("Yes", True), ("no", False),
    ("on", True), ("OFF", False),
])
def test_bool_params_accept_python_bools_and_spellings(value, expected):
    assert make_benchmark("micro", {"micro.bug": value}).sut.bug_enabled is expected


def test_given_params_reach_the_builder():
    bench = make_benchmark("raftlite", {"raft.procs": 5, "raft.crash_quota": "3"})
    assert bench.sut.process_count == 5
    assert bench.gen_defaults.crash_quota == 3


@pytest.mark.parametrize("name, params, key", [
    ("tpc", {"tpc.requets": "1"}, "tpc.requets"),
    ("tpc", {"raft.procs": "5"}, "raft.procs"),
    ("micro", {"micro.bug": "ture"}, "micro.bug"),
    ("raftlite", {"raft.procs": "five"}, "raft.procs"),
    ("raftlite", {"raft.quorum_bug": 2}, "raft.quorum_bug"),
])
def test_bad_params_name_the_key_and_list_the_known_keys(name, params, key):
    with pytest.raises(ValueError) as e:
        make_benchmark(name, params)
    msg = str(e.value)
    assert repr(key) in msg
    _, known = BENCHMARKS[name]
    assert all(k in msg for k in known)


def test_unknown_benchmark_is_rejected():
    with pytest.raises(ValueError, match="paxos"):
        make_benchmark("paxos")


def test_each_int_parameter_builds_at_its_bound_and_not_above():
    bounded = 0
    for name, (_, keys) in BENCHMARKS.items():
        for key, (_, convert, bound) in keys.items():
            if bound is None:
                assert convert is not int, key
                continue
            bounded += 1
            make_benchmark(name, {key: bound})
            with pytest.raises(ValueError, match=f"{key!r} is above its bound {bound}"):
                make_benchmark(name, {key: str(bound + 1)})
    assert bounded == 12
