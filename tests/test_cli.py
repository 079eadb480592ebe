import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schedfuzz import cli, fuzzer, stats
from schedfuzz.benchmarks import BENCHMARKS, make_benchmark
from schedfuzz.cli import main
from schedfuzz.fuzzer import CampaignConfig, fuzz_campaign
from schedfuzz.harness import RunMemo


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_micro_base(capsys):
    code, out = run_cli(
        capsys, "enumerate", "--bench", "micro",
        "--param", "micro.m=1", "--param", "micro.n=1", "--max-depth", "12",
    )
    assert code == 0
    data = json.loads(out)
    assert data["orderings"] == 10
    assert data["traceClasses"] == 8
    assert data["reachableStates"] == 10


def test_enumerate_dumps_fingerprints(tmp_path, capsys):
    dump = tmp_path / "states.txt"
    code, _ = run_cli(
        capsys, "enumerate", "--bench", "micro",
        "--param", "micro.m=1", "--param", "micro.n=1",
        "--max-depth", "6", "--dump-states", str(dump),
    )
    assert code == 0
    lines = dump.read_text().splitlines()
    assert len(lines) == 10
    assert all(len(l) == 32 for l in lines)  # 128-bit hex


def test_run_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "campaign"
    code, out = run_cli(
        capsys, "run", "--bench", "micro",
        "--param", "micro.m=1", "--param", "micro.n=2",
        "--notion", "model", "--budget", "150", "--seed", "3",
        "--out", str(out_dir),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["iterations"] <= 150
    csv_lines = (out_dir / "coverage.csv").read_text().splitlines()
    assert csv_lines[0] == "iteration,total_coverage,executions,model_states"
    assert len(csv_lines) == summary["iterations"] + 1
    assert (out_dir / "bugs.jsonl").exists()
    # one file per corpus entry, even where entries share an iteration
    index = [json.loads(l) for l in (out_dir / "corpus.jsonl").read_text().splitlines()]
    files = sorted((out_dir / "corpus").glob("*.json"))
    assert index and len(files) == len(index)
    assert sorted(Path(rec["file"]) for rec in index) == files
    assert len({rec["discovered_at"] for rec in index}) < len(index)
    assert {"entry_id", "parent", "discovered_at", "file"} == set(index[0])


def test_run_summary_counts_the_repeats(tmp_path, capsys, monkeypatch):
    runs, hits = [], []

    def counting(sut, schedule, *resume):
        runs.append(schedule)
        return execute(sut, schedule, *resume)

    def counting_find(memo, schedule):
        out = find(memo, schedule)
        if out is not None:
            hits.append(schedule)
        return out

    execute, find = fuzzer.execute_schedule, RunMemo.find
    monkeypatch.setattr(fuzzer, "execute_schedule", counting)
    monkeypatch.setattr(RunMemo, "find", counting_find)
    code, out = run_cli(capsys, "run", "--bench", "micro", "--budget", "300",
                        "--seed", "3", "--out", str(tmp_path / "o"))
    assert code == 0
    summary = json.loads(out)
    assert summary["repeats"] > 0 and hits
    # Every other iteration is executed or answered by the run memo.
    assert summary["iterations"] - summary["repeats"] == len(runs) + len(hits)


def test_run_summary_reports_the_unmatched_actions(tmp_path, capsys, monkeypatch):
    """A model that diverges from its implementation is reported, not only
    counted: here micro's model rejects every Execute, so the summary's
    count is the campaign's and it is not 0."""
    def diverging(name, params=None):
        bench = make_benchmark(name, params)
        lts = dataclasses.replace(bench.lts, actions={
            **bench.lts.actions, "Execute": lambda q, *args: None})
        return dataclasses.replace(bench, lts=lts)

    monkeypatch.setattr(cli, "make_benchmark", diverging)
    argv = ["--param", "micro.m=1", "--param", "micro.n=2", "--budget", "200", "--seed", "5"]
    code, out = run_cli(capsys, "run", "--bench", "micro", *argv, "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(out)
    config = CampaignConfig(benchmark=diverging("micro", {"micro.m": 1, "micro.n": 2}),
                            notion="model", budget=200, master_seed=5)
    assert summary["unmatched_actions"] == fuzz_campaign(config).unmatched_actions > 0

    monkeypatch.setattr(cli, "make_benchmark", make_benchmark)
    code, out = run_cli(capsys, "run", "--bench", "micro", *argv, "--out", str(tmp_path))
    assert code == 0 and json.loads(out)["unmatched_actions"] == 0


def test_replay_round_trips_a_bug_schedule(tmp_path, capsys):
    out_dir = tmp_path / "campaign"
    code, _ = run_cli(
        capsys, "run", "--bench", "micro",
        "--param", "micro.m=1", "--param", "micro.n=1",
        "--notion", "model", "--budget", "4000", "--seed", "1",
        "--stop-on-bug", "NullDeref", "--out", str(out_dir),
    )
    assert code == 0
    bug_lines = (out_dir / "bugs.jsonl").read_text().splitlines()
    assert bug_lines
    rec = json.loads(bug_lines[-1])
    assert "NullDeref" in rec["key"]

    export = tmp_path / "exec.json"
    code, out = run_cli(
        capsys, "replay", "--bench", "micro",
        "--param", "micro.m=1", "--param", "micro.n=1",
        "--schedule", rec["schedule_file"], "--json-out", str(export),
    )
    assert code == 0
    replay = json.loads(out)
    assert any("NullDeref" in v for v in replay["violations"])
    exported = json.loads(export.read_text())
    assert set(exported) == {"events", "skipped", "violations", "points"}
    assert any(e["kind"] == "deliver" for e in exported["events"])


def test_compare_writes_stats_and_timelines(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    code, out = run_cli(
        capsys, "compare", "--bench", "micro",
        "--param", "micro.m=1", "--param", "micro.n=1",
        "--notions", "model,random", "--runs", "2", "--budget", "50",
        "--seed", "9", "--out", str(out_dir),
    )
    assert code == 0
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["notions"] == ["model", "random"]
    assert len(stats["final_states"]["model"]) == 2
    assert "model|random" in stats["pairwise"]
    for notion in ("model", "random"):
        for run in (0, 1):
            assert (out_dir / f"{notion}_run{run}.csv").exists()


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bench": "micro",
        "budget": 40,
        "seed": 2,
        "out": str(tmp_path / "from_config"),
        "params": {"micro.m": 1, "micro.n": 1},
    }))
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "from_config").is_dir()
    assert json.loads(out)["iterations"] <= 40

    code, out = run_cli(
        capsys, "run", "--config", str(cfg), "--budget", "10",
        "--out", str(tmp_path / "flag_wins"),
    )
    assert code == 0
    assert json.loads(out)["iterations"] <= 10
    assert (tmp_path / "flag_wins").is_dir()


def test_unknown_notion_is_reported(tmp_path, capsys):
    code = main([
        "compare", "--bench", "micro", "--notions", "model,psychic",
        "--runs", "2", "--budget", "10", "--out", str(tmp_path / "x"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "psychic" in err


@pytest.mark.parametrize("notions", ["model,model", ",", "model,,random", "trace,"])
def test_compare_rejects_an_empty_or_repeated_notion_list(tmp_path, capsys,
                                                          monkeypatch, notions):
    def fail(*_):
        raise AssertionError("a campaign ran despite a bad notion list")

    monkeypatch.setattr(stats, "fuzz_campaign", fail)
    out_dir = tmp_path / "o"
    code = main(["compare", "--bench", "micro", "--notions", notions,
                 "--runs", "2", "--budget", "20", "--out", str(out_dir)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert not list(out_dir.glob("*.csv")) and not (out_dir / "stats.json").exists()


BAD_PARAMS = [
    ("tpc", "tpc.requets=1", "tpc.requets"),      # unknown key
    ("tpc", "raft.procs=5", "raft.procs"),         # key of another benchmark
    ("micro", "micro.bug=ture", "micro.bug"),      # malformed bool
    ("raftlite", "raft.procs=five", "raft.procs"), # malformed int
    # Values above a bound, rejected before anything is built or allocated.
    ("micro", "micro.m=99999999999999999999", "micro.m"),
    ("micro", "micro.max_steps=99999999999999999999", "micro.max_steps"),
    ("tpc", "tpc.vars=99999999999999999999", "tpc.vars"),
    ("tpc", "tpc.rm=17", "tpc.rm"),
    ("raftlite", "raft.procs=999999", "raft.procs"),
    # Values below a bound, which would otherwise reach the schedule generator
    # only after --out is made (or, on replay, read as an over-quota schedule).
    ("raftlite", "raft.crash_quota=-1", "raft.crash_quota"),
    ("micro", "micro.max_steps=0", "micro.max_steps"),
    ("tpc", "tpc.max_steps=0", "tpc.max_steps"),
]
COMMAND_FLAGS = {
    "run": ["--budget", "5"],
    "compare": ["--runs", "2", "--budget", "5"],
    "enumerate": [],
    "replay": [],
}


def _no_campaigns(monkeypatch):
    def fail(*_):
        raise AssertionError("a campaign ran despite a bad parameter")

    monkeypatch.setattr(cli, "fuzz_campaign", fail)
    monkeypatch.setattr(cli, "compare_strategies", fail)


def _no_builds(monkeypatch):
    """Patch every builder to fail: a rejected parameter must reach none."""
    def fail(**_):
        raise AssertionError("a benchmark was built despite a bad parameter")

    for name, (_, keys) in list(BENCHMARKS.items()):
        monkeypatch.setitem(BENCHMARKS, name, (fail, keys))


def _command_argv(command, tmp_path):
    argv = [command, *COMMAND_FLAGS[command]]
    if command in ("run", "compare"):
        argv += ["--out", str(tmp_path / "out")]
    if command == "replay":
        argv += ["--schedule", str(tmp_path / "missing.json")]
    return argv


def _assert_one_error_line(capsys, code, key):
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert repr(key) in err[0]


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
@pytest.mark.parametrize("bench, param, key", BAD_PARAMS)
def test_bad_param_is_one_error_line(tmp_path, capsys, monkeypatch,
                                     command, bench, param, key):
    _no_campaigns(monkeypatch)
    _no_builds(monkeypatch)
    argv = _command_argv(command, tmp_path) + ["--bench", bench, "--param", param]
    _assert_one_error_line(capsys, main(argv), key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
@pytest.mark.parametrize("bench, param, key", BAD_PARAMS)
def test_bad_config_param_is_one_error_line(tmp_path, capsys, monkeypatch,
                                            command, bench, param, key):
    _no_campaigns(monkeypatch)
    _no_builds(monkeypatch)
    cfg = tmp_path / "cfg.json"
    k, v = param.split("=")
    cfg.write_text(json.dumps({"bench": bench, "params": {k: v}}))
    argv = _command_argv(command, tmp_path) + ["--config", str(cfg)]
    _assert_one_error_line(capsys, main(argv), key)



BAD_SETTINGS = [
    ("run", ["--budget-seconds", "-1"], "budget seconds"),
    ("run", ["--budget-seconds", "0"], "budget seconds"),
    ("run", ["--energy", "-1"], "energy"),
    ("compare", ["--energy", "-1"], "energy"),
    ("compare", ["--runs", "1"], "at least 2 runs"),
    ("compare", ["--runs", "1001"], "at most 1000"),
    ("run", ["--corpus-size", "10001"], "corpus size 1..10000"),
    ("compare", ["--corpus-size", "10001"], "corpus size 1..10000"),
    ("run", ["--corpus-size", "99999999999999999999"], "corpus size 1..10000"),
    # "" is in every bug key, yet falsy: it never stopped a campaign.
    ("run", ["--stop-on-bug", ""], "stop on bug"),
    ("compare", ["--stop-on-bug", ""], "stop on bug"),
    # An empty path is the current directory: the outputs landed there.
    ("run", ["--out", ""], "--out: needs a non-empty path"),
    ("compare", ["--out", ""], "--out: needs a non-empty path"),
    # Checked before the orderings are enumerated, under the flag's own name.
    ("enumerate", ["--max-depth", "-1", "--dump-states", "states.txt"], "--max-depth"),
]


@pytest.mark.parametrize("command, flags, words", BAD_SETTINGS)
def test_bad_campaign_setting_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                command, flags, words):
    def fail(*_):
        raise AssertionError("a campaign ran despite a bad setting")

    monkeypatch.setattr(cli, "fuzz_campaign", fail)
    monkeypatch.setattr(stats, "fuzz_campaign", fail)
    monkeypatch.chdir(tmp_path)
    argv = _command_argv(command, tmp_path) + ["--bench", "micro", *flags]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
    assert not list(tmp_path.iterdir())


def test_a_negative_snapshot_threshold_is_one_error_line(tmp_path, capsys, monkeypatch):
    _no_campaigns(monkeypatch)
    argv = _command_argv("run", tmp_path) + [
        "--bench", "raftlite", "--param", "raft.snapshot_threshold=-1"]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "snapshot_threshold" in err[0]
    assert not (tmp_path / "out").exists()


BAD_CONFIGS = [
    ("run", {"budgett": 3, "corpus_size": 2}, "'budgett', 'corpus_size'"),
    ("run", {"runs": 3}, "'runs'"),               # a flag of another command
    ("run", {"param": ["micro.m=1"]}, "'param'"),  # "params" is the config key
    ("compare", {"config": "other.json"}, "'config'"),
    ("run", {"params": [1]}, "'params'"),
    ("run", {"budget": 2.5}, "'budget'"),
    ("run", {"budget": True}, "'budget'"),
    ("compare", {"runs": "3"}, "'runs'"),
    ("run", {"budget-seconds": "5"}, "'budget-seconds'"),
    ("run", {"no-track-states": 1}, "'no-track-states'"),
    ("run", {"stop-on-bug": 1}, "'stop-on-bug'"),
    ("enumerate", {"bench": ["micro"]}, "'bench'"),
    ("enumerate", {"max-depth": None}, "'max-depth'"),
    ("run", {"out": ""}, "config key 'out' needs a non-empty path"),
]


@pytest.mark.parametrize("command, config, words", BAD_CONFIGS)
def test_bad_config_file_is_one_error_line(tmp_path, capsys, monkeypatch,
                                           command, config, words):
    _no_campaigns(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = _command_argv(command, tmp_path) + ["--bench", "micro", "--config", str(cfg)]
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
    assert not (tmp_path / "out").exists()


# json.dumps cannot build this; json.loads raises RecursionError on it.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, flag, out_flag", [
    ("run", "--config", "--out"),
    ("replay", "--schedule", "--json-out"),
])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, monkeypatch,
                                              command, flag, out_flag):
    _no_campaigns(monkeypatch)
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    out = tmp_path / "out"
    code = main([command, "--bench", "micro", flag, str(deep), out_flag, str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: malformed") and "recursion" in err[0]
    assert not out.exists()


def test_config_values_of_their_flags_json_types_reach_the_campaign(tmp_path, capsys,
                                                                     monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "fuzz_campaign",
                        lambda config: configs.append(config) or fuzzer.CampaignResult("model"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "bench": "micro", "notion": "trace", "budget": 7, "seed": 3, "corpus-size": 2,
        "energy": 1, "budget-seconds": 9, "no-track-states": True,
        "stop-on-bug": "Ghost", "out": str(tmp_path / "o"), "params": {"micro.m": 1},
    }))
    code, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0 and (tmp_path / "o").is_dir()
    (c,) = configs
    assert (c.notion, c.budget, c.master_seed, c.corpus_size, c.energy_per_item) == (
        "trace", 7, 3, 2, 1)
    assert c.budget_seconds == 9.0 and isinstance(c.budget_seconds, float)
    assert (c.track_states, c.stop_on_bug, c.benchmark.sut.m) == (False, "Ghost", 1)


def test_config_flag_without_a_path_is_reported(capsys):
    code = main(["run", "--bench", "micro", "--config"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "--config" in err[0]


@pytest.mark.parametrize("spelling", ["--config PATH", "--config=PATH"])
def test_config_path_is_read_in_either_spelling(tmp_path, capsys, monkeypatch,
                                                 spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"micro.m": 1, "micro.n": 1}}))
    flag = ["--config", str(cfg)] if spelling == "--config PATH" else [f"--config={cfg}"]
    benches, real = [], cli.fuzz_campaign

    def spy(config):
        benches.append(config.benchmark)
        return real(config)

    monkeypatch.setattr(cli, "fuzz_campaign", spy)
    code, _ = run_cli(capsys, "run", "--bench", "micro", *flag, "--budget", "5",
                      "--out", str(tmp_path / "out"))
    assert code == 0
    assert [(b.sut.m, b.sut.n) for b in benches] == [(1, 1)]


def test_empty_config_path_is_reported(capsys):
    code = main(["run", "--bench", "micro", "--config="])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "--config" in err[0]


# Per subcommand: a flag value argparse cannot convert, and a flag it needs
# but does not get.
ARGPARSE_ERRORS = [
    ([], "required: command"),
    (["bogus"], "invalid choice: 'bogus'"),
    (["run", "--bench", "micro", "--budget", "x", "--out", "o"], "invalid int value: 'x'"),
    (["run", "--bench", "micro"], "required: --out"),
    (["compare", "--bench", "micro", "--runs", "x", "--out", "o"], "invalid int value: 'x'"),
    (["compare", "--bench", "micro"], "required: --out"),
    (["enumerate", "--bench", "micro", "--max-depth", "x"], "invalid int value: 'x'"),
    (["enumerate", "--bench", "micro", "--dump-states"], "expected one argument"),
    (["replay", "--bench", "nosuch", "--schedule", "s.json"], "invalid choice: 'nosuch'"),
    (["replay", "--bench", "micro"], "required: --schedule"),
]


@pytest.mark.parametrize("argv, words", ARGPARSE_ERRORS)
def test_argparse_errors_are_one_error_line(tmp_path, capsys, monkeypatch, argv, words):
    _no_campaigns(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    cap = capsys.readouterr()
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [[], *([c] for c in COMMAND_FLAGS)])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schedfuzz")


def _replay(tmp_path, capsys, bench, steps):
    sched = tmp_path / "schedule.json"
    sched.write_text(json.dumps({"seed": 0, "steps": steps}))
    code = main(["replay", "--bench", bench, "--schedule", str(sched)])
    return code, capsys.readouterr()


def test_replay_rejects_a_process_out_of_range(tmp_path, capsys):
    code, cap = _replay(tmp_path, capsys, "raftlite",
                        [{"from": 0, "to": 9, "op": "restart"}])
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error:") and "0->9" in err[0]


def test_replay_rejects_a_crash_schedule_on_micro(tmp_path, capsys):
    code, cap = _replay(tmp_path, capsys, "micro", [
        {"from": 0, "to": 1, "op": "crash"},
        {"from": 0, "to": 1, "op": "restart"},
    ])
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error:")
    assert "does not tolerate crash schedules" in err[0]


def test_replay_rejects_a_schedule_over_max_steps(tmp_path, capsys):
    code, cap = _replay(tmp_path, capsys, "micro",
                        [{"from": 1, "to": 0, "op": "deliver"}] * 61)
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error:") and "max_steps 60" in err[0]


def test_replay_rejects_a_deliver_count_over_the_limit(tmp_path, capsys):
    code, cap = _replay(tmp_path, capsys, "micro",
                        [{"from": 1, "to": 0, "op": "deliver", "n": 2}])
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error:") and "deliver count 2" in err[0]


def test_enumerate_bounds_the_model_bfs_by_max_depth(capsys):
    # raftlite's terms are unbounded: an unbounded BFS never finished.
    code, out = run_cli(capsys, "enumerate", "--bench", "raftlite", "--max-depth", "2")
    assert code == 0
    assert json.loads(out)["reachableStates"] == 28


@pytest.mark.parametrize("name, limit, words", [
    ("enumerate_orderings", {"max_orderings": 5}, "after 5 orderings"),
    ("bfs_reachable", {"max_states": 3}, "after 4 states"),
])
def test_enumerate_past_its_limit_is_one_error_line(capsys, monkeypatch, name, limit, words):
    """micro(1, 1) has 10 orderings and 10 states: either limit stops it."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **kw: real(*a, **kw, **limit))
    code = main(["enumerate", "--bench", "micro", "--param", "micro.m=1",
                 "--param", "micro.n=1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and words in err[0]


BAD_SCHEDULE_STEPS = [
    ({"from": 1, "to": 0, "op": "deliver", "count": 2}, "from, to, op and n"),
    ({"from": 0.5, "to": 0, "op": "deliver"}, "JSON integers"),
    ({"from": "1", "to": 0, "op": "deliver"}, "JSON integers"),
    ({"from": 1, "to": 0, "op": "deliver", "n": True}, "JSON integers"),
    ({"from": 1, "to": 0, "op": "deliver", "n": 1.9}, "JSON integers"),
    ({"from": 1, "op": "deliver"}, "'to'"),
    ([1, 0, "deliver"], "from, to, op and n"),
]


@pytest.mark.parametrize("step, words", BAD_SCHEDULE_STEPS)
def test_replay_rejects_a_malformed_step(tmp_path, capsys, step, words):
    code, cap = _replay(tmp_path, capsys, "micro", [step])
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error: step 0") and words in err[0]


def test_replay_rejects_a_seed_that_is_no_integer(tmp_path, capsys):
    sched = tmp_path / "schedule.json"
    sched.write_text('{"seed": 1.5, "steps": [{"from": 1, "to": 0, "op": "deliver"}]}')
    code = main(["replay", "--bench", "micro", "--schedule", str(sched)])
    cap = capsys.readouterr()
    err = cap.err.splitlines()
    assert code == 2 and not cap.out
    assert len(err) == 1 and err[0].startswith("error: malformed schedule seed")


def test_python_dash_m_exits_with_the_code_main_returns(tmp_path):
    """``python -m schedfuzz`` as the shell starts it: a good run exits 0, and
    a bad parameter exits 2 with one error line and no output directory."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "schedfuzz", "run", "--bench", "micro",
                               "--budget", "5", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    ok = run("--out", str(tmp_path / "ok"))
    assert ok.returncode == 0, ok.stderr
    bad = run("--param", "micro.m=0", "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    err = bad.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "bad").exists()
