import json
from pathlib import Path

import pytest

from schedfuzz import cli
from schedfuzz.cli import main


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


BAD_PARAMS = [
    ("tpc", "tpc.requets=1", "tpc.requets"),      # unknown key
    ("tpc", "raft.procs=5", "raft.procs"),         # key of another benchmark
    ("micro", "micro.bug=ture", "micro.bug"),      # malformed bool
    ("raftlite", "raft.procs=five", "raft.procs"), # malformed int
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
    argv = _command_argv(command, tmp_path) + ["--bench", bench, "--param", param]
    _assert_one_error_line(capsys, main(argv), key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
@pytest.mark.parametrize("bench, param, key", BAD_PARAMS)
def test_bad_config_param_is_one_error_line(tmp_path, capsys, monkeypatch,
                                            command, bench, param, key):
    _no_campaigns(monkeypatch)
    cfg = tmp_path / "cfg.json"
    k, v = param.split("=")
    cfg.write_text(json.dumps({"bench": bench, "params": {k: v}}))
    argv = _command_argv(command, tmp_path) + ["--config", str(cfg)]
    _assert_one_error_line(capsys, main(argv), key)


def test_config_flag_without_a_path_is_reported(capsys):
    code = main(["run", "--bench", "micro", "--config"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "--config" in err[0]
