"""A deterministic fuzzer of the command line.

Each case is ``run``, ``compare`` or ``replay`` with ``--budget 1``, given
one to three bad or odd inputs: a flag value that is negative, zero, one
past a bound, far past a bound, non-numeric, empty or non-ASCII; a flag
given twice; a ``--param`` key or value that is wrong; or a config file that
is malformed.  ``cli.main`` runs in-process, and its answer must be exit 0,
or exit 2 with exactly one ``error:`` line, no traceback and no ``--out``
directory.  Far-past values go only to keys and flags whose checks reject
them or that allocate nothing by them: ``--corpus-size`` and ``--runs``
past their bounds, ``--seed``, ``--energy`` and ``--budget-seconds``.
"""

import json
import random

import pytest

from schedfuzz import cli
from schedfuzz.benchmarks import BENCHMARKS, make_benchmark
from schedfuzz.schedule import generate_random_schedule, serialize_schedule

CASES = 150
HUGE = "99999999999999999999"
ODD = ["-1", "0", "x", "", "1.5", "é", "-0", " 1"]
# Per command, each flag the fuzzer may set and the values it draws from.
FLAGS = {
    "run": {
        "--budget": ODD + ["1"],
        "--seed": ODD + [HUGE, "-" + HUGE],
        "--corpus-size": ODD + ["1", "2", "10001", HUGE],
        "--energy": ODD + [HUGE],
        "--notion": ["model", "trace", "line", "random", "x", ""],
        "--budget-seconds": ODD + ["nan", "inf", "-inf", HUGE],
        "--stop-on-bug": ["", "x", "é", "Assertion"],
        "--bench": ["x", "", "micro"],
    },
    "compare": {
        "--budget": ODD + ["1"],
        "--runs": ODD + ["1", "2", "3", "1001", HUGE],
        "--notions": ["model", "model,model", ",", "x,model", "", "random,line", "trace,"],
        "--energy": ODD + [HUGE],
        "--corpus-size": ODD + ["1", "10001", HUGE],
        "--stop-on-bug": ["", "x"],
        "--bench": ["x", "", "tpc"],
    },
    "replay": {
        "--bench": ["x", "", "micro", "raftlite"],
        "--schedule": ["missing.json", "bad.json", "dir", ""],
    },
}
CONFIGS = ["", "{", "[]", '"é"', '{"params": []}', '{"params": {"micro.m": -1}}',
           '{"budget": -1}', '{"budget": "1"}', '{"budget": 1.5}', '{"bogus": 1}',
           '{"seed": 3}', '{"params": {}}', '{"params": {"tpc.rm": 0}}', '{"runs": 1}']


def _param_values(bounds):
    values = ["-1", "0", "1", HUGE, "-" + HUGE, "x", "", "é", "1.5", "true"]
    if bounds:
        values += [str(bounds[0] - 1), str(bounds[1] + 1)]
    return values


def _case(rng, k, tmp_path):
    """One fuzzed argv, and the --out path it names or None."""
    command = rng.choice(list(FLAGS))
    bench = rng.choice(list(BENCHMARKS))
    argv = [command, "--bench", bench]
    out = None
    if command == "replay":
        argv += ["--schedule", "good-" + bench + ".json"]
    else:
        out = tmp_path / f"out{k}"
        argv += ["--budget", "1", "--out", str(out)]
        if command == "compare":
            argv += ["--runs", "2", "--notions", "model,random"]
    for _ in range(rng.randint(1, 3)):
        what = rng.randrange(4)
        if what == 0:  # a flag value, later ones winning
            flag, values = rng.choice(list(FLAGS[command].items()))
            argv += [flag, rng.choice(values)]
        elif what == 1:  # a parameter of this benchmark or another
            _, keys = BENCHMARKS[rng.choice(list(BENCHMARKS))]
            key, (_, _, bounds) = rng.choice(list(keys.items()))
            argv += ["--param", rng.choice([f"{key}={rng.choice(_param_values(bounds))}",
                                            key, "=", f"{key}=1={key}"])]
        elif what == 2:  # a config file
            argv += ["--config", rng.choice(["cfg.json", "missing.json", "dir", ""])]
        else:  # a flag given twice
            i = rng.randrange(1, len(argv) - 1, 2)
            argv += argv[i:i + 2]
    return argv, out


def test_fuzzed_argv_exits_0_or_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "bad.json").write_text('{"steps": [{"from": 0}]}')
    for name in BENCHMARKS:
        bench = make_benchmark(name)
        schedule = generate_random_schedule(bench.gen_defaults, random.Random(1))
        (tmp_path / f"good-{name}.json").write_bytes(serialize_schedule(schedule))
    rng = random.Random(2024)
    codes = []
    for k in range(CASES):
        (tmp_path / "cfg.json").write_text(rng.choice(CONFIGS))
        argv, out = _case(rng, k, tmp_path)
        code = cli.main(argv)
        cap = capsys.readouterr()
        assert "Traceback" not in cap.err, argv
        if code != 0:
            err = cap.err.splitlines()
            assert code == 2, argv
            assert len(err) == 1 and err[0].startswith("error:"), (argv, err)
            assert out is None or not out.exists(), argv
        codes.append(code)
    # Both answers are exercised.
    assert 20 < codes.count(2) < CASES - 20, codes.count(2)
