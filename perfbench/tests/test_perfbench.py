"""Tests of the benchmark itself: tracing leaves no trace, digests agree.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from schedfuzz.benchmarks import make_benchmark  # noqa: E402
from spec import WORKLOADS  # noqa: E402
from tracing import Tracer, layer_patches  # noqa: E402
from workloads import run_unit  # noqa: E402

_MISSING = object()
SMALL = {
    "raft-bug": dataclasses.replace(WORKLOADS["raft-bug"], runs=2),
    "tpc-trace": dataclasses.replace(WORKLOADS["tpc-trace"], budget=300),
    "micro-compare": dataclasses.replace(WORKLOADS["micro-compare"], runs=2, budget=150),
}


def _bound_attrs(sut_class) -> dict:
    return {(owner, attr): vars(owner).get(attr, _MISSING)
            for owner, attr, _ in layer_patches(Tracer(), sut_class)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_unit_restores_originals_and_keeps_the_digest(name):
    wl = SMALL[name]
    plain = run_unit(wl, seed=3)
    before = _bound_attrs(type(make_benchmark(wl.bench, wl.params).sut))
    traced = run_unit(wl, seed=3, traced=True)
    after = {key: vars(key[0]).get(key[1], _MISSING) for key in before}
    assert all(after[key] is before[key] for key in before)
    assert plain.problems == [] and traced.problems == []
    assert traced.campaign_digests == plain.campaign_digests
    assert traced.coverage_items == plain.coverage_items
    assert traced.layers["stats.campaigns"] == wl.campaigns
    assert traced.layers["harness.execute_us"] > traced.layers["harness.self_us"] > 0


def test_layers_a_workload_bypasses_read_zero():
    raft = run_unit(SMALL["raft-bug"], seed=3, traced=True).layers
    tpc = run_unit(SMALL["tpc-trace"], seed=3, traced=True).layers
    assert raft["coverage.trace_fp_us"] == 0 and raft["coverage.state_items_us"] > 0
    assert raft["fingerprint.encode_calls_per_exec"] == 0
    assert tpc["coverage.trace_fp_us"] > 0
    assert tpc["fingerprint.encode_calls_per_exec"] > 0
    for name in ("mapper.map_us", "model.run_us", "coverage.state_items_us"):
        assert tpc[name] == 0, name


def _run(args, cwd, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


def test_non_default_seed_runs_clean_traced_and_untraced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}
    outputs = {}
    for trace, hash_seed in (("0", "1"), ("1", "2")):
        proc = _run(["--workload", "tpc-trace", "--seed", "7", "--seconds", "0",
                     "--trace", trace], ROOT, hash_seed)
        assert proc.returncode == 0, proc.stderr
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        wanted = spec["per_layer" if trace == "1" else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        outputs[trace] = report["report"]
    tpc = WORKLOADS["tpc-trace"]
    assert outputs["0"]["master_seeds"] == tpc.master_seeds(7) != tpc.master_seeds(1)
    # Different hash seeds, traced and untraced: the same campaign outputs.
    assert outputs["0"]["digest"] == outputs["1"]["digest"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "micro-compare", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
