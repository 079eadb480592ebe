import dataclasses
import json
import random

import pytest

from schedfuzz.benchmarks import build_tpc
from schedfuzz.benchmarks.tpc import ABORTED, COMMITTED, TpcBench
from schedfuzz.cli import main
from schedfuzz.coverage import enumerate_orderings
from schedfuzz.fuzzer import CampaignConfig, CampaignConfigError, fuzz_campaign
from schedfuzz.harness import clone_hs, execute_schedule, init_state, stepper
from schedfuzz.mapper import map_events
from schedfuzz.model import run_actions
from schedfuzz.schedule import GenParams, generate_random_schedule


def test_paper_configuration_builds():
    bench = build_tpc(3, 2, 5)
    assert bench.sut.process_count == 4  # TM + 3 RMs
    assert bench.gen_defaults.crash_quota == 0


def test_crash_schedules_rejected_for_tpc():
    bench = build_tpc(3, 2, 5)
    gen = GenParams(
        num_processes=4, max_steps=10, max_messages_per_step=2, crash_quota=2,
        extra_buffers=tuple(bench.sut.extra_buffers),
    )
    with pytest.raises(CampaignConfigError):
        fuzz_campaign(
            CampaignConfig(
                benchmark=dataclasses.replace(bench, gen_defaults=gen), notion="random",
                budget=5, master_seed=0
            )
        )


def test_single_rm_single_request_always_atomic():
    bench = build_tpc(1, 1, 1)
    rng = random.Random(2)
    committed = 0
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        assert result.violations == ()
        final_rm = result.final_states[1]
        statuses = dict(final_rm[2])
        committed += statuses.get(0) == 2
    assert committed > 0  # some schedules do finish the round trip


def test_atomicity_holds_over_exhaustive_enumeration():
    res = enumerate_orderings(build_tpc(2, 1, 2), max_depth=10)
    assert res.violation_keys == frozenset()


def test_no_violations_over_random_schedules():
    bench = build_tpc(3, 2, 5)
    rng = random.Random(6)
    for _ in range(800):
        s = generate_random_schedule(bench.gen_defaults, rng)
        assert execute_schedule(bench.sut, s).violations == ()


def test_simulation_soundness_tpc():
    bench = build_tpc(3, 2, 3)
    rng = random.Random(10)
    for _ in range(400):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        run = run_actions(bench.lts, map_events(bench, result.trace))
        assert run.unmatched == ()


def test_conflicting_requests_cannot_both_commit_everywhere():
    # Both transactions write both variables, so at most one can be
    # committed by any single RM before the other is decided.
    bench = build_tpc(2, 2, 2)
    rng = random.Random(77)
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        result = execute_schedule(bench.sut, s)
        for rm in (1, 2):
            final = result.final_states[rm]
            locks = dict(final[1])
            owners = {o for o in locks.values()}
            assert len(owners) <= 1  # overlapping var sets share one owner


# --- the oracle against its rescanning reference ------------------------------

def reference_observe(sut, ostate, event, states, alive):
    """tpc's oracle as first written: on each Decision it rebuilds the
    per-transaction statuses from every decided entry."""
    if event.verb != "Decision" or event.kind != "deliver":
        return []
    out = []
    decided = ostate["decided"]
    for rm in sut.rms:
        if rm not in alive:
            continue
        for tx, status in states[rm]["status"].items():
            if status not in (COMMITTED, ABORTED):
                continue
            prev = decided.get((rm, tx))
            if prev is None:
                decided[(rm, tx)] = status
            elif prev != status:
                out.append("Stability: an RM re-decided a transaction")
    by_tx = {}
    for (rm, tx), status in decided.items():
        by_tx.setdefault(tx, set()).add(status)
    if any(len(s) > 1 for s in by_tx.values()):
        out.append("Atomicity: transaction committed and aborted")
    return out


class Checked(TpcBench):
    """Runs the oracle and its reference side by side, each on its own state,
    and checks their verdicts event by event; logs (event, verdicts)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def oracle_init(self):
        return {"oracle": super().oracle_init(), "reference": {"decided": {}}}

    def oracle_observe(self, ostate, event, states, alive):
        got = super().oracle_observe(ostate["oracle"], event, states, alive)
        assert got == reference_observe(self, ostate["reference"], event, states, alive), event
        self.log.append((event, got))
        return got


class Split(Checked):
    """RM 1 applies each decision inverted, so a transaction commits at one RM
    and aborts at another; RM 2 re-decides each earlier commit as an abort."""

    def _on_decision(self, proc, state, msg, ctx):
        super()._on_decision(proc, state, msg, ctx)
        tx, status = msg.field("tx"), state["status"]
        if proc == 1:
            status[tx] = ABORTED if status[tx] == COMMITTED else COMMITTED
        elif proc == 2:
            for other in status:
                if other != tx and status[other] == COMMITTED:
                    status[other] = ABORTED


ATOMICITY = "Atomicity: transaction committed and aborted"
STABILITY = "Stability: an RM re-decided a transaction"


@pytest.mark.parametrize("cls", [Checked, Split], ids=lambda c: c.__name__)
@pytest.mark.parametrize("config", [(3, 2, 5), (4, 1, 4)], ids=str)
def test_oracle_matches_the_rescanning_reference(cls, config):
    params = build_tpc(*config).gen_defaults
    rng = random.Random(sum(config))
    sticky = {ATOMICITY: 0, STABILITY: 0}
    decisions = 0
    for _ in range(1000):
        sut = cls(*config)
        execute_schedule(sut, generate_random_schedule(params, rng))
        verdicts = [got for event, got in sut.log if event.verb == "Decision"]
        decisions += len(verdicts)
        for key in sticky:
            fired = [key in got for got in verdicts]
            if True in fired:
                # Once it fires, it fires on every later Decision.
                assert all(fired[fired.index(True):]), key
                sticky[key] += fired.count(True) >= 2
    assert decisions > 3000
    if cls is Split:
        assert min(sticky.values()) > 50, sticky
    else:
        assert sticky == {ATOMICITY: 0, STABILITY: 0}


def test_a_cloned_oracle_is_independent_of_its_original():
    """Branch runs as the enumeration oracle does, through clone_hs: the
    original and the clone each go on with their own steps, and each
    matches the reference at every event and its own run from the start."""
    config = (3, 1, 4)
    params = build_tpc(*config).gen_defaults
    rng = random.Random(9)
    fired = 0
    for _ in range(300):
        sut = Split(*config)
        steps = generate_random_schedule(params, rng).steps
        cut = len(steps) // 2
        hs = init_state(sut)
        stepper(sut, hs)(steps[:cut], 0)
        branches = [hs, clone_hs(hs)]
        tails = (steps[cut:], generate_random_schedule(params, rng).steps)
        for branch, tail in zip(branches, tails):
            stepper(sut, branch)(tail, cut)
            fired += bool(branch.violations)
            fresh = Split(*config)
            alone = init_state(fresh)
            stepper(fresh, alone)(steps[:cut] + tail, 0)
            assert (branch.events, branch.violations) == (alone.events, alone.violations)
    assert fired > 100


@pytest.mark.parametrize("config,want", [
    ((3, 1, 1, 10), {"orderings": 540, "traceClasses": 6, "reachableStates": 16}),
    ((1, 1, 3, 12), {"orderings": 185, "traceClasses": 5, "reachableStates": 207}),
], ids=str)
def test_enumerate_output_is_unchanged(capsys, config, want):
    rm, var, req, depth = config
    argv = ["enumerate", "--bench", "tpc", "--param", f"tpc.rm={rm}",
            "--param", f"tpc.vars={var}", "--param", f"tpc.requests={req}",
            "--max-depth", str(depth)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {**want, "violations": []}
