"""Mutants resumed from checkpoints of their parent's run, against runs from
the start.

``fuzzer.divergence`` names the first step at which a mutant's run can differ
from its parent's; ``execute_schedule`` takes checkpoints (``marks``) and
resumes from one (``start``); ``harness.clone_hs`` copies a checkpoint.  The
reference is ``execute_schedule`` run from the start, and a campaign with
resuming turned off.
"""

import copy
import random
from collections import Counter

import pytest

from schedfuzz import fuzzer
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.fuzzer import (
    AUTO,
    CampaignConfig,
    build_mutant,
    divergence,
    draw_mutation,
    fuzz_campaign,
    mutation_summary,
)
from schedfuzz.harness import clone_hs, execute_schedule
from schedfuzz.schedule import Schedule, generate_random_schedule

BENCHES = {
    "micro": build_micro,
    "tpc": lambda: build_tpc(3, 2, 3),
    "raftlite": lambda: build_raftlite(5, 2, crash_quota=30),
}


def _pairs(bench, rng, count):
    """``count`` random (schedule, mutation) pairs; no-op draws skipped."""
    out = []
    while len(out) < count:
        s = generate_random_schedule(bench.gen_defaults, rng)
        m = draw_mutation(mutation_summary(s, bench.sut.process_count), AUTO, rng)
        if m is not None:
            out.append((s, m))
    return out


def _checkpoints(sut, schedule, steps):
    """Checkpoints of ``schedule``'s run at ``steps``, and the run itself."""
    marks = dict.fromkeys(steps)
    return marks, execute_schedule(sut, schedule, None, marks)


def _copy(sut, point):
    hs, ready = point
    return clone_hs(sut, hs), ready


@pytest.mark.parametrize("name", list(BENCHES))
def test_a_resumed_mutant_runs_as_it_does_from_the_start(name):
    bench = BENCHES[name]()
    sut = bench.sut
    rng = random.Random(41)
    outcomes = Counter()
    for s, m in _pairs(bench, rng, 1000):
        n = len(s.steps)
        run = execute_schedule(sut, s)
        d = divergence(s, run, sut.ready_bits)(m)
        mutant = build_mutant(s, m)
        full = execute_schedule(sut, mutant)
        # Before step d the mutant's run is its parent's.
        before = [e for e in run.trace.events if e.step < d]
        assert full.trace.events[:len(before)] == tuple(before)
        assert full.ready[:d + 1] == run.ready[:d + 1]
        if d == n:
            assert full == run
            outcomes["unchanged"] += 1
            continue
        outcomes["past min(i, j)" if d > min(m.i, m.j) else "at min(i, j)"] += 1
        # The parent's checkpoints at c <= d: taking them leaves its run as it is.
        c = rng.randint(0, d)
        held, again = _checkpoints(sut, s, {c, d})
        assert again == run
        assert execute_schedule(sut, mutant, _copy(sut, held[d])) == full
        # The mutant resumed at c takes checkpoints up to d on its way; they
        # are the parent's own, so the parent and the mutant resume from them.
        x = rng.randint(c + 1, d) if c < d else d
        marks = dict.fromkeys({x, d} - {c})
        assert execute_schedule(sut, mutant, held[c], marks) == full
        for point in marks.values():
            assert execute_schedule(sut, s, _copy(sut, point)) == run
            assert execute_schedule(sut, mutant, point) == full
            outcomes["harvested"] += 1
    assert min(outcomes.values()) > 10, outcomes


def _mutable_view(sut, hs):
    """What a run may mutate in a harness state, as comparable values."""
    return (
        [None if st is None else sut.snapshot(p, st) for p, st in enumerate(hs.states)],
        copy.deepcopy(hs.oracle),
        {b: list(q) for b, q in hs.buffers.items()},
        set(hs.alive), dict(hs.persisted), list(hs.events), list(hs.skipped),
        set(hs.points), list(hs.violations), hs.ready,
    )


@pytest.mark.parametrize("name", list(BENCHES))
def test_running_on_a_clone_leaves_the_original_as_it_was(name):
    bench = BENCHES[name]()
    sut = bench.sut
    rng = random.Random(43)
    changed = 0
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        cut = rng.randrange(len(s.steps))
        marks, _ = _checkpoints(sut, s, {cut})
        hs = marks[cut][0]
        view = _mutable_view(sut, hs)
        # Two other tails run on clones; the second meets the first's leavings
        # only if the clone shared something with the original.
        for tail in range(2):
            other = generate_random_schedule(bench.gen_defaults, rng)
            mixed = Schedule(s.steps[:cut] + other.steps[cut:], s.seed)
            end = execute_schedule(sut, mixed, _copy(sut, marks[cut]))
            assert end == execute_schedule(sut, mixed)
            changed += end.final_states != tuple(view[0])
            assert _mutable_view(sut, hs) == view
    assert changed > 300


CAMPAIGNS = {
    "micro": (build_micro, "AssertionFailure"),
    "tpc": (lambda: build_tpc(3, 2, 3), None),
    "raftlite": (lambda: build_raftlite(5, 2, quorum_bug=True), "ElectionSafety"),
}


@pytest.mark.parametrize("notion", ["model", "trace", "line", "random"])
@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaigns_with_and_without_resume_are_identical(monkeypatch, name, notion):
    make, stop_on_bug = CAMPAIGNS[name]
    resumed = []

    def checked(sut, schedule, start=None, marks=None):
        out = execute_schedule(sut, schedule, start, marks)
        if start is not None:
            resumed.append(schedule)
            assert out == execute_schedule(sut, schedule)
        return out

    def campaign():
        return fuzz_campaign(CampaignConfig(
            benchmark=make(), notion=notion, budget=600, master_seed=34,
            stop_on_bug=stop_on_bug))

    monkeypatch.setattr(fuzzer, "execute_schedule", checked)
    on = campaign()
    monkeypatch.setattr(fuzzer, "RESUME_EVENTS", 10**9)  # no run gets that far
    count = len(resumed)
    off = campaign()
    assert len(resumed) == count
    assert on == off
    if name != "micro" and notion != "random":
        assert count > 0
