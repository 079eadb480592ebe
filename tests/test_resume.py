"""Mutants resumed from checkpoints of their parent's run, and model walks
resumed from a sibling's, against runs and walks from the start.

``fuzzer.divergence`` names the first step at which a mutant's run can differ
from its parent's; ``execute_schedule`` takes checkpoints (``marks``) and
resumes from one (``start``); ``harness.clone_hs`` copies a checkpoint.
``fuzzer.walk_model`` maps a run's trace, steps the model and takes the state
items, resuming from a sibling's ``ModelWalk`` where both runs still have
their parent's events.  The references are ``execute_schedule`` run from the
start, ``walk_model`` without a sibling's walk, and a campaign with resuming
turned off.
"""

import copy
import dataclasses
import random
from bisect import bisect_left
from collections import Counter

import pytest

from schedfuzz import fuzzer
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.fingerprint import fingerprint
from schedfuzz.fuzzer import (
    AUTO,
    CampaignConfig,
    build_mutant,
    divergence,
    draw_mutation,
    fuzz_campaign,
    mutation_summary,
    walk_model,
)
from schedfuzz.harness import clone_hs, execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import run_actions
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


def _odd_relays_rejected():
    """micro under a model that rejects every relay of an odd task index."""
    bench = build_micro()
    step = bench.lts.step
    return dataclasses.replace(bench, lts=dataclasses.replace(bench.lts, step=lambda q, a: (
        None if a.name == "Relay" and a.args[1] % 2 else step(q, a))))


def _shared(result, step):
    """The events of ``result`` before ``step``."""
    return bisect_left(result.trace.events, step, key=lambda e: e.step)


@pytest.mark.parametrize("name", [*BENCHES, "micro-odd-relays"])
def test_a_resumed_model_walk_is_the_full_walk(name):
    bench = _odd_relays_rejected() if name == "micro-odd-relays" else BENCHES[name]()
    sut = bench.sut
    rng = random.Random(47)
    outcomes = Counter()
    cases = 0
    while cases < 1000:
        # A parent and two siblings: the first walks in full, the second
        # resumes from the first's walk.
        s = generate_random_schedule(bench.gen_defaults, rng)
        summary = mutation_summary(s, sut.process_count)
        ms = [draw_mutation(summary, AUTO, rng) for _ in range(2)]
        if None in ms:
            continue
        cases += 1
        run = execute_schedule(sut, s)
        diverge = divergence(s, run, sut.ready_bits)
        first, second = (execute_schedule(sut, build_mutant(s, m)) for m in ms)
        k1, k2 = _shared(first, diverge(ms[0])), _shared(second, diverge(ms[1]))
        *_, known = walk_model(bench, first.trace, k1, None, True)
        items, unmatched, walk = walk_model(bench, second.trace, k2, known, True)
        full_items, full_unmatched, full = walk_model(bench, second.trace, k2, None, True)
        r = min(k1, k2)
        assert walk == full
        assert walk.path[:r] == known.path[:r]
        assert unmatched == full_unmatched == len(full.unmatched)
        # The items left out are those of the parent's prefix.
        *_, parent = walk_model(bench, run.trace, 0, None, True)
        prefix = {("state", fingerprint(c)) for c in parent.curs[:r + 1]}
        assert items <= full_items == items | prefix
        outcomes["resumed" if r else "full"] += 1
        outcomes["k2 < k1" if k2 < k1 else "k2 > k1" if k2 > k1 else "k2 = k1"] += 1
        outcomes["prefix unmatched"] += bool(r and full.unmatched and full.unmatched[0] < r)
        outcomes["items left out"] += items != full_items
    assert min(outcomes[x] for x in ("resumed", "full", "k2 < k1", "k2 > k1",
                                     "items left out")) > 10, outcomes
    assert (outcomes["prefix unmatched"] > 10) == (name == "micro-odd-relays"), outcomes


CAMPAIGNS = {
    "micro": (build_micro, "AssertionFailure"),
    "tpc": (lambda: build_tpc(3, 2, 3), None),
    "raftlite": (lambda: build_raftlite(5, 2, quorum_bug=True), "ElectionSafety"),
}


@pytest.mark.parametrize("notion", ["model", "trace", "line", "random"])
@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaigns_with_and_without_resume_are_identical(monkeypatch, name, notion):
    make, stop_on_bug = CAMPAIGNS[name]
    resumed, walks, last = [], [], []  # last: the campaign's bench and run

    def checked(sut, schedule, start=None, marks=None):
        out = execute_schedule(sut, schedule, start, marks)
        if start is not None:
            resumed.append(schedule)
            assert out == execute_schedule(sut, schedule)
        last[1:] = [out]
        return out

    def checked_run(lts, actions, start=None):
        out = run_actions(lts, actions, start)
        if start is not None:
            # The walk from the start ends as the resumed one does.
            full = run_actions(lts, map_events(last[0], last[1].trace))
            r = len(full.path) - len(out.path)
            assert full.path[r:] == out.path
            assert tuple(i - r for i in full.unmatched if i >= r) == out.unmatched
            walks.append(r)
        return out

    def campaign():
        last[:] = [make()]
        return fuzz_campaign(CampaignConfig(
            benchmark=last[0], notion=notion, budget=600, master_seed=34,
            stop_on_bug=stop_on_bug))

    monkeypatch.setattr(fuzzer, "execute_schedule", checked)
    monkeypatch.setattr(fuzzer, "run_actions", checked_run)
    on = campaign()
    monkeypatch.setattr(fuzzer, "RESUME_EVENTS", 10**9)  # no run gets that far
    monkeypatch.setattr(fuzzer, "walk_model", lambda bench, trace, shared, known, keep:
                        walk_model(bench, trace, shared, None, keep))
    count, resumed_walks = len(resumed), len(walks)
    off = campaign()
    assert len(resumed) == count and len(walks) == resumed_walks
    assert on == off
    if name != "micro" and notion != "random":
        assert count > 0
    if (name, notion) == ("raftlite", "model"):
        assert resumed_walks > 0
