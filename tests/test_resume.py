"""Mutants resumed from checkpoints of their parent's run, in every layer,
against runs and walks from the start.

``fuzzer.divergence`` names the first step at which a mutant's run can differ
from its parent's; ``execute_schedule`` takes checkpoints (``marks``) and
resumes from one (``start``); ``harness.clone_hs`` copies a checkpoint.
``fuzzer.walk_model`` maps a run's trace, steps the model and takes the state
items; it records the model's triple (state, abstracted state, unmatched
count) at a checkpoint's event index, and resumes from such a triple.  The
references are ``execute_schedule`` run from the start, the full walk, and a
campaign with resuming turned off.
"""

import copy
import dataclasses
import random
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


def _copy(point):
    hs, ready = point
    return clone_hs(hs), ready


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
        assert execute_schedule(sut, mutant, _copy(held[d])) == full
        # The mutant resumed at c takes checkpoints up to d on its way; they
        # are the parent's own, so the parent and the mutant resume from them.
        x = rng.randint(c + 1, d) if c < d else d
        marks = dict.fromkeys({x, d} - {c})
        assert execute_schedule(sut, mutant, held[c], marks) == full
        for point in marks.values():
            assert execute_schedule(sut, s, _copy(point)) == run
            assert execute_schedule(sut, mutant, point) == full
            outcomes["harvested"] += 1
    assert min(outcomes.values()) > 10, outcomes


def _mutable_view(hs):
    """What a run may mutate in a harness state, as comparable values."""
    return (
        copy.deepcopy(hs.states), copy.deepcopy(hs.oracle),
        {b: list(q) for b, q in hs.buffers.items()},
        set(hs.alive), copy.deepcopy(hs.persisted), list(hs.events), list(hs.skipped),
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
        view = _mutable_view(hs)
        at_cut = tuple(None if st is None else sut.snapshot(p, st)
                       for p, st in enumerate(hs.states))
        # Two other tails run on clones; the second meets the first's leavings
        # only if the clone shared something with the original.
        for tail in range(2):
            other = generate_random_schedule(bench.gen_defaults, rng)
            mixed = Schedule(s.steps[:cut] + other.steps[cut:], s.seed)
            end = execute_schedule(sut, mixed, _copy(marks[cut]))
            assert end == execute_schedule(sut, mixed)
            changed += end.final_states != at_cut
            assert _mutable_view(hs) == view
    assert changed > 300


def _odd_relays_rejected():
    """micro under a model that rejects every relay of an odd task index."""
    bench = build_micro()
    step = bench.lts.step
    return dataclasses.replace(bench, lts=dataclasses.replace(bench.lts, step=lambda q, a: (
        None if a.name == "Relay" and a.args[1] % 2 else step(q, a))))


def _triples(bench, trace):
    """The reference triple at each event index of ``trace``'s full walk: the
    model state, the abstracted state (``lts.merges`` applied along the path)
    and the count of rejected actions before it."""
    lts = bench.lts
    run = run_actions(lts, map_events(bench, trace))
    cur, out = run.path[0], []
    for i, state in enumerate(run.path):
        if i and state != cur and not (lts.merges and lts.merges(cur, state)):
            cur = state
        out.append((state, cur, sum(u < i for u in run.unmatched)))
    return out


@pytest.mark.parametrize("name", [*BENCHES, "micro-odd-relays"])
def test_a_model_walk_resumed_from_a_checkpoint_is_the_full_walk(name):
    bench = _odd_relays_rejected() if name == "micro-odd-relays" else BENCHES[name]()
    sut = bench.sut
    rng = random.Random(47)
    outcomes = Counter()
    cases = 0
    while cases < 1000:
        # A parent and two siblings: the first checkpoints at the second's
        # divergence step, and the second resumes from that checkpoint.
        s = generate_random_schedule(bench.gen_defaults, rng)
        summary = mutation_summary(s, sut.process_count)
        ms = [draw_mutation(summary, AUTO, rng) for _ in range(2)]
        if None in ms:
            continue
        cases += 1
        run = execute_schedule(sut, s)
        diverge = divergence(s, run, sut.ready_bits)
        # The checkpoint must lie where the first still runs as its parent.
        ms.sort(key=diverge, reverse=True)
        first, second = (build_mutant(s, m) for m in ms)
        marks = {diverge(ms[1]): None}
        first_run = execute_schedule(sut, first, None, marks)
        (hs, ready), = marks.values()
        e = len(hs.events)
        at = {e: None}
        # Recording a triple leaves the walk's items and count as they are.
        assert walk_model(bench, first_run.trace, None, at) == walk_model(bench, first_run.trace)
        full_run = execute_schedule(sut, second)
        ref = _triples(bench, full_run.trace)
        assert at[e] == ref[e]
        resumed_run = execute_schedule(sut, second, (hs, ready, at[e]))
        assert resumed_run == full_run
        # A resumed walk records later triples too, as a resumed sibling does
        # for the checkpoints it takes on its way.
        x = rng.randint(e, len(full_run.trace.events))
        later = {x: None}
        items, unmatched = walk_model(bench, resumed_run.trace, (e, at[e]), later)
        assert later[x] == ref[x]
        full_items, full_unmatched = walk_model(bench, full_run.trace)
        assert unmatched == full_unmatched == ref[-1][2]
        # The items left out are those of the parent's prefix.
        prefix = {("state", fingerprint(cur)) for _, cur, _ in _triples(bench, run.trace)[:e]}
        assert items <= full_items == items | prefix
        outcomes["resumed" if e else "from event 0"] += 1
        outcomes["items left out"] += items != full_items
        outcomes["prefix unmatched"] += at[e][2] > 0
    assert min(outcomes[x] for x in ("resumed", "items left out")) > 10, outcomes
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
    # last: the campaign's bench, its latest run, and the event count of that
    # run's harness resume (None for a run from the start).
    resumed, walks, last = [], [], []

    def checked(sut, schedule, start=None, marks=None):
        at = None if start is None else len(start[0].events)
        out = execute_schedule(sut, schedule, start, marks)
        if start is not None:
            resumed.append(schedule)
            assert out == execute_schedule(sut, schedule)
        last[1:] = [out, at]
        return out

    def checked_run(lts, actions, start=None):
        out = run_actions(lts, actions, start)
        # The model resumes exactly where the harness did.
        assert (start is None) == (last[2] is None)
        if start is not None:
            # The walk from the start ends as the resumed one does.
            full = run_actions(lts, map_events(last[0], last[1].trace))
            r = len(full.path) - len(out.path)
            assert r == last[2]
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
    count, resumed_walks = len(resumed), len(walks)
    off = campaign()
    assert len(resumed) == count and len(walks) == resumed_walks == count
    assert on == off
    if name != "micro" and notion != "random":
        assert count > 0
