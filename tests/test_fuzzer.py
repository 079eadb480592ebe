import dataclasses
import hashlib
import random
from collections import Counter, deque

import pytest

import test_turns

from schedfuzz import coverage, fuzzer
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.coverage import model_state_items
from schedfuzz.fuzzer import (
    AUTO,
    SWAP_BUFFERS,
    SWAP_CRASH_PROCESSES,
    SWAP_MAX_MESSAGES,
    CampaignConfig,
    CampaignConfigError,
    assign_energy,
    build_mutant,
    divergence,
    draw_mutation,
    fuzz_campaign,
    mutate,
    mutation_summary,
)
from schedfuzz.harness import ConcreteEventTrace, execute_schedule, init_state
from schedfuzz.mapper import map_events
from schedfuzz.model import run_actions
from schedfuzz.schedule import (
    CRASH,
    DELIVER,
    RESTART,
    BufferId,
    GenParams,
    Schedule,
    ScheduleStep,
    generate_random_schedule,
    validate_schedule,
)


def test_energy_is_linear_in_new_items():
    assert assign_energy(0, 5) == 0
    assert assign_energy(1, 5) == 5
    assert assign_energy(3, 5) == 15
    assert assign_energy(4, 5) == 20


def test_swap_max_messages_swaps_counts_only():
    steps = (
        ScheduleStep(BufferId(0, 1), DELIVER, 2),
        ScheduleStep(BufferId(1, 0), DELIVER, 5),
    )
    rng = random.Random(0)
    out = mutate(Schedule(steps), SWAP_MAX_MESSAGES, rng, num_processes=2)
    assert [st.count for st in out.steps] == [5, 2]
    assert [st.buffer for st in out.steps] == [BufferId(0, 1), BufferId(1, 0)]


def test_single_crash_retargets_to_a_different_process():
    steps = (
        ScheduleStep(BufferId(0, 1), CRASH),
        ScheduleStep(BufferId(0, 2), DELIVER, 1),
    )
    for seed in range(20):
        out = mutate(Schedule(steps), SWAP_CRASH_PROCESSES, random.Random(seed),
                     num_processes=3)
        (crash,) = [st for st in out.steps if st.op == CRASH]
        assert crash.buffer.receiver in (0, 2)


def test_two_crashes_swap_positions():
    steps = (
        ScheduleStep(BufferId(0, 1), CRASH),
        ScheduleStep(BufferId(1, 2), DELIVER, 1),
        ScheduleStep(BufferId(0, 2), CRASH),
    )
    out = mutate(Schedule(steps), SWAP_CRASH_PROCESSES, random.Random(1),
                 num_processes=3)
    assert out.steps[0].buffer.receiver == 2
    assert out.steps[2].buffer.receiver == 1


def test_short_schedule_swap_buffers_is_noop():
    s = Schedule((ScheduleStep(BufferId(0, 1), DELIVER, 1),))
    assert mutate(s, SWAP_BUFFERS, random.Random(0), num_processes=2) == s


def test_mutation_closure_preserves_invariants():
    rng = random.Random(123)
    params = GenParams(4, 30, 5, 6)
    for _ in range(2000):
        s = generate_random_schedule(params, random.Random(rng.getrandbits(32)))
        m = mutate(s, AUTO, rng, num_processes=4)
        validate_schedule(m, params)


def test_mutated_schedules_always_execute():
    bench = build_raftlite(3, 2)
    rng = random.Random(7)
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        m = mutate(s, AUTO, rng, num_processes=3)
        execute_schedule(bench.sut, m)  # must not raise


def _campaign(notion="model", budget=300, seed=11, bench=None, **kw):
    bench = bench or build_micro(2, 2, True, max_steps=30)
    return fuzz_campaign(
        CampaignConfig(
            benchmark=bench, notion=notion, budget=budget, master_seed=seed, **kw
        )
    )


def test_random_notion_never_gains_energy():
    res = _campaign(notion="random")
    assert res.spawned_mutants == 0
    assert res.corpus == []
    assert res.repopulations > 0


def test_campaign_is_deterministic():
    a = _campaign()
    b = _campaign()
    assert a.timeline == b.timeline
    assert [(r.key, r.first_iteration) for r in a.bug_log] == [
        (r.key, r.first_iteration) for r in b.bug_log
    ]
    assert a.total_coverage == b.total_coverage


def test_total_coverage_is_monotone():
    res = _campaign(budget=500)
    last = 0
    for _, cov, _, _ in res.timeline:
        assert cov >= last
        last = cov


def test_corpus_accounting_balances_exactly():
    res = _campaign(budget=777, corpus_size=20)
    enqueued = 20 * (1 + res.repopulations) + res.spawned_mutants
    assert res.iterations + res.queue_left == enqueued


def test_crash_quota_rejected_when_sut_cannot_crash():
    bench = build_tpc(2, 1, 1)
    gen = GenParams(3, 10, 2, 1, extra_buffers=tuple(bench.sut.extra_buffers))
    with pytest.raises(CampaignConfigError):
        fuzz_campaign(
            CampaignConfig(benchmark=dataclasses.replace(bench, gen_defaults=gen),
                           notion="model", budget=10, master_seed=0)
        )


def test_stop_on_bug_halts_early():
    res = _campaign(notion="model", budget=10_000, stop_on_bug="NullDeref")
    assert res.iterations < 10_000
    assert res.first_bug_iteration("NullDeref") == res.iterations


def test_state_metric_tracked_for_other_notions():
    res = _campaign(notion="trace", budget=200, track_states=True)
    assert len(res.state_coverage) > 0
    assert all(tag == "state" for tag, _ in res.state_coverage)
    assert all(tag == "trace" for tag, _ in res.total_coverage)


# --- pinned results: computed before mutants were built lazily and repeated
# schedules skipped, so those changes must reproduce them exactly -----------

def _sha(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


MUTATE_BENCHES = {
    "micro": build_micro,
    "tpc": lambda: build_tpc(3, 2, 3),
    "raftlite": lambda: build_raftlite(5, 2, crash_quota=30),
}


@pytest.mark.parametrize("kind, digest", [
    (SWAP_BUFFERS,
     "098d82176594c20a00c30697a1a68857ae7449f72bf44de65371df3bdd6cbbc1"),
    (SWAP_CRASH_PROCESSES,
     "c71042af30964edc51cf647807da8f40f68d3f904acf975ba78b9f0cb5a77e24"),
    (SWAP_MAX_MESSAGES,
     "c42be3e100e8273716f233e861938ef569d20f65b0205b2fad93bddba5ab147b"),
    (AUTO,
     "ccd8323974f47a2e028bc4a67c88d2c992f8509f1f7be3b8d3c5348ab2c90c1e"),
])
def test_mutate_outputs_are_pinned(kind, digest):
    outputs = []
    for name, make in MUTATE_BENCHES.items():
        bench = make()
        rng = random.Random(5)
        for _ in range(300):
            s = generate_random_schedule(bench.gen_defaults, rng)
            outputs.append(mutate(s, kind, rng,
                                  num_processes=bench.sut.process_count))
        outputs.append(rng.getstate())
    assert _sha(outputs) == digest


def campaign_digest(res) -> str:
    """sha256 over every deterministic output of a campaign."""
    return _sha(
        res.timeline,
        [(e.entry_id, e.parent, e.discovered_at, e.schedule) for e in res.corpus],
        [(b.key, b.first_iteration, b.schedule) for b in res.bug_log],
        res.unmatched_actions,
        res.spawned_mutants,
        res.queue_left,
        sorted(map(repr, res.total_coverage)),
        sorted(map(repr, res.state_coverage)),
    )


PINNED_CAMPAIGNS = {
    "raftlite-model": (
        lambda: build_raftlite(5, 2, quorum_bug=True), "model",
        dict(budget=700, master_seed=34, stop_on_bug="ElectionSafety"),
        "dbd08aa68df3133b069efd28331e76925125d2b4d2a4bf50b18e01afc954c76c"),
    "tpc-trace": (lambda: build_tpc(3, 2, 3), "trace", dict(budget=400, master_seed=1),
                  "6b9b4e70dbbbccf24c1945618ff6172b5c79638603af9a7500800d3db27589cf"),
    "micro-model": (build_micro, "model", dict(budget=400, master_seed=1),
                    "3f14da65d5165c82249e5fed808f5f1b275d6f3506cce94af5a6781aa31fee54"),
    "micro-trace": (build_micro, "trace", dict(budget=400, master_seed=1),
                    "8850c06365262b8eeb15acbe3f55fd34a86b9af1ca566308144ce35048f14c6e"),
    "micro-line": (build_micro, "line", dict(budget=400, master_seed=1),
                   "a3b6daeab95d996ad00ba81b1c2080a0af7f6c94cf74d7b0f6155a4a9f1e25ec"),
    "micro-random": (build_micro, "random", dict(budget=400, master_seed=1),
                     "836de4f053c8e5ecab496fd3ec91e9d6e088b7fdd70b339d878bc72078c3fc5d"),
}


@pytest.mark.parametrize("name", list(PINNED_CAMPAIGNS))
def test_campaign_results_are_pinned(name):
    make, notion, kw, digest = PINNED_CAMPAIGNS[name]
    res = fuzz_campaign(CampaignConfig(benchmark=make(), notion=notion, **kw))
    assert campaign_digest(res) == digest



@pytest.mark.parametrize("kind, digest", [
    (SWAP_CRASH_PROCESSES,
     "608c7542191a7c09cd5d5b81db5e9436f47409f7b3c61cb50ad55504b36edec1"),
    (AUTO,
     "23650f9021faa0c5936e6641186ea5df4c7947c9da184dd437a207679c8a0865"),
])
def test_lone_crash_mutations_are_pinned(kind, digest):
    # Crash quota 1: two thirds of the schedules hold one crash to retarget.
    bench = build_raftlite(5, 2, crash_quota=1)
    rng = random.Random(6)
    outputs = []
    for _ in range(300):
        s = generate_random_schedule(bench.gen_defaults, rng)
        outputs.append(mutate(s, kind, rng, num_processes=bench.sut.process_count))
    outputs.append(rng.getstate())
    assert _sha(outputs) == digest

@pytest.mark.parametrize("name", list(MUTATE_BENCHES))
def test_mutants_drawn_from_one_summary_match_eager_mutate(name):
    bench = MUTATE_BENCHES[name]()
    procs = bench.sut.process_count
    gen_rng = random.Random(17)
    for n in range(1000):
        s = generate_random_schedule(bench.gen_defaults, gen_rng)
        k = 1 + n % 8
        lazy_rng, eager_rng = random.Random(n), random.Random(n)
        summary = mutation_summary(s, procs)
        draws = [draw_mutation(summary, AUTO, lazy_rng) for _ in range(k)]
        eager = [mutate(s, AUTO, eager_rng, num_processes=procs) for _ in range(k)]
        # Built last first: a build depends on nothing but its own draw.
        assert [build_mutant(s, d) for d in reversed(draws)] == eager[::-1]
        assert lazy_rng.getstate() == eager_rng.getstate()


def test_repeated_schedules_are_not_executed_again(monkeypatch):
    runs = []

    def recording(sut, schedule, *resume):
        runs.append(schedule)
        return execute_schedule(sut, schedule, *resume)

    monkeypatch.setattr(fuzzer, "execute_schedule", recording)
    res = _campaign(bench=build_raftlite(5, 2, quorum_bug=True), budget=400, seed=2)
    assert res.repeats > 0
    assert len(runs) == res.iterations - res.repeats
    assert len(set(runs)) == len(runs)


def _eager_iteration_schedules(config):
    """Every iteration's schedule under the model notion, from a loop that
    builds each mutant with ``mutate`` at spawn and executes every schedule."""
    bench = config.benchmark
    rng = random.Random(config.master_seed)
    queue, total, out = deque(), set(), []
    while len(out) < config.budget:
        if not queue:
            queue.extend(generate_random_schedule(bench.gen_defaults, rng)
                         for _ in range(config.corpus_size))
        s = queue.popleft()
        out.append(s)
        run = run_actions(bench.lts, map_events(bench, execute_schedule(bench.sut, s).trace))
        new = model_state_items(run, bench.lts) - total
        total |= new
        queue.extend(mutate(s, AUTO, rng, num_processes=bench.sut.process_count)
                     for _ in range(config.energy_per_item * len(new)))
    return out


def test_a_repeated_schedule_still_counts_its_unmatched_actions():
    bench = build_micro()
    step = bench.lts.step
    # A model that rejects every relay of an odd task index.
    lts = dataclasses.replace(bench.lts, step=lambda q, a: (
        None if a.name == "Relay" and a.args[1] % 2 else step(q, a)))
    bench = dataclasses.replace(bench, lts=lts)
    config = CampaignConfig(benchmark=bench, notion="model", budget=400,
                            master_seed=1)
    res = fuzz_campaign(config)

    def unmatched(s):
        trace = execute_schedule(bench.sut, s).trace
        return len(run_actions(lts, map_events(bench, trace)).unmatched)

    schedules = _eager_iteration_schedules(config)
    seen, repeated = set(), 0
    for s in schedules:
        if s in seen:
            repeated += unmatched(s)
        seen.add(s)
    assert len(schedules) == res.iterations
    assert repeated > 0 and res.repeats > 0
    assert res.unmatched_actions == sum(map(unmatched, schedules))


# --- mutants predicted to repeat their parent's run ---------------------------

def _drawn_pairs(bench, pairs=1000):
    """``pairs`` random (schedule, drawn mutation) pairs; no-op draws skipped."""
    rng = random.Random(23)
    out = []
    while len(out) < pairs:
        s = generate_random_schedule(bench.gen_defaults, rng)
        m = draw_mutation(mutation_summary(s, bench.sut.process_count), AUTO, rng)
        if m is not None:
            out.append((s, m))
    return out


@pytest.mark.parametrize("name", list(MUTATE_BENCHES))
def test_predicted_mutants_run_exactly_like_their_parent(name):
    bench = MUTATE_BENCHES[name]()
    sut = bench.sut
    outcomes = Counter()
    for s, m in _drawn_pairs(bench):
        run = execute_schedule(sut, s)
        predicted = divergence(s, run, sut.ready_bits)(m) == len(s.steps)
        same = execute_schedule(sut, build_mutant(s, m)) == run
        # The reference is executing the mutant: a prediction is never wrong,
        # and the swaps of deliver steps miss no unchanged run.
        assert same or not predicted
        if m.kind != SWAP_CRASH_PROCESSES:
            assert predicted == same, m
        outcomes[m.kind, same] += 1
    assert outcomes[SWAP_BUFFERS, True] > 0 and outcomes[SWAP_BUFFERS, False] > 0
    if name != "micro":  # micro delivers one message per step: no count swaps
        assert outcomes[SWAP_MAX_MESSAGES, True] > 0
        assert outcomes[SWAP_MAX_MESSAGES, False] > 0


@pytest.mark.parametrize("name", [*MUTATE_BENCHES, "chaos"])
def test_recorded_ready_masks_match_a_recount(name):
    if name == "chaos":
        sut = test_turns.Chaos()
        # Its schedules also deliver from the self pairs it sends to.
        params = GenParams(4, 60, 3, 10, tuple(BufferId(p, p) for p in range(4)))
        rng = random.Random(29)
        schedules = [generate_random_schedule(params, rng) for _ in range(1000)]
    else:
        bench = MUTATE_BENCHES[name]()
        sut, schedules = bench.sut, [s for s, _ in _drawn_pairs(bench)]
    bit = sut.ready_bits.bit

    def recount(hs):
        return sum(b for buf, b in bit.items() if buf.receiver in hs.alive
                   and (buf in sut.control_buffers or hs.buffers.get(buf)))

    ops = {CRASH: test_turns._do_crash, RESTART: test_turns._do_restart}
    kinds = Counter()
    for s in schedules:
        # Reference steps: each makes its own skip checks, never reading the mask.
        hs = init_state(sut)
        masks = [recount(hs)]
        for idx, step in enumerate(s.steps):
            if step.op == DELIVER:
                test_turns._deliver(sut, hs, idx, step.buffer, step.count)
            else:
                ops[step.op](sut, hs, idx, step.buffer.receiver)
            masks.append(recount(hs))
        run = execute_schedule(sut, s)
        assert run.ready == tuple(masks)
        assert run.trace == ConcreteEventTrace(tuple(hs.events), tuple(hs.skipped))
        kinds.update(e.recv for e in run.trace.events
                     if e.kind == "deliver" and e.send == e.recv)
    if name == "chaos":
        # Every process received from its own buffer: the self pairs have bits.
        assert min(kinds[p] for p in range(sut.process_count)) > 100, kinds


def test_mutations_are_drawn_only_for_iterations_left(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return draw_mutation(*args)

    monkeypatch.setattr(fuzzer, "draw_mutation", counting)
    budget = 300
    res = _campaign(bench=build_raftlite(5, 2, quorum_bug=True), budget=budget, seed=2)
    assert res.iterations == budget
    assert res.spawned_mutants > 2 * budget
    assert len(calls) <= budget


def test_campaign_reaches_the_model_layers_under_their_names(monkeypatch):
    """The benchmark times the model layers by wrapping these module names:
    a refactor that stops calling them would zero its metrics silently."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("map_events", "run_actions", "model_state_items"):
        monkeypatch.setattr(fuzzer, name, counted(name, getattr(fuzzer, name)))
    digests = set()
    real_fingerprint = coverage.fingerprint

    def recorded(value):
        digests.add(real_fingerprint(value))
        return real_fingerprint(value)

    monkeypatch.setattr(coverage, "fingerprint", recorded)
    res = _campaign(bench=build_raftlite(5, 2, quorum_bug=True), budget=300, seed=2)
    executions = res.iterations - res.repeats
    assert res.repeats > 0 and executions > 0
    assert calls == dict.fromkeys(("map_events", "run_actions", "model_state_items"),
                                  executions)
    assert res.state_coverage and {fp for _, fp in res.state_coverage} <= digests
