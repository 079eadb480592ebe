"""The run memo against the harness it stands in for.

``harness.RunMemo`` answers a fault-free run from the start whose acting steps
were run before.  The reference is ``execute_schedule``: every answer must
equal its result, on fresh schedules and on schedules that repeat an earlier
run's acting steps, and the memo must answer no schedule with a crash or
restart step.  A campaign must not change when the memo never answers, nor
when every hit is answered by the exact ``get`` instead of the stored run.
"""

import random
from collections import Counter

import pytest

from schedfuzz import fuzzer
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.fuzzer import AUTO, CampaignConfig, fuzz_campaign, mutate
from schedfuzz.harness import RunMemo, execute_schedule
from schedfuzz.stats import CompareConfig, compare_strategies
from schedfuzz.schedule import DELIVER, Schedule, generate_random_schedule

BENCHES = {
    "micro": lambda: build_micro(2, 5, True),
    "tpc": lambda: build_tpc(3, 2, 3),
    "raftlite": lambda: build_raftlite(5, 2, quorum_bug=True, crash_quota=0),
    "raftlite-crashes": lambda: build_raftlite(5, 2, quorum_bug=True),
}


def _acting(schedule, run):
    """The steps of ``schedule`` that acted in ``run``: what the memo keys on."""
    skipped = set(run.trace.skipped)
    return tuple(st for i, st in enumerate(schedule.steps) if i not in skipped)


def _respaced(rng, bench, schedule, run):
    """A schedule with ``run``'s acting steps but other skipped steps: each
    skipped step gets a random count, or a buffer not deliverable there."""
    bit = bench.sut.ready_bits.bit
    universe = bench.gen_defaults.buffer_universe()
    steps = list(schedule.steps)
    for i in run.trace.skipped:
        idle = [b for b in universe if not run.ready[i] & bit.get(b, 0)]
        top = bench.gen_defaults.max_messages_per_step
        steps[i] = steps[i]._replace(buffer=rng.choice(idle or [steps[i].buffer]),
                                     count=rng.randint(1, top))
    return Schedule(tuple(steps), schedule.seed)


def _recounted(rng, bench, schedule, run):
    """``schedule`` with another count at one of the steps that acted: the
    same buffers act at first, with other numbers of messages."""
    skipped = set(run.trace.skipped)
    acted = [i for i in range(len(schedule.steps)) if i not in skipped]
    steps = list(schedule.steps)
    if acted:
        i = rng.choice(acted)
        top = bench.gen_defaults.max_messages_per_step
        steps[i] = steps[i]._replace(count=rng.choice(
            [c for c in range(1, top + 1) if c != steps[i].count] or [steps[i].count]))
    return Schedule(tuple(steps), schedule.seed)


def _schedules(rng, bench, n):
    """Fresh schedules, mutants, respaced and recounted ones, and repeats."""
    sut, gen, done = bench.sut, bench.gen_defaults, []
    for k in range(n):
        if not done or k % 5 == 0:
            s = generate_random_schedule(gen, rng)
        else:
            prev, run = rng.choice(done)
            s = [prev, mutate(prev, AUTO, rng, num_processes=sut.process_count),
                 _respaced(rng, bench, prev, run), _recounted(rng, bench, prev, run),
                 _respaced(rng, bench, prev, run)][k % 5]
        done.append((s, execute_schedule(sut, s)))
    return done


@pytest.mark.parametrize("name", list(BENCHES))
def test_memo_answers_exactly_as_the_harness_runs(monkeypatch, name):
    monkeypatch.setattr(RunMemo, "PROBES", 10**9)  # never switches off here
    bench = BENCHES[name]()
    memo = RunMemo(bench.sut)
    outcomes = Counter()
    for s, run in _schedules(random.Random(41), bench, 600):
        faulty = any(st.op != DELIVER for st in s.steps)
        got = memo.get(s)
        if got is not None:
            assert got == (run, _acting(s, run))
            outcomes["hit"] += 1
            continue
        memo.put(s, run, _acting(s, run))
        if faulty:
            assert memo.get(s) is None and memo.nodes == 0
            outcomes["fault"] += 1
        else:
            assert memo.get(s) == (run, _acting(s, run))
            outcomes["put"] += 1
    if name == "raftlite-crashes":
        assert outcomes["fault"] > 500, outcomes
    else:
        assert min(outcomes["hit"], outcomes["put"]) > 40, outcomes


def _tpc_runs(n, seed=43):
    bench = BENCHES["tpc"]()
    rng = random.Random(seed)
    return bench, [(s, execute_schedule(bench.sut, s))
                   for s in (generate_random_schedule(bench.gen_defaults, rng) for _ in range(n))]


def test_memo_switches_off_below_one_hit_in_eight():
    bench, runs = _tpc_runs(80)
    memo = RunMemo(bench.sut)
    (s0, r0), rest = runs[0], runs[1:]
    memo.put(s0, r0, None)
    misses = iter(rest)
    # 64 lookups, 8 of them hits: exactly 1 in 8, so it stays on.
    for k in range(64):
        if k % 8 == 0:
            assert memo.get(s0) == (r0, None)
        else:
            s, r = next(misses)
            assert memo.get(s) is None
            memo.put(s, r, None)
    assert (memo.lookups, memo.hits) == (64, 8) and memo.root is not None
    # One more miss: 8 hits in 65 lookups is below 1 in 8.
    assert memo.get(next(misses)[0]) is None
    assert memo.get(s0) is None
    s, r = next(misses)
    memo.put(s, r, None)
    assert memo.get(s) is None and memo.root is None


def test_memo_decides_at_its_probes_th_lookup():
    """Before PROBES lookups the memo stays on whatever it finds; the
    PROBES-th lookup turns it off if fewer than 1 in RATE of them hit."""
    bench, runs = _tpc_runs(RunMemo.PROBES + 8)
    memo = RunMemo(bench.sut)
    (s0, r0), misses = runs[0], iter(runs[1:])
    memo.put(s0, r0, None)
    for k in range(RunMemo.PROBES - 1):
        if k % RunMemo.RATE == 0 and k < RunMemo.PROBES - RunMemo.RATE:
            assert memo.get(s0) == (r0, None)
        else:
            s, r = next(misses)
            assert memo.get(s) is None
            memo.put(s, r, None)
    assert memo.hits == RunMemo.PROBES // RunMemo.RATE - 1 and memo.root is not None
    assert memo.get(next(misses)[0]) is None
    assert memo.lookups == RunMemo.PROBES and memo.root is None and memo.limit == 0
    assert memo.get(s0) is None


def test_memo_is_emptied_at_its_node_limit(monkeypatch):
    bench, runs = _tpc_runs(40)
    limit = 120
    monkeypatch.setattr(RunMemo, "LIMIT", limit)
    monkeypatch.setattr(RunMemo, "PROBES", 10**9)
    memo = RunMemo(bench.sut)
    stored, resets = [], 0
    for s, r in runs:
        before = memo.nodes
        memo.put(s, r, None)
        acting = len(_acting(s, r))
        if before >= limit:
            # Emptied, then filled with this run's path alone.
            assert memo.nodes == 1 + acting
            assert all(memo.get(t) is None for t in stored)
            stored, resets = [], resets + 1
        assert memo.nodes <= limit + acting
        stored.append(s)
        assert all(memo.get(t) == (rt, None) for t, rt in runs if t in stored)
    assert resets >= 2


CAMPAIGNS = {
    "micro": (lambda: build_micro(2, 5, True), ("model", "trace", "random"), 400),
    "tpc": (lambda: build_tpc(3, 2, 3), ("model", "trace"), 300),
    "raftlite": (lambda: build_raftlite(5, 2, quorum_bug=True, crash_quota=0),
                 ("model", "line"), 300),
}


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_campaign_is_the_same_when_the_memo_never_answers(monkeypatch, name):
    make, notions, budget = CAMPAIGNS[name]
    lookups = Counter()
    find = RunMemo.find

    def counted(memo, schedule):
        out = find(memo, schedule)
        lookups[out is not None] += 1
        return out

    for notion in notions:
        config = CampaignConfig(benchmark=make(), notion=notion, budget=budget, master_seed=9)
        monkeypatch.setattr(RunMemo, "find", counted)
        on = fuzz_campaign(config)
        monkeypatch.setattr(RunMemo, "find", lambda memo, schedule: None)
        off = fuzz_campaign(config)
        assert on == off
    assert lookups[False] > 0
    if name == "micro":
        assert lookups[True] > lookups[False]


def test_tpc_trace_campaign_turns_the_memo_off_in_its_window_and_micro_keeps_it(monkeypatch):
    """On tpc under the trace notion almost no run repeats the acting steps of
    an earlier one, so the memo is off from its PROBES-th lookup; on micro
    most runs do, and it stays on for the whole campaign."""
    memos = []
    init = RunMemo.__init__

    def kept(memo, sut):
        init(memo, sut)
        memos.append(memo)

    monkeypatch.setattr(RunMemo, "__init__", kept)
    fuzz_campaign(CampaignConfig(benchmark=build_tpc(3, 2, 3), notion="trace", budget=400,
                                 master_seed=1, track_states=False))
    fuzz_campaign(CampaignConfig(benchmark=build_micro(2, 5, True), notion="model", budget=300,
                                 master_seed=1))
    tpc, micro = memos
    assert tpc.lookups == RunMemo.PROBES and tpc.hits * RunMemo.RATE < tpc.lookups
    assert tpc.root is None and tpc.limit == 0 and tpc.nodes < 1000
    assert micro.lookups > 4 * RunMemo.PROBES and micro.hits * 2 > micro.lookups
    assert micro.root is not None and micro.limit == RunMemo.LIMIT


@pytest.mark.parametrize("name", ["micro", "tpc", "raftlite"])
def test_a_stored_run_is_the_harness_run_but_for_step_indices(monkeypatch, name):
    """What a campaign reads from a hit without asking for the exact result:
    each event's first five fields, the violation keys, the points and the
    final states, all equal to ``execute_schedule``'s; ``exact`` equals it,
    counts no lookup, and refuses a schedule that missed."""
    monkeypatch.setattr(RunMemo, "PROBES", 10**9)
    bench = BENCHES[name]()
    memo = RunMemo(bench.sut)
    outcomes = Counter()
    for s, run in _schedules(random.Random(41), bench, 600):
        hit = memo.find(s)
        if hit is None:
            with pytest.raises(TypeError):  # exact answers only what find answers
                memo.exact(s)
            memo.put(s, run, None)
            continue
        stored = hit[0]
        assert [ev[:5] for ev in stored.trace.events] == [ev[:5] for ev in run.trace.events]
        assert [v.key for v in stored.violations] == [v.key for v in run.violations]
        assert (stored.points_hit, stored.final_states) == (run.points_hit, run.final_states)
        counts = memo.lookups, memo.hits
        assert memo.exact(s) == run and (memo.lookups, memo.hits) == counts
        outcomes["hit"] += 1
        outcomes["renumbered"] += stored.trace.events != run.trace.events
    assert outcomes["hit"] > 40, outcomes
    if name != "raftlite":  # no hit of this mix acts at other step indices there
        assert outcomes["renumbered"] > 0, outcomes


def _with_harness_calls(monkeypatch, run):
    """``run()`` and the harness calls it made: (schedule, the step it resumed
    at or None, the steps it took checkpoints at)."""
    calls, execute = [], fuzzer.execute_schedule

    def logged(sut, schedule, start=None, marks=None):
        calls.append((schedule, start and len(start[1]) - 1, sorted(marks or ())))
        return execute(sut, schedule, start, marks)

    with monkeypatch.context() as m:
        m.setattr(fuzzer, "execute_schedule", logged)
        return run(), calls


def _answer_hits_exactly(monkeypatch):
    """Make every hit the campaign looks up ``get``'s exact answer, in a copy
    of the memo's entry that takes no written-back items."""
    find = RunMemo.find

    def exact(memo, schedule):
        hit = find(memo, schedule)
        return None if hit is None else [memo.exact(schedule), hit[1]]

    monkeypatch.setattr(RunMemo, "find", exact)


LIGHT = [("micro", "model"), ("micro", "random"), ("micro", "trace"), ("micro", "line"),
         ("tpc", "trace"), ("raftlite", "model")]


@pytest.mark.parametrize("name, notion", LIGHT)
def test_a_campaign_on_stored_runs_is_the_campaign_on_exact_hits(monkeypatch, name, notion):
    """Same CampaignResult and same harness calls, resume steps and
    checkpoints included, whichever way the memo answers."""
    config = CampaignConfig(benchmark=BENCHES[name](), notion=notion, budget=400,
                            master_seed=5)
    memo = RunMemo(config.benchmark.sut)
    light = _with_harness_calls(monkeypatch, lambda: fuzz_campaign(config, memo))
    _answer_hits_exactly(monkeypatch)
    assert _with_harness_calls(monkeypatch, lambda: fuzz_campaign(config)) == light
    if name == "micro":
        assert memo.hits * 2 > memo.lookups


def test_a_comparison_on_stored_runs_is_the_comparison_on_exact_hits(monkeypatch):
    config = CompareConfig(benchmark_factory=lambda: build_micro(2, 5, True),
                           notions=("random", "trace", "model", "line"), runs=2, budget=300,
                           master_seed=3, track_states=False)
    light = _with_harness_calls(monkeypatch, lambda: compare_strategies(config))
    _answer_hits_exactly(monkeypatch)
    assert _with_harness_calls(monkeypatch, lambda: compare_strategies(config)) == light
