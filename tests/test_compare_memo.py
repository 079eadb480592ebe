"""One run memo shared by the campaigns of a comparison.

A fault-free run from the start is a pure function of the steps that acted in
it, so every campaign on one benchmark may answer it from one memo.  Each test
holds campaigns that share a memo to the same campaigns run on their own.
"""

import dataclasses
from collections import Counter

import pytest

from schedfuzz import fuzzer, stats
from schedfuzz.benchmarks import build_micro
from schedfuzz.fuzzer import CampaignConfig, fuzz_campaign
from schedfuzz.harness import RunMemo
from schedfuzz.stats import CompareConfig, compare_strategies, derive_seed


def test_a_comparison_builds_one_benchmark_and_one_memo(monkeypatch):
    built, calls = [], []

    def factory():
        built.append(build_micro(1, 2, True))
        return built[-1]

    def spy(config, memo):
        calls.append((config.benchmark, memo))
        return fuzz_campaign(config, memo)

    monkeypatch.setattr(stats, "fuzz_campaign", spy)
    config = CompareConfig(benchmark_factory=factory, notions=("model", "random"),
                           runs=2, budget=30, master_seed=4)
    compare_strategies(config)
    assert len(built) == 1 and len(calls) == 4
    assert all(bench is built[0] for bench, _ in calls)
    memo = calls[0][1]
    assert isinstance(memo, RunMemo) and all(m is memo for _, m in calls)
    # A second comparison of the same config starts from a memo of its own.
    compare_strategies(config)
    assert len(built) == 1 and len(calls) == 8
    assert calls[4][1] is not memo and all(m is calls[4][1] for _, m in calls[4:])


def rejecting_micro():
    """micro(2, 5) with a model that rejects every Execute action."""
    bench = build_micro(2, 5, True)
    lts = dataclasses.replace(bench.lts, actions={
        **bench.lts.actions, "Execute": lambda q, *args: None})
    return dataclasses.replace(bench, lts=lts)


# A random campaign keeps no schedule to look up again, so only a trace or
# line campaign could count a stored rejected-action count.
@pytest.mark.parametrize("first, second", [
    ("model", "trace"), ("trace", "model"), ("random", "model")])
def test_a_shared_memo_gives_each_campaign_what_it_would_compute(first, second):
    """A trace campaign after a model campaign hits runs stored with their
    rejected-action counts, and must count none of them.  A model campaign
    after one that does not walk the model hits runs stored without state
    items, and must walk the model over them."""
    bench = rejecting_micro()
    configs = [CampaignConfig(bench, notion, 300, seed, track_states=False)
               for notion, seed in ((first, 7), (second, 8))]
    memo = RunMemo(bench.sut)
    shared = [fuzz_campaign(configs[0], memo)]
    first_hits = memo.hits
    shared.append(fuzz_campaign(configs[1], memo))
    alone = [dataclasses.replace(config, benchmark=rejecting_micro()) for config in configs]
    fresh = RunMemo(alone[1].benchmark.sut)
    alone = [fuzz_campaign(alone[0]), fuzz_campaign(alone[1], fresh)]
    assert shared == alone
    assert {res.notion: res for res in alone}["model"].unmatched_actions > 0
    assert all(res.unmatched_actions == 0 for res in alone if res.notion != "model")
    # The second campaign hit runs that the first had stored.
    assert memo.hits - first_hits > fresh.hits


def test_sharing_the_memo_hits_more_than_a_memo_per_campaign(monkeypatch):
    notions, runs, budget, seed = ("model", "random", "trace", "line"), 3, 500, 2
    factory = lambda: build_micro(2, 5, True)
    memos = []

    def spy(config, memo):
        memos.append(memo)
        return fuzz_campaign(config, memo)

    monkeypatch.setattr(stats, "fuzz_campaign", spy)
    out = compare_strategies(CompareConfig(benchmark_factory=factory, notions=notions,
                                           runs=runs, budget=budget, master_seed=seed))
    alone = 0
    for notion in notions:
        for run in range(runs):
            bench = factory()
            memo = RunMemo(bench.sut)
            res = fuzz_campaign(CampaignConfig(bench, notion, budget,
                                               derive_seed(seed, notion, run)), memo)
            assert out.timelines[(notion, run)] == res.timeline
            alone += memo.hits
    assert memos[0].hits > alone


def test_a_run_stored_without_state_items_is_walked_once(monkeypatch):
    """A model campaign that hits a run stored by a campaign that does not
    walk the model walks it and writes its items back, so no later hit walks
    it again; the campaigns end as they do with the memo off."""
    config = CompareConfig(benchmark_factory=lambda: build_micro(2, 5, True),
                           notions=("random", "trace", "model"), runs=3, budget=500,
                           master_seed=1, track_states=False)

    def campaigns():
        results = []

        def kept(config, memo):
            results.append(fuzz_campaign(config, memo))
            return results[-1]

        with monkeypatch.context() as m:
            m.setattr(stats, "fuzz_campaign", kept)
            return compare_strategies(config), results

    walks, hit_traces, walked = Counter(), {}, []
    walk, find = fuzzer.walk_model, RunMemo.find

    def counted_walk(bench, trace, start=None, marks=None):
        walks[id(trace)] += 1
        walked.append(trace)  # kept, so no id is reused
        return walk(bench, trace, start, marks)

    def recorded_find(memo, schedule):
        hit = find(memo, schedule)
        if hit is not None:
            hit_traces[id(hit[0].trace)] = hit[0].trace  # kept, so no id is reused
        return hit

    with monkeypatch.context() as m:
        m.setattr(fuzzer, "walk_model", counted_walk)
        m.setattr(RunMemo, "find", recorded_find)
        on = campaigns()
    on_hits = [walks[t] for t in hit_traces if walks[t]]
    assert len(on_hits) > 100 and max(on_hits) == 1
    monkeypatch.setattr(RunMemo, "LIMIT", 0)  # the memo stores nothing
    assert campaigns() == on
