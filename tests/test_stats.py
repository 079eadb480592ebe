import dataclasses
import random
from itertools import permutations

import pytest

from schedfuzz import stats
from schedfuzz.benchmarks import build_micro, build_tpc
from schedfuzz.fuzzer import MAX_CORPUS_SIZE, CampaignConfig, fuzz_campaign
from schedfuzz.stats import (
    CompareConfig,
    a12,
    compare_strategies,
    derive_seed,
    mann_whitney_u,
    u_statistic,
)


def test_identical_constant_samples():
    u, p = mann_whitney_u([5, 5, 5], [5, 5, 5])
    assert u == 3 * 3 / 2
    assert p == 1.0


def test_fully_separated_small_samples():
    u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    assert p == pytest.approx(0.1)


def test_shifted_samples_are_significant():
    xs = list(range(20))
    ys = [x + 10 for x in xs]
    _, p = mann_whitney_u(xs, ys)
    assert p < 0.001
    # Monte-Carlo permutation cross-check of the normal approximation
    rng = random.Random(0)
    pooled = xs + ys
    obs = abs(u_statistic(xs, ys) - len(xs) * len(ys) / 2)
    hits = 0
    trials = 3000
    for _ in range(trials):
        rng.shuffle(pooled)
        u = u_statistic(pooled[:20], pooled[20:])
        hits += abs(u - 200) >= obs - 1e-9
    assert hits / trials < 0.001


def test_exact_path_matches_permutation_oracle():
    rng = random.Random(4)
    for _ in range(40):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 5)
        if n1 + n2 > 10:
            continue
        xs = [rng.randint(0, 4) for _ in range(n1)]
        ys = [rng.randint(0, 4) for _ in range(n2)]
        u, p = mann_whitney_u(xs, ys)
        mean = n1 * n2 / 2
        dev = abs(u - mean)
        hits = total = 0
        for perm in permutations(xs + ys):
            pu = u_statistic(perm[:n1], perm[n1:])
            total += 1
            hits += abs(pu - mean) >= dev - 1e-9
        assert p == pytest.approx(hits / total)


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1])
    with pytest.raises(ValueError):
        a12([1], [])


def test_a12_identities():
    assert a12([3, 3, 3], [3, 3, 3]) == 0.5
    assert a12([4, 5], [1, 2]) == 1.0
    assert a12([1, 2], [1, 3]) == pytest.approx(0.375)


def test_a12_complement_sums_to_one():
    rng = random.Random(9)
    for _ in range(50):
        xs = [rng.randint(0, 5) for _ in range(rng.randint(1, 8))]
        ys = [rng.randint(0, 5) for _ in range(rng.randint(1, 8))]
        assert a12(xs, ys) + a12(ys, xs) == pytest.approx(1.0)


def test_seed_derivation_is_stable_and_distinct():
    a = derive_seed(1, "model", 0)
    assert a == derive_seed(1, "model", 0)
    assert a != derive_seed(1, "model", 1)
    assert a != derive_seed(1, "random", 0)
    assert a != derive_seed(2, "model", 0)


def test_compare_strategies_shape_and_determinism():
    cfg = CompareConfig(
        benchmark_factory=lambda: build_micro(1, 1, True, max_steps=15),
        notions=("model", "random"),
        runs=2,
        budget=60,
        master_seed=5,
        stop_on_bug="NullDeref",
    )
    a_res = compare_strategies(cfg)
    b_res = compare_strategies(cfg)
    assert list(a_res.pairwise) == [("model", "random")]
    assert len(a_res.final_states["model"]) == 2
    assert len(a_res.first_bug["random"]) == 2
    assert a_res.final_states == b_res.final_states
    assert a_res.first_bug == b_res.first_bug
    assert a_res.pairwise == b_res.pairwise


def test_compare_requires_two_runs():
    with pytest.raises(ValueError):
        CompareConfig(
            benchmark_factory=lambda: build_micro(1, 1, True),
            notions=("model",),
            runs=1,
            budget=10,
            master_seed=0,
        )


def _tpc_with_crashes():
    bench = build_tpc(2, 1, 2)
    return dataclasses.replace(
        bench, gen_defaults=dataclasses.replace(bench.gen_defaults, crash_quota=1))


# Each row is a setting no campaign can run with; CompareConfig itself
# rejects it, so an API caller learns before the first campaign runs.
BAD_COMPARE_SETTINGS = [
    (build_micro, {"budget": 0}, "budget"),
    (build_micro, {"corpus_size": 0}, "corpus size"),
    (build_micro, {"corpus_size": MAX_CORPUS_SIZE + 1}, "corpus size"),
    (build_micro, {"energy_per_item": -1}, "energy"),
    (build_micro, {"stop_on_bug": ""}, "stop on bug"),
    (build_micro, {"notions": ("model", "psychic")}, "psychic"),
    (_tpc_with_crashes, {}, "does not tolerate crash"),
]


@pytest.mark.parametrize("factory, settings, words", BAD_COMPARE_SETTINGS)
def test_compare_config_rejects_a_bad_campaign_setting_at_construction(
        monkeypatch, factory, settings, words):
    def fail(*_):
        raise AssertionError("a campaign ran despite a bad setting")

    monkeypatch.setattr(stats, "fuzz_campaign", fail)
    kwargs = dict(benchmark_factory=factory, notions=("model", "random"), runs=2,
                  budget=10, master_seed=0)
    with pytest.raises(ValueError, match=words):
        CompareConfig(**{**kwargs, **settings})


@pytest.mark.parametrize("stop_on_bug, track_states", [
    (None, True), ("NullDeref", True), ("NoSuchKey", True),
    # Only the model campaigns walk the model: the others share their runs.
    (None, False),
])
def test_compare_strategies_matches_a_loop_of_campaigns(monkeypatch, stop_on_bug,
                                                        track_states):
    """A comparison is its campaigns, run in (notion, run) order on derived
    seeds, on one benchmark sharing one run memo, with the comparison's
    settings; the reference runs each on a fresh benchmark and memo."""
    # At this seed each notion finds the bug in some runs and misses it in
    # others, and one run finds it at the last iteration of its budget.
    factory = lambda: build_micro(1, 1, True, max_steps=15)
    notions, runs, budget, seed = ("model", "random", "trace"), 3, 58, 11
    expected = {
        (notion, run): fuzz_campaign(CampaignConfig(
            factory(), notion, budget, derive_seed(seed, notion, run), corpus_size=4,
            energy_per_item=2, track_states=track_states, stop_on_bug=stop_on_bug))
        for notion in notions for run in range(runs)
    }
    seen, got = [], []

    def counting(config, memo):
        seen.append((config.notion, config.master_seed))
        got.append(fuzz_campaign(config, memo))
        return got[-1]

    monkeypatch.setattr(stats, "fuzz_campaign", counting)
    out = compare_strategies(CompareConfig(
        benchmark_factory=factory, notions=notions, runs=runs, budget=budget,
        master_seed=seed, corpus_size=4, energy_per_item=2, track_states=track_states,
        stop_on_bug=stop_on_bug))
    assert seen == [(n, derive_seed(seed, n, r)) for n, r in expected]
    assert got == list(expected.values())
    assert list(out.timelines.items()) == [(k, res.timeline) for k, res in expected.items()]
    for notion in notions:
        results = [expected[(notion, run)] for run in range(runs)]
        firsts = [next((rec.first_iteration for rec in res.bug_log
                        if stop_on_bug is None or stop_on_bug in rec.key), None)
                  for res in results]
        assert out.final_states[notion] == [len(res.state_coverage) for res in results]
        assert out.final_coverage[notion] == [len(res.total_coverage) for res in results]
        assert out.first_bug[notion] == [budget + 1 if f is None else f for f in firsts]
        assert out.find_count[notion] == sum(f is not None for f in firsts)
