"""Statistical comparison of fuzzing strategies.

Mann-Whitney U with an exact two-sided p for small samples (enumeration
over rank assignments) and a tie-corrected, continuity-corrected normal
approximation otherwise; Vargha-Delaney A12 as the probability-of-
superiority effect size.  U is oriented as #{(x, y): x > y} + ties/2.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable

from .fuzzer import CampaignConfig, fuzz_campaign
from .harness import RunMemo

EXACT_LIMIT = 20  # enumerate rank assignments up to this pooled size
MAX_RUNS = 1000


def _midranks(pooled) -> list:
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def u_statistic(xs, ys) -> float:
    return sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in xs for y in ys)


def mann_whitney_u(xs, ys) -> tuple:
    """Return (U, two-sided p).  Exact p when len(xs)+len(ys) <= 20."""
    if not xs or not ys:
        raise ValueError("samples must be non-empty")
    n1, n2 = len(xs), len(ys)
    u = u_statistic(xs, ys)
    mean = n1 * n2 / 2.0
    if n1 + n2 <= EXACT_LIMIT:
        return u, _exact_p(list(xs) + list(ys), n1, abs(u - mean))
    return u, _normal_p(xs, ys, u)


def _exact_p(pooled, n1, dev) -> float:
    ranks = _midranks(pooled)
    offset = n1 * (n1 + 1) / 2.0
    mean = n1 * (len(pooled) - n1) / 2.0
    hits = total = 0
    for picked in combinations(range(len(pooled)), n1):
        u = sum(ranks[i] for i in picked) - offset
        total += 1
        if abs(u - mean) >= dev - 1e-9:
            hits += 1
    return hits / total


def _normal_p(xs, ys, u) -> float:
    n1, n2 = len(xs), len(ys)
    n = n1 + n2
    pooled = list(xs) + list(ys)
    counts: dict = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    tie_term = sum(c ** 3 - c for c in counts.values())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    mean = n1 * n2 / 2.0
    z = (abs(u - mean) - 0.5) / math.sqrt(var)
    if z < 0:
        z = 0.0
    return min(1.0, math.erfc(z / math.sqrt(2)))


def a12(xs, ys) -> float:
    """P(x > y) + P(x = y)/2 over all pairs; 0.5 means no effect."""
    if not xs or not ys:
        raise ValueError("samples must be non-empty")
    return u_statistic(xs, ys) / (len(xs) * len(ys))


def derive_seed(master_seed: int, strategy: str, run_index: int) -> int:
    raw = f"{master_seed}:{strategy}:{run_index}".encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class CompareConfig:
    benchmark_factory: Callable  # () -> Benchmark; called once: every campaign runs on it
    notions: tuple
    runs: int
    budget: int
    master_seed: int
    corpus_size: int = CampaignConfig.corpus_size
    energy_per_item: int = CampaignConfig.energy_per_item
    track_states: bool = CampaignConfig.track_states
    stop_on_bug: str | None = None
    campaigns: dict = field(init=False, repr=False, compare=False)  # notion -> CampaignConfig

    def __post_init__(self):  # a setting no comparison can run with fails before any does
        if not 2 <= self.runs <= MAX_RUNS:
            raise ValueError(f"need at least 2 runs and at most {MAX_RUNS} to compare")
        if not self.notions or len(set(self.notions)) < len(self.notions):
            raise ValueError(f"need distinct notions to compare, got {list(self.notions)}")
        bench = self.benchmark_factory()
        object.__setattr__(self, "campaigns", {n: CampaignConfig(
            bench, n, self.budget, self.master_seed, self.corpus_size, self.energy_per_item,
            self.track_states, stop_on_bug=self.stop_on_bug) for n in self.notions})


@dataclass
class ComparisonResult:
    final_states: dict = field(default_factory=dict)   # notion -> [count]
    final_coverage: dict = field(default_factory=dict) # notion -> [count]
    first_bug: dict = field(default_factory=dict)      # notion -> [iter|budget+1]
    find_count: dict = field(default_factory=dict)
    pairwise: dict = field(default_factory=dict)       # (a, b) -> stats dict
    timelines: dict = field(default_factory=dict)      # (notion, run) -> timeline

    def median_first_bug(self, notion: str) -> float:
        v = sorted(self.first_bug[notion])
        k = len(v)
        return (v[(k - 1) // 2] + v[k // 2]) / 2

    def mean_final_states(self, notion: str) -> float:
        v = self.final_states[notion]
        return sum(v) / len(v)


def compare_strategies(config: CompareConfig) -> ComparisonResult:
    """Run every notion `runs` times on independent derived seeds, all on one
    benchmark and one run memo: a fault-free run is the same in any campaign."""
    out = ComparisonResult()
    memo = RunMemo(next(iter(config.campaigns.values())).benchmark.sut)
    for notion, campaign in config.campaigns.items():
        states_v = out.final_states[notion] = []
        cov_v = out.final_coverage[notion] = []
        bug_v = out.first_bug[notion] = []
        for run in range(config.runs):
            res = fuzz_campaign(replace(
                campaign, master_seed=derive_seed(config.master_seed, notion, run)), memo)
            states_v.append(len(res.state_coverage))
            cov_v.append(len(res.total_coverage))
            first = res.first_bug_iteration(config.stop_on_bug or "")  # "" is in every key
            bug_v.append(config.budget + 1 if first is None else first)
            out.timelines[(notion, run)] = res.timeline
        out.find_count[notion] = sum(b <= config.budget for b in bug_v)

    for a, b in combinations(config.notions, 2):
        u_states, p_states = mann_whitney_u(out.final_states[a], out.final_states[b])
        u_bug, p_bug = mann_whitney_u(out.first_bug[a], out.first_bug[b])
        out.pairwise[(a, b)] = {
            "states_u": u_states,
            "states_p": p_states,
            "states_a12": a12(out.final_states[a], out.final_states[b]),
            "first_bug_u": u_bug,
            "first_bug_p": p_bug,
            # Lower first-bug iteration is better: orient the effect size so
            # values above 0.5 favour strategy `a`.
            "first_bug_a12": a12(out.first_bug[b], out.first_bug[a]),
        }
    return out
