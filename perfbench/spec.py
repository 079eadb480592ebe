"""The benchmark's workloads, as plain data.

This module imports nothing from the package, so ``run.py`` can read a
workload's parameters before it times the package import.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# The master seeds in 1..450 whose raft-bug campaign first violates
# ElectionSafety between iterations 480 and 560.  Most other seeds hit within
# about 300 iterations (too short to time) or much later (up to several
# thousand), so drawing campaign seeds from this pool keeps the work of one run
# about the same for every --seed.
RAFT_SEED_POOL = (
    34, 81, 86, 97, 121, 130, 173, 215, 225, 246, 261, 281, 312, 390, 416, 429, 432,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bench: str
    params: dict
    notions: tuple              # several: one compare_strategies call per unit
    budget: int                 # iterations per campaign
    track_states: bool
    stop_on_bug: str | None = None
    runs: int = 1               # campaigns per notion in one unit
    seed_pool: tuple = ()

    @property
    def compare(self) -> bool:
        return len(self.notions) > 1

    @property
    def campaigns(self) -> int:
        return len(self.notions) * self.runs

    @property
    def campaign_keys(self) -> list:
        """(notion, run) of each campaign of a unit, in the order they run."""
        return [(n, r) for n in self.notions for r in range(self.runs)]

    @property
    def labels(self) -> list:
        return [f"{n}#{r}" for n, r in self.campaign_keys]

    def master_seeds(self, seed: int) -> list:
        """Master seeds of a unit's campaigns (of its comparison) for ``--seed``."""
        if self.compare:
            return [seed]
        if self.seed_pool:
            return random.Random(seed).sample(self.seed_pool, self.runs)
        return [seed * self.runs + i for i in range(self.runs)]

    def describe(self) -> dict:
        return {**dataclasses.asdict(self), "default_seed": DEFAULT_SEED}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="raft-bug",
            why=(
                "Seeded raftlite quorum bug, model notion: harness with "
                "crashes, handlers, oracle, mapper, model and state items work;"
                " trace fp bypassed"
            ),
            bench="raftlite",
            params={"raft.procs": 5, "raft.quorum_bug": True},
            notions=("model",),
            budget=4000,
            track_states=True,
            stop_on_bug="ElectionSafety",
            runs=8,
            seed_pool=RAFT_SEED_POOL,
        ),
        Workload(
            name="tpc-trace",
            why=(
                "tpc under the trace notion: fault-free harness and trace "
                "fingerprint work; mapper, model and state items bypassed"
            ),
            bench="tpc",
            params={"tpc.requests": 3},
            notions=("trace",),
            budget=1000,
            runs=4,
            track_states=False,
        ),
        Workload(
            name="micro-compare",
            why=(
                "compare_strategies on micro, four notions: schedule "
                "generation, fuzzer loop and stats dominate; one shared "
                "fingerprint cache"
            ),
            bench="micro",
            params={"micro.m": 2, "micro.n": 5, "micro.bug": True},
            notions=("model", "random", "trace", "line"),
            budget=500,
            track_states=True,
            runs=3,
        ),
    )
}
