"""The coverage-guided fuzzing loop: corpus, energy, mutations.

Each iteration executes one schedule, measures its coverage under the
configured notion, and, when the execution covered anything new, spawns
energy-many mutants of that schedule (energy is proportional to the number
of new items).  When the queue drains, a fresh random corpus is generated
and the cycle repeats until the budget runs out.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field

from .benchmarks import Benchmark
from .coverage import MODEL, NOTIONS, assess, model_state_items
from .harness import execute_schedule
from .mapper import map_events
from .model import run_actions
from .schedule import (
    CRASH,
    DELIVER,
    GenParams,
    Schedule,
    ScheduleError,
    generate_random_schedule,
    validate_schedule,
)

SWAP_BUFFERS = "SwapBuffers"
SWAP_CRASH_PROCESSES = "SwapCrashProcesses"
SWAP_MAX_MESSAGES = "SwapMaxMessages"
AUTO = "Auto"
MUTATION_KINDS = (SWAP_BUFFERS, SWAP_CRASH_PROCESSES, SWAP_MAX_MESSAGES)


class CampaignConfigError(ValueError):
    pass


def mutate(s: Schedule, kind: str, rng: random.Random, *,
           num_processes: int) -> Schedule:
    """One small schedule change; the result always satisfies the invariants.

    SwapBuffers exchanges the buffers of two delivery steps (fault steps keep
    their targets so crash/restart alternation cannot break).
    SwapCrashProcesses exchanges the positions of two crash steps, or
    retargets the crash when there is only one.  SwapMaxMessages exchanges
    the deliver counts of two delivery steps.
    """
    steps = list(s.steps)
    if kind == AUTO:
        kinds = []
        deliver_steps = [st for st in steps if st.op == DELIVER]
        if len(deliver_steps) >= 2:
            kinds.append(SWAP_BUFFERS)
            # Swapping counts only mutates anything when two counts differ.
            if len({st.count for st in deliver_steps}) > 1:
                kinds.append(SWAP_MAX_MESSAGES)
        if any(st.op == CRASH for st in steps):
            kinds.append(SWAP_CRASH_PROCESSES)
        kind = rng.choice(kinds) if kinds else SWAP_BUFFERS

    if kind == SWAP_BUFFERS:
        idx = [i for i, st in enumerate(steps) if st.op == DELIVER]
        if len(idx) < 2:
            return s  # no-op mutation
        i, j = rng.sample(idx, 2)
        steps[i], steps[j] = (
            steps[i]._replace(buffer=steps[j].buffer),
            steps[j]._replace(buffer=steps[i].buffer),
        )
    elif kind == SWAP_MAX_MESSAGES:
        idx = [i for i, st in enumerate(steps) if st.op == DELIVER]
        if len(idx) < 2:
            return s
        i, j = rng.sample(idx, 2)
        steps[i], steps[j] = (
            steps[i]._replace(count=steps[j].count),
            steps[j]._replace(count=steps[i].count),
        )
    elif kind == SWAP_CRASH_PROCESSES:
        idx = [i for i, st in enumerate(steps) if st.op == CRASH]
        if not idx:
            return s
        if len(idx) == 1:
            i = idx[0]
            target = steps[i].buffer.receiver
            others = [p for p in range(num_processes) if p != target]
            if not others:
                return s
            p = rng.choice(others)
            steps[i] = steps[i]._replace(
                buffer=steps[i].buffer._replace(receiver=p)
            )
        else:
            i, j = rng.sample(idx, 2)
            steps[i], steps[j] = steps[j], steps[i]
        # Moving crashes around stranded restarts can break per-process
        # alternation; such a swap degrades to a no-op mutation.
        candidate = Schedule(steps=tuple(steps), seed=s.seed)
        try:
            validate_schedule(candidate)
        except ScheduleError:
            return s
        return candidate
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    return Schedule(steps=tuple(steps), seed=s.seed)


def assign_energy(new_items: int, energy_per_item: int) -> int:
    if new_items < 0 or energy_per_item < 0:
        raise ValueError("counts must be >= 0")
    return energy_per_item * new_items


@dataclass
class CorpusEntry:
    schedule: Schedule
    entry_id: int
    parent: int | None = None
    discovered_at: int = 0  # iteration that enqueued it (0 for the seeds)
    energy: int = 0         # mutants this entry spawned once executed


@dataclass(frozen=True)
class CampaignConfig:
    benchmark: Benchmark
    notion: str
    budget: int                       # iterations (= executions)
    master_seed: int
    corpus_size: int = 20
    energy_per_item: int = 5
    gen: GenParams | None = None      # defaults to the benchmark's
    track_states: bool = True         # model-state metric for every notion
    budget_seconds: float | None = None
    stop_on_bug: str | None = None    # stop early when this key substring hits


@dataclass
class BugRecord:
    key: str
    first_iteration: int
    schedule: Schedule


@dataclass
class CampaignResult:
    notion: str
    iterations: int = 0
    timeline: list = field(default_factory=list)  # (iter, |total|, execs, |states|)
    bug_log: list = field(default_factory=list)   # BugRecord per distinct key
    corpus: list = field(default_factory=list)    # entries that earned energy
    total_coverage: frozenset = frozenset()
    state_coverage: frozenset = frozenset()
    executions: int = 0
    repopulations: int = 0
    spawned_mutants: int = 0
    queue_left: int = 0
    unmatched_actions: int = 0

    def first_bug_iteration(self, key_part: str) -> int | None:
        for rec in self.bug_log:
            if key_part in rec.key:
                return rec.first_iteration
        return None


def fuzz_campaign(config: CampaignConfig) -> CampaignResult:
    bench = config.benchmark
    if config.notion not in NOTIONS:
        raise CampaignConfigError(f"unknown notion {config.notion!r}")
    gen = config.gen or bench.gen_defaults
    if gen.crash_quota > 0 and not bench.sut.crashes_allowed:
        raise CampaignConfigError(
            f"benchmark {bench.name!r} does not tolerate crash schedules"
        )
    if config.budget < 1 or config.corpus_size < 1:
        raise CampaignConfigError("budget and corpus size must be >= 1")

    rng = random.Random(config.master_seed)
    need_model = config.notion == MODEL or config.track_states
    result = CampaignResult(notion=config.notion)
    total: set = set()
    states: set = set()
    seen_bugs: set = set()
    next_id = 0
    deadline = (
        time.monotonic() + config.budget_seconds if config.budget_seconds else None
    )

    def fresh_entries(iteration: int) -> list:
        nonlocal next_id
        out = []
        for _ in range(config.corpus_size):
            out.append(
                CorpusEntry(
                    schedule=generate_random_schedule(gen, rng),
                    entry_id=next_id,
                    discovered_at=iteration,
                )
            )
            next_id += 1
        return out

    queue = deque(fresh_entries(0))
    iteration = 0
    while iteration < config.budget:
        if deadline is not None and time.monotonic() >= deadline:
            break
        if not queue:
            queue.extend(fresh_entries(iteration))
            result.repopulations += 1
        entry = queue.popleft()
        iteration += 1
        exec_result = execute_schedule(bench.sut, entry.schedule)

        if need_model:
            actions = map_events(bench.name, exec_result.trace)
            model_run = run_actions(bench.lts, actions)
            result.unmatched_actions += len(model_run.unmatched)
            state_items = model_state_items(model_run, bench.lts)
            states |= state_items
        # The model notion's coverage items are the state items just computed.
        items = (state_items if config.notion == MODEL
                 else assess(config.notion, exec_result).items)

        stop = False
        for v in exec_result.violations:
            if v.key not in seen_bugs:
                seen_bugs.add(v.key)
                result.bug_log.append(BugRecord(v.key, iteration, entry.schedule))
            if config.stop_on_bug and config.stop_on_bug in v.key:
                stop = True

        new_items = items - total
        if new_items:
            energy = assign_energy(len(new_items), config.energy_per_item)
            entry.energy = energy
            result.corpus.append(entry)
            mutants = []
            for _ in range(energy):
                mutants.append(
                    CorpusEntry(
                        schedule=mutate(entry.schedule, AUTO, rng,
                                        num_processes=bench.sut.process_count),
                        entry_id=next_id,
                        parent=entry.entry_id,
                        discovered_at=iteration,
                    )
                )
                next_id += 1
            # Mutants join the back of the queue, FIFO after their parent.
            queue.extend(mutants)
            result.spawned_mutants += energy
            total |= new_items
        result.timeline.append((iteration, len(total), iteration, len(states)))
        if stop:
            break

    result.iterations = iteration
    result.executions = iteration
    result.total_coverage = frozenset(total)
    result.state_coverage = frozenset(states)
    result.queue_left = len(queue)
    return result
