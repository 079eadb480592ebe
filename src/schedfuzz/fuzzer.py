"""The coverage-guided fuzzing loop: corpus, energy, mutations.

Each iteration executes one schedule, measures its coverage under the
configured notion, and, when the execution covered anything new, spawns
energy-many mutants of that schedule (energy is proportional to the number
of new items).  A mutant's mutation is drawn when its parent is assessed and
the mutant is built when it is dequeued; a mutant equal to a schedule already
run in the campaign, or proved to repeat its parent's run, still counts as an
iteration but is not executed.  When the queue drains, a fresh random corpus
is generated and the cycle repeats until the budget runs out.
"""

from __future__ import annotations

import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .benchmarks import NO_CRASHES, Benchmark
from .coverage import MODEL, NOTIONS, assess, model_state_items
from .harness import EV_DELIVER, ExecutionResult, ReadyBits, execute_schedule
from .mapper import map_events
from .model import run_actions
from .schedule import (
    CRASH,
    DELIVER,
    GenParams,
    Schedule,
    ScheduleError,
    generate_random_schedule,
    randbelow,
    validate_schedule,
)

SWAP_BUFFERS = "SwapBuffers"
SWAP_CRASH_PROCESSES = "SwapCrashProcesses"
SWAP_MAX_MESSAGES = "SwapMaxMessages"
AUTO = "Auto"
MUTATION_KINDS = (SWAP_BUFFERS, SWAP_CRASH_PROCESSES, SWAP_MAX_MESSAGES)


class CampaignConfigError(ValueError):
    pass


class MutationSummary(NamedTuple):
    """What drawing a mutation of one schedule needs to know about it."""

    delivers: tuple      # indices of the deliver steps
    counts_differ: bool  # two deliver counts differ
    crashes: tuple       # indices of the crash steps
    retarget: tuple      # processes a lone crash may move to


class Mutation(NamedTuple):
    """One drawn mutation: steps ``i`` and ``j`` swap their buffers (or
    counts, or places for crashes), or the crash at ``i`` moves to
    process ``target`` when that is set."""

    kind: str
    i: int
    j: int
    target: int | None = None


def mutation_summary(s: Schedule, num_processes: int) -> MutationSummary:
    """The summary that every mutation drawn from ``s`` shares."""
    delivers, crashes = [], []
    for i, st in enumerate(s.steps):
        if st.op == DELIVER:
            delivers.append(i)
        elif st.op == CRASH:
            crashes.append(i)
    retarget = ()
    if len(crashes) == 1:
        target = s.steps[crashes[0]].buffer.receiver
        retarget = tuple(p for p in range(num_processes) if p != target)
    counts_differ = len({s.steps[i].count for i in delivers}) > 1
    return MutationSummary(tuple(delivers), counts_differ, tuple(crashes), retarget)


def draw_mutation(summary: MutationSummary, kind: str,
                  rng: random.Random) -> Mutation | None:
    """Draw one mutation of the summarised schedule; None is a no-op.

    All of a mutation's randomness is drawn here, so a mutant can be built
    later, or never, without changing what later draws see.
    """
    delivers, crashes, retarget = summary.delivers, summary.crashes, summary.retarget
    if kind == AUTO:
        kinds = []
        if len(delivers) >= 2:
            kinds.append(SWAP_BUFFERS)
            # Swapping counts only mutates anything when two counts differ.
            if summary.counts_differ:
                kinds.append(SWAP_MAX_MESSAGES)
        if crashes:
            kinds.append(SWAP_CRASH_PROCESSES)
        kind = kinds[randbelow(rng, len(kinds))] if kinds else SWAP_BUFFERS

    if kind in (SWAP_BUFFERS, SWAP_MAX_MESSAGES):
        if len(delivers) < 2:
            return None
        return Mutation(kind, *_sample2(delivers, rng))
    if kind == SWAP_CRASH_PROCESSES:
        if len(crashes) >= 2:
            return Mutation(kind, *_sample2(crashes, rng))
        if crashes and retarget:
            return Mutation(kind, crashes[0], crashes[0],
                            retarget[randbelow(rng, len(retarget))])
        return None
    raise ValueError(f"unknown mutation kind {kind!r}")


def _sample2(seq, rng: random.Random) -> tuple:
    """``rng.sample(seq, 2)``, drawn as CPython's two branches draw it."""
    n = len(seq)
    j1 = randbelow(rng, n)
    if n <= 21:  # the pool branch: seq[n - 1] fills the first pick's place
        j2 = randbelow(rng, n - 1)
        return seq[j1], seq[n - 1 if j2 == j1 else j2]
    j2 = randbelow(rng, n)
    while j2 == j1:
        j2 = randbelow(rng, n)
    return seq[j1], seq[j2]


def build_mutant(s: Schedule, m: Mutation | None) -> Schedule:
    """The schedule that mutation ``m`` makes of ``s`` (``s`` for a no-op)."""
    if m is None:
        return s
    steps = list(s.steps)
    i, j = m.i, m.j
    a, b = steps[i], steps[j]
    if m.kind == SWAP_BUFFERS:
        steps[i], steps[j] = a._replace(buffer=b.buffer), b._replace(buffer=a.buffer)
    elif m.kind == SWAP_MAX_MESSAGES:
        steps[i], steps[j] = a._replace(count=b.count), b._replace(count=a.count)
    else:
        if m.target is None:
            steps[i], steps[j] = b, a
        else:
            steps[i] = a._replace(buffer=a.buffer._replace(receiver=m.target))
        # Moving crashes around stranded restarts can break per-process
        # alternation; such a swap degrades to a no-op mutation.
        candidate = Schedule(steps=tuple(steps), seed=s.seed)
        try:
            validate_schedule(candidate)
        except ScheduleError:
            return s
        return candidate
    return Schedule(steps=tuple(steps), seed=s.seed)


def unchanged_by(s: Schedule, run: ExecutionResult, bits: ReadyBits):
    """A test of whether a mutation of ``s`` leaves its run ``run`` unchanged.

    Proof, by ``deliver``'s loop.  The runs agree up to the first step the
    mutation touches; deliver events carry their step's index, so a step that
    delivers differently changes the trace for good.  SwapBuffers(i, j) of
    distinct buffers: if neither is deliverable at the start of step i or j,
    both steps skip in both runs; otherwise the first such step delivers from
    different buffers.  SwapMaxMessages(i, j): with d the parent's deliver
    events of a step, a control buffer pops one message whatever the count and
    d = 0 is a skip, so any count keeps the step.  A step that delivered its
    full count and left its buffer deliverable delivers more or fewer under any
    other count.  Any other step delivered d and then found its buffer
    undeliverable, as again under any count >= d, while fewer changes it.  Once
    the earlier step is kept, the later one starts from the parent's state.
    No rule covers SwapCrashProcesses or a buffer without a bit in ``bits``.
    """
    ready, bit, steps = run.ready, bits.bit, s.steps
    delivered = Counter(e.step for e in run.trace.events if e.kind == EV_DELIVER)

    def fits(k: int, b: int, count: int) -> bool:
        d = delivered[k]
        if d == 0 or b & bits.control:
            return True
        if d == steps[k].count and ready[k + 1] & b:
            return count == d
        return count >= d

    def unchanged(m: Mutation) -> bool:
        if m.kind == SWAP_CRASH_PROCESSES:
            return False
        bi, bj = bit.get(steps[m.i].buffer), bit.get(steps[m.j].buffer)
        if bi is None or bj is None:
            return False
        if m.kind == SWAP_BUFFERS:
            return bi == bj or not (ready[m.i] | ready[m.j]) & (bi | bj)
        return fits(m.i, bi, steps[m.j].count) and fits(m.j, bj, steps[m.i].count)

    return unchanged


def mutate(s: Schedule, kind: str, rng: random.Random, *,
           num_processes: int) -> Schedule:
    """One small schedule change; the result always satisfies the invariants.

    SwapBuffers exchanges the buffers of two delivery steps (fault steps keep
    their targets so crash/restart alternation cannot break).
    SwapCrashProcesses exchanges the positions of two crash steps, or
    retargets the crash when there is only one.  SwapMaxMessages exchanges
    the deliver counts of two delivery steps.
    """
    return build_mutant(s, draw_mutation(mutation_summary(s, num_processes), kind, rng))


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
    """One campaign's settings; a setting no campaign can run with is
    rejected here, with CampaignConfigError, before anything runs."""

    benchmark: Benchmark
    notion: str
    budget: int                       # iterations, repeated schedules included
    master_seed: int
    corpus_size: int = 20
    energy_per_item: int = 5
    gen: GenParams | None = None      # defaults to the benchmark's
    track_states: bool = True         # model-state metric for every notion
    budget_seconds: float | None = None
    stop_on_bug: str | None = None    # stop early when this key substring hits

    def __post_init__(self):
        if self.notion not in NOTIONS:
            raise CampaignConfigError(f"unknown notion {self.notion!r}")
        gen = self.gen or self.benchmark.gen_defaults
        if gen.crash_quota > 0 and not self.benchmark.sut.crashes_allowed:
            raise CampaignConfigError(NO_CRASHES.format(self.benchmark.name))
        if self.budget < 1 or self.corpus_size < 1:
            raise CampaignConfigError("budget and corpus size must be >= 1")
        if self.energy_per_item < 0:
            raise CampaignConfigError(
                f"energy per item must be >= 0, got {self.energy_per_item}")
        if self.budget_seconds is not None and not self.budget_seconds > 0:
            raise CampaignConfigError(
                f"budget seconds must be > 0, got {self.budget_seconds}")


@dataclass
class BugRecord:
    key: str
    first_iteration: int
    schedule: Schedule


@dataclass
class CampaignResult:
    notion: str
    iterations: int = 0
    timeline: list = field(default_factory=list)  # (iter, |total|, iter, |states|)
    bug_log: list = field(default_factory=list)   # BugRecord per distinct key
    corpus: list = field(default_factory=list)    # entries that earned energy
    total_coverage: frozenset = frozenset()
    state_coverage: frozenset = frozenset()
    repopulations: int = 0
    spawned_mutants: int = 0
    queue_left: int = 0  # spawned mutants never dequeued, queued or not
    unmatched_actions: int = 0
    repeats: int = 0  # iterations not executed: already run or proved to repeat

    def first_bug_iteration(self, key_part: str) -> int | None:
        for rec in self.bug_log:
            if key_part in rec.key:
                return rec.first_iteration
        return None


def fuzz_campaign(config: CampaignConfig) -> CampaignResult:
    bench = config.benchmark
    gen = config.gen or bench.gen_defaults
    rng = random.Random(config.master_seed)
    need_model = config.notion == MODEL or config.track_states
    result = CampaignResult(notion=config.notion)
    total: set = set()
    states: set = set()
    seen_bugs: set = set()
    bits = bench.sut.ready_bits
    # Schedule -> unmatched actions, for productive entries and executed
    # mutants.  Only mutants are looked up: a mutant keeps its parent's seed,
    # while every fresh schedule draws a new 64-bit one.
    executed: dict = {}
    next_id = 0
    unqueued = 0  # spawned mutants that could never be dequeued
    deadline = (
        None if config.budget_seconds is None
        else time.monotonic() + config.budget_seconds
    )

    def fresh_entries(iteration: int) -> list:
        nonlocal next_id
        out = []
        for _ in range(config.corpus_size):
            out.append((generate_random_schedule(gen, rng), None,
                        next_id, None, iteration, None))
            next_id += 1
        return out

    # Queued: (base, mutation, entry_id, parent, discovered_at, proved_same);
    # the schedule is build_mutant(base, mutation), made when it is dequeued.
    queue = deque(fresh_entries(0))
    iteration = 0
    while iteration < config.budget:
        if deadline is not None and time.monotonic() >= deadline:
            break
        if not queue:
            queue.extend(fresh_entries(iteration))
            result.repopulations += 1
        base, mutation, entry_id, parent, discovered_at, proved_same = queue.popleft()
        iteration += 1
        # A proved repeat is answered by the memo with its parent's run.
        if mutation is not None and proved_same(mutation):
            mutation = None
        schedule = build_mutant(base, mutation)
        if parent is not None:
            unmatched = executed.get(schedule)
            if unmatched is not None:
                # Execution is deterministic, so this run would repeat the
                # first one: its items are in total, its violations in
                # seen_bugs, and a stop_on_bug hit would have stopped it.
                result.unmatched_actions += unmatched
                result.repeats += 1
                result.timeline.append((iteration, len(total), iteration, len(states)))
                continue
        exec_result = execute_schedule(bench.sut, schedule)

        unmatched = 0
        if need_model:
            actions = map_events(bench.name, exec_result.trace)
            model_run = run_actions(bench.lts, actions)
            unmatched = len(model_run.unmatched)
            result.unmatched_actions += unmatched
            state_items = model_state_items(model_run, bench.lts)
            states |= state_items
        # The model notion's coverage items are the state items just computed.
        items = (state_items if config.notion == MODEL
                 else assess(config.notion, exec_result))

        stop = False
        for v in exec_result.violations:
            if v.key not in seen_bugs:
                seen_bugs.add(v.key)
                result.bug_log.append(BugRecord(v.key, iteration, schedule))
            if config.stop_on_bug and config.stop_on_bug in v.key:
                stop = True

        new_items = items - total
        if new_items or parent is not None:
            executed[schedule] = unmatched
        if new_items:
            energy = assign_energy(len(new_items), config.energy_per_item)
            result.corpus.append(
                CorpusEntry(schedule, entry_id, parent, discovered_at, energy))
            # Mutations are drawn now, in rng order, and built when dequeued;
            # mutants join the back of the queue, FIFO after their parent.
            # Refills wait for an empty queue, so entries past the iterations
            # left are never run: those mutants are counted, not drawn.
            drawn = max(0, min(energy, config.budget - iteration - len(queue)))
            if drawn:
                summary = mutation_summary(schedule, bench.sut.process_count)
                unchanged = unchanged_by(schedule, exec_result, bits)
                for eid in range(next_id, next_id + drawn):
                    queue.append((schedule, draw_mutation(summary, AUTO, rng),
                                  eid, entry_id, iteration, unchanged))
            next_id += energy
            unqueued += energy - drawn
            result.spawned_mutants += energy
            total |= new_items
        result.timeline.append((iteration, len(total), iteration, len(states)))
        if stop:
            break

    result.iterations = iteration
    result.total_coverage = frozenset(total)
    result.state_coverage = frozenset(states)
    result.queue_left = len(queue) + unqueued
    return result
