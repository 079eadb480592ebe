"""The coverage-guided fuzzing loop: corpus, energy, mutations.

Each iteration executes one schedule, measures its coverage under the
configured notion, and, when the execution covered anything new, spawns
energy-many mutants of that schedule (energy is proportional to the number
of new items).  A parent's mutations are drawn when the first of its mutants
is dequeued, and each mutant is built when it is dequeued; a mutant equal to
a schedule already run in the campaign, or proved to repeat its parent's run,
still counts as an iteration but is not executed.  Any other mutant resumes
from a checkpoint of its parent's run, taken by an earlier sibling, near
where it can first diverge from it; the checkpoint holds the model's state
there too, so every layer resumes from it.  When the queue drains, a fresh
random corpus is generated and the cycle repeats until the budget runs out.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .benchmarks import NO_CRASHES, Benchmark
from .coverage import MODEL, NOTIONS, assess, model_state_items
from .harness import EV_DELIVER, ExecutionResult, ReadyBits, clone_hs, execute_schedule
from .mapper import map_events
from .model import run_actions
from .schedule import (
    CRASH,
    DELIVER,
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
# A mutant resumes only at a step its parent's run reached after this many
# events: a checkpoint copy costs about as much as a few events.
RESUME_EVENTS = 8


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


def divergence(s: Schedule, run: ExecutionResult, bits: ReadyBits):
    """The first step at which a mutation of ``s`` can make a run differ from
    ``run``, or ``len(s.steps)`` when it provably leaves the run unchanged.

    Proof, by ``harness.stepper``'s loop.  The runs agree up to the first
    step the mutation touches; deliver events carry their step's index, so a
    step that delivers differently changes the trace for good.  SwapBuffers(i < j) of
    distinct buffers: a step where neither is deliverable skips in both runs,
    so the runs agree up to step j if that holds at i, and for good if it
    holds at j too; otherwise that step delivers from different buffers.
    SwapMaxMessages(i < j): with d the parent's deliver events of a step, a
    control buffer pops one message whatever the count and d = 0 is a skip,
    so any count keeps the step.  A step that delivered its full count and
    left its buffer deliverable delivers more or fewer under any other count.
    Any other step delivered d and then found its buffer undeliverable, as
    again under any count >= d, while fewer changes it.  Once step i is kept,
    step j starts from the parent's state.  A buffer without a bit in ``bits``
    is never deliverable.  SwapCrashProcesses can change the run from step
    min(i, j).
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

    def diverge(m: Mutation) -> int:
        i, j = sorted((m.i, m.j))
        bi, bj = bit.get(steps[i].buffer, 0), bit.get(steps[j].buffer, 0)
        if m.kind == SWAP_CRASH_PROCESSES:
            return i
        if m.kind == SWAP_BUFFERS:
            both = 0 if bi == bj else bi | bj
            return i if ready[i] & both else j if ready[j] & both else len(steps)
        if not fits(i, bi, steps[j].count):
            return i
        return j if not fits(j, bj, steps[i].count) else len(steps)

    return diverge


def walk_model(bench: Benchmark, trace, start=None, marks=None):
    """Map ``trace``, step the model along it and take its state items:
    (items, unmatched count).

    ``start = (e, (state, cur, unmatched))`` resumes the walk at event ``e``
    from a checkpoint's triple: the model state, the abstracted state and the
    count of rejected actions there, of a run whose first ``e`` events are
    this run's.  Events map one by one and the model is deterministic, so the
    resumed walk ends as the walk from event 0 does; the items it leaves out
    are the parent's, counted already.  Each event index in the dict
    ``marks``, none before ``e``, gets this walk's triple there.
    """
    lts = bench.lts
    e, (state, cur, prior) = start or (0, (None, None, 0))
    if e:
        trace = trace._replace(events=trace.events[e:])
    run = run_actions(lts, map_events(bench, trace), state)
    curs = {x - e: None for x in marks} if marks else None
    items = model_state_items(run, lts, cur, curs)
    for x in marks or ():
        marks[x] = (run.path[x - e], curs[x - e], prior + bisect_left(run.unmatched, x - e))
    return items, prior + len(run.unmatched)


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
    track_states: bool = True         # model-state metric for every notion
    budget_seconds: float | None = None
    stop_on_bug: str | None = None    # stop early when this key substring hits

    def __post_init__(self):
        if self.notion not in NOTIONS:
            raise CampaignConfigError(f"unknown notion {self.notion!r}")
        bench = self.benchmark
        if bench.gen_defaults.crash_quota > 0 and not bench.sut.crashes_allowed:
            raise CampaignConfigError(NO_CRASHES.format(bench.name))
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
    gen = bench.gen_defaults
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
            out.append((generate_random_schedule(gen, rng), next_id, None, iteration, None))
            next_id += 1
        return out

    # Queued: (schedule, entry_id, parent, discovered_at, siblings); a mutant
    # holds its parent's schedule and shares siblings = (divergence of the
    # parent's run, the step of its RESUME_EVENTS-th event or None, the first
    # sibling's id, their number) with the parent's other mutants.
    queue = deque(fresh_entries(0))
    # The siblings being dequeued, and their checkpoints: step -> (harness
    # state, ready masks, the model's triple there or None without the model).
    family = held = None
    iteration = 0
    while iteration < config.budget:
        if deadline is not None and time.monotonic() >= deadline:
            break
        if not queue:
            queue.extend(fresh_entries(iteration))
            result.repopulations += 1
        schedule, entry_id, parent, discovered_at, siblings = queue.popleft()
        iteration += 1
        start = marks = resume = None
        if siblings is not None:
            diverge, floor, first, drawn = siblings
            if siblings is not family:
                # The first sibling dequeued draws them all: siblings are
                # contiguous in the queue, so the rng order is unchanged.
                family, held, n = siblings, {}, len(schedule.steps)
                summary = mutation_summary(schedule, bench.sut.process_count)
                mutations = [draw_mutation(summary, AUTO, rng) for _ in range(drawn)]
                ends = [n if m is None else diverge(m) for m in mutations]
                # The steps later siblings may resume at, 0 where none may.
                resumes = None if floor is None else [d if floor < d < n else 0 for d in ends]
            k = entry_id - first
            # A proved repeat is answered by the memo with its parent's run.
            if ends[k] < n:
                schedule = build_mutant(schedule, mutations[k])
            unmatched = executed.get(schedule)
            if unmatched is not None:
                # Execution is deterministic, so this run would repeat the
                # first one: its items are in total, its violations in
                # seen_bugs, and a stop_on_bug hit would have stopped it.
                result.unmatched_actions += unmatched
                result.repeats += 1
                result.timeline.append((iteration, len(total), iteration, len(states)))
                continue
            if resumes:
                # Resume from the last checkpoint before this mutant diverges,
                # copied if a later sibling may resume from it too, and take
                # new ones on the way for the later siblings.
                d, later = ends[k], resumes[k + 1:]
                c = max((x for x in held if x <= d), default=0)
                if c:
                    hs, ready, model = start = held.pop(c)
                    resume = (len(hs.events), model)
                    if any(x >= c for x in later):
                        held[c], start = start, (clone_hs(bench.sut, hs), ready, model)
                marks = {x: None for x in later if c < x <= d}
        exec_result = execute_schedule(bench.sut, schedule, start, marks)
        # The event index of each new checkpoint, and the model's triple there.
        at = {len(hs.events): None for hs, _ in marks.values()} if marks else None
        unmatched = 0
        if need_model:
            state_items, unmatched = walk_model(bench, exec_result.trace, resume, at)
            result.unmatched_actions += unmatched
            states |= state_items
        if marks:
            held.update((x, (hs, ready, at[len(hs.events)]))
                        for x, (hs, ready) in marks.items())
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
            # Mutants join the back of the queue, FIFO after their parent, and
            # are drawn and built when dequeued.  Refills wait for an empty
            # queue, so entries past the iterations left are never run: those
            # mutants are counted, not queued.
            drawn = max(0, min(energy, config.budget - iteration - len(queue)))
            if drawn:
                events = exec_result.trace.events
                floor = (events[RESUME_EVENTS - 1].step
                         if len(events) >= RESUME_EVENTS else None)
                siblings = (divergence(schedule, exec_result, bits), floor, next_id, drawn)
                queue.extend((schedule, eid, entry_id, iteration, siblings)
                             for eid in range(next_id, next_id + drawn))
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
