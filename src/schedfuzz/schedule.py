"""Event schedules and their generation: the shared vocabulary of the fuzzer.

A schedule is a sequence of abstract steps, each naming a FIFO buffer (an
ordered sender/receiver process pair) and an action on it: deliver up to
``count`` messages, crash the receiver, or restart it.  Steps never name
concrete messages, so any reordering of a schedule stays executable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

DELIVER = "deliver"
CRASH = "crash"
RESTART = "restart"


class ScheduleError(ValueError):
    """Invalid schedule parameters or malformed serialized schedule."""


class BufferId(NamedTuple):
    sender: int
    receiver: int


class ScheduleStep(NamedTuple):
    buffer: BufferId
    op: str
    count: int = 1  # messages to deliver; meaningful for DELIVER only


@dataclass(frozen=True)
class Schedule:
    steps: tuple[ScheduleStep, ...]
    seed: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    def __hash__(self) -> int:  # the dataclass's hash, computed once per object
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = hash((self.steps, self.seed))
        return self.__dict__["_hash"]


@dataclass(frozen=True)
class GenParams:
    num_processes: int
    max_steps: int
    max_messages_per_step: int
    crash_quota: int
    # Control/injection channels (e.g. per-process timeout sources) on top of
    # the ordinary sender!=receiver pairs.
    extra_buffers: tuple[BufferId, ...] = ()

    def buffer_universe(self) -> list[BufferId]:
        return buffer_universe(self.num_processes, self.extra_buffers)

    @cached_property
    def deliver_steps(self) -> tuple:
        """The universe, and per buffer its deliver steps of counts 1..max."""
        counts, universe = range(1, self.max_messages_per_step + 1), self.buffer_universe()
        return universe, [[ScheduleStep(b, DELIVER, c) for c in counts] for b in universe]


def buffer_universe(num_processes: int, extra_buffers=()) -> list[BufferId]:
    """Every ordered pair of distinct processes, then the extra buffers."""
    procs = range(num_processes)
    return [*(BufferId(i, j) for i in procs for j in procs if i != j), *extra_buffers]


def randbelow(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as CPython's ``Random._randbelow``
    draws it: ``seq[randbelow(rng, len(seq))]`` is ``rng.choice(seq)`` (3.10-3.12)."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def generate_random_schedule(params: GenParams, rng: random.Random) -> Schedule:
    """Generate a uniformly random schedule of exactly ``max_steps`` steps.

    Each step independently picks a uniform buffer and a deliver count
    uniform in [1, max_messages_per_step].  With probability
    crash_quota/max_steps (while quota remains) the step becomes a crash of
    the buffer's receiver instead, and a matching restart is placed at a
    uniformly chosen later free slot, keeping crash/restart alternation
    valid by construction.
    """
    if params.num_processes < 2:
        raise ScheduleError("need at least 2 processes")
    if params.max_steps < 1:
        raise ScheduleError("need at least 1 step")
    if params.max_messages_per_step < 1:
        raise ScheduleError("need max_messages_per_step >= 1")
    if params.crash_quota < 0:
        raise ScheduleError("crash quota must be >= 0")

    universe, deliver_steps = params.deliver_steps
    slots: list[ScheduleStep | None] = [None] * params.max_steps
    crash_prob = params.crash_quota / params.max_steps
    crashes_left = params.crash_quota
    # Processes with a pending restart slot: no further crash of the same
    # process until past that slot, so crash/restart alternate per process.
    blocked_until: dict[int, int] = {}
    # rng.choice(universe) and rng.randint(1, m), inlined: see randbelow.
    getrandbits, n, m = rng.getrandbits, len(universe), params.max_messages_per_step
    kn, km = n.bit_length(), m.bit_length()

    for i in range(params.max_steps):
        if slots[i] is not None:
            continue
        b = getrandbits(kn)
        while b >= n:
            b = getrandbits(kn)
        buf = universe[b]
        if (crashes_left > 0 and blocked_until.get(buf.receiver, -1) < i
                and rng.random() < crash_prob):
            slots[i] = ScheduleStep(buf, CRASH)
            crashes_left -= 1
            # The later slots taken are pending restarts, one per blocked
            # process: draw among the free ones as rng.choice(free) would.
            pending = sorted(j for j in blocked_until.values() if j > i)
            free_count = params.max_steps - i - 1 - len(pending)
            if free_count:
                j = i + 1 + randbelow(rng, free_count)
                for taken in pending:
                    if taken <= j:
                        j += 1
                slots[j] = ScheduleStep(buf, RESTART)
                blocked_until[buf.receiver] = j
        else:
            c = getrandbits(km)
            while c >= m:
                c = getrandbits(km)
            slots[i] = deliver_steps[b][c]

    # Every slot is filled: a restart's slot is skipped, any other is drawn.
    return Schedule(steps=tuple(slots), seed=rng.getrandbits(64))


def validate_schedule(s: Schedule, params: GenParams | None = None) -> None:
    """Raise ScheduleError if ``s`` breaks a schedule invariant.

    Checked: positive deliver counts, crash quota and length against
    ``params`` when given, and per-process alternation (each crash of p is
    followed by at most one restart of p before p's next crash).
    """
    crashes = 0
    restarts_since_crash: dict[int, int] = {}
    for idx, step in enumerate(s.steps):
        if step.op == DELIVER:
            if step.count < 1:
                raise ScheduleError(f"step {idx}: deliver count must be >= 1")
            if params is not None and step.count > params.max_messages_per_step:
                raise ScheduleError(
                    f"step {idx}: deliver count {step.count} over the limit "
                    f"of {params.max_messages_per_step}"
                )
        elif step.op == CRASH:
            crashes += 1
            restarts_since_crash[step.buffer.receiver] = 0
        elif step.op == RESTART:
            p = step.buffer.receiver
            if p in restarts_since_crash:
                restarts_since_crash[p] += 1
                if restarts_since_crash[p] > 1:
                    raise ScheduleError(
                        f"step {idx}: second restart of process {p} "
                        "before its next crash"
                    )
        else:
            raise ScheduleError(f"step {idx}: unknown op {step.op!r}")
    if params is not None:
        if len(s.steps) > params.max_steps:
            raise ScheduleError(
                f"schedule has {len(s.steps)} steps, over max_steps {params.max_steps}"
            )
        if crashes > params.crash_quota:
            raise ScheduleError(
                f"schedule has {crashes} crashes, over the crash quota {params.crash_quota}"
            )


def serialize_schedule(s: Schedule) -> bytes:
    """Corpus file format: one schedule as JSON bytes."""
    steps = []
    for step in s.steps:
        obj = {"from": step.buffer.sender, "to": step.buffer.receiver, "op": step.op}
        if step.op == DELIVER:
            obj["n"] = step.count
        steps.append(obj)
    return json.dumps({"seed": s.seed, "steps": steps}, separators=(",", ":")).encode()


def parse_schedule(data: bytes) -> Schedule:
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deeply
        raise ScheduleError(f"malformed schedule JSON: {e}") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("steps"), list):
        raise ScheduleError("malformed schedule JSON: 'steps' must be a list")
    steps = []
    for idx, raw in enumerate(obj["steps"]):
        try:
            if not isinstance(raw, dict) or raw.keys() - {"from", "to", "op", "n"}:
                raise ScheduleError(f"step {idx}: malformed step {json.dumps(raw)}: "
                                    "want an object of from, to, op and n")
            if any(type(raw.get(k, 0)) is not int for k in ("from", "to", "n")):
                raise ScheduleError(f"step {idx}: from, to and n must be JSON integers")
            op = raw["op"]
            if op not in (DELIVER, CRASH, RESTART):
                raise ScheduleError(f"step {idx}: unknown op {op!r}")
            buf = BufferId(raw["from"], raw["to"])
            count = raw.get("n", 1) if op == DELIVER else 1
            steps.append(ScheduleStep(buf, op, count))
        except KeyError as e:
            raise ScheduleError(f"step {idx}: malformed step: no key {e}") from e
    seed = obj.get("seed", 0)
    if type(seed) is not int:
        raise ScheduleError(f"malformed schedule seed: {json.dumps(seed)}")
    s = Schedule(steps=tuple(steps), seed=seed)
    validate_schedule(s)
    return s
