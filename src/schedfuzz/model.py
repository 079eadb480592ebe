"""In-process labeled transition system interpreter.

Replaces an external model checker with a controlled simulation: given a
mapped action sequence, step the model once per action and report the path
of states it visits.  Mapped actions are fully parameterised, so every step
has at most one successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .fingerprint import fingerprint


class ModelAction(NamedTuple):
    name: str
    args: tuple = ()


class MappingContractError(RuntimeError):
    """An action the model does not know: a mapper bug, not model drift."""


class StateExplosion(RuntimeError):
    def __init__(self, count: int):
        super().__init__(f"state enumeration aborted after {count} states")
        self.count = count


@dataclass(frozen=True)
class Lts:
    """A labeled transition system <states, initial, actions, step>.

    ``actions`` maps each action name to a pure rule ``rule(state, *args)``
    returning the one successor state, or None when the action is disabled
    there: mapped actions carry every argument, so each step is deterministic.
    ``enabled`` enumerates candidate actions for exhaustive reachability.
    ``merges(prev, state)``, when set, abstracts state paths for coverage: a
    state it merges into the abstracted state before it counts as that one.
    """

    initial: object
    actions: dict
    enabled: Callable[[object], list]
    merges: Callable[[object, object], bool] | None = None

    def step(self, state, action: ModelAction):
        """Apply ``action``'s row to ``state``; a name with no row raises."""
        name, args = action
        if name not in self.actions:
            raise MappingContractError(f"the model knows no action {name!r} "
                                       f"(known: {', '.join(self.actions)})")
        return self.actions[name](state, *args)


def _set(t: tuple, i: int, v) -> tuple:
    """``t`` with item ``i`` replaced by ``v``: a model step's state update."""
    return t[:i] + (v,) + t[i + 1:]


class RunResult(NamedTuple):
    path: tuple       # the initial state, then the state after each action
    unmatched: tuple  # indices of the actions the model rejected


def run_actions(lts: Lts, actions, start=None) -> RunResult:
    """Step the model along a mapped action sequence, from ``start`` if given
    (a state a resumed run's prefix reached), else from the initial state.

    An action disabled in the current state is recorded as unmatched and
    leaves the state unchanged, so one divergence does not poison the rest
    of the run.
    """
    q = lts.initial if start is None else start
    path = [q]
    unmatched = []
    step = lts.step
    for idx, action in enumerate(actions):
        nxt = step(q, action)
        if nxt is None:
            unmatched.append(idx)
        else:
            q = nxt
        path.append(q)
    return RunResult(tuple(path), tuple(unmatched))


class BfsResult(NamedTuple):
    states: frozenset
    fingerprints: frozenset


def bfs_reachable(lts: Lts, depth_limit: int | None = None,
                  max_states: int = 10_000_000) -> BfsResult:
    """Exact set of states reachable in <= depth_limit transitions.

    The ground-truth oracle for model coverage.  Aborts with StateExplosion
    past ``max_states``.
    """
    if depth_limit is not None and depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    seen = {lts.initial}
    frontier = [lts.initial]
    depth = 0
    while frontier and (depth_limit is None or depth < depth_limit):
        depth += 1
        nxt = []
        for q in frontier:
            for action in lts.enabled(q):
                q2 = lts.step(q, action)
                if q2 is not None and q2 not in seen:
                    seen.add(q2)
                    if len(seen) > max_states:
                        raise StateExplosion(len(seen))
                    nxt.append(q2)
        frontier = nxt
    return BfsResult(frozenset(seen), frozenset(fingerprint(s) for s in seen))
