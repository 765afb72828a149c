"""Schedulers: adversarial and fair executions of a composition.

Safety properties must hold in *every* execution, so tests drive the
system with :class:`RandomScheduler` (an adversarial, seed-reproducible
interleaving).  Liveness properties are promised only for *fair*
executions, so liveness tests use :class:`FairScheduler`, which realises
the paper's task-based weak fairness: every task that stays enabled is
eventually given a turn.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.ioa.action import Action
from repro.ioa.automaton import Automaton
from repro.ioa.composition import Composition

# A hook invoked after every executed step, e.g. an invariant checker.
StepHook = Callable[[Composition, Automaton, Action], None]


class SchedulerBase:
    """Shared machinery for stepping a composition."""

    def __init__(self, system: Composition, hooks: Optional[List[StepHook]] = None) -> None:
        self.system = system
        self.hooks: List[StepHook] = list(hooks or [])

    def add_hook(self, hook: StepHook) -> None:
        self.hooks.append(hook)

    def _execute(self, owner: Automaton, action: Action) -> None:
        self.system.execute(owner, action)
        for hook in self.hooks:
            hook(self.system, owner, action)

    def step(self) -> bool:
        """Execute one step; return False when the system is quiescent."""
        raise NotImplementedError

    def run(self, max_steps: int = 10_000) -> int:
        """Step until quiescence or ``max_steps``; return steps executed."""
        executed = 0
        while executed < max_steps and self.step():
            executed += 1
        return executed


class RandomScheduler(SchedulerBase):
    """Uniformly random choice among all enabled locally controlled actions.

    Reproducible from the seed, so a failing interleaving found by a
    property-based test can be replayed exactly.
    """

    def __init__(
        self,
        system: Composition,
        seed: int = 0,
        hooks: Optional[List[StepHook]] = None,
    ) -> None:
        super().__init__(system, hooks)
        self.rng = random.Random(seed)

    def step(self) -> bool:
        enabled = self.system.enabled_actions()
        if not enabled:
            return False
        owner, action = self.rng.choice(enabled)
        self._execute(owner, action)
        return True


class FairScheduler(SchedulerBase):
    """Round-robin over (component, task) pairs.

    Each visit executes at most one enabled action of the task, so an
    infinite execution produced by this scheduler is fair in the sense of
    Section 2: every continuously enabled task takes infinitely many
    steps.  With the paper's per-action task partition, this means every
    persistently enabled action eventually runs - the "low-level
    fairness" the liveness proof of Section 7 invokes.
    """

    def __init__(
        self,
        system: Composition,
        seed: int = 0,
        hooks: Optional[List[StepHook]] = None,
    ) -> None:
        super().__init__(system, hooks)
        self.rng = random.Random(seed)
        self._queue: Deque[Tuple[Automaton, str, object]] = deque()
        for component in system.components:
            for task_name, selector in component.tasks().items():
                self._queue.append((component, task_name, selector))

    @staticmethod
    def _in_task(action: Action, selector: object) -> bool:
        # A task is either a list of action names or a predicate on actions.
        if callable(selector):
            return bool(selector(action))
        return action.name in selector  # type: ignore[operator]

    def step(self) -> bool:
        # One full cycle over the task queue looking for an enabled task;
        # rotate so progress is spread across tasks.  Each visit reads the
        # composition's per-component cache, so a cycle over n tasks
        # re-enumerates candidates only for components whose state
        # actually changed since their last visit.
        queue = self._queue
        for _ in range(len(queue)):
            component, _task_name, selector = queue[0]
            queue.rotate(-1)
            actions = [
                action
                for action in self.system.enabled_for(component)
                if self._in_task(action, selector)
            ]
            if actions:
                self._execute(component, self.rng.choice(actions))
                return True
        return False
