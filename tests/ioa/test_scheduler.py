"""Unit tests for the adversarial and fair schedulers."""

from repro.ioa import ActionKind, Automaton, Composition, FairScheduler, RandomScheduler


class Ticker(Automaton):
    """Emits `tick` until exhausted; also has a starvable `rare` action."""

    SIGNATURE = {"tick": ActionKind.OUTPUT, "rare": ActionKind.OUTPUT}

    def __init__(self, name, budget=5, **kwargs):
        self.budget = budget
        super().__init__(name, **kwargs)

    def _state(self):
        self.ticks = 0
        self.rares = 0

    def _pre_tick(self):
        return self.ticks < self.budget

    def _eff_tick(self):
        self.ticks += 1

    def _candidates_tick(self):
        if self.ticks < self.budget:
            yield ()

    def _pre_rare(self):
        return self.rares < 1

    def _eff_rare(self):
        self.rares += 1

    def _candidates_rare(self):
        if self.rares < 1:
            yield ()


def test_random_scheduler_runs_to_quiescence():
    system = Composition([Ticker("t1"), Ticker("t2")])
    steps = RandomScheduler(system, seed=0).run(max_steps=1000)
    assert steps == 12  # 2 * (5 ticks + 1 rare)
    assert system.quiescent()


def test_random_scheduler_reproducible_by_seed():
    def run(seed):
        system = Composition([Ticker("t1"), Ticker("t2")])
        RandomScheduler(system, seed=seed).run(max_steps=1000)
        return [str(e) for e in system.trace]

    assert run(42) == run(42)
    assert run(42) != run(43)  # overwhelmingly likely


def test_random_scheduler_respects_max_steps():
    system = Composition([Ticker("t", budget=100)])
    scheduler = RandomScheduler(system, seed=1)
    assert scheduler.run(max_steps=3) == 3
    assert not system.quiescent()


def test_fair_scheduler_serves_every_task():
    # With per-action tasks, `rare` must run even though `tick` is always
    # enabled - the weak-fairness guarantee the liveness proof relies on.
    ticker = Ticker("t", budget=10**6)
    system = Composition([ticker])
    FairScheduler(system, seed=0).run(max_steps=10)
    assert ticker.rares == 1


def test_fair_scheduler_quiesces():
    system = Composition([Ticker("t", budget=2)])
    steps = FairScheduler(system, seed=0).run(max_steps=100)
    assert steps == 3
    assert system.quiescent()


def test_hooks_called_after_each_step():
    system = Composition([Ticker("t", budget=2)])
    seen = []
    scheduler = RandomScheduler(system, seed=0)
    scheduler.add_hook(lambda sys, owner, action: seen.append(action.name))
    scheduler.run(max_steps=100)
    assert len(seen) == 3


def test_fair_scheduler_callable_task_filters():
    class Selective(Ticker):
        def tasks(self):
            return {
                "ticks-only": lambda action: action.name == "tick",
                "rares-only": lambda action: action.name == "rare",
            }

    selective = Selective("s", budget=3)
    system = Composition([selective])
    FairScheduler(system, seed=0).run(max_steps=100)
    assert selective.ticks == 3
    assert selective.rares == 1
