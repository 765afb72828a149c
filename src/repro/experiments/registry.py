"""The experiment registry: one entry per E-number, stated once.

An :class:`Experiment` is the only description of an experiment in the
repo.  Its ``run()`` owns the parameter grid, calls the ``measure_*``
function beside it, renders the claim-versus-measured tables and raises
:class:`ClaimMissed` when a measured row leaves the claimed shape.
``python -m repro experiments`` prints the registry's tables, tier-1
runs every entry (``tests/test_experiments.py``), and EXPERIMENTS.md
quotes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List


class ClaimMissed(AssertionError):
    """A measured row broke the shape its experiment claims."""


@dataclass(frozen=True)
class Experiment:
    id: str  # "E4"
    title: str
    paper: str  # where the paper makes the claim
    run: Callable[[], List[str]]  # formatted tables; raises ClaimMissed


REGISTRY: Dict[str, Experiment] = {}


def experiment(id: str, title: str, paper: str) -> Callable:
    """Register the decorated ``run`` function under ``id``."""

    def register(run: Callable[[], List[str]]) -> Callable[[], List[str]]:
        if id in REGISTRY:
            raise ValueError(f"experiment id {id!r} registered twice")
        REGISTRY[id] = Experiment(id, title, paper, run)
        return run

    return register


def experiment_ids() -> List[str]:
    """Registered ids in E-number order."""
    return sorted(REGISTRY, key=lambda id: int(id[1:]))


def claim(holds: bool, what: str, row: Any = None) -> None:
    """Raise :class:`ClaimMissed` naming the claim (and the row) that failed."""
    if not holds:
        raise ClaimMissed(what if row is None else f"{what}: {row}")


def close(measured: float, claimed: float, tolerance: float = 1e-6) -> bool:
    return abs(measured - claimed) <= tolerance
