"""Operators on the complete lattice of restrictions and their iteration to
a fixpoint; the lattice's enumeration and its seeded sampling."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import InvariantViolated, NonContractingStep
from .games import Game, Restriction, set_bits


@dataclass(frozen=True)
class RestrictionOperator:
    """A named map from restrictions to restrictions of one fixed game.

    Contraction is checked on every iteration step; monotonicity is the
    caller's to check.
    """

    name: str
    fn: Callable[[Restriction], Restriction]

    def apply(self, restriction: Restriction) -> Restriction:
        return self.fn(restriction)


@dataclass(frozen=True)
class EliminationRecord:
    """One eliminated strategy: at stage ``stage`` player ``player`` lost
    ``strategy`` for ``reason`` (with a checkable witness when one exists)."""

    stage: int
    player: int
    strategy: str
    reason: str
    witness: Any = None


@dataclass(frozen=True)
class EliminationTrace:
    """The full stage sequence of an iteration, ending at the fixpoint.

    ``stages[stabilized_at] == stages[stabilized_at + 1]`` and the last
    stage is the outcome. ``records`` carries per-strategy elimination
    reasons when the producing operator supplies them.
    """

    operator: str
    stages: tuple[Restriction, ...]
    records: tuple[EliminationRecord, ...] = field(default=())

    @property
    def stabilized_at(self) -> int:
        return len(self.stages) - 2

    @property
    def outcome(self) -> Restriction:
        return self.stages[-1]


def iterate_to_outcome(op: RestrictionOperator, start: Restriction) -> EliminationTrace:
    """Iterate a contracting operator from ``start`` until the stage repeats.

    Raises :class:`NonContractingStep` the moment a stage is not included in
    its predecessor. Each step before the fixpoint then drops a strategy, so
    the fixpoint comes within ``1 + sum |S_i|`` applications; passing that
    bound is :class:`InvariantViolated`.
    """
    bound = 1 + sum(len(h) for h in start.game.strategies)
    stages = [start]
    current = start
    for _ in range(bound):
        nxt = op.apply(current)
        if not nxt.is_subset_of(current):
            raise NonContractingStep(len(stages) - 1, current, nxt)
        stages.append(nxt)
        if nxt == current:
            return EliminationTrace(op.name, tuple(stages))
        current = nxt
    raise InvariantViolated(f"{op.name} did not stabilize in {bound} applications")


def enumerate_restrictions(game: Game):
    """All restrictions of a game, in a deterministic order (per player, all
    subsets in binary counting order over the game's label order)."""
    for masks in itertools.product(*(range(1 << len(labels)) for labels in game.strategies)):
        yield Restriction(game, masks)


def lattice_size(game: Game) -> int:
    size = 1
    for labels in game.strategies:
        size <<= len(labels)
    return size


def sample_restriction(rng: random.Random, game: Game, within: Restriction | None = None) -> Restriction:
    """Keep each strategy of ``within`` (default: the full game) with
    probability 1/2, drawing once per strategy in label order."""
    pool = within.masks if within is not None else game.full_masks
    return Restriction(game, tuple(
        sum(1 << k for k in set_bits(mask) if rng.random() < 0.5) for mask in pool
    ))
