"""Operators on the complete lattice of restrictions: iteration to a
fixpoint, monotonicity probing, and the inclusion lemma between a monotonic
and a contracting operator."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import InvariantViolated, NonContractingStep, PremiseViolated
from .games import Game, Restriction, set_bits

# the most candidates an exhaustive enumeration may visit
ENUMERATION_BUDGET = 1 << 20
# the largest lattice whose every restriction the inclusion lemma checks
EXHAUSTIVE_LIMIT = 1 << 6


@dataclass(frozen=True)
class RestrictionOperator:
    """A named map from restrictions to restrictions of one fixed game.

    Contraction is checked on every iteration step; monotonicity is only
    ever established by probing or exhaustion.
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


@dataclass(frozen=True)
class MonotonicityReport:
    operator: str
    passed: bool
    samples_checked: int
    counterexample: tuple[Restriction, Restriction] | None = None


def probe_monotonicity(
    op: RestrictionOperator,
    game: Game,
    samples: int,
    seed: int,
) -> MonotonicityReport:
    """Sample pairs ``G <= G'`` and test ``op(G) <= op(G')``.

    A pass is one-sided evidence only; a returned counterexample is a proof
    of non-monotonicity.
    """
    rng = random.Random(seed)
    for k in range(samples):
        big = sample_restriction(rng, game)
        small = sample_restriction(rng, game, within=big)
        if not op.apply(small).is_subset_of(op.apply(big)):
            return MonotonicityReport(op.name, False, k + 1, (small, big))
    return MonotonicityReport(op.name, True, samples, None)


@dataclass(frozen=True)
class InclusionLemmaReport:
    """Checked premises and the conclusion of the inclusion lemma: if
    ``op1 <= op2`` pointwise, op1 is monotonic and op2 is contracting, then
    the outcome of op1 is included in the outcome of op2."""

    op1: str
    op2: str
    pointwise_checked: int
    monotonicity: MonotonicityReport
    contraction_checked: int
    outcome1: Restriction
    outcome2: Restriction
    conclusion_holds: bool


def check_inclusion_lemma(
    op1: RestrictionOperator,
    op2: RestrictionOperator,
    game: Game,
    samples: int = 200,
    seed: int = 0,
) -> InclusionLemmaReport:
    """Verify the premises on sampled restrictions, or on all of a lattice of
    at most :data:`EXHAUSTIVE_LIMIT`, and compare the two outcomes.

    Raises :class:`PremiseViolated` with the witnessing restriction when the
    pointwise inclusion or the contraction of ``op2`` fails; monotonicity of
    ``op1`` is sampled evidence and lands in the report.
    """
    rng = random.Random(seed)
    if lattice_size(game) <= EXHAUSTIVE_LIMIT:
        candidates = list(enumerate_restrictions(game))
    else:
        candidates = [game.full_restriction()] + [
            sample_restriction(rng, game) for _ in range(samples)
        ]
    for candidate in candidates:
        image1 = op1.apply(candidate)
        image2 = op2.apply(candidate)
        if not image1.is_subset_of(image2):
            raise PremiseViolated("pointwise inclusion op1(G) <= op2(G)", candidate)
        if not image2.is_subset_of(candidate):
            raise PremiseViolated("op2 contracting", candidate)

    monotonicity = probe_monotonicity(op1, game, samples, seed)

    trace1 = iterate_to_outcome(op1, game.full_restriction())
    try:
        trace2 = iterate_to_outcome(op2, game.full_restriction())
    except NonContractingStep as exc:
        raise PremiseViolated("op2 contracting", exc.before) from exc
    return InclusionLemmaReport(
        op1=op1.name,
        op2=op2.name,
        pointwise_checked=len(candidates),
        monotonicity=monotonicity,
        contraction_checked=len(candidates) + len(trace2.stages) - 1,
        outcome1=trace1.outcome,
        outcome2=trace2.outcome,
        conclusion_holds=trace1.outcome.is_subset_of(trace2.outcome),
    )
