"""Seeded random games and epistemic models.

Everything is deterministic under the configured seed: re-running with the
same configuration reproduces the same artifacts bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .epistemic import EpistemicModel, PossibilityCorrespondence, StateSpace
from .errors import ValidationError
from .games import Game, _as_fraction, as_int, as_tuple

_LETTERS = "abcdefghij"
# The most joint profiles, and states, a configuration may ask for.
GENERATION_BUDGET = 1 << 14

DEFAULT_PAYOFF_POOL = (Fraction(0), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class GeneratorConfig:
    """Ranges for the random generators; every range is inclusive."""

    seed: int
    players: tuple[int, int] = (2, 2)
    strategies: tuple[int, int] = (2, 3)
    payoff_pool: tuple[Fraction, ...] = DEFAULT_PAYOFF_POOL
    states: tuple[int, int] = (2, 6)
    target_class: str = "knowledge"

    def __post_init__(self):
        as_int("seed", self.seed)
        for name in ("players", "strategies", "states"):
            pair = as_tuple(getattr(self, name))
            if len(pair) != 2 or not all(type(v) is int for v in pair):
                raise ValidationError(f"{name} range must be a pair of ints, got {pair!r}")
            low, high = pair
            if low > high or low < 1:
                raise ValidationError(f"empty {name} range {low}..{high}")
            object.__setattr__(self, name, pair)
        if self.strategies[1] > len(_LETTERS):
            raise ValidationError(
                f"at most {len(_LETTERS)} strategies per player, got {self.strategies[1]}"
            )
        if self.players[0] < 2:
            raise ValidationError("games need at least 2 players")
        pool = tuple(map(_as_fraction, as_tuple(self.payoff_pool)))
        if not pool:
            raise ValidationError("payoff pool must be non-empty")
        object.__setattr__(self, "payoff_pool", pool)
        if self.target_class not in ("belief", "knowledge"):
            raise ValidationError("target class must be 'belief' or 'knowledge'")
        # a one-strategy player still adds a table and a label to every payoff
        # line, so it counts as two; as 2**bit_length is past the budget, the
        # exponent can stop there and the power stays small
        players = min(self.players[1], GENERATION_BUDGET.bit_length())
        if max(self.strategies[1], 2) ** players > GENERATION_BUDGET:
            raise ValidationError(
                f"{self.players[1]} players with up to {self.strategies[1]} strategies "
                f"each exceed the budget of {GENERATION_BUDGET} joint profiles")
        if self.states[1] > GENERATION_BUDGET:
            raise ValidationError(f"{self.states[1]} states exceed the budget of {GENERATION_BUDGET}")


def generate_game(config: GeneratorConfig) -> Game:
    """Draws the shape, then each player's payoff table entry by entry in
    product order."""
    rng = random.Random(config.seed)
    n = rng.randint(*config.players)
    shape = [rng.randint(*config.strategies) for _ in range(n)]
    pool = config.payoff_pool
    tables = tuple(tuple(rng.choice(pool) for _ in range(prod(shape))) for _ in range(n))
    return Game(tuple(tuple(_LETTERS[:k]) for k in shape), tables)


def _random_partition(rng: random.Random, items: list[str]) -> list[list[str]]:
    shuffled = list(items)
    rng.shuffle(shuffled)
    blocks: list[list[str]] = []
    for item in shuffled:
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(item)
        else:
            blocks.append([item])
    return blocks


def _correspondence(rng: random.Random, space: StateSpace, inside: list[str]) -> PossibilityCorrespondence:
    # Blocks partition ``inside``, a non-empty subset of the space; block
    # members point to their own block, outsiders point to any block. That
    # construction is exactly seriality plus coherence, and with every state
    # inside it is a partition: knowledge-class.
    blocks = [frozenset(block) for block in _random_partition(rng, inside)]
    of_state = {s: block for block in blocks for s in block}
    return PossibilityCorrespondence(space, tuple(
        of_state[s] if s in of_state else rng.choice(blocks) for s in space.states))


def generate_model(config: GeneratorConfig, game: Game) -> EpistemicModel:
    rng = random.Random(config.seed ^ 0x5EED)
    count = rng.randint(*config.states)
    states = [f"w{k}" for k in range(count)]
    space = StateSpace(tuple(states))
    maps = tuple(
        tuple(rng.choice(game.strategies[i]) for _ in range(count))
        for i in range(game.n)
    )
    correspondences = []
    for _ in range(game.n):
        inside = states
        if config.target_class == "belief":
            inside = [s for s in states if rng.random() < 0.7] or [rng.choice(states)]
        correspondences.append(_correspondence(rng, space, inside))
    return EpistemicModel(game, space, maps, tuple(correspondences))
