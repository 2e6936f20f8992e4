"""Seeded input builders for the benchmark workloads.

Every builder takes a ``random.Random`` made from the benchmark seed, so the
same seed gives the same files. The engine classes are looked up at call
time, because set-up re-imports ``epigame`` for each timed repetition.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

HALF = Fraction(1, 2)
WEIGHTS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
SPOIL = 3
OWN = Fraction(20)


# --- planted mixed-dominance games --------------------------------------------

def planted_depths(n: int) -> list[int]:
    """Elimination stage of each strategy by construction: the first half of
    the strategies are planted with depths 1, 2, 3 in equal runs; the rest
    are random base strategies (depth 0)."""
    planted = n // 2
    return [1 + (3 * k) // planted for k in range(planted)] + [0] * (n - planted)


def _planted_lines(rng, n: int, m: int, opponent_depths: list[int]) -> list[list[Fraction]]:
    """Payoff lines of one player (one line per own strategy, one entry per
    opponent strategy).

    Base line ``k`` pays ``OWN`` against the opponent's base strategy ``k``
    and 0..9 elsewhere, so it is strictly best there and never eliminated;
    this fixes which strategies go at which stage, whatever the seed.
    A planted line is ``w*a + (1-w)*b - 1/2`` for two base lines ``a, b``, so
    only a mixture finds the dominance and payoffs are non-integer. A line of
    depth ``d > 1`` gets ``+SPOIL`` at one opponent strategy of depth
    ``d - 1``: the dominance holds once that opponent strategy is gone, which
    spreads the elimination over several stages.
    """
    depths = planted_depths(n)
    base = [k for k in range(n) if depths[k] == 0]
    lines: dict[int, list[Fraction]] = {}
    for k in base:
        lines[k] = [Fraction(rng.randint(0, 9)) for _ in range(m)]
        lines[k][k] = OWN
    for k in range(n):
        if depths[k] == 0:
            continue
        a = base[k % len(base)]
        b = base[(k + 1 + k // len(base)) % len(base)]
        w = WEIGHTS[k % len(WEIGHTS)]
        line = [w * x + (1 - w) * y - HALF for x, y in zip(lines[a], lines[b])]
        if depths[k] > 1:
            spoilable = [c for c in range(m) if opponent_depths[c] == depths[k] - 1]
            line[spoilable[k % len(spoilable)]] += SPOIL
        lines[k] = line
    return [lines[k] for k in range(n)]


def planted_game(rng, n: int):
    """A 2-player n x n game with planted mixed dominance for both players."""
    from epigame.games import Game

    depths = planted_depths(n)
    rows = _planted_lines(rng, n, n, depths)
    cols = _planted_lines(rng, n, n, depths)
    row_labels = tuple(f"r{k}" for k in range(n))
    col_labels = tuple(f"c{k}" for k in range(n))
    table1 = tuple(rows[i][j] for i in range(n) for j in range(n))
    table2 = tuple(cols[j][i] for i in range(n) for j in range(n))
    return Game((row_labels, col_labels), (table1, table2))


# --- epistemic models ------------------------------------------------------------

def model_game(seed: int):
    """The seeded 3-player 6x6x6 game with payoffs 0..9 the models live on."""
    from epigame.generators import GeneratorConfig, generate_game

    config = GeneratorConfig(
        seed=seed, players=(3, 3), strategies=(6, 6), payoff_pool=tuple(range(10))
    )
    return generate_game(config)


def random_model(seed: int, game, states: int, target_class: str):
    from epigame.generators import GeneratorConfig, generate_model

    config = GeneratorConfig(seed=seed, states=(states, states), target_class=target_class)
    return generate_model(config, game)


def chain_model(rng, game, states: int):
    """Interlocking-partition chain: the states lie on a seeded path; player 1
    knows pairs (p0 p1)(p2 p3)..., player 2 the shifted pairs (p0)(p1 p2)...,
    player 3 the same pairs as player 1. Returns the model and the path.

    Removing the path's last state from an event makes the iterated box lose
    one state per step, so common box takes ``states - 1`` box steps."""
    from epigame.epistemic import EpistemicModel, PossibilityCorrespondence, StateSpace

    labels = tuple(f"w{k}" for k in range(states))
    path = list(labels)
    rng.shuffle(path)
    space = StateSpace(labels)

    def correspondence(offset: int):
        blocks = [path[:offset]] if offset else []
        blocks += [path[k:k + 2] for k in range(offset, states, 2)]
        of_state = {}
        for block in blocks:
            event = frozenset(block)
            for s in block:
                of_state[s] = event
        return PossibilityCorrespondence(space, tuple(of_state[s] for s in labels))

    maps = tuple(
        tuple(rng.choice(game.strategies[i]) for _ in range(states))
        for i in range(game.n)
    )
    correspondences = (correspondence(0), correspondence(1), correspondence(0))
    return EpistemicModel(game, space, maps, correspondences), path


def box_distances(model, event) -> dict[str, float]:
    """Distance of every state to the complement of ``event`` along the
    possibility relations, by breadth-first search.

    On a knowledge-class (reflexive) model the k-th iterated box of the event
    is exactly the set of states at distance > k, so this gives the common
    box (distance infinite) and the number of box steps (the largest finite
    distance) without using the engine's box operator."""
    states = model.space.states
    pointed_from: dict[str, list[str]] = {s: [] for s in states}
    for c in model.correspondences:
        for s, target in zip(states, c.targets):
            for t in target:
                pointed_from[t].append(s)
    inside = set(event)
    dist = {s: float("inf") for s in states}
    queue = deque()
    for s in states:
        if s not in inside:
            dist[s] = 0
            queue.append(s)
    while queue:
        t = queue.popleft()
        for s in pointed_from[t]:
            if dist[s] == float("inf"):
                dist[s] = dist[t] + 1
                queue.append(s)
    return dist


def expected_common_box(model, event) -> tuple[list[str], int]:
    """Common box (in state order) and box-chain length of ``event`` on a
    knowledge-class model."""
    dist = box_distances(model, event)
    finite = [d for d in dist.values() if d != float("inf")]
    steps = max(1, int(max(finite))) if finite else 1
    return [s for s in model.space.states if dist[s] == float("inf")], steps
