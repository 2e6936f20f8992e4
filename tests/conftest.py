"""Shared game fixtures.

The four named games exercise the corner cases of the five optimality
notions: ties that weak dominance punishes, a flat game where everything is
a best response, a strict-dominance solvable game, and a game where only a
mixture eliminates a strategy.
"""

import pytest

# keep the reference solver's invariant checks under python -O
pytest.register_assert_rewrite("fraction_simplex")

from epigame.games import game_from_payoffs, parse_game  # noqa: E402

TIE_GAME_TEXT = """\
# 2x2 game full of ties; weak dominance bites, strict does not
players: 2
strategies 1: U D
strategies 2: L R
payoff 1: U L = 1
payoff 1: U R = 0
payoff 1: D L = 1
payoff 1: D R = 1
payoff 2: U L = 1
payoff 2: U R = 1
payoff 2: D L = 0
payoff 2: D R = 1
"""

FLAT_GAME_TEXT = """\
# every strategy is a best response; D is weakly dominated by U
players: 2
strategies 1: U D
strategies 2: L R
payoff 1: U L = 1
payoff 1: U R = 1
payoff 1: D L = 1
payoff 1: D R = 0
payoff 2: U L = 0
payoff 2: U R = 0
payoff 2: D L = 0
payoff 2: D R = 0
"""


@pytest.fixture(scope="session")
def tie_game():
    return parse_game(TIE_GAME_TEXT)


@pytest.fixture(scope="session")
def flat_game():
    return parse_game(FLAT_GAME_TEXT)


@pytest.fixture(scope="session")
def prisoners_dilemma():
    return game_from_payoffs(
        [("C", "D"), ("C", "D")],
        [
            {("C", "C"): 3, ("C", "D"): 0, ("D", "C"): 5, ("D", "D"): 1},
            {("C", "C"): 3, ("C", "D"): 5, ("D", "C"): 0, ("D", "D"): 1},
        ],
    )


@pytest.fixture(scope="session")
def mix_game():
    # M is beaten by the even T/B coin flip but by no pure strategy.
    return game_from_payoffs(
        [("T", "M", "B"), ("L", "R")],
        [
            {
                ("T", "L"): 3, ("T", "R"): 0,
                ("M", "L"): 1, ("M", "R"): 1,
                ("B", "L"): 0, ("B", "R"): 3,
            },
            {joint: 0 for joint in
             (("T", "L"), ("T", "R"), ("M", "L"), ("M", "R"), ("B", "L"), ("B", "R"))},
        ],
    )
