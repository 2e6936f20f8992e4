"""Shared game fixtures.

The four named games exercise the corner cases of the five optimality
notions: ties that weak dominance punishes, a flat game where everything is
a best response, a strict-dominance solvable game, and a game where only a
mixture eliminates a strategy.
"""

import pytest
from hypothesis import settings

# keep the reference solver's invariant checks under python -O
pytest.register_assert_rewrite("fraction_simplex")

# Tier-1 gives one verdict per tree: every run draws the same examples, and no
# example database carries draws from one run to the next. "explore" draws
# fresh examples and prints each failure's reproduction blob; select it with
# --hypothesis-profile=explore. Under either profile a test's own
# @settings(max_examples=...) takes precedence over the profile's.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile("tier1")

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
