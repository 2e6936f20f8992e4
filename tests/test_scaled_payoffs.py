"""Games whose players' payoffs have different denominators, so each player's
integer table has its own scale: the elimination traces must not see it."""

import hashlib
import random
from fractions import Fraction

from epigame.cli import main
from epigame.games import CorrelatedBelief, Game, MixedStrategy, render_game

F = Fraction

# one pool per player, with denominators the other pool lacks
POOLS = (
    (F(1, 3), F(-5, 7), F(2, 9), F(7, 2)),
    (F(1, 6), F(-1, 4), F(3), F(5, 11)),
)
NOTIONS = ("sd", "wd", "msd", "mwd", "brp", "brc")
# sha256 over every trace below, pinned: scaling the payoffs to integers may
# not change one byte of them
TRACES_DIGEST = "0854a628324a55dd7358eb926f1b678425f58ff26300cbc9f87054242af37f2a"


def rational_game(seed: int) -> Game:
    """A 2-player game of 3-7 strategies each; every payoff is an integer
    offset plus a value from its player's pool."""
    rng = random.Random(seed)
    strategies = tuple(tuple("abcdefg"[: rng.randint(3, 7)]) for _ in range(2))
    size = len(strategies[0]) * len(strategies[1])
    tables = tuple(
        tuple(rng.randint(-2, 2) + rng.choice(pool) for _ in range(size)) for pool in POOLS
    )
    return Game(strategies, tables)


def test_traces_on_games_with_per_player_scales(tmp_path, capsys):
    digest = hashlib.sha256()
    for seed in range(40):
        path = tmp_path / f"g{seed}.game"
        path.write_text(render_game(rational_game(seed)))
        for notion in NOTIONS:
            for mode in ("global", "local"):
                code = main(["eliminate", "--game", str(path), "--notion", notion,
                             "--mode", mode, "--trace"])
                assert code == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == TRACES_DIGEST


def test_engine_reads_no_rational_payoffs(monkeypatch):
    # outcome, rat_event and the verifiers read the integer tables only;
    # Game.payoff is for the I/O boundary
    from epigame.elimination import NotionProfile, outcome
    from epigame.epistemic import rat_event
    from epigame.generators import GeneratorConfig, generate_model
    from epigame.verify import (
        nonmonotonicity_witnesses,
        search_thm2,
        verify_cor1,
        verify_cor2,
        verify_thm1i,
        verify_thm1ii,
        verify_thm1iii,
    )

    def payoff(*args):
        raise AssertionError("Game.payoff called inside the engine")

    monkeypatch.setattr(Game, "payoff", payoff)
    game = rational_game(3)
    belief, knowledge = (
        generate_model(GeneratorConfig(seed=3, states=(5, 8), target_class=c), game)
        for c in ("belief", "knowledge")
    )
    for notion in NOTIONS:
        profile = NotionProfile.uniform(notion, 2)
        for mode in ("global", "local"):
            assert outcome(profile, game, mode).records
        rat_event(belief, profile)
        verify_thm1iii(game, profile)
        search_thm2(game, profile)
        if notion not in ("wd", "mwd"):
            verify_thm1i(game, belief, profile)
            verify_thm1ii(game, knowledge, profile)
            next(nonmonotonicity_witnesses(rational_game(5), profile.notions[0]), None)
    verify_cor1(game, belief)
    verify_cor2(game, knowledge)


def test_lp_verdicts_match_the_fraction_reference():
    # optima and witnesses against the Fraction solver on the unscaled
    # programs: the per-player scale must not show in either
    import fraction_simplex as reference
    from epigame.optimality import solve_br_lp, solve_dominance_lp

    for seed in range(6):
        game = rational_game(seed)
        for i in range(2):
            labels = game.strategies[i]
            opponents = [(t,) for t in game.strategies[1 - i]]

            def u(a, t):
                return game.payoff(i, (a, t[0]) if i == 0 else (t[0], a))

            m, k = len(opponents), len(labels)
            for s in labels:
                mine = [u(s, t) for t in opponents]
                diffs = [[u(a, t) - p for t, p in zip(opponents, mine)] for a in labels]
                value, weights, belief = reference.matrix_game_value(diffs)
                strict = solve_dominance_lp(game, i, s, labels, opponents, "strict")
                assert strict.optimum == value
                assert strict.witness == (MixedStrategy(i, tuple(zip(labels, weights)))
                                          if value > 0 else None)

                rows = [[u(a, t) for a in labels] + [-F(q == r) for q in range(m)]
                        for r, t in enumerate(opponents)]
                rows.append([F(1)] * k + [F(0)] * m)
                solution = reference.solve(rows, mine + [F(1)], [0] * k + [1] * m)
                weak = solve_dominance_lp(game, i, s, labels, opponents, "weak")
                assert weak.optimum == solution.value
                if weak.dominated:
                    assert weak.witness == MixedStrategy(
                        i, tuple(zip(labels, solution.assignment[:k])))

                # Pearce: the belief is the column solution of the same game
                br = solve_br_lp(game, i, s, labels, opponents)
                assert br.witness == (CorrelatedBelief(tuple(zip(opponents, belief)))
                                      if value <= 0 else None)
