import itertools
import random
from fractions import Fraction

import pytest

from epigame.errors import ValidationError
from epigame.games import CorrelatedBelief, MixedStrategy, game_from_payoffs
from epigame.optimality import (
    Notion,
    dominates,
    holds,
    parse_notion,
    solve_br_lp,
    solve_dominance_lp,
)

from reference import supports_best_response

F = Fraction


# --- oracles ----------------------------------------------------------------

def grid_mixtures(support, denominator=12):
    """All mixtures over `support` with weights in multiples of 1/denominator."""
    k = len(support)
    for cuts in itertools.combinations_with_replacement(range(denominator + 1), k - 1):
        parts = [a - b for a, b in zip(cuts + (denominator,), (0,) + cuts)]
        yield MixedStrategy(
            0, tuple((s, F(p, denominator)) for s, p in zip(support, parts))
        )


def grid_has_dominator(game, i, s_i, support, opponents, mode):
    for mix in grid_mixtures(support):
        mix = MixedStrategy(i, mix.weights)
        if dominates(game, i, mix, s_i, opponents, mode):
            return True
    return False


def grid_has_supporting_belief(game, i, s_i, alternatives, opponents, denominator=12):
    for mix in grid_mixtures(opponents):
        ok = True
        own = sum(
            w * game.payoff(i, t[:i] + (s_i,) + t[i:]) for t, w in mix.weights
        )
        for s in alternatives:
            other = sum(
                w * game.payoff(i, t[:i] + (s,) + t[i:]) for t, w in mix.weights
            )
            if own < other:
                ok = False
                break
        if ok:
            return True
    return False


def random_game(rng, shape, pool=(0, 1, 2)):
    letters = "abcdefg"
    strategies = [tuple(letters[: size]) for size in shape]
    joints = list(itertools.product(*strategies))
    payoffs = [
        {j: rng.choice(pool) for j in joints} for _ in range(len(shape))
    ]
    return game_from_payoffs(strategies, payoffs)


# --- the tie game facts -------------------------------------------------------

def test_weak_dominance_facts(tie_game):
    assert holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [("L",)])
    assert holds(Notion.WD, tie_game, 1, "L", ("L", "R"), [("U",)])
    assert not holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [("L",), ("R",)])


def test_strict_dominance_singleton_always_survives(tie_game):
    for opponents in ([], [("L",)], [("L",), ("R",)]):
        assert holds(Notion.SD, tie_game, 0, "U", ("U",), opponents)
        assert holds(Notion.SD, tie_game, 0, "D", ("D",), opponents)


def test_mixture_beats_middle(mix_game):
    assert not holds(Notion.MSD, mix_game, 0, "M", ("T", "M", "B"), [("L",), ("R",)])
    # no pure strategy does it
    assert holds(Notion.SD, mix_game, 0, "M", ("T", "M", "B"), [("L",), ("R",)])


def test_mix_game_lp_witness(mix_game):
    opponents = [("L",), ("R",)]
    verdict = solve_dominance_lp(mix_game, 0, "M", ("T", "M", "B"), opponents, "strict")
    assert verdict.dominated
    assert verdict.optimum == F(1, 2)
    assert dict(verdict.witness.weights) == {"T": F(1, 2), "M": F(0), "B": F(1, 2)}
    assert dominates(mix_game, 0, verdict.witness, "M", opponents, "strict")
    assert grid_has_dominator(mix_game, 0, "M", ("T", "M", "B"), opponents, "strict")


def test_a_witness_from_a_degenerate_decision_is_blands():
    # player 1's payoffs against x, y and z: the largest-coefficient rule ends
    # the strict game of s at a primal-degenerate basis with value 1/2 and the
    # optimal mixture 1/4 a + 1/2 b + 1/4 c, not Bland's 1/2 b + 1/2 c
    edges = {"s": (0, 0, 0), "a": (-1, -1, 3), "b": (2, 1, -2), "c": (-1, 1, 3)}
    game = game_from_payoffs([tuple(edges), ("x", "y", "z")], [
        {(a, t): row[k] for a, row in edges.items() for k, t in enumerate("xyz")},
        {(a, t): 0 for a in edges for t in "xyz"}])
    opponents = [("x",), ("y",), ("z",)]
    assert not holds(Notion.MSD, game, 0, "s", tuple(edges), opponents)
    verdict = solve_dominance_lp(game, 0, "s", tuple(edges), opponents, "strict")
    assert verdict.optimum == F(1, 2)
    assert verdict.witness.weights == (("s", 0), ("a", 0), ("b", F(1, 2)), ("c", F(1, 2)))
    assert dominates(game, 0, verdict.witness, "s", opponents, "strict")


def test_tie_game_strict_lp_negative(tie_game):
    verdict = solve_dominance_lp(tie_game, 0, "U", ("U", "D"), [("L",), ("R",)], "strict")
    assert not verdict.dominated
    assert verdict.optimum <= 0
    assert not grid_has_dominator(tie_game, 0, "U", ("U", "D"), [("L",), ("R",)], "strict")


def test_self_support_never_dominates(tie_game, mix_game):
    verdict = solve_dominance_lp(tie_game, 0, "U", ("U",), [("L",), ("R",)], "strict")
    assert not verdict.dominated
    verdict = solve_dominance_lp(mix_game, 0, "M", ("M",), [("L",), ("R",)], "weak")
    assert not verdict.dominated


def test_dominance_lp_error_cases(tie_game):
    with pytest.raises(ValidationError, match="dominance LP needs at least one opponent profile"):
        solve_dominance_lp(tie_game, 0, "U", ("U", "D"), [], "strict")
    with pytest.raises(ValidationError, match="dominance LP needs a non-empty support"):
        solve_dominance_lp(tie_game, 0, "U", (), [("L",)], "strict")


def test_witness_rechecks_reject_bad_inputs(tie_game):
    mix = MixedStrategy(0, (("D", 1),))
    with pytest.raises(ValidationError):
        dominates(tie_game, 0, mix, "U", [("L",), ("R",)], "weakk")
    with pytest.raises(ValidationError):
        dominates(tie_game, 0, mix, "U", [("Z",)], "strict")
    belief = CorrelatedBelief(((("Z",), 1),))
    with pytest.raises(ValidationError):
        supports_best_response(tie_game, 0, belief, "U", ("U", "D"))


def test_flat_game_every_strategy_best_response(flat_game):
    full = [("L",), ("R",)]
    for s in ("U", "D"):
        assert holds(Notion.BR_POINT, flat_game, 0, s, ("U", "D"), full)
    for s in ("L", "R"):
        assert holds(Notion.BR_POINT, flat_game, 1, s, ("L", "R"), [("U",), ("D",)])


def test_br_lp_flat_game_forced_point_witness(flat_game):
    verdict = solve_br_lp(flat_game, 0, "D", ("U", "D"), [("L",), ("R",)])
    assert verdict.is_best_response
    # D ties U on L and loses on R, so the only supporting belief is all-L
    assert dict(verdict.witness.weights)[("L",)] == 1
    assert supports_best_response(flat_game, 0, verdict.witness, "D", ("U", "D"))


def test_br_lp_single_alternative_is_trivial(mix_game):
    verdict = solve_br_lp(mix_game, 0, "M", ("M",), [("L",), ("R",)])
    assert verdict.is_best_response


def test_br_lp_middle_has_no_support(mix_game):
    verdict = solve_br_lp(mix_game, 0, "M", ("T", "M", "B"), [("L",), ("R",)])
    assert not verdict.is_best_response
    assert not grid_has_supporting_belief(
        mix_game, 0, "M", ("T", "B"), [("L",), ("R",)]
    )
    with pytest.raises(ValidationError, match="best-response LP needs at least one opponent profile"):
        solve_br_lp(mix_game, 0, "M", ("T", "M", "B"), [])


def test_independent_belief_alias(tie_game):
    full = [("L",), ("R",)]
    assert holds(Notion.BR_INDEPENDENT, tie_game, 0, "U", ("U", "D"), full) == holds(
        Notion.BR_CORRELATED, tie_game, 0, "U", ("U", "D"), full
    )


def test_independent_belief_rejected_for_three_players():
    game = game_from_payoffs(
        [("a", "b"), ("x", "y"), ("p", "q")],
        [
            {j: 0 for j in itertools.product("ab", "xy", "pq")},
            {j: 0 for j in itertools.product("ab", "xy", "pq")},
            {j: 0 for j in itertools.product("ab", "xy", "pq")},
        ],
    )
    with pytest.raises(ValidationError, match="best response requires exactly 2 players"):
        holds(Notion.BR_INDEPENDENT, game, 0, "a", ("a", "b"), [("x", "p")])


def test_empty_opponent_conventions(tie_game):
    # strict notions: any distinct alternative vacuously dominates
    assert not holds(Notion.SD, tie_game, 0, "U", ("U", "D"), [])
    assert not holds(Notion.MSD, tie_game, 0, "U", ("U", "D"), [])
    assert holds(Notion.SD, tie_game, 0, "U", ("U",), [])
    assert holds(Notion.MSD, tie_game, 0, "U", ("U",), [])
    # weak notions need a strict witness, so nothing is weakly dominated
    assert holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [])
    assert holds(Notion.MWD, tie_game, 0, "U", ("U", "D"), [])
    # no belief over an empty set
    assert not holds(Notion.BR_POINT, tie_game, 0, "U", ("U", "D"), [])
    assert not holds(Notion.BR_CORRELATED, tie_game, 0, "U", ("U", "D"), [])


def test_parse_notion_roundtrip():
    for notion in Notion:
        assert parse_notion(notion.value) is notion


# --- properties ---------------------------------------------------------------

def opponent_subsets(game, i):
    joints = list(itertools.product(*[c for j, c in enumerate(game.strategies) if j != i]))
    for size in range(len(joints) + 1):
        yield from itertools.combinations(joints, size)


def test_monotonicity_exhaustive_small_games():
    rng = random.Random(11)
    for _ in range(60):
        game = random_game(rng, (2, 2))
        for notion in (Notion.SD, Notion.MSD, Notion.BR_POINT, Notion.BR_CORRELATED):
            for i in range(2):
                h_i = game.strategies[i]
                subsets = list(opponent_subsets(game, i))
                for small in subsets:
                    for big in subsets:
                        if not set(small) <= set(big):
                            continue
                        for s in h_i:
                            if holds(notion, game, i, s, h_i, small):
                                assert holds(notion, game, i, s, h_i, big)


def test_weak_dominance_non_monotonic_witness_exists(tie_game):
    assert holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [("L",)])
    assert not holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [("L",), ("R",)])


def test_mixed_implies_pure_strictness():
    rng = random.Random(5)
    for _ in range(40):
        game = random_game(rng, (rng.choice([2, 3]), rng.choice([2, 3])))
        for i in range(2):
            h_i = game.strategies[i]
            for opponents in opponent_subsets(game, i):
                if not opponents:
                    continue
                for s in h_i:
                    if holds(Notion.MSD, game, i, s, h_i, opponents):
                        assert holds(Notion.SD, game, i, s, h_i, opponents)
                    if holds(Notion.MWD, game, i, s, h_i, opponents):
                        assert holds(Notion.WD, game, i, s, h_i, opponents)


def test_pearce_pointwise_equivalence():
    rng = random.Random(99)
    for _ in range(50):
        shape = (rng.choice([2, 3]), rng.choice([2, 3]))
        game = random_game(rng, shape, pool=(0, 1, 2, 3))
        for i in range(2):
            g_i = game.strategies[i]
            for opponents in opponent_subsets(game, i):
                if not opponents:
                    continue
                for s in g_i:
                    br = solve_br_lp(game, i, s, g_i, opponents)
                    dom = solve_dominance_lp(game, i, s, g_i, opponents, "strict")
                    assert br.is_best_response == (not dom.dominated)


def test_lp_exactness_on_random_instances():
    rng = random.Random(314)
    strict_negatives = weak_negatives = 0
    for _ in range(80):
        shape = (rng.choice([2, 3, 4]), rng.choice([2, 3]))
        game = random_game(rng, shape, pool=(0, 1, 2, 3))
        i = rng.randrange(2)
        support = game.strategies[i]
        opponents = [
            t for t in itertools.product(*[c for j, c in enumerate(game.strategies) if j != i])
            if rng.random() < 0.8
        ]
        if not opponents:
            continue
        s = rng.choice(support)
        for mode in ("strict", "weak"):
            verdict = solve_dominance_lp(game, i, s, support, opponents, mode)
            if verdict.dominated:
                assert dominates(game, i, verdict.witness, s, opponents, mode)
                assert sum(w for _, w in verdict.witness.weights) == 1
            elif len(support) + 1 <= 6:
                assert not grid_has_dominator(game, i, s, support, opponents, mode)
                if mode == "strict":
                    strict_negatives += 1
                else:
                    weak_negatives += 1
        br = solve_br_lp(game, i, s, support, opponents)
        if br.is_best_response:
            assert supports_best_response(game, i, br.witness, s, support)
    assert strict_negatives and weak_negatives
