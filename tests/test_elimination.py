import itertools
import random
from fractions import Fraction

import pytest

from epigame.elimination import (
    GLOBAL,
    LOCAL,
    NotionProfile,
    operator,
    outcome,
    t_global,
    u_local,
)
from epigame.errors import ValidationError
from epigame.games import MixedStrategy, Restriction, game_from_payoffs
from epigame.lattice import enumerate_restrictions
from epigame.optimality import Notion, dominates, holds

from test_optimality import random_game


def test_profile_parsing(tie_game):
    assert NotionProfile.parse("wd", 2) == NotionProfile.uniform("wd", 2)
    assert NotionProfile.parse("sd,wd", 2).notions == (Notion.SD, Notion.WD)
    assert NotionProfile.parse("sd wd", 2) == NotionProfile.parse(" sd , wd ", 2)
    with pytest.raises(ValidationError):
        NotionProfile.parse("sd,wd,sd", 2)
    for text in ("msd,", ",brc", "sd,,wd", "sd, ,wd"):
        with pytest.raises(ValidationError, match="has an empty entry"):
            NotionProfile.parse(text, 2)
    with pytest.raises(ValidationError):
        NotionProfile.parse("nope", 2)
    with pytest.raises(ValidationError, match="best response requires exactly 2 players"):
        NotionProfile.uniform("bri", 3).validate_for(
            game_from_payoffs(
                [("a",), ("x",), ("p", "q")],
                [
                    {("a", "x", "p"): 0, ("a", "x", "q"): 0},
                    {("a", "x", "p"): 0, ("a", "x", "q"): 0},
                    {("a", "x", "p"): 0, ("a", "x", "q"): 0},
                ],
            )
        )


def test_global_weak_dominance_single_step(tie_game):
    profile = NotionProfile.uniform("wd", 2)
    first = t_global(profile, tie_game, tie_game.full_restriction())
    assert first == Restriction.of(tie_game, (("D",), ("R",)))
    assert t_global(profile, tie_game, first) == first


def test_global_weak_dominance_trace(tie_game):
    trace = outcome(NotionProfile.uniform("wd", 2), tie_game, GLOBAL)
    assert trace.outcome == Restriction.of(tie_game, (("D",), ("R",)))
    assert trace.stabilized_at <= 2


def test_step_on_all_empty_restriction(tie_game):
    empty = Restriction.of(tie_game, ((), ()))
    for notion in ("sd", "wd", "msd", "mwd", "brp", "brc"):
        profile = NotionProfile.uniform(notion, 2)
        assert t_global(profile, tie_game, empty) == empty
        assert u_local(profile, tie_game, empty) == empty


def test_global_strict_dominance_pd(prisoners_dilemma):
    profile = NotionProfile.uniform("sd", 2)
    step = t_global(profile, prisoners_dilemma, prisoners_dilemma.full_restriction())
    assert step == Restriction.of(prisoners_dilemma, (("D",), ("D",)))


def test_local_equals_global_from_full_on_first_step(tie_game):
    # both operators agree on the full restriction since G_i = H_i there
    for notion in ("sd", "wd", "msd", "mwd", "brp", "brc"):
        profile = NotionProfile.uniform(notion, 2)
        full = tie_game.full_restriction()
        assert t_global(profile, tie_game, full) == u_local(profile, tie_game, full)


def test_local_correlated_equals_local_mixed_strict():
    rng = random.Random(7)
    for _ in range(25):
        game = random_game(rng, (rng.choice([2, 3]), rng.choice([2, 3])), pool=(0, 1, 2, 3))
        brc = NotionProfile.uniform("brc", 2)
        msd = NotionProfile.uniform("msd", 2)
        for restriction in enumerate_restrictions(game):
            if restriction.has_empty_component():
                continue
            assert u_local(brc, game, restriction) == u_local(msd, game, restriction)


def test_singleton_restrictions_are_local_fixpoints(tie_game, prisoners_dilemma):
    for game in (tie_game, prisoners_dilemma):
        for joint in game.joint_strategies:
            singleton = Restriction.of(game, tuple((s,) for s in joint))
            for notion in ("sd", "wd", "msd", "mwd", "brp"):
                profile = NotionProfile.uniform(notion, game.n)
                assert u_local(profile, game, singleton) == singleton


def test_local_weak_dominance_flat_game(flat_game):
    profile = NotionProfile.uniform("wd", 2)
    step = u_local(profile, flat_game, flat_game.full_restriction())
    assert step == Restriction.of(flat_game, (("U",), ("L", "R")))


def test_outcome_tie_game_local_wd_with_reasons(tie_game):
    trace = outcome(NotionProfile.uniform("wd", 2), tie_game, LOCAL)
    assert trace.outcome == Restriction.of(tie_game, (("D",), ("R",)))
    eliminated = {(r.player, r.strategy): r for r in trace.records}
    assert set(eliminated) == {(0, "U"), (1, "L")}
    assert eliminated[(0, "U")].stage == 0
    assert eliminated[(0, "U")].witness == "D"
    assert eliminated[(1, "L")].witness == "R"


def test_outcome_flat_game_global_brp(flat_game):
    trace = outcome(NotionProfile.uniform("brp", 2), flat_game, GLOBAL)
    assert trace.outcome == flat_game.full_restriction()
    assert trace.records == ()
    assert trace.stabilized_at == 0


def test_outcome_msd_eliminates_middle_single_column():
    game = game_from_payoffs(
        [("T", "M", "B"), ("L",)],
        [
            {("T", "L"): 3, ("M", "L"): 1, ("B", "L"): 0},
            {("T", "L"): 0, ("M", "L"): 0, ("B", "L"): 0},
        ],
    )
    trace = outcome(NotionProfile.uniform("msd", 2), game, GLOBAL)
    record = next(r for r in trace.records if r.strategy == "M")
    assert record.stage == 0 and record.player == 0
    assert dominates(game, 0, record.witness, "M", [("L",)], "strict")


def test_outcome_msd_mixed_witness(mix_game):
    trace = outcome(NotionProfile.uniform("msd", 2), mix_game, GLOBAL)
    assert trace.outcome == Restriction.of(mix_game, (("T", "B"), ("L", "R")))
    record = next(r for r in trace.records if r.strategy == "M")
    assert isinstance(record.witness, MixedStrategy)
    assert dominates(mix_game, 0, record.witness, "M", [("L",), ("R",)], "strict")
    weights = dict(record.witness.weights)
    assert weights["T"] == weights["B"] == Fraction(1, 2)


def test_outcome_brc_elimination_has_dominator_witness(prisoners_dilemma):
    trace = outcome(NotionProfile.uniform("brc", 2), prisoners_dilemma, GLOBAL)
    assert trace.outcome == Restriction.of(prisoners_dilemma, (("D",), ("D",)))
    for record in trace.records:
        assert isinstance(record.witness, MixedStrategy)
        assert dominates(
            prisoners_dilemma,
            record.player,
            record.witness,
            record.strategy,
            [("C",), ("D",)],
            "strict",
        )


def test_outcome_brp_elimination_certificate(prisoners_dilemma):
    trace = outcome(NotionProfile.uniform("brp", 2), prisoners_dilemma, GLOBAL)
    record = next(r for r in trace.records if r.player == 0)
    assert record.strategy == "C"
    assert record.reason == "never a best response to a point belief"
    better = dict(record.witness)
    for t, reply in better.items():
        assert prisoners_dilemma.payoff(0, (reply,) + t) > prisoners_dilemma.payoff(0, ("C",) + t)


def test_heterogeneous_profile(tie_game):
    profile = NotionProfile.parse("sd,wd", 2)
    trace = outcome(profile, tie_game, GLOBAL)
    assert trace.outcome == Restriction.of(tie_game, (("D",), ("R",)))
    stages = trace.stages
    assert stages[1] == Restriction.of(tie_game, (("U", "D"), ("R",)))
    assert stages[2] == Restriction.of(tie_game, (("D",), ("R",)))


def test_contraction_everywhere():
    rng = random.Random(21)
    for _ in range(15):
        game = random_game(rng, (rng.choice([2, 3]), rng.choice([2, 3])))
        for notion in ("sd", "wd", "msd", "mwd", "brp", "brc"):
            profile = NotionProfile.uniform(notion, 2)
            for restriction in enumerate_restrictions(game):
                assert t_global(profile, game, restriction).is_subset_of(restriction)
                assert u_local(profile, game, restriction).is_subset_of(restriction)


def test_global_refines_local_pointwise():
    rng = random.Random(22)
    for _ in range(15):
        game = random_game(rng, (rng.choice([2, 3]), rng.choice([2, 3])))
        for notion in ("sd", "msd", "brp", "brc"):
            profile = NotionProfile.uniform(notion, 2)
            for restriction in enumerate_restrictions(game):
                assert t_global(profile, game, restriction).is_subset_of(
                    u_local(profile, game, restriction)
                )


def test_best_response_refines_strict_dominance():
    rng = random.Random(23)
    brp = NotionProfile.uniform("brp", 2)
    sd = NotionProfile.uniform("sd", 2)
    for _ in range(15):
        game = random_game(rng, (rng.choice([2, 3]), rng.choice([2, 3])))
        for restriction in enumerate_restrictions(game):
            assert t_global(brp, game, restriction).is_subset_of(
                t_global(sd, game, restriction)
            )


def test_fixpoint_characterization_global():
    rng = random.Random(24)
    for _ in range(10):
        game = random_game(rng, (2, 2))
        for notion in ("sd", "wd", "brp"):
            profile = NotionProfile.uniform(notion, 2)
            for restriction in enumerate_restrictions(game):
                is_fixpoint = t_global(profile, game, restriction) == restriction
                characterized = all(
                    holds(profile.notions[i], game, i, s, game.strategies[i],
                          [(t,) for t in restriction.components[1 - i]])
                    for i in range(2)
                    for s in restriction.components[i]
                )
                assert is_fixpoint == characterized


def test_three_player_elimination():
    # player 3's strategy q is strictly dominated; after removing it,
    # player 1's b becomes strictly dominated
    joints = list(itertools.product(("a", "b"), ("x",), ("p", "q")))
    p1 = {("a", "x", "p"): 2, ("a", "x", "q"): 0, ("b", "x", "p"): 1, ("b", "x", "q"): 5}
    p2 = {j: 0 for j in joints}
    p3 = {("a", "x", "p"): 1, ("a", "x", "q"): 0, ("b", "x", "p"): 1, ("b", "x", "q"): 0}
    game = game_from_payoffs([("a", "b"), ("x",), ("p", "q")], [p1, p2, p3])
    trace = outcome(NotionProfile.uniform("sd", 3), game, GLOBAL)
    assert trace.outcome == Restriction.of(game, (("a",), ("x",), ("p",)))
    stages = [s.components for s in trace.stages]
    assert stages[1] == (("a", "b"), ("x",), ("p",))
    assert stages[2] == (("a",), ("x",), ("p",))
