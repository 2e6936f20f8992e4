"""One reader per input kind: notions, payoff values, labels and weights.

Each malformed value below once passed silently or ended in a TypeError,
AttributeError or bare ValueError; each must be a ValidationError now.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from epigame.elimination import GLOBAL, LOCAL, NotionProfile, outcome
from epigame.epistemic import (
    EpistemicModel,
    PossibilityCorrespondence,
    StateSpace,
    box,
    common_box,
    restriction_of,
)
from epigame.errors import ValidationError
from epigame.games import (
    CorrelatedBelief,
    Game,
    MixedStrategy,
    Restriction,
    dominates,
    expected_payoff,
    game_from_payoffs,
)
from epigame.generators import GeneratorConfig, generate_game
from epigame.optimality import Notion, holds, parse_notion, solve_br_lp, solve_dominance_lp
from epigame.verify import (
    _suite_config,
    cor_suite,
    lemma_inc_suite,
    monotonicity_suite,
    pearce_suite,
    thm1_suite,
    thm1iii_suite,
    thm2_hypothesis_clauses,
    verify_cor2,
)

AB_XY = game_from_payoffs([("a", "b"), ("x", "y")], [
    {j: int(j == ("a", "x")) for j in itertools.product("ab", "xy")}] * 2)
THREE = game_from_payoffs([("a", "b"), ("x", "y"), ("p", "q")], [
    {j: 0 for j in itertools.product("ab", "xy", "pq")}] * 3)
POINT_X = CorrelatedBelief(((("x",), 1),))
W = StateSpace(("w",))
W_CELLS = (PossibilityCorrespondence(W, ({"w"},)),) * 2
W_MODEL = EpistemicModel(AB_XY, W, (("a",), ("x",)), W_CELLS)
BRI_MESSAGE = "independent-belief best response requires exactly 2 players"
AB = StateSpace(("a", "b"))
# each string was read as its letters: the mask 3, the singleton
# correspondence and the set {a, b}
BARE_STRINGS = [
    lambda: AB.mask_of("ab"),
    lambda: PossibilityCorrespondence(AB, "ab"),
    lambda: PossibilityCorrespondence(AB, ("ab", {"a"})),
]


@pytest.mark.parametrize("call", [
    # the predicate core read an unknown value as msd/brc and returned True
    lambda: holds(42, AB_XY, 0, "a", ("a", "b"), [("x",)]),
    lambda: holds(None, AB_XY, 0, "a", ("a", "b"), [("x",)]),
    # accepted, then eliminated as msd or died naming the operator
    lambda: NotionProfile((42, "sd")),
    lambda: outcome(NotionProfile((42, "sd")), AB_XY, LOCAL),
    lambda: NotionProfile.uniform(42, 2),
    # not iterable: a TypeError
    lambda: NotionProfile(42),
    # a float pool entry became a binary fraction, a text one a bare ValueError
    lambda: GeneratorConfig(seed=0, payoff_pool=(0.1,)),
    lambda: GeneratorConfig(seed=0, payoff_pool=("x",)),
    # unhashable labels ended in TypeError
    lambda: AB_XY.strategy_index(0, ["a"]),
    lambda: AB_XY.opponent_offset(0, (["x"],)),
    lambda: AB_XY.opponent_offset(0, 5),
    lambda: AB_XY.payoff(0, ("a", ["x"])),
    lambda: holds("sd", AB_XY, 0, "a", ("a", "b"), [(["x"],)]),
    lambda: expected_payoff(AB_XY, 0, ["a"], POINT_X),
    lambda: expected_payoff(AB_XY, 0, "a", CorrelatedBelief((((["x"],), 1),))),
    lambda: dominates(AB_XY, 0, MixedStrategy(0, ((["a"], 1),)), "b", [("x",)], "strict"),
    lambda: EpistemicModel(AB_XY, W, ((["a"],), ("x",)), W_CELLS),
    lambda: StateSpace((["a"], "w")),
    lambda: StateSpace(("w",)).mask_of([["w"]]),
    lambda: PossibilityCorrespondence(StateSpace(("w",)), ([["w"]],)),
    # a correspondence that is none: an AttributeError on its space
    lambda: EpistemicModel(AB_XY, StateSpace(("w",)), (("a",), ("x",)), (5, 5)),
    # unknown states of two types could not be sorted for the message
    lambda: PossibilityCorrespondence(StateSpace(("w",)), ({1, "z"},)),
    lambda: AB_XY.player("a"),
    # a string key was read as its letters, an int key ended in TypeError
    lambda: CorrelatedBelief((("Left", 1),)),
    lambda: CorrelatedBelief(((5, 1),)),
    lambda: MixedStrategy(0, (("a",),)),
    # a suite count that is not an int of at least 1 returned a 0-instance
    # holds-on-all or a negative count, or ended in TypeError
    lambda: thm1_suite("sd", 0),
    lambda: pearce_suite(0),
    lambda: lemma_inc_suite(0),
    lambda: monotonicity_suite(0, 0),
    lambda: monotonicity_suite(-1, 2),
    lambda: monotonicity_suite(1.5, 1),
    lambda: thm1iii_suite(-3),
    lambda: thm1_suite("sd", 2.5),
    lambda: pearce_suite("3"),
    # a seed that is not an int ended in TypeError or ran
    lambda: thm1_suite("sd", 1, seed="0"),
    lambda: pearce_suite(1, seed=1.5),
    lambda: monotonicity_suite(1, 0, seed="x"),
    # cor1 ran without reading its unknown belief class
    lambda: cor_suite("cor1", 1, belief_class="bogus"),
    # a range entry that is not an int, a range that is not a pair, a pool
    # that is not a collection and a seed that is not an int
    lambda: GeneratorConfig(seed=0, players=(2, 3.5)),
    lambda: GeneratorConfig(seed=0, strategies=(2, "3")),
    lambda: GeneratorConfig(seed=0, players=(2,)),
    lambda: GeneratorConfig(seed=0, payoff_pool=5),
    lambda: GeneratorConfig(seed=[1]),
    # a bool payoff read as 1 or 0
    lambda: GeneratorConfig(seed=0, payoff_pool=(True, False)),
    lambda: game_from_payoffs([("a",), ("x",)], [{("a", "x"): True}, {("a", "x"): 0}]),
    lambda: Game((("a", "b"), ("x", "y")), ((True, 0, 0, 1), (1, 0, 0, 1))),
    # True read as player 2 and as the event mask 1
    lambda: holds("sd", AB_XY, True, "x", ("x", "y"), [("a",)]),
    lambda: box(W_MODEL, True),
    lambda: common_box(W_MODEL, True),
    lambda: restriction_of(W_MODEL, True),
    # an unhashable belief class ended in TypeError
    lambda: verify_cor2(AB_XY, W_MODEL, ["x"]),
    lambda: cor_suite("cor2", 2, belief_class=["x"]),
    *BARE_STRINGS,
], ids=[
    "holds-42", "holds-None", "profile-42", "outcome-42", "uniform-42", "profile-int",
    "pool-float", "pool-text", "strategy-index", "opponent-offset", "opponent-offset-int",
    "payoff", "holds-label", "expected-payoff-own", "expected-payoff-profile",
    "dominates-mixture", "model-map", "state-space", "mask-of", "correspondence",
    "model-correspondence",
    "correspondence-mixed-types",
    "player", "belief-string-key", "belief-int-key", "mixture-not-pairs",
    "thm1-suite-0", "pearce-suite-0", "lemma-inc-suite-0", "monotonicity-suite-0-0",
    "monotonicity-suite-negative", "monotonicity-suite-float", "thm1iii-suite-negative",
    "thm1-suite-float", "pearce-suite-text", "thm1-suite-text-seed", "pearce-suite-float-seed",
    "monotonicity-suite-text-seed", "cor1-suite-belief-class",
    "config-players-float", "config-strategies-text", "config-players-single",
    "config-pool-int", "config-seed-list", "pool-bool", "payoffs-bool", "game-payoff-bool",
    "player-bool", "event-bool", "common-box-event-bool", "restriction-event-bool",
    "cor2-belief-class-list", "cor2-suite-belief-class-list", "mask-of-string",
    "correspondence-string", "correspondence-target-string",
])
def test_a_malformed_value_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_unknown_and_unhashable_labels_share_a_message():
    for label in ("z", ["z"]):
        with pytest.raises(ValidationError, match=r"player 1 has no strategy .*z"):
            AB_XY.strategy_index(0, label)
        with pytest.raises(ValidationError, match=r"player 2 has no strategy .*z"):
            AB_XY.opponent_offset(0, (label,))
        with pytest.raises(ValidationError, match=r"player 1 has no strategy .*z"):
            EpistemicModel(AB_XY, W, ((label,), ("x",)), W_CELLS)
        with pytest.raises(ValidationError, match=r"unknown state .*z"):
            StateSpace(("w",)).mask_of([label])
        with pytest.raises(ValidationError, match="correspondence targets unknown states"):
            PossibilityCorrespondence(StateSpace(("w",)), ([label],))


def test_a_bare_string_of_states_is_read_as_a_collection_is():
    for call in BARE_STRINGS:
        with pytest.raises(ValidationError, match="^expected a collection, got 'ab'$"):
            call()


def test_weight_checks_keep_their_messages():
    for make, what, key, other in (
            (lambda w: MixedStrategy(0, w), "mixed strategy", "a", "b"),
            (CorrelatedBelief, "correlated belief", ("x",), ("y",))):
        with pytest.raises(ValidationError, match=f"{what} lists a .*twice"):
            make(((key, 1), (key, 0)))
        with pytest.raises(ValidationError, match=f"{what} has a negative weight"):
            make(((key, -1), (other, 2)))
        with pytest.raises(ValidationError, match=f"{what} weights must sum to exactly 1"):
            make(((key, Fraction(1, 2)),))
    # a mixture key need only hash; a belief key may be a list
    assert MixedStrategy(0, ((("a", "b"), 1),)).weights == ((("a", "b"), 1),)
    assert CorrelatedBelief(((["x"], "1/2"), (("y",), "1/2"))).weights[0] == (("x",), Fraction(1, 2))


def test_the_payoff_pool_is_read_as_payoffs_are():
    assert GeneratorConfig(seed=0, payoff_pool=(1, "1/2", Fraction(3))).payoff_pool == (
        Fraction(1), Fraction(1, 2), Fraction(3))


def test_bri_is_brc_on_two_players_and_unsupported_on_three():
    profile = NotionProfile(("bri", Notion.SD))
    assert profile.validate_for(AB_XY) == (Notion.BR_CORRELATED, Notion.SD)
    with pytest.raises(ValidationError, match=BRI_MESSAGE):
        holds("bri", THREE, 0, "a", ("a", "b"), [("x", "p")])
    with pytest.raises(ValidationError, match=BRI_MESSAGE):
        NotionProfile.uniform("bri", 3).validate_for(THREE)


def test_every_notion_reads_as_itself_and_as_its_name():
    for notion in Notion:
        assert parse_notion(notion) is notion
        assert parse_notion(notion.value) is notion


NOT_A_NOTION = st.one_of(
    st.none(), st.integers(), st.floats(), st.binary(), st.booleans(),
    st.text().filter(lambda t: t not in {n.value for n in Notion}),
    st.lists(st.sampled_from([n.value for n in Notion]), max_size=2),
    st.tuples(st.sampled_from(list(Notion))),
)


@given(NOT_A_NOTION)
def test_any_other_value_is_not_a_notion(value):
    for call in (
        lambda: parse_notion(value),
        lambda: holds(value, AB_XY, 0, "a", ("a", "b"), [("x",)]),
        lambda: NotionProfile((value, "sd")),
        lambda: NotionProfile.uniform(value, 2),
        lambda: thm1_suite(value, 1),
    ):
        with pytest.raises(ValidationError, match="unknown notion"):
            call()


def _game_from_draws(config):
    """The generator's draws built through ``game_from_payoffs``: the shape,
    then one pool draw per player and joint strategy in product order."""
    rng = random.Random(config.seed)
    n = rng.randint(*config.players)
    strategies = [tuple("abcdefghij"[:rng.randint(*config.strategies)]) for _ in range(n)]
    joints = list(itertools.product(*strategies))
    return game_from_payoffs(strategies, [
        {joint: rng.choice(config.payoff_pool) for joint in joints} for _ in range(n)])


def test_generate_game_equals_a_build_of_its_draws():
    # every generator configuration the suites use: (2, 3) players, or (2, 2)
    # for bri, and (2, 4) or (2, 3) strategies; the model class does not reach
    # the game
    for seed in range(300):
        for notion, strategies in itertools.product((Notion.SD, Notion.BR_INDEPENDENT),
                                                    ((2, 4), (2, 3))):
            config = _suite_config(seed, "belief", notion, strategies)
            assert generate_game(config) == _game_from_draws(config)


def test_thm2_clauses_match_the_label_predicate():
    for seed in range(40):
        game = generate_game(_suite_config(seed, "belief", strategies=(2, 3)))
        for notion in ("sd", "wd", "brp", "mwd"):
            profile = NotionProfile.uniform(notion, game.n)
            limit = outcome(profile, game, GLOBAL).outcome
            for joint in game.joint_strategies:
                expected = []
                if all(s in c for s, c in zip(joint, limit.components)):
                    expected.append(f"joint strategy {joint} survives the elimination")
                for i in range(game.n):
                    rest = joint[:i] + joint[i + 1:]
                    if not holds(notion, game, i, joint[i], game.strategies[i], [rest]):
                        expected.append(f"player {i + 1} strategy {joint[i]} is not "
                                        f"{notion}-optimal against {rest}")
                assert thm2_hypothesis_clauses(game, profile, joint) == expected


@pytest.mark.parametrize("call", [
    # each string was read as its letters: {a, b} and the profiles (x,), (y,)
    lambda: holds("sd", AB_XY, 0, "a", "ab", "xy"),
    lambda: holds("sd", AB_XY, 0, "a", ("a", "b"), "xy"),
    lambda: holds("sd", THREE, 0, "a", ("a", "b"), ["xp"]),
    lambda: solve_dominance_lp(AB_XY, 0, "a", "ab", "xy", "strict"),
    lambda: solve_br_lp(AB_XY, 0, "a", "ab", "xy"),
    lambda: holds("sd", AB_XY, 0, "a", 5, [("x",)]),
    lambda: Game(("ab", ("x", "y")), ((1, 0, 0, 1),) * 2),
    lambda: Game(None, ((1, 0, 0, 1),) * 2),
    lambda: StateSpace("w"),
    # the components were read as letters, and an int ended in TypeError
    lambda: Restriction.of(AB_XY, ("ab", "xy")),
    lambda: Restriction.of(AB_XY, 5),
    # the joint strategy "ax" was read as its letters, 5 ended in TypeError
    lambda: Game((("a", "b"), ("x", "y")), ((1, 0, 0, 1),) * 2).payoff(0, "ax"),
    lambda: Game((("a", "b"), ("x", "y")), ((1, 0, 0, 1),) * 2).payoff(0, 5),
], ids=["holds", "holds-profiles", "holds-profile", "dominance-lp", "br-lp", "holds-int",
        "game-strategy-set", "game-strategies", "state-space", "restriction-components",
        "restriction-int", "payoff-joint", "payoff-int"])
def test_labels_come_in_a_collection_not_a_string(call):
    with pytest.raises(ValidationError):
        call()


def test_a_game_stores_tuples_and_fractions_whatever_it_is_given():
    listed = Game([["a", "b"], ["x", "y"]], [[1, 0, 0, 0], [1, 0, 0, 0]])
    built = Game((("a", "b"), ("x", "y")), ((1, 0, 0, 0),) * 2)
    assert listed == built == AB_XY
    assert hash(listed) == hash(built) == hash(AB_XY)
    for game in (listed, built):
        assert type(game.payoff(0, ("a", "x"))) is Fraction
        assert all(type(v) is Fraction for table in game.payoff_tables for v in table)
        assert type(game.strategies) is tuple and all(type(s) is tuple for s in game.strategies)
    # a table of Fractions only is kept as given, not copied
    assert AB_XY.payoff_tables[0] is Game(AB_XY.strategies, AB_XY.payoff_tables).payoff_tables[0]


def test_state_spaces_and_models_store_tuples_whatever_they_are_given():
    listed = StateSpace(["w1", "w2"])
    built = StateSpace(("w1", "w2"))
    assert listed == built and hash(listed) == hash(built) and type(listed.states) is tuple
    correspondence = PossibilityCorrespondence(built, (frozenset(built.states),) * 2)
    # a correspondence over an equal space built from a tuple was "over a
    # different state space"
    model = EpistemicModel(AB_XY, listed, (("a", "b"), ("x", "y")), (correspondence,) * 2)
    listed_model = EpistemicModel(AB_XY, built, [["a", "b"], ["x", "y"]], [correspondence] * 2)
    assert listed_model == model and hash(listed_model) == hash(model)
    assert listed_model.strategy_maps == (("a", "b"), ("x", "y"))
    assert type(listed_model.correspondences) is tuple
