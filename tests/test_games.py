import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigame import games
from epigame.errors import ParseError, ValidationError
from epigame.games import (
    CorrelatedBelief,
    Game,
    MixedStrategy,
    Restriction,
    expected_payoff,
    game_from_payoffs,
    parse_game,
    render_game,
    render_restriction,
    set_bits,
)
from epigame.optimality import dominates

from conftest import FLAT_GAME_TEXT, TIE_GAME_TEXT
from reference import opponent_offsets, parse_restriction


def test_parse_tie_game(tie_game):
    assert tie_game.n == 2
    assert tie_game.strategies == (("U", "D"), ("L", "R"))
    assert tie_game.payoff(0, ("U", "L")) == 1
    assert tie_game.payoff(0, ("U", "R")) == 0
    assert tie_game.payoff(1, ("D", "L")) == 0
    assert tie_game.payoff(1, ("D", "R")) == 1


def test_parse_flat_game(flat_game):
    assert flat_game.n == 2
    assert flat_game.payoff(0, ("D", "R")) == 0
    assert all(flat_game.payoff(1, j) == 0 for j in flat_game.joint_strategies)


def test_single_player_rejected():
    source = "players: 1\nstrategies 1: a b\npayoff 1: a = 0\npayoff 1: b = 0\n"
    with pytest.raises(ValidationError):
        parse_game(source)


def test_parse_exact_decimals_and_fractions():
    source = """
    players: 2
    strategies 1: a b
    strategies 2: x
    payoff 1: a x = 0.5
    payoff 1: b x = 2/3
    payoff 2: a x = -1.25
    payoff 2: b x = 7
    """
    game = parse_game(source)
    assert game.payoff(0, ("a", "x")) == Fraction(1, 2)
    assert game.payoff(0, ("b", "x")) == Fraction(2, 3)
    assert game.payoff(1, ("a", "x")) == Fraction(-5, 4)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_game("players: 2\nstrategies 1 U D\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_game("players: 2\nstrategies 1: U D\nstrategies 2: L\npayoff 1: U L\n")
    assert err.value.line == 4

    with pytest.raises(ParseError) as err:
        parse_game("players: 2\nstrategies 1: U\nstrategies 2: L\npayoff 1: U L = x\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "source",
    [
        "players: 2\nstrategies 1: U U\nstrategies 2: L\n",        # duplicate label
        "players: 2\nstrategies 1: U\nstrategies 2: L\n",          # missing payoffs
        "players: 2\nstrategies 2: L R\n",                         # missing player 1
        "players: 2\nstrategies 1: U\nstrategies 2: L\n"
        "payoff 1: U L = 1\npayoff 1: U L = 2\n",                  # duplicate payoff
    ],
)
def test_validation_errors(source):
    with pytest.raises(ValidationError):
        parse_game(source)


@pytest.mark.parametrize("bad", [0.5, "1/2", None])
def test_constructor_rejects_inexact_payoffs(bad):
    # the integer tables are exact only for ints and Fractions
    with pytest.raises(ValidationError):
        games.Game((("a", "b"), ("x",)), ((Fraction(1, 3), bad), (0, 1)))


def test_literal_bounds_checked_before_the_integer_is_built(monkeypatch):
    class NeverBuilt(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("the literal was converted")

    monkeypatch.setattr(games, "Fraction", NeverBuilt)
    for literal in ("1e9999999", "2E-1001", "1e" + "0" * 5000 + "1001", "7" * 1001, "1/" + "3" * 1001):
        with pytest.raises(ValidationError):
            game_from_payoffs([("a",), ("x",)], [{("a", "x"): literal}, {("a", "x"): 0}])


def test_literals_at_the_bounds_accepted():
    for literal, value in (
        ("1e1000", Fraction(10) ** 1000),
        ("-5e-1000", -5 / Fraction(10) ** 1000),
        ("9" * 1000, Fraction(10) ** 1000 - 1),
        ("1_000e0_07", Fraction(10) ** 10),
        ("1/3_0", Fraction(1, 30)),
        ("0.0_1e-0_2", Fraction(1, 10 ** 4)),
        ("\u0661_\u0662", Fraction(12)),  # Arabic-Indic digits are decimal digits too
    ):
        game = parse_game(f"players: 2\nstrategies 1: a\nstrategies 2: x\n"
                          f"payoff 1: a x = {literal}\npayoff 2: a x = 0\n")
        assert game.payoff(0, ("a", "x")) == value


@pytest.mark.parametrize("literal", ["1__0", "_1", "1_", "1_/3", "1._5", "1e_5"])
def test_an_underscore_stands_only_between_two_digits(literal):
    # as in Python 3.11's own Fraction, on every Python the engine supports
    with pytest.raises(ParseError, match="not an exact rational"):
        parse_game(f"players: 2\nstrategies 1: a\nstrategies 2: x\n"
                   f"payoff 1: a x = {literal}\npayoff 2: a x = 0\n")


def test_underscores_are_dropped_before_fraction_reads_a_literal(monkeypatch):
    class NoUnderscores(Fraction):  # as Python 3.10's Fraction reads a string
        def __new__(cls, numerator=0, denominator=None):
            if isinstance(numerator, str) and "_" in numerator:
                raise ValueError(f"Invalid literal for Fraction: {numerator!r}")
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(games, "Fraction", NoUnderscores)
    for literal, value in (("1_000e0_07", 10 ** 10), ("1/3_0", Fraction(1, 30)),
                           ("-0.0_1e-0_2", Fraction(-1, 10 ** 4))):
        assert games._rational_literal(literal) == value


SPACED_SLASHES = ("1 / 3", "1/ 3", "1 /3", "1\t/3")


@pytest.mark.parametrize("literal", SPACED_SLASHES)
def test_whitespace_inside_a_literal_is_rejected(literal):
    # as in Python 3.11's own Fraction, on every Python the engine supports
    with pytest.raises(ParseError, match="not an exact rational"):
        parse_game(f"players: 2\nstrategies 1: a\nstrategies 2: x\n"
                   f"payoff 1: a x = {literal}\npayoff 2: a x = 0\n")


def test_whitespace_inside_a_literal_is_rejected_before_fraction_reads_it(monkeypatch):
    class SpacedSlash(Fraction):  # as Python 3.12's Fraction reads a string
        def __new__(cls, numerator=0, denominator=None):
            if isinstance(numerator, str):
                numerator = "/".join(part.strip() for part in numerator.split("/"))
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(games, "Fraction", SpacedSlash)
    assert games._rational_literal(" 1/3\t") == Fraction(1, 3)
    for literal in SPACED_SLASHES:
        with pytest.raises(ValidationError, match="not an exact rational"):
            games._rational_literal(literal)


def test_dotted_labels_cannot_collide_in_state_labels():
    payoffs = {joint: 0 for joint in (("a.b", "c"), ("a.b", "b.c"), ("a", "c"), ("a", "b.c"))}
    with pytest.raises(ValidationError, match="reserved '.'"):
        game_from_payoffs([("a.b", "a"), ("c", "b.c")], [payoffs, payoffs])


@pytest.mark.parametrize("label", ["", "a b", "a#b", 3])
def test_unreadable_strategy_labels_rejected(label):
    payoffs = {("a", "x"): 0, (label, "x"): 0}
    with pytest.raises(ValidationError):
        game_from_payoffs([("a", label), ("x",)], [payoffs, payoffs])


def test_round_trip_named_games(tie_game, flat_game, prisoners_dilemma, mix_game):
    for game in (tie_game, flat_game, prisoners_dilemma, mix_game):
        assert parse_game(render_game(game)) == game


def test_round_trip_keeps_exact_rationals():
    game = game_from_payoffs(
        [("a", "b"), ("x",)],
        [
            {("a", "x"): Fraction(22, 7), ("b", "x"): Fraction(-1, 3)},
            {("a", "x"): 0, ("b", "x"): Fraction(1, 1000000007)},
        ],
    )
    assert parse_game(render_game(game)) == game


def opponent_profiles(restriction, i):
    game = restriction.game
    mask = game.opponent_mask(i, restriction.masks)
    # set bits ascend, and ascending is product order
    return tuple(game.opponent_profile(i, o) for o in set_bits(mask))


def test_opponent_offsets_two_player(tie_game):
    full = tie_game.full_restriction()
    assert tie_game.opponent_mask(0, full.masks) == 0b11
    assert tie_game.opponent_mask(1, full.masks) == 0b101
    assert opponent_profiles(full, 0) == (("L",), ("R",))
    assert opponent_profiles(full, 1) == (("U",), ("D",))


def test_opponent_offsets_three_player():
    game = game_from_payoffs(
        [("s",), ("a", "b"), ("x",)],
        [
            {("s", "a", "x"): 0, ("s", "b", "x"): 0},
            {("s", "a", "x"): 0, ("s", "b", "x"): 0},
            {("s", "a", "x"): 0, ("s", "b", "x"): 0},
        ],
    )
    r = Restriction.of(game, (("s",), ("a", "b"), ("x",)))
    assert opponent_profiles(r, 0) == (("a", "x"), ("b", "x"))
    assert opponent_profiles(r, 1) == (("s", "x"),)


def test_opponent_offsets_empty_factor(tie_game):
    r = Restriction.of(tie_game, (("U",), ()))
    assert opponent_profiles(r, 0) == ()
    # the non-empty side still sees the U component
    assert opponent_profiles(r, 1) == (("U",),)


@st.composite
def opponent_cases(draw):
    counts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    strategies = [tuple(f"p{j}s{k}" for k in range(count)) for j, count in enumerate(counts)]
    game = Game(tuple(strategies), tuple((0,) * prod(counts) for _ in counts))
    # components may be empty, and player i's own mask must not matter
    masks = tuple(draw(st.integers(0, (1 << count) - 1)) for count in counts)
    return game, draw(st.integers(0, len(counts) - 1)), masks


@given(opponent_cases())
@settings(max_examples=300, deadline=None)
def test_opponent_mask_matches_the_definition(case):
    game, i, masks = case
    counts = [len(labels) for labels in game.strategies]
    components = [[k for k in range(count) if mask >> k & 1] for count, mask in zip(counts, masks)]
    mask = game.opponent_mask(i, masks)
    assert mask == sum(1 << o for o in opponent_offsets(counts, i, components))
    assert [game.opponent_profile(i, o) for o in set_bits(mask)] == list(itertools.product(*(
        [game.strategies[j][k] for k in c] for j, c in enumerate(components) if j != i
    )))


@st.composite
def label_sharing_games(draw):
    # every player draws its labels from one pool, in its own order, so a
    # decoder that reads a label with another player's index goes wrong
    counts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    strategies = tuple(tuple(draw(st.permutations("abc"))[:count]) for count in counts)
    return Game(strategies, tuple((0,) * prod(counts) for _ in counts))


@given(label_sharing_games())
@settings(max_examples=200, deadline=None)
def test_opponent_offset_inverts_opponent_profile(game):
    for i in range(game.n):
        for o in set_bits(game.opponent_mask(i, game.full_masks)):
            assert game.opponent_offset(i, game.opponent_profile(i, o)) == o


def test_opponent_offset_rejects_bad_profiles(tie_game):
    cases = (
        (0, ("L", "R"), r"opponent profile \('L', 'R'\) needs 1 entries"),
        (1, (), r"opponent profile \(\) needs 1 entries"),
        (0, ("U",), "player 2 has no strategy 'U'"),
        (1, ("Z",), "player 1 has no strategy 'Z'"),
        (2, ("U",), "player index 2 is not in 0..1"),
        (-1, ("U",), "player index -1 is not in 0..1"),
    )
    for i, profile, text in cases:
        with pytest.raises(ValidationError, match=text):
            tie_game.opponent_offset(i, profile)


def test_scaled_payoffs_per_player():
    game = game_from_payoffs(
        [("a", "b"), ("x",)],
        [{("a", "x"): "1/2", ("b", "x"): "-2/3"}, {("a", "x"): 3, ("b", "x"): "5/4"}],
    )
    assert game.scaled_payoffs == ((6, (3, -4)), (4, (12, 5)))
    assert game.payoff_row(0, 1, (0,)) == [-4]


def test_restriction_canonical_order_and_validation(tie_game):
    r = Restriction.of(tie_game, (("D", "U"), ("R",)))
    assert r.components == (("U", "D"), ("R",))
    with pytest.raises(ValidationError):
        Restriction.of(tie_game, (("U", "Z"), ("L",)))


def test_restriction_arity_and_masks_checked(tie_game):
    # a missing component was accepted and then truncated by zip
    with pytest.raises(ValidationError):
        Restriction(tie_game, (("U",),))
    with pytest.raises(ValidationError):
        Restriction.of(tie_game, (("U",),))
    with pytest.raises(ValidationError):
        Restriction.of(tie_game, (("U",), ("L",), ()))
    for masks in ((4, 1), (-1, 1), ("U", 1), (True, 1), (1, 1, 0), [1, 1]):
        with pytest.raises(ValidationError):
            Restriction(tie_game, masks)
    r = Restriction(tie_game, (0b10, 0b11))
    assert r == Restriction.of(tie_game, (("D",), ("R", "L")))
    assert r.joint_strategies == (("D", "L"), ("D", "R"))


def test_payoff_inputs_checked(tie_game):
    for joint in (("U", "Z"), ("U",), ("U", "L", "L")):
        with pytest.raises(ValidationError):
            tie_game.payoff(0, joint)
    # an opponent profile of the wrong arity cannot be read as a shorter one
    with pytest.raises(ValidationError):
        expected_payoff(tie_game, 0, "U", CorrelatedBelief(((("L", "R"), 1),)))
    with pytest.raises(ValidationError):
        expected_payoff(tie_game, 0, "U", CorrelatedBelief(((("Z",), 1),)))


_COORDINATION = game_from_payoffs([("a", "b")] * 2, [
    {j: int(j[0] == j[1]) for j in itertools.product("ab", repeat=2)}] * 2)
_POINT_A = CorrelatedBelief(((("a",), 1),))


@pytest.mark.parametrize("check", [
    # a profile of probability 0 is decoded too
    lambda g: expected_payoff(g, 0, "a", CorrelatedBelief(((("a",), 1), (("Z",), 0)))),
    # an own label of weight 0 is checked too
    lambda g: expected_payoff(g, 0, MixedStrategy(0, (("a", 1), ("Z", 0))), _POINT_A),
    # player 2's mixture is not read as player 1's
    lambda g: expected_payoff(g, 0, MixedStrategy(1, (("b", 1),)), _POINT_A),
    lambda g: dominates(g, 0, MixedStrategy(1, (("b", 1),)), "a", [("b",)], "strict"),
    # profiles after one where the mixture loses are decoded too
    lambda g: dominates(g, 0, MixedStrategy(0, (("b", 1),)), "a", [("a",), ("Z",)], "strict"),
    # own labels are checked against an empty opponent set too
    lambda g: dominates(g, 0, MixedStrategy(0, (("Z", 1),)), "a", [], "weak"),
], ids=["zero-probability", "zero-weight", "ep-player", "dom-player", "after-a-loss", "no-profiles"])
def test_re_checks_read_every_input_before_any_payoff(check):
    with pytest.raises(ValidationError):
        check(_COORDINATION)


@pytest.mark.parametrize("i", [-1, -2, 2])
def test_player_numbers_out_of_range_rejected(tie_game, i):
    # a negative number is not read as counted from the last player
    from epigame.optimality import holds, solve_br_lp, solve_dominance_lp

    cases = (
        lambda: holds("sd", tie_game, i, "L", ("L", "R"), [("U",)]),
        lambda: solve_dominance_lp(tie_game, i, "L", ("L", "R"), [("U",)], "strict"),
        lambda: solve_br_lp(tie_game, i, "L", ("L", "R"), [("U",)]),
        lambda: expected_payoff(tie_game, i, "L", CorrelatedBelief(((("U",), 1),))),
        lambda: expected_payoff(
            tie_game, i, MixedStrategy(1, (("L", 1),)), CorrelatedBelief(((("U",), 1),))
        ),
        lambda: tie_game.payoff(i, ("U", "L")),
        lambda: tie_game.strategy_index(i, "L"),
    )
    for case in cases:
        with pytest.raises(ValidationError):
            case()


def test_restrictions_of_different_games_do_not_combine(tie_game, flat_game):
    a = Restriction.of(tie_game, (("U",), ("L", "R")))
    b = Restriction.of(flat_game, (("D",), ("L",)))
    with pytest.raises(ValidationError, match="different games"):
        a.is_subset_of(b)


def test_restriction_lattice_structure(tie_game):
    full = tie_game.full_restriction()
    a = Restriction.of(tie_game, (("U",), ("L", "R")))
    b = Restriction.of(tie_game, (("U", "D"), ("R",)))
    assert a.is_subset_of(full) and b.is_subset_of(full)


@st.composite
def subset_pairs(draw):
    u1 = draw(st.sets(st.sampled_from(["U", "D"])))
    u2 = draw(st.sets(st.sampled_from(["L", "R"])))
    v1 = draw(st.sets(st.sampled_from(["U", "D"])))
    v2 = draw(st.sets(st.sampled_from(["L", "R"])))
    return (u1, u2), (v1, v2)


@given(subset_pairs())
@settings(max_examples=200, deadline=None)
def test_lattice_laws(pair):
    game = parse_game(TIE_GAME_TEXT)
    (u1, u2), (v1, v2) = pair
    g = Restriction.of(game, (tuple(u1), tuple(u2)))
    h = Restriction.of(game, (tuple(v1), tuple(v2)))
    assert g.is_subset_of(game.full_restriction())
    assert g.is_subset_of(h) == (u1 <= v1 and u2 <= v2)


@st.composite
def drawn_restrictions(draw):
    shape = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    strategies = [tuple(f"p{i}s{k}" for k in range(size)) for i, size in enumerate(shape)]
    joints = list(itertools.product(*strategies))
    game = game_from_payoffs(strategies, [{j: 0 for j in joints} for _ in shape])
    masks = tuple(draw(st.integers(0, (1 << size) - 1)) for size in shape)
    return Restriction(game, masks)


@given(drawn_restrictions())
@settings(max_examples=150, deadline=None)
def test_restriction_text_round_trip(r):
    assert parse_restriction(render_restriction(r), r.game) == r


def test_point_belief_matches_table(tie_game, flat_game, prisoners_dilemma):
    for game in (tie_game, flat_game, prisoners_dilemma):
        for i in range(game.n):
            for joint in game.joint_strategies:
                minus = joint[:i] + joint[i + 1:]
                point = CorrelatedBelief(((minus, 1),))
                assert expected_payoff(game, i, joint[i], point) == game.payoff(i, joint)


def test_expected_payoff_tie_game_point(tie_game):
    assert expected_payoff(tie_game, 0, "U", CorrelatedBelief(((("L",), 1),))) == 1


def test_expected_payoff_mixed_correlated():
    game = game_from_payoffs(
        [("T", "B"), ("L", "R")],
        [
            {("T", "L"): 3, ("T", "R"): 0, ("B", "L"): 0, ("B", "R"): 3},
            {("T", "L"): 0, ("T", "R"): 0, ("B", "L"): 0, ("B", "R"): 0},
        ],
    )
    half = Fraction(1, 2)
    own = MixedStrategy(0, (("T", half), ("B", half)))
    belief = CorrelatedBelief(((("L",), half), (("R",), half)))
    assert expected_payoff(game, 0, own, belief) == Fraction(3, 2)


def test_expected_payoff_independent_three_player():
    game = game_from_payoffs(
        [("a", "b"), ("x", "y"), ("p", "q")],
        [
            {j: (1 if j == ("a", "x", "p") else 0)
             for j in (("a", "x", "p"), ("a", "x", "q"), ("a", "y", "p"), ("a", "y", "q"),
                       ("b", "x", "p"), ("b", "x", "q"), ("b", "y", "p"), ("b", "y", "q"))},
            {j: 0 for j in (("a", "x", "p"), ("a", "x", "q"), ("a", "y", "p"), ("a", "y", "q"),
                            ("b", "x", "p"), ("b", "x", "q"), ("b", "y", "p"), ("b", "y", "q"))},
            {j: 0 for j in (("a", "x", "p"), ("a", "x", "q"), ("a", "y", "p"), ("a", "y", "q"),
                            ("b", "x", "p"), ("b", "x", "q"), ("b", "y", "p"), ("b", "y", "q"))},
        ],
    )
    # independent marginals x: 1/3, y: 2/3 and p: 1/4, q: 3/4, multiplied out
    belief = CorrelatedBelief(
        tuple(
            ((t2, t3), w2 * w3)
            for t2, w2 in (("x", Fraction(1, 3)), ("y", Fraction(2, 3)))
            for t3, w3 in (("p", Fraction(1, 4)), ("q", Fraction(3, 4)))
        )
    )
    assert expected_payoff(game, 0, "a", belief) == Fraction(1, 12)

    # on a 3x3x3 game, for every player: a mixture that lists a zero weight
    # and each pure strategy, under a 3-profile belief and as dominance
    # checks over those profiles, agree with sums of per-term Game.payoff reads
    labels = ("a", "b", "c")
    joints = list(itertools.product(labels, repeat=3))
    rich = game_from_payoffs([labels] * 3, [
        {j: Fraction((k + 2 * i) % 7 - 3, 1 + (k + i) % 3) for k, j in enumerate(joints)}
        for i in range(3)
    ])
    mix_weights = (("c", Fraction(2, 5)), ("a", Fraction(0)), ("b", Fraction(3, 5)))
    profiles = (("a", "c"), ("b", "b"), ("c", "a"))
    weights = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    belief = CorrelatedBelief(tuple(zip(profiles, weights)))
    dominated = []
    for i in range(3):
        def payoff(label, t):
            return rich.payoff(i, t[:i] + (label,) + t[i:])

        def mixed(t):
            return sum(w * payoff(label, t) for label, w in mix_weights)

        mix = MixedStrategy(i, mix_weights)
        assert expected_payoff(rich, i, mix, belief) == sum(p * mixed(t) for t, p in belief.weights)
        for s in labels:
            assert expected_payoff(rich, i, s, belief) == sum(
                p * payoff(s, t) for t, p in belief.weights)
            margins = [mixed(t) - payoff(s, t) for t in profiles]
            strict = all(m > 0 for m in margins)
            weak = all(m >= 0 for m in margins) and any(m > 0 for m in margins)
            assert dominates(rich, i, mix, s, profiles, "strict") == strict
            assert dominates(rich, i, mix, s, profiles, "weak") == weak
            dominated.append((strict, weak))
    # the checks cover no dominance, weak dominance only and strict dominance
    assert set(dominated) == {(False, False), (False, True), (True, True)}


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=20),
    st.fractions(min_value=0, max_value=1, max_denominator=20),
)
@settings(max_examples=100, deadline=None)
def test_expected_payoff_linear_in_belief_weights(p, q):
    game = parse_game(TIE_GAME_TEXT)
    base = CorrelatedBelief(((("L",), p), (("R",), 1 - p)))
    other = CorrelatedBelief(((("L",), q), (("R",), 1 - q)))
    lam = Fraction(1, 3)
    mixed_weights = (
        (("L",), lam * p + (1 - lam) * q),
        (("R",), lam * (1 - p) + (1 - lam) * (1 - q)),
    )
    combined = CorrelatedBelief(mixed_weights)
    for s in ("U", "D"):
        assert expected_payoff(game, 0, s, combined) == lam * expected_payoff(
            game, 0, s, base
        ) + (1 - lam) * expected_payoff(game, 0, s, other)


@given(st.fractions(min_value=0, max_value=1, max_denominator=20))
@settings(max_examples=60, deadline=None)
def test_expected_payoff_linear_in_own_mix(alpha):
    game = parse_game(FLAT_GAME_TEXT)
    belief = CorrelatedBelief(((("L",), Fraction(1, 5)), (("R",), Fraction(4, 5))))
    mix = MixedStrategy(0, (("U", alpha), ("D", 1 - alpha)))
    assert expected_payoff(game, 0, mix, belief) == alpha * expected_payoff(
        game, 0, "U", belief
    ) + (1 - alpha) * expected_payoff(game, 0, "D", belief)


def test_mixed_strategy_validation():
    with pytest.raises(ValidationError):
        MixedStrategy(0, (("a", Fraction(1, 2)),))
    with pytest.raises(ValidationError):
        MixedStrategy(0, (("a", Fraction(3, 2)), ("b", Fraction(-1, 2))))
    pure = MixedStrategy(0, (("a", 1),))
    assert pure.weights == (("a", 1),) and pure.support == ("a",)


def test_correlated_belief_validation():
    with pytest.raises(ValidationError):
        CorrelatedBelief(((("L",), Fraction(1, 2)),))
    with pytest.raises(ValidationError):
        CorrelatedBelief(((("L",), 1), (("L",), 0)))
    with pytest.raises(ValidationError):
        CorrelatedBelief(((("L",), Fraction(3, 2)), (("R",), Fraction(-1, 2))))
    assert CorrelatedBelief(((("L",), 1), (("R",), 0))).weights[1] == (("R",), 0)


def test_restriction_rendering_keeps_empty_components(tie_game):
    r = Restriction.of(tie_game, (("D",), ()))
    text = render_restriction(r)
    assert text == "restrict 1: D\nrestrict 2:\n"
    with pytest.raises(ValidationError):
        parse_restriction("restrict 1: D\n", tie_game)
    assert parse_restriction(text, tie_game) == r


def test_game_equality_and_hash(tie_game):
    clone = parse_game(TIE_GAME_TEXT)
    assert clone == tie_game and hash(clone) == hash(tie_game)
    assert clone != parse_game(FLAT_GAME_TEXT)
