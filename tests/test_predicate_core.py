"""The predicate core behind the operators and RAT: the exact decisions it
reads and the elimination limits are memoised in the game's own memo
(bounded, freed with the game), and the core agrees with the validating label
path, ``holds``."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigame import games
from epigame.elimination import GLOBAL, LOCAL, NotionProfile, outcome, t_global, u_local
from epigame.epistemic import rat_event
from epigame.errors import ValidationError
from epigame.games import Game
from epigame.generators import GeneratorConfig, generate_game, generate_model
from epigame.lattice import sample_restriction
from epigame.optimality import (
    DominanceVerdict,
    Notion,
    _canonical_inputs,
    _point_strictly_best,
    _pure_dominator,
    _unbeaten,
    holds,
    solve_br_lp,
    solve_dominance_lp,
)
from epigame.simplex import Status, solve
from epigame.verify import elimination_limit, verify_thm1i

from reference import image_of_states


def opponents_product(components, i):
    """Player ``i``'s opponent profiles in per-player label tuples, as
    labels, in product order."""
    others = [c for j, c in enumerate(components) if j != i]
    return tuple(itertools.product(*others))


def _fresh(game: Game) -> Game:
    """An equal game with an empty memo of its own."""
    return Game(game.strategies, game.payoff_tables)


def test_game_is_freed_after_use():
    # by reference counting alone: nothing in the memo refers back to the game
    config = GeneratorConfig(seed=7, strategies=(3, 3), states=(4, 6), target_class="belief")
    game = generate_game(config)
    model = generate_model(config, game)
    profile = NotionProfile.uniform("msd", game.n)
    gc.collect()
    gc.disable()
    try:
        outcome(profile, game, LOCAL)
        rat_event(model, profile)
        assert verify_thm1i(game, model, profile).holds
        # the memoised limit comes back as an equal restriction of the game
        assert elimination_limit(game, profile, GLOBAL) == elimination_limit(game, profile, GLOBAL)
        assert game.memo
        ref = weakref.ref(game)
        del game, model
        assert ref() is None
    finally:
        gc.enable()


class _Watched(dict):
    """A memo that records the most entries it ever held."""

    largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))


def test_memo_stays_within_its_bound(monkeypatch):
    config = GeneratorConfig(seed=11, strategies=(4, 4))
    game = generate_game(config)
    unbounded = _fresh(game)
    expected = outcome(NotionProfile.uniform("mwd", game.n), unbounded, LOCAL)
    assert len(expected.records) > 3
    # more entries than the bound set below, so the bounded run must clear
    assert len(unbounded.memo) > 5

    monkeypatch.setattr(games, "MEMO_BOUND", 5)
    watched = _Watched()
    game.__dict__["memo"] = watched
    trace = outcome(NotionProfile.uniform("mwd", game.n), game, LOCAL)
    assert game.memo is watched
    assert 0 < watched.largest <= 5
    assert trace == expected


def test_the_memo_holds_only_results_that_are_read_again():
    # the predicate and Bland's strict game are computed on every call; the
    # game memoises the exact decisions and the elimination limits alone.
    # Player 1: C is strictly and D weakly dominated by 1/2 A + 1/2 B only
    rows = {"A": (3, 0, 0), "B": (0, 3, 0), "C": (1, 1, -1), "D": (1, 1, 0)}
    game = Game((tuple(rows), ("L", "M", "R")), (sum(rows.values(), ()), (0,) * 12))
    model = generate_model(GeneratorConfig(seed=3, states=(4, 6), target_class="belief"), game)
    for notion in NOTIONS:
        profile = NotionProfile.uniform(notion, game.n)
        for mode in (GLOBAL, LOCAL):
            outcome(profile, game, mode)
        rat_event(model, profile)
        elimination_limit(game, profile, GLOBAL)
    for s in "ABCD":
        solve_br_lp(game, 0, s, tuple(rows), [("L",), ("M",), ("R",)])
        solve_dominance_lp(game, 0, s, tuple(rows), [("L",), ("M",), ("R",)], "strict")
    memoised = {fn.__name__ for fn, _ in game.memo}
    assert memoised == {"_strict_decision", "_weak_program", "_limit_masks"}
    assert "__hash__" not in vars(Notion)


def test_operators_reject_a_restriction_of_another_game(tie_game, flat_game, prisoners_dilemma):
    profile = NotionProfile.uniform("sd", 2)
    for other in (prisoners_dilemma, flat_game):  # other labels; same labels
        for step in (t_global, u_local):
            with pytest.raises(ValidationError):
                step(profile, tie_game, other.full_restriction())
    equal = _fresh(tie_game).full_restriction()
    assert t_global(profile, tie_game, equal) == t_global(profile, tie_game, tie_game.full_restriction())


NOTIONS = [n for n in Notion if n is not Notion.BR_INDEPENDENT]


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    config = GeneratorConfig(
        seed=seed,
        players=(2, 3),
        strategies=(1, 3),
        payoff_pool=(0, 1, 2),
        states=(1, 6),
        target_class=draw(st.sampled_from(["belief", "knowledge"])),
    )
    game = generate_game(config)
    pool = NOTIONS + [Notion.BR_INDEPENDENT] * (game.n == 2)
    profile = NotionProfile(tuple(draw(st.sampled_from(pool)) for _ in range(game.n)))
    restriction = sample_restriction(random.Random(seed), game)
    return game, profile, restriction, generate_model(config, game)


@given(instances())
@settings(max_examples=150, deadline=None)
def test_core_agrees_with_the_label_path(instance):
    game, profile, g, model = instance
    # the label path evaluates on an equal game, so no memo entry is shared,
    # and gets its labels in reverse order, so it must canonicalise them
    labels = _fresh(game)

    def label_path(i, s, alternatives, opponents):
        return holds(
            profile.notions[i], labels, i, s, alternatives[::-1], list(reversed(opponents))
        )

    for mode, step in ((GLOBAL, t_global), (LOCAL, u_local)):
        image = step(profile, game, g)
        for i in range(game.n):
            alternatives = game.strategies[i] if mode == GLOBAL else g.components[i]
            opponents = opponents_product(g.components, i)
            for s in g.components[i]:
                assert (s in image.components[i]) == label_path(i, s, alternatives, opponents)

    rat = rat_event(model, profile)
    for k in range(len(model.space.states)):
        rational = all(
            label_path(
                i,
                model.strategy_maps[i][k],
                game.strategies[i],
                opponents_product(image_of_states(model, model.correspondences[i].targets[k]), i),
            )
            for i in range(game.n)
        )
        assert bool(rat >> k & 1) == rational



# --- the pure predicates as mask tests, against the definitions -----------------

@st.composite
def pure_cases(draw):
    """A 2- or 3-player game (3 players give sparse opponent offsets), a
    player, a strategy that need not be among the alternatives, and a
    non-empty set of opponent profiles, often a single one."""
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    strategies = tuple(tuple(f"s{k}" for k in range(size)) for size in shape)
    joints = list(itertools.product(*strategies))
    values = st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(-1, 3)])
    tables = tuple(tuple(draw(values) for _ in joints) for _ in shape)
    game = Game(strategies, tables)
    i = draw(st.integers(0, len(shape) - 1))
    s = draw(st.sampled_from(strategies[i]))
    alternatives = draw(st.lists(st.sampled_from(strategies[i]), unique=True))
    profiles = list(itertools.product(*(c for j, c in enumerate(strategies) if j != i)))
    if draw(st.booleans()):
        opponents = [draw(st.sampled_from(profiles))]
    else:
        opponents = draw(st.lists(st.sampled_from(profiles), min_size=1, unique=True))
    return game, i, s, alternatives, opponents


def _u(game, i, label, profile):
    return game.payoff(i, profile[:i] + (label,) + profile[i:])


def _reference_dominator(game, i, s, alternatives, opponents, strict):
    for a in sorted(alternatives, key=game.strategies[i].index):
        margins = [_u(game, i, a, t) - _u(game, i, s, t) for t in opponents]
        if all(m > 0 for m in margins) if strict else (
                all(m >= 0 for m in margins) and any(m > 0 for m in margins)):
            return a
    return None


@given(pure_cases())
@settings(max_examples=400, deadline=None)
def test_mask_predicates_match_their_definitions(case):
    game, i, s_label, alternative_labels, profiles = case
    s, alternatives, mask = _canonical_inputs(game, i, s_label, alternative_labels, profiles)
    labels = game.strategies[i]
    for strict in (True, False):
        found = _pure_dominator(game, i, s, alternatives, mask, strict)
        expected = _reference_dominator(game, i, s_label, alternative_labels, profiles, strict)
        assert (None if found is None else labels[found]) == expected
    rivals = [a for a in alternative_labels if a != s_label]
    unbeaten = _unbeaten(game, i, s, alternatives, mask)
    assert unbeaten & ~mask == 0
    for o in games.set_bits(mask):
        t = game.opponent_profile(i, o)
        assert (unbeaten >> o & 1 == 1) == all(
            _u(game, i, s_label, t) >= _u(game, i, a, t) for a in alternative_labels)
    assert _point_strictly_best(game, i, s, alternatives, mask) == any(
        all(_u(game, i, s_label, t) > _u(game, i, a, t) for a in rivals) for t in profiles
    )


@st.composite
def scaled_games(draw):
    """A 2- or 3-player game of 1-4 strategies each whose players' payoffs
    have denominators of their own, so each integer table has its own scale."""
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    strategies = tuple(tuple(f"s{k}" for k in range(size)) for size in shape)
    joints = list(itertools.product(*strategies))
    tables = []
    for _ in shape:
        denominator = draw(st.integers(1, 12))
        numerators = st.integers(-2 * denominator, 2 * denominator)
        tables.append(tuple(Fraction(draw(numerators), denominator) for _ in joints))
    return Game(strategies, tuple(tables))


@given(scaled_games())
@settings(max_examples=200, deadline=None)
def test_beats_table_matches_its_definition(game):
    # bit o of beats[i][s][a] is set iff a pays i more than s at offset o
    for i, labels in enumerate(game.strategies):
        profiles = opponents_product(game.strategies, i)
        for (s, s_label), (a, a_label) in itertools.product(enumerate(labels), repeat=2):
            assert game.beats[i][s][a] == sum(
                1 << game.opponent_offset(i, t) for t in profiles
                if _u(game, i, a_label, t) > _u(game, i, s_label, t))


# --- value-only decisions against the witness programs --------------------------

@st.composite
def lp_cases(draw):
    """Row player instances that often get past the pure shortcuts to the
    programs: 3 or 4 strategies against 2 to 4, at least two alternatives and
    two opponent profiles. Half the time two rivals pay (3, 0) and (0, 3) at
    the first two profiles, and ``s`` pays their average less 0 or 1/2 at
    each profile: no pure strategy need dominate ``s``, nor need ``s`` be a
    point best response, while a mixture or a belief may settle it."""
    rows, cols = draw(st.integers(3, 4)), draw(st.integers(2, 4))
    strategies = (tuple(f"r{k}" for k in range(rows)), tuple(f"c{k}" for k in range(cols)))
    table = [draw(st.sampled_from([0, 1, 2, 3])) for _ in range(rows * cols)]
    s = draw(st.integers(0, rows - 1))
    alternatives = draw(st.lists(st.integers(0, rows - 1), min_size=2, unique=True))
    rivals = [a for a in alternatives if a != s]
    opponents = draw(st.lists(st.integers(0, cols - 1), min_size=2, unique=True))
    if len(rivals) >= 2 and draw(st.booleans()):
        a, b = rivals[:2]
        table[a * cols:a * cols + 2] = [3, 0]
        table[b * cols:b * cols + 2] = [0, 3]
        for c in range(cols):
            table[s * cols + c] = (Fraction(table[a * cols + c] + table[b * cols + c], 2)
                                   - draw(st.sampled_from([0, Fraction(1, 2)])))
        opponents = sorted({0, 1, *opponents})
    game = Game(strategies, (tuple(table), (0,) * (rows * cols)))
    return (game, 0, strategies[0][s], [strategies[0][a] for a in alternatives],
            [(strategies[1][c],) for c in opponents])


@given(st.one_of(pure_cases().filter(lambda case: case[3]), lp_cases()))
@settings(max_examples=200, deadline=None)
def test_decisions_agree_with_their_witness_programs(case):
    # brc and mwd are decided by value-only programs, while their witnesses
    # come from Bland's programs; the verdicts agree whether or not s is among
    # the alternatives
    game, i, s, alternatives, opponents = case
    belief = solve_br_lp(game, i, s, alternatives, opponents)
    assert holds("brc", game, i, s, alternatives, opponents) == belief.is_best_response
    dominance = solve_dominance_lp(game, i, s, alternatives, opponents, "weak")
    assert holds("mwd", game, i, s, alternatives, opponents) == (not dominance.dominated)


@st.composite
def weak_witness_cases(draw):
    """Row player instances with many ties, where the weak witness program
    often has several optimal points: 3 or 4 strategies against 2 or 3,
    payoffs 0..2. The support and the opponent profiles are all of them, as
    in a first elimination stage, or any non-empty subset, with or without
    ``s``."""
    rows, cols = draw(st.integers(3, 4)), draw(st.integers(2, 3))
    strategies = (tuple(f"r{k}" for k in range(rows)), tuple(f"c{k}" for k in range(cols)))
    table = tuple(draw(st.integers(0, 2)) for _ in range(rows * cols))
    game = Game(strategies, (table, (0,) * (rows * cols)))
    s = draw(st.integers(0, rows - 1))
    support, opponents = (draw(st.one_of(
        st.just(list(range(size))),
        st.lists(st.integers(0, size - 1), min_size=1, unique=True),
    )) for size in (rows, cols))
    return (game, strategies[0][s], [strategies[0][a] for a in sorted(support)],
            [(strategies[1][c],) for c in sorted(opponents)])


def _blands_weak_verdict(game, s, support, opponents):
    """The weak-mode verdict of Bland's two-phase program: weights m_a >= 0
    over the support summing to 1, and slack_t >= 0 with
    sum_a m_a u(a, t) - slack_t = u(s, t), maximising the total slack.
    Player 0's payoffs are integers."""
    k, m = len(support), len(opponents)
    rows = [[int(_u(game, 0, a, t)) for a in support] + [-(q == r) for q in range(m)]
            for r, t in enumerate(opponents)]
    rows.append([1] * k + [0] * m)
    solution = solve(rows, [int(_u(game, 0, s, t)) for t in opponents] + [1], [0] * k + [1] * m)
    if solution.status is Status.INFEASIBLE:
        return DominanceVerdict(False, None, None)
    if solution.value > 0:
        witness = games.MixedStrategy(0, tuple(zip(support, solution.assignment[:k])))
        return DominanceVerdict(True, witness, solution.value)
    return DominanceVerdict(False, None, solution.value)


# C is weakly dominated by p*A + (1-p)*B for every p in [1/2, 1]; Bland's
# program prints p = 1/2, the one-phase decision stops at p = 1
_SEVERAL_OPTIMA = (Game((("A", "B", "C"), ("L", "R")), ((0, 2, 2, 0, 0, 1), (0,) * 6)),
                   "C", ["A", "B", "C"], [("L",), ("R",)])


@given(weak_witness_cases())
@example(_SEVERAL_OPTIMA)
@settings(max_examples=300, deadline=None)
def test_weak_witness_is_blands_with_or_without_s_in_the_support(case):
    # where s is in the support the witness is read off the one-phase
    # decision when its optimum is unique; either way it is the witness and
    # optimum of Bland's two-phase program
    game, s, support, opponents = case
    verdict = solve_dominance_lp(game, 0, s, support, opponents, "weak")
    assert verdict == _blands_weak_verdict(game, s, support, opponents)
    assert verdict.optimum is None or type(verdict.optimum) is Fraction
