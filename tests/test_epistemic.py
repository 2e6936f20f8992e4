import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigame.elimination import GLOBAL, NotionProfile, outcome
from epigame.epistemic import (
    EpistemicModel,
    PossibilityCorrespondence,
    StateSpace,
    box,
    box_chain,
    common_box,
    parse_model,
    rat_event,
    render_model,
    restriction_of,
    singleton_model,
    state_label,
    two_block_model,
    validation_report,
)
from epigame.errors import ValidationError
from epigame.games import Restriction, game_from_payoffs

from reference import (
    box_from_targets,
    enumerate_belief_correspondences,
    enumerate_knowledge_correspondences,
    image_of_states,
    is_evident,
    largest_evident_inside,
)


def subset(small: int, big: int) -> bool:
    return small & ~big == 0


def tiny_knowledge_model(game):
    # two states, each its own cell
    space = StateSpace(("a", "b"))
    maps = tuple((game.strategies[i][0], game.strategies[i][-1]) for i in range(game.n))
    corr = PossibilityCorrespondence(space, (frozenset({"a"}), frozenset({"b"})))
    return EpistemicModel(game, space, maps, (corr,) * game.n)


def test_classification_belief_knowledge_invalid(tie_game):
    space = StateSpace(("a", "b"))
    knowledge = PossibilityCorrespondence(space, (frozenset({"a"}), frozenset({"b"})))
    assert knowledge.kind == "knowledge"
    belief = PossibilityCorrespondence(space, (frozenset({"b"}), frozenset({"b"})))
    assert belief.kind == "belief" and not belief.reflexive
    non_serial = PossibilityCorrespondence(space, (frozenset(), frozenset({"b"})))
    assert not non_serial.serial and non_serial.kind == "invalid"
    incoherent = PossibilityCorrespondence(space, (frozenset({"a", "b"}), frozenset({"b"})))
    assert not incoherent.coherent and incoherent.kind == "invalid"

    maps = (("U", "D"), ("L", "R"))
    assert EpistemicModel(tie_game, space, maps, (knowledge, knowledge)).model_class == "knowledge"
    assert EpistemicModel(tie_game, space, maps, (knowledge, belief)).model_class == "belief"
    assert EpistemicModel(tie_game, space, maps, (knowledge, incoherent)).model_class == "invalid"


def test_invalid_model_rejected_by_operations(tie_game):
    space = StateSpace(("a", "b"))
    incoherent = PossibilityCorrespondence(space, (frozenset({"a", "b"}), frozenset({"b"})))
    model = EpistemicModel(tie_game, space, (("U", "D"), ("L", "R")), (incoherent, incoherent))
    with pytest.raises(ValidationError, match="operation needs a belief- or knowledge-class model"):
        box(model, 0b01)
    with pytest.raises(ValidationError, match="operation needs a belief- or knowledge-class model"):
        common_box(model, 0b01)
    with pytest.raises(ValidationError, match="operation needs a belief- or knowledge-class model"):
        rat_event(model, NotionProfile.uniform("sd", 2))


def test_box_basics(tie_game):
    model = tiny_knowledge_model(tie_game)
    omega = model.space.full_mask
    assert box(model, omega) == omega
    assert box(model, 0) == 0
    assert box(model, 0b01) == 0b01


def test_box_respects_all_players(tie_game):
    space = StateSpace(("a", "b"))
    all_states = frozenset({"a", "b"})
    sharp = PossibilityCorrespondence(space, (frozenset({"a"}), frozenset({"b"})))
    blurry = PossibilityCorrespondence(space, (all_states, all_states))
    model = EpistemicModel(tie_game, space, (("U", "D"), ("L", "R")), (sharp, blurry))
    assert model.model_class == "knowledge"
    # player 2 never rules anything out, so only full events are box-closed
    assert box(model, 0b01) == 0
    assert box(model, 0b11) == 0b11


def test_common_box_on_singleton_model(tie_game):
    model = singleton_model(tie_game)
    rng = random.Random(4)
    for _ in range(20):
        event = sum(1 << k for k in range(len(model.space.states)) if rng.random() < 0.5)
        assert box(model, event) == event
        assert common_box(model, event) == event
        assert is_evident(model, event)


def test_common_box_truth_axiom_on_knowledge_models(tie_game):
    rng = random.Random(9)
    model = tiny_knowledge_model(tie_game)
    for _ in range(10):
        event = sum(1 << k for k in range(len(model.space.states)) if rng.random() < 0.5)
        assert subset(common_box(model, event), event)


def test_evident_trivial_events(tie_game):
    model = tiny_knowledge_model(tie_game)
    assert is_evident(model, 0)
    assert is_evident(model, model.space.full_mask)


def test_largest_evident_inside_trivial(tie_game):
    model = tiny_knowledge_model(tie_game)
    omega = model.space.full_mask
    assert largest_evident_inside(model, omega) == omega
    assert largest_evident_inside(model, 0) == 0


def test_class_checks_and_common_box_on_every_three_state_correspondence(tie_game):
    # every map from 3 states to sets of states: 8 ** 3 = 512 correspondences
    space = StateSpace(("a", "b", "c"))
    sets = [frozenset(itertools.compress(space.states, bits))
            for bits in itertools.product((0, 1), repeat=3)]
    maps = (("U", "D", "U"), ("L", "L", "R"))
    partition = PossibilityCorrespondence(
        space, (frozenset("ab"), frozenset("ab"), frozenset("c")))
    order = ("invalid", "belief", "knowledge")  # weakest first

    def label_class(targets):
        of = dict(zip(space.states, targets))
        if not all(of[w] and all(of[v] == of[w] for v in of[w]) for w in space.states):
            return "invalid"
        return "knowledge" if all(w in of[w] for w in space.states) else "belief"

    counts = {"belief": 0, "knowledge": 0}
    for targets in itertools.product(sets, repeat=3):
        c = PossibilityCorrespondence(space, targets)
        of = dict(zip(space.states, targets))
        assert c.serial == all(of[w] for w in space.states)
        assert c.coherent == all(of[v] == of[w] for w in space.states for v in of[w])
        assert c.reflexive == all(w in of[w] for w in space.states)
        assert c.kind == label_class(targets)
        model = EpistemicModel(tie_game, space, maps, (c, c))
        if model.model_class == "invalid":
            continue
        counts["belief"] += 1
        counts["knowledge"] += model.model_class == "knowledge"
        for other in (c, partition):
            paired = EpistemicModel(tie_game, space, maps, (c, other))
            assert paired.model_class == min(
                label_class(targets), label_class(other.targets), key=order.index)
            for event in range(1 << 3):
                assert box(paired, event) == box_from_targets(paired, event)
                assert common_box(paired, event) == box_chain(paired, event)[-1]
    assert counts == {"belief": len(list(enumerate_belief_correspondences(space))),
                      "knowledge": len(list(enumerate_knowledge_correspondences(space)))}


def test_box_chain_decreases_on_belief_models(tie_game):
    space = StateSpace(("a", "b", "c"))
    # belief (not knowledge): everything points into the {b, c} cluster
    corr = PossibilityCorrespondence(
        space, (frozenset({"b", "c"}), frozenset({"b", "c"}), frozenset({"b", "c"}))
    )
    model = EpistemicModel(
        tie_game, space, (("U", "D", "U"), ("L", "R", "L")), (corr, corr)
    )
    assert model.model_class == "belief"
    for event in ({"a", "b", "c"}, {"b", "c"}, {"a"}, {"b"}, {"c", "a"}):
        chain = box_chain(model, space.mask_of(event))
        for earlier, later in zip(chain, chain[1:]):
            assert subset(later, earlier)


def test_common_box_may_leave_the_event_on_belief_models(tie_game):
    # both players believe b at a and at b: b is commonly believed at a too
    space = StateSpace(("a", "b"))
    corr = PossibilityCorrespondence(space, (frozenset({"b"}), frozenset({"b"})))
    model = EpistemicModel(tie_game, space, (("U", "D"), ("L", "R")), (corr, corr))
    assert model.model_class == "belief"
    assert common_box(model, 0b10) == 0b11
    assert box_chain(model, 0b10)[-1] == 0b11


def test_common_box_through_a_chain_of_box_steps(tie_game):
    # player 1 knows the pairs (w0 w1)(w2 w3)..., player 2 the shifted pairs
    # (w0)(w1 w2)...: each box step loses one more state from the end
    states = tuple(f"w{k}" for k in range(12))
    space = StateSpace(states)

    def correspondence(offset):
        blocks = [states[:offset]] if offset else []
        blocks += [states[k:k + 2] for k in range(offset, len(states), 2)]
        of_state = {s: frozenset(block) for block in blocks for s in block}
        return PossibilityCorrespondence(space, tuple(of_state[s] for s in states))

    maps = tuple(tuple(labels[0] for _ in states) for labels in tie_game.strategies)
    model = EpistemicModel(tie_game, space, maps, (correspondence(0), correspondence(1)))
    assert model.model_class == "knowledge"
    event = space.full_mask >> 1
    chain = box_chain(model, event)
    assert len(chain) == len(states) - 1
    assert common_box(model, event) == chain[-1] == 0
    assert common_box(model, space.full_mask) == space.full_mask


def test_restriction_of_projections(tie_game):
    model = singleton_model(tie_game)
    assert restriction_of(model, model.space.full_mask) == tie_game.full_restriction()
    assert restriction_of(model, 0) == Restriction.of(tie_game, ((), ()))
    assert restriction_of(model, model.space.mask_of({state_label(("D", "R"))})) == Restriction.of(
        tie_game, (("D",), ("R",))
    )


def test_restriction_of_rejects_unknown_states(tie_game):
    model = singleton_model(tie_game)
    with pytest.raises(ValidationError, match="unknown state 'nope'"):
        model.space.mask_of({"nope"})
    for event in (-1, 1 << 4, {"U.L"}):
        with pytest.raises(ValidationError, match="int state mask"):
            restriction_of(model, event)


def test_model_rejects_an_unknown_strategy_label(tie_game):
    space = StateSpace(("a", "b"))
    cells = (PossibilityCorrespondence(space, (frozenset({"a"}), frozenset({"b"}))),) * 2
    assert EpistemicModel(tie_game, space, (("U", "D"), ("R", "L")), cells).choosers == (
        (0b01, 0b10), (0b10, 0b01))
    for maps, message in (
        ((("U", "Q"), ("L", "R")), "player 1 has no strategy 'Q'"),
        ((("U", "D"), ("L", "U")), "player 2 has no strategy 'U'"),
    ):
        with pytest.raises(ValidationError) as err:
            EpistemicModel(tie_game, space, maps, cells)
        assert type(err.value) is ValidationError
        assert str(err.value) == message


def test_standard_model_shapes(tie_game, flat_game):
    model = singleton_model(tie_game)
    assert len(model.space.states) == 4
    assert model.strategy_maps[0][model.space.index[state_label(("D", "R"))]] == "D"
    flat = singleton_model(flat_game)
    assert flat.strategy_maps[0][flat.space.index[state_label(("D", "R"))]] == "D"


def test_rat_event_singleton_model_weak_dominance(tie_game):
    model = singleton_model(tie_game)
    rat = rat_event(model, NotionProfile.uniform("wd", 2))
    assert rat == model.space.mask_of({state_label(("U", "L")), state_label(("D", "R"))})
    assert common_box(model, rat) == rat


def test_rat_event_empty_when_strategy_never_optimal():
    # player 1 always plays 'a', but 'b' strictly dominates it everywhere
    game = game_from_payoffs(
        [("a", "b"), ("x", "y")],
        [
            {("a", "x"): 0, ("a", "y"): 0, ("b", "x"): 1, ("b", "y"): 1},
            {("a", "x"): 0, ("a", "y"): 0, ("b", "x"): 0, ("b", "y"): 0},
        ],
    )
    space = StateSpace(("w1", "w2"))
    corr = PossibilityCorrespondence(space, (frozenset({"w1"}), frozenset({"w2"})))
    model = EpistemicModel(game, space, (("a", "a"), ("x", "y")), (corr, corr))
    assert rat_event(model, NotionProfile.uniform("sd", 2)) == 0
    assert rat_event(model, NotionProfile.uniform("brp", 2)) == 0


def test_two_block_model_knowledge_class_even_when_degenerate(tie_game):
    # proper two-block split
    model = two_block_model(tie_game, Restriction.of(tie_game, (("D",), ("R",))))
    assert model.model_class == "knowledge"
    inside = model.space.mask_of({state_label(("D", "R"))})
    assert is_evident(model, inside)
    # empty restriction and full restriction collapse to the constant space
    for restriction in (Restriction.of(tie_game, ((), ())), tie_game.full_restriction()):
        degenerate = two_block_model(tie_game, restriction)
        assert degenerate.model_class == "knowledge"
        assert all(
            t == frozenset(degenerate.space.states)
            for c in degenerate.correspondences
            for t in c.targets
        )


# the standard model of the tie game: its states and strategy maps
TIE_STANDARD_TEXT = """\
states: U.L U.R D.L D.R
map 1: U.L -> U
map 1: U.R -> U
map 1: D.L -> D
map 1: D.R -> D
map 2: U.L -> L
map 2: U.R -> R
map 2: D.L -> L
map 2: D.R -> R
"""
TIE_KNOWLEDGE_REPORT = """\
correspondence 1: serial=yes coherent=yes reflexive=yes class=knowledge
correspondence 2: serial=yes coherent=yes reflexive=yes class=knowledge
model class: knowledge
"""
TIE_SINGLETON_POSS = """\
poss 1: U.L -> {U.L}
poss 1: U.R -> {U.R}
poss 1: D.L -> {D.L}
poss 1: D.R -> {D.R}
poss 2: U.L -> {U.L}
poss 2: U.R -> {U.R}
poss 2: D.L -> {D.L}
poss 2: D.R -> {D.R}
"""
TIE_TWO_BLOCK_POSS = """\
poss 1: U.L -> {U.L U.R D.L}
poss 1: U.R -> {U.L U.R D.L}
poss 1: D.L -> {U.L U.R D.L}
poss 1: D.R -> {D.R}
poss 2: U.L -> {U.L U.R D.L}
poss 2: U.R -> {U.L U.R D.L}
poss 2: D.L -> {U.L U.R D.L}
poss 2: D.R -> {D.R}
"""
TIE_CONSTANT_POSS = """\
poss 1: U.L -> {U.L U.R D.L D.R}
poss 1: U.R -> {U.L U.R D.L D.R}
poss 1: D.L -> {U.L U.R D.L D.R}
poss 1: D.R -> {U.L U.R D.L D.R}
poss 2: U.L -> {U.L U.R D.L D.R}
poss 2: U.R -> {U.L U.R D.L D.R}
poss 2: D.L -> {U.L U.R D.L D.R}
poss 2: D.R -> {U.L U.R D.L D.R}
"""


@pytest.mark.parametrize("build, poss", [
    (singleton_model, TIE_SINGLETON_POSS),
    (lambda g: two_block_model(g, Restriction.of(g, (("D",), ("R",)))), TIE_TWO_BLOCK_POSS),
    (lambda g: two_block_model(g, g.full_restriction()), TIE_CONSTANT_POSS),
    (lambda g: two_block_model(g, Restriction.of(g, ((), ()))), TIE_CONSTANT_POSS),
], ids=["singleton", "two-block", "two-block-full", "two-block-empty"])
def test_constructed_models_render_as_pinned(tie_game, build, poss):
    # counterexample payloads of thm1.iii and thm2 print these models
    model = build(tie_game)
    assert render_model(model) == TIE_STANDARD_TEXT + poss
    assert validation_report(model) == TIE_KNOWLEDGE_REPORT


def test_iterated_elimination_model_flat_game(flat_game):
    trace = outcome(NotionProfile.uniform("brp", 2), flat_game, GLOBAL)
    model = two_block_model(flat_game, trace.outcome)
    assert trace.outcome == flat_game.full_restriction()
    assert model.model_class == "knowledge"
    rat = rat_event(model, NotionProfile.uniform("brp", 2))
    assert rat == model.space.full_mask
    assert restriction_of(model, common_box(model, rat)) == flat_game.full_restriction()


def test_iterated_elimination_model_tie_game_strict(tie_game):
    trace = outcome(NotionProfile.uniform("sd", 2), tie_game, GLOBAL)
    model = two_block_model(tie_game, trace.outcome)
    assert trace.outcome == tie_game.full_restriction()
    evident = model.space.full_mask
    assert is_evident(model, evident)
    assert rat_event(model, NotionProfile.uniform("sd", 2)) == evident


def test_singleton_model_supports_rationality_of_chosen_state(tie_game):
    model = singleton_model(tie_game)
    rat = rat_event(model, NotionProfile.uniform("wd", 2))
    kstar = common_box(model, rat)
    assert kstar >> model.space.index[state_label(("U", "L"))] & 1


def test_characterizations_on_random_models(tie_game):
    # belief models: common box == largest evident event inside box(E)
    # knowledge models: common box == largest evident event inside E
    from epigame.generators import GeneratorConfig, generate_model

    for seed in range(60):
        for target in ("belief", "knowledge"):
            config = GeneratorConfig(seed=seed, states=(2, 6), target_class=target)
            model = generate_model(config, tie_game)
            rng = random.Random(seed)
            for _ in range(8):
                event = sum(1 << k for k in range(len(model.space.states)) if rng.random() < 0.5)
                stable = common_box(model, event)
                assert stable == largest_evident_inside(model, box_from_targets(model, event))
                if target == "knowledge":
                    assert stable == largest_evident_inside(model, event)


def test_model_round_trip(tie_game):
    model = singleton_model(tie_game)
    parsed = parse_model(render_model(model), tie_game)
    assert parsed == model
    report = validation_report(parsed)
    assert "model class: knowledge" in report
    assert "serial=yes" in report


def test_parse_model_errors(tie_game):
    with pytest.raises(ValidationError):
        parse_model("states: a b\nmap 1: a -> U\n", tie_game)  # incomplete maps
    from epigame.errors import ParseError

    with pytest.raises(ParseError):
        parse_model("map 1: a -> U\n", tie_game)
    with pytest.raises(ParseError):
        parse_model("states: a a\n", tie_game)
    with pytest.raises(ParseError):
        parse_model("states: a\nmap 1: b -> U\n", tie_game)


@st.composite
def belief_model_and_events(draw):
    size = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    e = draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    f = draw(st.integers(min_value=0, max_value=(1 << size) - 1))
    return size, seed, e, f


@given(belief_model_and_events())
@settings(max_examples=150, deadline=None)
def test_box_is_monotone_on_events(params):
    from epigame.generators import GeneratorConfig, generate_model
    from epigame.games import parse_game

    from conftest import TIE_GAME_TEXT

    size, seed, e, f = params
    game = parse_game(TIE_GAME_TEXT)
    config = GeneratorConfig(seed=seed, states=(size, size), target_class="belief")
    model = generate_model(config, game)
    smaller = e & f
    assert subset(box(model, smaller), box(model, e))
    assert subset(box(model, e), box(model, e | f))


@given(belief_model_and_events())
@settings(max_examples=150, deadline=None)
def test_union_of_evident_events_is_evident(params):
    from epigame.generators import GeneratorConfig, generate_model
    from epigame.games import parse_game

    from conftest import TIE_GAME_TEXT

    size, seed, e, f = params
    game = parse_game(TIE_GAME_TEXT)
    config = GeneratorConfig(seed=seed, states=(size, size), target_class="knowledge")
    model = generate_model(config, game)
    ev_e = largest_evident_inside(model, e)
    ev_f = largest_evident_inside(model, f)
    assert is_evident(model, ev_e) and is_evident(model, ev_f)
    assert is_evident(model, ev_e | ev_f)


@st.composite
def belief_correspondences(draw, space):
    """Serial and coherent: blocks over a third of the states point to
    themselves, every other state points to one of the blocks, so common
    belief often reaches outside an event."""
    inside = draw(st.permutations(space.states))[: max(1, len(space.states) // 3)]
    labels = draw(st.lists(st.integers(0, 2), min_size=len(inside), max_size=len(inside)))
    blocks = [frozenset(s for s, b in zip(inside, labels) if b == k) for k in sorted(set(labels))]
    of = {s: block for block in blocks for s in block}
    targets = tuple(of.get(s) or draw(st.sampled_from(blocks)) for s in space.states)
    return PossibilityCorrespondence(space, targets)


@st.composite
def models_and_events(draw):
    from epigame.generators import GeneratorConfig, generate_model
    from epigame.games import parse_game

    from conftest import TIE_GAME_TEXT

    size = draw(st.integers(min_value=1, max_value=8))
    game = parse_game(TIE_GAME_TEXT)
    seed = draw(st.integers(min_value=0, max_value=10**6))
    model = generate_model(GeneratorConfig(seed=seed, states=(size, size)), game)
    event = draw(st.integers(min_value=0, max_value=model.space.full_mask))
    if draw(st.booleans()):
        correspondences = [draw(belief_correspondences(model.space)) for _ in range(game.n)]
        model = EpistemicModel(game, model.space, model.strategy_maps, correspondences)
        if draw(st.booleans()):
            # every state a belief reaches lies in a block, so CB(E) is the
            # whole space, states outside E included
            for c in correspondences:
                for m in c.masks:
                    event |= m
    return model, event


@given(models_and_events())
@settings(max_examples=300, deadline=None)
def test_common_box_is_the_stable_box_chain(params):
    model, event = params
    assert box(model, event) == box_from_targets(model, event)
    assert common_box(model, event) == box_chain(model, event)[-1]


@given(models_and_events())
@settings(max_examples=100, deadline=None)
def test_restriction_of_is_the_image_of_the_strategy_maps(params):
    model, event = params
    states = {s for k, s in enumerate(model.space.states) if event >> k & 1}
    assert restriction_of(model, event).components == image_of_states(model, states)


def test_validation_report_flags_invalid(tie_game):
    space = StateSpace(("a", "b"))
    incoherent = PossibilityCorrespondence(space, (frozenset({"a", "b"}), frozenset({"b"})))
    model = EpistemicModel(
        tie_game, space, (("U", "D"), ("L", "R")), (incoherent, incoherent)
    )
    report = validation_report(model)
    assert "coherent=no" in report
    assert "model class: invalid" in report
