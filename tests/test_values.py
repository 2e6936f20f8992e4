"""Value semantics of the engine's immutable records: repr text, equality
and hash over the declared fields only, read-only fields, no iteration,
the constructor calls the benchmark inputs make, and the one construction
hook of `Restriction`."""

from fractions import Fraction

import pytest

from epigame import epistemic, games
from epigame.elimination import NotionProfile
from epigame.epistemic import EpistemicModel, PossibilityCorrespondence, StateSpace
from epigame.errors import ValidationError
from epigame.games import CorrelatedBelief, Game, MixedStrategy, Restriction, as_tuple
from epigame.generators import GeneratorConfig
from epigame.lattice import EliminationRecord, EliminationTrace, RestrictionOperator
from epigame.optimality import BestResponseVerdict, DominanceVerdict, Notion
from epigame.simplex import LPSolution, Status
from epigame.verify import Claim, VerificationReport


def _values():
    """One value per class: ``(value, its compared fields, its derived
    fields, the repr captured before the values were plain classes)``."""
    game = Game((("U", "D"), ("L", "R")), ((1, 0, Fraction(1, 2), 1), (1, 1, 0, 1)))
    restriction = Restriction(game, (1, 3))
    space = StateSpace(("a", "b"))
    correspondence = PossibilityCorrespondence(space, (frozenset({"a"}), frozenset({"b"})))
    model = EpistemicModel(game, space, (("U", "D"), ("L", "L")), (correspondence,) * 2)
    mix = MixedStrategy(0, (("U", Fraction(1, 3)), ("D", Fraction(2, 3))))
    belief = CorrelatedBelief(((("L",), Fraction(1, 2)), (("R",), Fraction(1, 2))))
    record = EliminationRecord(1, 0, "D", "strictly dominated", mix)
    return [
        (game, ("strategies", "payoff_tables"), (),
         "Game(strategies=(('U', 'D'), ('L', 'R')), payoff_tables=((Fraction(1, 1), "
         "Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), (Fraction(1, 1), Fraction(1, 1), "
         "Fraction(0, 1), Fraction(1, 1))))"),
        (restriction, ("game", "masks"), (), "Restriction({U}, {L R})"),
        (mix, ("player", "weights"), (),
         "MixedStrategy(player=0, weights=(('U', Fraction(1, 3)), ('D', Fraction(2, 3))))"),
        (belief, ("weights",), (),
         "CorrelatedBelief(weights=((('L',), Fraction(1, 2)), (('R',), Fraction(1, 2))))"),
        (space, ("states",), ("index",), "StateSpace(states=('a', 'b'))"),
        (correspondence, ("space", "targets"), ("masks", "sources", "kind"),
         "PossibilityCorrespondence(space=StateSpace(states=('a', 'b')), "
         "targets=(frozenset({'a'}), frozenset({'b'})))"),
        (model, ("game", "space", "strategy_maps", "correspondences"), ("choosers", "model_class"),
         "EpistemicModel(game=Game(strategies=(('U', 'D'), ('L', 'R')), payoff_tables=("
         "(Fraction(1, 1), Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), (Fraction(1, 1), "
         "Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))), space=StateSpace(states=('a', "
         "'b')), strategy_maps=(('U', 'D'), ('L', 'L')), correspondences=("
         "PossibilityCorrespondence(space=StateSpace(states=('a', 'b')), targets=("
         "frozenset({'a'}), frozenset({'b'}))), PossibilityCorrespondence(space=StateSpace("
         "states=('a', 'b')), targets=(frozenset({'a'}), frozenset({'b'})))))"),
        (RestrictionOperator("sd/global", abs), ("name", "fn"), (),
         "RestrictionOperator(name='sd/global', fn=<built-in function abs>)"),
        (record, ("stage", "player", "strategy", "reason", "witness"), (),
         "EliminationRecord(stage=1, player=0, strategy='D', reason='strictly dominated', "
         "witness=MixedStrategy(player=0, weights=(('U', Fraction(1, 3)), "
         "('D', Fraction(2, 3)))))"),
        (EliminationTrace("sd/global", (restriction, restriction), (record,)),
         ("operator", "stages", "records"), (),
         "EliminationTrace(operator='sd/global', stages=(Restriction({U}, {L R}), "
         "Restriction({U}, {L R})), records=(EliminationRecord(stage=1, player=0, "
         "strategy='D', reason='strictly dominated', witness=MixedStrategy(player=0, "
         "weights=(('U', Fraction(1, 3)), ('D', Fraction(2, 3))))),))"),
        (DominanceVerdict(True, mix, Fraction(1, 4)), ("dominated", "witness", "optimum"), (),
         "DominanceVerdict(dominated=True, witness=MixedStrategy(player=0, weights=(('U', "
         "Fraction(1, 3)), ('D', Fraction(2, 3)))), optimum=Fraction(1, 4))"),
        (BestResponseVerdict(True, belief), ("is_best_response", "witness"), (),
         "BestResponseVerdict(is_best_response=True, witness=CorrelatedBelief(weights=(("
         "('L',), Fraction(1, 2)), (('R',), Fraction(1, 2)))))"),
        (NotionProfile(("sd", Notion.MSD)), ("notions",), (),
         "NotionProfile(notions=(<Notion.SD: 'sd'>, <Notion.MSD: 'msd'>))"),
        (GeneratorConfig(3, states=[2, 4]),
         ("seed", "players", "strategies", "payoff_pool", "states", "target_class"), (),
         "GeneratorConfig(seed=3, players=(2, 2), strategies=(2, 3), payoff_pool=("
         "Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)), states=(2, 4), "
         "target_class='knowledge')"),
        (LPSolution(Status.OPTIMAL, Fraction(1, 2), (Fraction(1, 2), Fraction(0))),
         ("status", "value", "assignment"), (),
         "LPSolution(status=<Status.OPTIMAL: 'optimal'>, value=Fraction(1, 2), "
         "assignment=(Fraction(1, 2), Fraction(0, 1)))"),
        (VerificationReport("thm2", 1, "holds-on-all", notes=("n",)),
         ("claim", "instances_checked", "verdict", "counterexample", "seed", "notes"), (),
         "VerificationReport(claim='thm2', instances_checked=1, verdict='holds-on-all', "
         "counterexample=None, seed=None, notes=('n',))"),
        (Claim("thm2", (("--profile",), None), None, None),
         ("kind", "reads", "check", "suite", "replay"), (),
         "Claim(kind='thm2', reads=(('--profile',), None), check=None, suite=None, "
         "replay=None)"),
    ]


VALUES = _values()
IDS = [type(value).__name__ for value, *_ in VALUES]


def _remake(value, fields):
    """A second value of the same class with the same fields, built anew."""
    return type(value)(**{name: getattr(value, name) for name in fields})


@pytest.mark.parametrize("value, fields, derived, text", VALUES, ids=IDS)
def test_repr_text_is_pinned(value, fields, derived, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, derived, text", VALUES, ids=IDS)
def test_equal_fields_make_equal_values_with_equal_hashes(value, fields, derived, text):
    other = _remake(value, fields)
    assert other is not value
    assert other == value and not other != value
    # the hash is the hash of the declared fields; derived ones are left out
    assert hash(other) == hash(value) == hash(tuple(getattr(value, name) for name in fields))
    # a value is not equal to a tuple of its fields, nor to another class
    assert value != tuple(getattr(value, name) for name in fields)
    assert tuple(getattr(value, name) for name in fields) != value
    assert value != object()


def test_derived_fields_take_no_part_in_equality_or_hash():
    space = StateSpace(("a", "b"))
    other = StateSpace(("a", "b"))
    other.index["c"] = 2  # the derived index is a plain dict: change it in place
    assert other == space and hash(other) == hash(space)
    correspondence = PossibilityCorrespondence(space, (frozenset({"a"}),) * 2)
    changed = PossibilityCorrespondence(space, (frozenset({"a"}),) * 2)
    changed.sources[8] = 4
    assert changed == correspondence and hash(changed) == hash(correspondence)


@pytest.mark.parametrize("value, fields, derived, text", VALUES, ids=IDS)
def test_fields_are_read_only(value, fields, derived, text):
    for name in fields + derived:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


def test_no_class_cache_or_table_can_be_assigned():
    game = Game((("U", "D"), ("L", "R")), ((1, 0, 0, 1), (0, 1, 1, 0)))
    space = StateSpace(("a", "b"))
    empty = PossibilityCorrespondence(space, (frozenset(), frozenset({"a"})))  # not serial
    model = EpistemicModel(game, space, (("U", "D"), ("L", "R")), (empty,) * 2)
    assert model.model_class == empty.kind == "invalid"
    restriction = game.full_restriction()
    assert game.beats  # built on first read: a table already built is guarded too
    for value, name in ((model, "model_class"), (empty, "kind"),
                        (restriction, "components"), (restriction, "joint_strategies"),
                        (game, "n"), (game, "memo"), (game, "beats"), (game, "_payoff_tables")):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, "knowledge")
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        game.unknown = 1
    assert model.model_class == "invalid"
    with pytest.raises(ValidationError, match="belief- or knowledge-class model"):
        epistemic.rat_event(model, NotionProfile.uniform("sd", 2))


@pytest.mark.parametrize("value, fields, derived, text", VALUES, ids=IDS)
def test_values_are_not_collections(value, fields, derived, text):
    with pytest.raises(TypeError):
        iter(value)
    with pytest.raises(ValidationError, match="expected a collection"):
        as_tuple(value)


def test_the_benchmark_input_calls_build_their_values():
    # the keyword and positional calls made by the benchmark's input builders
    game = Game((("r0", "r1"), ("c0", "c1")), ((1, 2, 3, 4), (4, 3, 2, 1)))
    assert game.n == 2 and game.payoff_tables[1] == tuple(map(Fraction, (4, 3, 2, 1)))
    config = GeneratorConfig(seed=1, players=(3, 3), strategies=(6, 6),
                             payoff_pool=tuple(range(10)))
    assert (config.players, config.strategies, config.states) == ((3, 3), (6, 6), (2, 6))
    assert config.payoff_pool == tuple(map(Fraction, range(10)))
    config = GeneratorConfig(seed=1, states=(4, 4), target_class="belief")
    assert (config.states, config.target_class) == ((4, 4), "belief")
    space = StateSpace(["p0", "p1"])
    assert space.states == ("p0", "p1") and space.index == {"p0": 0, "p1": 1}
    correspondence = PossibilityCorrespondence(space, ({"p0", "p1"}, ("p0", "p1")))
    assert correspondence.targets == (frozenset({"p0", "p1"}),) * 2
    assert correspondence.masks == (3, 3) and correspondence.sources == {3: 3}
    model = EpistemicModel(game, space, [["r0", "r1"], ("c1", "c1")], [correspondence] * 2)
    assert model.strategy_maps == (("r0", "r1"), ("c1", "c1"))
    assert model.choosers == ((1, 2), (0, 3))
    mix = MixedStrategy(0, (("r0", "1/2"), ("r1", "1/2")))
    assert mix.weights == (("r0", Fraction(1, 2)), ("r1", Fraction(1, 2)))


def test_keyword_calls_and_defaults():
    report = VerificationReport(claim="cor1", instances_checked=2, verdict="holds-on-all")
    assert (report.counterexample, report.seed, report.notes) == (None, None, ())
    assert EliminationTrace("op", ()).records == ()
    assert EliminationRecord(stage=0, player=1, strategy="L", reason="r").witness is None
    assert Claim("k", (None, None), None, None).replay is None
    assert GeneratorConfig(0) == GeneratorConfig(seed=0, players=(2, 2), strategies=(2, 3),
                                                 states=(2, 6), target_class="knowledge")
    with pytest.raises(TypeError):
        Restriction(games.Game((("a",), ("b",)), ((0,), (0,))))


def test_restriction_construction_runs_its_hook_once_per_value(monkeypatch):
    calls = []
    hook = Restriction.__post_init__

    def counted(self):
        calls.append(self)
        hook(self)

    # the benchmark's tracer counts restrictions through this class attribute
    monkeypatch.setattr(Restriction, "__post_init__", counted)
    game = Game((("U", "D"), ("L", "R")), ((1, 0, 0, 1), (0, 1, 1, 0)))
    made = [
        Restriction(game, (1, 2)),
        Restriction.of(game, (("D",), ("L", "R"))),
        game.full_restriction(),
        epistemic.restriction_of(epistemic.singleton_model(game), 0b0110),
    ]
    assert calls == made and all(a is b for a, b in zip(calls, made))
    with pytest.raises(ValidationError, match="not one strategy mask per player"):
        Restriction(game, (1, 4))
    assert len(calls) == len(made) + 1
