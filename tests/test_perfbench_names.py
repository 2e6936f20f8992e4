"""The engine names the benchmark harness reaches by name must exist.

`perfbench/tracing.py` wraps or counts engine functions by name, and the
harness imports a few more; a name deleted from `src/` would otherwise fail
only the traced benchmark run. `reachability.pinned_names` reads them from
the harness's source, which is neither imported nor edited here. The
harness's model builders are run from their source, against the engine.
"""

import importlib
import random
import types
from pathlib import Path

import pytest

from epigame.epistemic import box_chain, common_box
from reachability import pinned_names

PINNED = pinned_names()


def test_the_harness_pins_the_names_it_traces():
    names = {f"{module}.{'.'.join(attrs)}" for module, attrs in PINNED}
    assert {"epigame.optimality.holds", "epigame.simplex._pivot",
            "epigame.optimality.dominates", "epigame.lattice.enumerate_restrictions",
            "epigame.games.Restriction.__post_init__",
            "epigame.games.MixedStrategy.support"} <= names


@pytest.mark.parametrize("module, attrs", PINNED,
                         ids=[f"{module}.{'.'.join(attrs)}" for module, attrs in PINNED])
def test_every_name_the_harness_reaches_resolves(module, attrs):
    value = importlib.import_module(module)
    for attr in attrs:
        value = getattr(value, attr)


def _harness_inputs():
    """``perfbench/inputs.py`` as a module, executed from its source: the
    harness is read, neither imported as a package nor written to."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    module = types.ModuleType("perfbench_inputs")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_the_harness_models_build_and_match_its_reference():
    # epistemic-large builds its models through the engine's constructors and
    # reads .targets for its expected common box; a change to either would
    # otherwise fail only the benchmark's set-up
    inputs = _harness_inputs()
    game = inputs.model_game(0)
    chain, path = inputs.chain_model(random.Random(0), game, 12)
    # seed 15's common box of all states but the first is {w7}, not empty
    knowledge = inputs.random_model(15, game, 8, "knowledge")
    for model, event in ((chain, path[:-1]), (knowledge, knowledge.space.states[1:])):
        assert model.model_class == "knowledge"
        expected, steps = inputs.expected_common_box(model, event)
        mask = model.space.mask_of(event)
        found = common_box(model, mask)
        assert [s for k, s in enumerate(model.space.states) if found >> k & 1] == expected
        assert len(box_chain(model, mask)) == steps
    assert (steps, expected) == (3, ["w7"])
