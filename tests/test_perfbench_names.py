"""The engine names the benchmark harness reaches by name must exist.

`perfbench/tracing.py` wraps or counts engine functions by name, and the
harness imports a few more; a name deleted from `src/` would otherwise fail
only the traced benchmark run. `reachability.pinned_names` reads them from
the harness's source, which is neither imported nor edited here.
"""

import importlib

import pytest

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
