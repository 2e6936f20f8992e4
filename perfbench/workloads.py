"""The three workloads: their operations, the inputs they read and the checks
their outputs must pass.

An operation is one CLI-equivalent call, ``epigame.cli.main(argv)``. Its
check gets the exit code and the captured stdout and returns an error text,
or ``None`` when the output is right.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from inputs import (
    chain_model,
    expected_common_box,
    model_game,
    planted_depths,
    planted_game,
    random_model,
)

Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Check


@dataclass
class Built:
    ops: list[Op]
    inputs: list[dict] = field(default_factory=list)  # {"file", "why"} per input


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "cli": caches cleared before every operation, as in a fresh process;
    # "session": cleared only at the start of a pass, as in the test suite
    semantics: str
    build: Callable[[int, Path], Built]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- eliminate-lp ---------------------------------------------------------------

# (size, notion, mode) per operation; every operation gets its own game so
# that one pass averages the LP work over twelve independent games
ELIMINATE_OPS = (
    *[(12, notion, mode) for _ in range(2) for notion in ("msd", "brc")
      for mode in ("local", "global")],
    (16, "msd", "global"),
    (16, "brc", "local"),
    (10, "mwd", "local"),
    (10, "mwd", "global"),
)

_RECORD = re.compile(
    r"eliminate stage=(\d+) player=(\d+) strategy=(\S+) reason=(.*) witness=(.*)$"
)


def _parse_mixture(text: str, player: int):
    from epigame.games import MixedStrategy

    weights = []
    for term in text.split(" + "):
        weight, _, label = term.partition("*")
        weights.append((label, weight))
    return MixedStrategy(player, tuple(weights))


def _trace_check(game, notion: str, mode: str) -> Check:
    """Stages nest, stage 1 removes something (the non-vacuity guard), the
    outcome is the last stage, and every witness dominates exactly."""
    from epigame.optimality import dominates

    dominance_mode = "weak" if notion == "mwd" else "strict"

    def check(code: int, out: str):
        if code != 0:
            return f"exit code {code}"
        stages: dict[int, list[tuple[str, ...]]] = {}
        outcome: list[tuple[str, ...]] = []
        records = []
        for line in out.splitlines():
            if line.startswith("stage "):
                head, _, labels = line.partition(":")
                _, k, _, _ = head.split()
                stages.setdefault(int(k), []).append(tuple(labels.split()))
            elif line.startswith("outcome restrict"):
                outcome.append(tuple(line.partition(":")[2].split()))
            elif line.startswith("eliminate "):
                match = _RECORD.match(line)
                if not match:
                    return f"unparsed record {line!r}"
                records.append(match.groups())
        if not stages or len(stages) < 2:
            return "trace has fewer than two stages"
        order = [stages[k] for k in sorted(stages)]
        for before, after in zip(order, order[1:]):
            if any(not set(a) <= set(b) for a, b in zip(after, before)):
                return "stages do not nest"
        if sum(map(len, order[0])) == sum(map(len, order[1])):
            return "vacuous: stage 1 removes no strategy"
        if outcome != order[-1]:
            return "outcome differs from the last stage"
        if not records:
            return "no elimination records"
        for stage, player, strategy, _reason, witness in records:
            i = int(player) - 1
            components = stages[int(stage)]
            if witness.strip() == "-":
                return f"record for {strategy} has no witness"
            mix = _parse_mixture(witness.strip(), i)
            alternatives = game.strategies[i] if mode == "global" else components[i]
            if not set(mix.support) <= set(alternatives):
                return f"witness for {strategy} leaves the alternatives"
            opponents = [(t,) for t in components[1 - i]]
            if not dominates(game, i, mix, strategy, opponents, dominance_mode):
                return f"witness for {strategy} does not dominate"
        return None

    return check


def build_eliminate(seed: int, directory: Path) -> Built:
    from epigame.games import render_game

    built = Built([])
    for k, (size, notion, mode) in enumerate(ELIMINATE_OPS):
        game = planted_game(random.Random(f"eliminate-lp/{seed}/{k}"), size)
        path = _write(directory / f"planted{k}.game", render_game(game))
        depths = planted_depths(size)
        built.inputs.append({
            "file": path,
            "why": f"{size}x{size} planted mixed dominance, depths {depths}: "
                   f"{notion} {mode} elimination removes planted strategies over "
                   "three stages, each found only by the LP",
        })
        built.ops.append(Op(
            f"eliminate {notion} {mode} {size}x{size} #{k}",
            ["eliminate", "--game", path, "--notion", notion, "--mode", mode, "--trace"],
            _trace_check(game, notion, mode),
        ))
    return built


# --- verify-suites --------------------------------------------------------------

# (claim, extra argv, samples, instances the report must state)
VERIFY_OPS = (
    ("thm1i", ["--profile", "sd"], 60, 60),
    ("thm1i", ["--profile", "msd"], 60, 60),
    ("thm1i", ["--profile", "brp"], 60, 60),
    ("thm1i", ["--profile", "brc"], 60, 60),
    ("thm1iii", [], 15, 15),
    ("lemma-inc", [], 6, 6),
    ("pearce", [], 15, 90),
    ("cor2", [], 30, 30),
    ("monotonicity", [], 60, 72),
)
VERIFY_BLOCKS = 2


def _verdict_check(instances: int) -> Check:
    def check(code: int, out: str):
        if code != 0:
            return f"exit code {code}"
        if "verdict: holds-on-all" not in out.splitlines():
            return "verdict is not holds-on-all"
        if f"instances: {instances}" not in out.splitlines():
            return f"report does not state {instances} instances"
        return None

    return check


def build_verify(seed: int, directory: Path) -> Built:
    built = Built([])
    for block in range(VERIFY_BLOCKS):
        suite_seed = 1000 * seed + 500 * block
        for claim, extra, samples, instances in VERIFY_OPS:
            built.ops.append(Op(
                f"verify {claim} {' '.join(extra)} seed {suite_seed}".replace("  ", " "),
                ["verify", claim, *extra, "--samples", str(samples), "--seed", str(suite_seed)],
                _verdict_check(instances),
            ))
    built.inputs.append({
        "file": None,
        "why": f"suite seeds {[1000 * seed + 500 * b for b in range(VERIFY_BLOCKS)]}: "
               "the thm1i runs repeat the same games under four notions",
    })
    return built


# --- epistemic-large --------------------------------------------------------------

def _line_check(prefix: str, expected: list[str] | None = None, universe=None) -> Check:
    def check(code: int, out: str):
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        found = [line for line in lines if line.startswith(prefix)]
        if len(found) != 1:
            return f"no single {prefix!r} line"
        got = found[0][len(prefix):].split()
        if expected is not None and got != expected:
            return f"{prefix} differs from the independent computation"
        if universe is not None and not set(got) <= universe:
            return f"{prefix} names unknown states"
        return None

    return check


def build_epistemic(seed: int, directory: Path) -> Built:
    from epigame.epistemic import render_model
    from epigame.games import render_game

    rng = random.Random(f"epistemic-large/{seed}")
    game = model_game(1000 + seed)
    built = Built([])
    game_path = _write(directory / "model.game", render_game(game))
    built.inputs.append({"file": game_path, "why": "seeded 3-player 6x6x6 game, payoffs 0..9"})

    models = {}
    for name, states, kind in (("k256", 256, "knowledge"), ("b256", 256, "belief")):
        model = random_model(2000 + 7 * seed + states, game, states, kind)
        models[name] = (model, _write(directory / f"{name}.model", render_model(model)))
        built.inputs.append({
            "file": models[name][1],
            "why": f"generate_model {kind} model, {states} states: RAT projections "
                   "over many distinct possibility sets",
        })
    for states in (512, 1024):
        name = f"c{states}"
        model, path = chain_model(rng, game, states)
        models[name] = (model, _write(directory / f"{name}.model", render_model(model)))
        chain_event = path[:-1]
        chain_expected, steps = expected_common_box(model, chain_event)
        if steps < states // 2:
            raise RuntimeError(f"vacuous chain model {name}: {steps} box steps")
        built.inputs.append({
            "file": models[name][1],
            "why": f"interlocking-partition chain, {states} states: common box "
                   f"of all-but-one state takes {steps} box steps",
        })

    def op(label, model_name, action, profile=None, event=None, check=None):
        argv = ["epistemic", "--game", game_path, "--model", models[model_name][1]]
        if profile:
            argv += ["--profile", profile]
        argv.append(action)
        if event is not None:
            argv.append(",".join(event))
        built.ops.append(Op(label, argv, check))

    for name, cls in (("k256", "knowledge"), ("b256", "belief"),
                      ("c512", "knowledge"), ("c1024", "knowledge")):
        op(f"validate {name}", name, "validate",
           check=_line_check("model class:", [cls]))
    for name, profile in (("k256", "sd"), ("k256", "msd"), ("k256", "brc"),
                          ("b256", "brp"), ("b256", "msd"), ("c512", "msd")):
        states = set(models[name][0].space.states)
        op(f"rat {profile} {name}", name, "rat", profile=profile,
           check=_line_check("rat:", None, states))
    k256 = models["k256"][0]
    event = k256.space.states[1:]
    op("commonbox k256", "k256", "commonbox", event=event,
       check=_line_check("commonbox:", expected_common_box(k256, event)[0]))
    # chain_event and chain_expected belong to the last chain, c1024
    op("commonbox c1024", "c1024", "commonbox", event=chain_event,
       check=_line_check("commonbox:", chain_expected))
    return built


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eliminate-lp",
            "eliminate --trace on planted mixed-dominance games: the exact simplex "
            "takes about 93% of a traced pass; caches cold per operation",
            "cli",
            build_eliminate,
        ),
        Workload(
            "verify-suites",
            "claim suites over thousands of tiny instances in one session: predicate "
            "canonicalisation, restrictions, lattice and cache hits dominate",
            "session",
            build_verify,
        ),
        Workload(
            "epistemic-large",
            "rat, commonbox and validate on 256-1024 state models: parsing, box and "
            "common box and RAT projections dominate; caches cold per operation",
            "cli",
            build_epistemic,
        ),
    )
}
