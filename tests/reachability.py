"""Which engine functions does no CLI run reach?

Drives ``epigame.cli.main`` in-process, under ``sys.setprofile``, over a small
corpus of CLI calls: ``eliminate --trace --dump`` for every notion and mode,
``epistemic validate``, ``rat`` and ``commonbox`` on a knowledge, a belief and
an invalid model, every ``verify`` claim as a single check and as a suite,
``generate``, and input errors that exit 2. The engine is imported under the
profiler too, so a decorator run at import counts as reached.

It prints every function defined in ``src/epigame`` that the corpus never
called, and exits 1 if one of them is outside the allowlist (``DOCUMENTED``,
the API that README documents, and the names ``perfbench`` reaches by name)
or a call ends in an exit code it should not. A function that no CLI run
reaches and no one documents is a second entrance: delete it, or route it
through the one the CLI uses.

Run from anywhere, standard library only:

    python tests/reachability.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# what no CLI call reaches, as "module.qualified_name": README's API and
# what serves only it
DOCUMENTED = frozenset({
    # label entrances and exact re-checks for API callers
    "games.game_from_payoffs",
    "games.Game.payoff",
    "games.Restriction.of",
    "games.Restriction.__repr__",
    "optimality._canonical_inputs",  # the label reader of holds and the two LPs
    "optimality._opponent_set_mask",  # its opponent-set reader, which replay shares
    "epistemic.box",
    "verify.replay",
    "verify._witness_reproduces",  # the monotonicity claim's replay
    # reached only when the engine is at fault: an operator step that does
    # not contract, and the payloads of a monotonicity (its notion) or
    # Pearce (its belief) counterexample
    "errors.NonContractingStep.__init__",
    "optimality.Notion.__str__",
    "games.CorrelatedBelief.__str__",
})

# player 1's payoffs against L, M and R; player 2's are all 0. C is strictly
# and D only weakly dominated by 1/2 A + 1/2 B, and by no pure strategy but C
# by D, weakly: mixtures that the generated games may not need
MIXED_ROWS = {"A": (3, 0, 0), "B": (0, 3, 0), "C": (1, 1, -1), "D": (1, 1, 0)}
MIXED_GAME = "players: 2\nstrategies 1: A B C D\nstrategies 2: L M R\n" + "".join(
    f"payoff 1: {s} {t} = {v}\npayoff 2: {s} {t} = 0\n"
    for s, row in MIXED_ROWS.items() for t, v in zip("LMR", row))
# player 1's possibility set is empty at b and, at a, is not a's own: the
# model is neither serial nor coherent
INVALID_MODEL = """states: a b
map 1: a -> A
map 1: b -> B
map 2: a -> L
map 2: b -> R
poss 1: a -> {b}
poss 1: b -> {}
poss 2: a -> {a b}
poss 2: b -> {a b}
"""
NOTIONS = ("sd", "wd", "msd", "mwd", "brp", "brc", "bri")
# player 2 faces 11 profiles, so 4**11 opponent-subset pairs: past the
# monotonicity check's enumeration budget
WIDE_GAME = ("players: 2\nstrategies 1: " + " ".join(f"a{k}" for k in range(11))
             + "\nstrategies 2: L R\n" + "".join(
                 f"payoff {i}: a{k} {t} = 0\n" for k in range(11) for t in "LR" for i in (1, 2)))


def _module_of(node):
    """``X`` for a ``sys.modules["epigame.X"]`` subscript, else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "modules" and isinstance(node.slice, ast.Constant)
            and str(node.slice.value).startswith("epigame.")):
        return node.slice.value
    return None


def _path_of(node, aliases):
    """``(module, attributes)`` an expression reaches in the engine, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        module, first = aliases[node.id]
        return module, first + tuple(attrs)
    module = _module_of(node)
    return None if module is None else (module, tuple(attrs))


# read off a witness the harness parses, not reached through a module
ATTRIBUTE_READS = (("epigame.games", ("MixedStrategy", "support")),)


def pinned_names() -> list[tuple[str, tuple[str, ...]]]:
    """``(module, attributes)`` of every engine name perfbench reaches by name:
    the spanned and counted functions of ``tracing.py``, the names its files
    import from the engine, the attributes read off ``sys.modules["epigame.X"]``
    and ``ATTRIBUTE_READS``. Read from the source; perfbench is not imported."""
    names = set(ATTRIBUTE_READS)
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tracing.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in (
                "SPANNED", "COUNTED"):
            for module, name, *_ in ast.literal_eval(node.value):
                names.add((f"epigame.{module}", (name,)))
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # name -> the engine path assigned to it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("epigame."):
                names.update((node.module, (alias.name,)) for alias in node.names)
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                reached = _path_of(node.value, aliases)
                if reached is not None:
                    aliases[node.targets[0].id] = reached
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reached = _path_of(node, aliases)
                if reached is not None and reached[1]:
                    names.add(reached)
    return sorted(names)


def engine_functions(package: Path) -> dict[tuple[str, int], str]:
    """``(file, first line) -> "module.qualified_name"`` of every function
    defined in the package; the first line is a decorator's where there is
    one, as in the function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), f"{path.stem}.")
    return found


def corpus(directory: Path, run) -> list[tuple[list[str], tuple[int, ...]]]:
    """The CLI calls with the exit codes each may end in; the inputs are
    generated into ``directory`` first, through ``run(argv) -> (code, stdout)``."""
    def write(name, text):
        (directory / name).write_text(text, encoding="utf-8")
        return str(directory / name)

    def generate(name, *argv):
        return write(name, run(["generate", *argv])[1])

    game = generate("seed9.game", "game", "--seed", "9")
    three = generate("three.game", "game", "--seed", "4", "--players", "3", "3")
    mixed = write("mixed.game", MIXED_GAME)
    knowledge = generate("knowledge.model", "model", "--seed", "3", "--game", game)
    belief = generate("belief.model", "model", "--seed", "11", "--game", game, "--class", "belief")
    invalid = write("invalid.model", INVALID_MODEL)
    dump = str(directory / "trace.dump")
    calls = []
    for path in (game, three, mixed):
        for notion in NOTIONS:
            for mode in ("local", "global"):
                # bri is decidable on 2 players only
                calls.append((["eliminate", "--game", path, "--notion", notion, "--mode", mode,
                               "--trace", "--dump", dump],
                              (2,) if path == three and notion == "bri" else (0,)))
        calls.append((["eliminate", "--game", path, "--notion", "sd"], (0,)))
    calls.append((["eliminate", "--game", game, "--notion", "sd,mwd", "--mode", "global"], (0,)))
    for model, model_game in ((knowledge, game), (belief, game), (invalid, mixed)):
        text = Path(model).read_text(encoding="utf-8")
        states = next(line for line in text.splitlines() if line.startswith("states:"))
        states = ",".join(states.split()[1:])
        base = ["epistemic", "--game", model_game, "--model", model]
        # an invalid model's events are undefined
        codes = (2,) if model == invalid else (0,)
        calls.append((base + ["validate"], (0,)))
        calls.append((base + ["commonbox", states], codes))
        calls.append((base + ["commonbox", states.partition(",")[2]], codes))
        for notion in NOTIONS:
            calls.append((base + ["--profile", notion, "rat"], codes))
    checks = {
        "thm1i": ["--model", belief, "--profile", "msd"],
        "thm1ii": ["--model", knowledge, "--profile", "sd"],
        "thm1iii": ["--profile", "brc"],
        "thm2": ["--profile", "wd"],
        "cor1": ["--model", knowledge],
        "cor2": ["--model", belief],
        "monotonicity": [],
    }
    for claim, options in checks.items():
        calls.append((["verify", claim, "--game", game, *options], (0, 1)))
    # a,a does not meet thm2's hypothesis on this game
    calls.append((["verify", "thm2", "--game", game, "--profile", "wd", "--joint", "a,a"], (2,)))
    for belief_class in ("point", "independent"):
        calls.append((["verify", "cor2", "--game", game, "--model", belief,
                       "--belief-class", belief_class], (0, 1)))
    for claim in ("thm1i", "thm1ii", "thm1iii", "cor1", "cor2", "pearce", "lemma-inc",
                  "monotonicity"):
        calls.append((["verify", claim, "--samples", "5", "--seed", "0"], (0, 1)))
    calls.append((["verify", "thm1i", "--samples", "3", "--profile", "brc"], (0, 1)))
    # bri suites draw 2-player games, the only ones bri admits
    for claim in ("thm1i", "thm1ii"):
        calls.append((["verify", claim, "--samples", "3", "--profile", "bri"], (0, 1)))
    calls.append((["generate", "model", "--seed", "5", "--game", three, "--class", "belief"], (0,)))
    # input errors
    bad = write("bad.game", "players: 2\nstrategies 1: U\n")
    unparsable = write("unparsable.game", "players: two\n")
    wide = write("wide.game", WIDE_GAME)
    for argv in (["eliminate", "--game", bad, "--notion", "sd"],
                 ["eliminate", "--game", unparsable, "--notion", "sd"],
                 ["eliminate", "--game", str(directory / "missing.game"), "--notion", "sd"],
                 ["eliminate", "--game", game, "--notion", "xx"],
                 ["epistemic", "--game", game, "--model", knowledge, "commonbox", "zz"],
                 ["verify", "pearce", "--game", game],
                 ["verify", "thm1i", "--samples", "0"],
                 # outside a hypothesis or a budget
                 ["verify", "thm1i", "--game", game, "--model", belief, "--profile", "wd"],
                 ["generate", "game", "--seed", "1", "--players", "2", "20",
                  "--strategies", "2", "10"],
                 ["verify", "monotonicity", "--game", wide],
                 # a required option or argument missing
                 ["verify", "thm1i", "--model", belief, "--samples", "2"],
                 ["verify", "thm1iii", "--game", game],
                 ["epistemic", "--game", game, "--model", knowledge, "commonbox"]):
        calls.append((argv, (2,)))
    return calls


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        import epigame.cli

        def run(argv) -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = epigame.cli.main(argv)
            return code, out.getvalue()

        unexpected = []
        with tempfile.TemporaryDirectory() as directory:
            for argv, codes in corpus(Path(directory), run):
                code = run(argv)[0]
                if code not in codes:
                    unexpected.append(f"exit {code}, expected one of {codes}: {' '.join(argv)}")
    finally:
        sys.setprofile(None)

    package = Path(epigame.cli.__file__).resolve().parent
    functions = engine_functions(package)
    reached = {(str(Path(name).resolve()), line) for name, line in reached
               if name.endswith(".py") and os.path.basename(os.path.dirname(name)) == "epigame"}
    never = sorted(name for key, name in functions.items() if key not in reached)
    pinned = {f"{module.removeprefix('epigame.')}.{'.'.join(attrs)}"
              for module, attrs in pinned_names()}
    allowed = DOCUMENTED | pinned
    for name in never:
        print(f"never called: {name}{'' if name in allowed else '  (not allowed)'}")
    for line in unexpected:
        print(f"corpus: {line}")
    stray = [name for name in never if name not in allowed]
    print(f"{len(functions) - len(never)} of {len(functions)} functions reached; "
          f"{len(stray)} unreached outside the allowlist")
    return 1 if stray or unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
