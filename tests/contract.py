"""The output contract: what each call of the CLI corpus prints, and how it exits.

``corpus`` is the CLI's test corpus: ``eliminate --trace --dump`` for every
notion and mode, ``epistemic validate``, ``rat`` and ``commonbox`` on a
knowledge, a belief and an invalid model, every ``verify`` claim as a single
check and as a suite, ``generate``, and input errors that exit 2, each with
the exit codes it may end in. ``lines`` is its one driver: it runs every call
in-process through ``epigame.cli.main``, in a temporary directory, and checks
each exit code against the ones the corpus allows.

``contract.txt`` holds one line per CLI call, in the order they run: the
``generate`` calls that make the corpus's inputs, then the corpus. Each line
is tab-separated: the argv, the exit code, and the sha256 of stdout, of
stderr and of the ``--dump`` file (``-`` for a call without ``--dump``,
``absent`` when the call wrote none). The temporary directory's path is
replaced by ``DIR`` before anything is hashed, so the digests do not depend
on it. A change that alters a line names each changed call and says why.

The engine's parsers key memos on strings and read possibility sets as
frozensets of labels, so a rendering that follows set order would print
differently under another string hash seed, and so would an order that
follows the hash of a notion. ``test_contract.py`` runs this script under
``PYTHONHASHSEED`` 1 and 2; each run is compared with the pinned digests.

Run from anywhere, standard library only:

    python tests/contract.py           # compare; lists each changed call, exit 1 on any
    python tests/contract.py --write   # rewrite contract.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = HERE / "contract.txt"
TOKEN = "DIR"

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
# a poss line that names an unknown state, and a map line that names an
# unknown strategy: the model constructors reject each label
UNKNOWN_STATE_MODEL = INVALID_MODEL.replace("poss 1: b -> {}", "poss 1: b -> {a z}")
UNKNOWN_STRATEGY_MODEL = INVALID_MODEL.replace("map 1: b -> B", "map 1: b -> Z")
# player 1's payoffs against x, y and z; player 2's are all 0. Only a mixture
# dominates s, and its strict game has several optimal mixtures, 1/4 a +
# 1/2 b + 1/4 c among them: the trace prints Bland's, 1/2 b + 1/2 c
DEGENERATE_ROWS = {"s": (0, 0, 0), "a": (-1, -1, 3), "b": (2, 1, -2), "c": (-1, 1, 3)}
DEGENERATE_GAME = "players: 2\nstrategies 1: s a b c\nstrategies 2: x y z\n" + "".join(
    f"payoff 1: {s} {t} = {v}\npayoff 2: {s} {t} = 0\n"
    for s, row in DEGENERATE_ROWS.items() for t, v in zip("xyz", row))
NOTIONS = ("sd", "wd", "msd", "mwd", "brp", "brc", "bri")
# player 2 faces 11 profiles, so 4**11 opponent-subset pairs: past the
# monotonicity check's enumeration budget
WIDE_GAME = ("players: 2\nstrategies 1: " + " ".join(f"a{k}" for k in range(11))
             + "\nstrategies 2: L R\n" + "".join(
                 f"payoff {i}: a{k} {t} = 0\n" for k in range(11) for t in "LR" for i in (1, 2)))


def corpus(directory: Path, run) -> list[tuple[list[str], tuple[int, ...]]]:
    """The CLI calls with the exit codes each may end in; the inputs are
    generated into ``directory`` first, through ``run(argv) -> (code, stdout)``."""
    from epigame.verify import CLAIMS

    def write(name, text):
        (directory / name).write_text(text, encoding="utf-8")
        return str(directory / name)

    def generate(name, *argv):
        return write(name, run(["generate", *argv])[1])

    game = generate("seed9.game", "game", "--seed", "9")
    three = generate("three.game", "game", "--seed", "4", "--players", "3", "3")
    mixed = write("mixed.game", MIXED_GAME)
    knowledge = generate("knowledge.model", "model", "--seed", "3", "--game", game)
    # seed 11's belief model has a non-empty RAT under brc; seed 3's is empty
    # under every notion
    belief = generate("belief.model", "model", "--seed", "11", "--game", game, "--class", "belief")
    invalid = write("invalid.model", INVALID_MODEL)
    dump = str(directory / "trace.dump")
    suites = [name for name, claim in CLAIMS.items() if claim.suite is not None]
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
    for claim in suites:
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
    unknown_state = write("unknown-state.model", UNKNOWN_STATE_MODEL)
    unknown_strategy = write("unknown-strategy.model", UNKNOWN_STRATEGY_MODEL)
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
                 ["epistemic", "--game", game, "--model", knowledge, "commonbox"],
                 # a model file naming an unknown state or strategy
                 ["epistemic", "--game", mixed, "--model", unknown_state, "validate"],
                 ["epistemic", "--game", mixed, "--model", unknown_strategy, "validate"]):
        calls.append((argv, (2,)))
    # every suite at 20 samples, and thm1i and cor2 on the knowledge model
    for claim in suites:
        calls.append((["verify", claim, "--samples", "20", "--seed", "0"], (0, 1)))
    calls.append((["verify", "cor2", "--belief-class", "independent", "--samples", "20",
                   "--seed", "0"], (0, 1)))
    calls.append((["verify", "thm1i", "--game", game, "--model", knowledge, "--profile", "sd"],
                  (0, 1)))
    calls.append((["verify", "cor2", "--game", game, "--model", knowledge], (0, 1)))
    degenerate = write("degenerate.game", DEGENERATE_GAME)
    calls.append((["eliminate", "--game", degenerate, "--notion", "msd", "--trace"], (0,)))
    # an empty entry in profile text
    calls.append((["eliminate", "--game", game, "--notion", "msd,"], (2,)))
    calls.append((["epistemic", "--game", game, "--model", belief, "rat", "--profile", ",brc"],
                  (2,)))
    # a game file that is not UTF-8 text
    latin1 = directory / "latin1.game"
    latin1.write_bytes("players: 2\nstrategies 1: \xe9\n".encode("latin-1"))
    calls.append((["eliminate", "--game", str(latin1), "--notion", "sd"], (2,)))
    return calls


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lines() -> tuple[list[str], list[str]]:
    """The contract's lines for the tree on ``sys.path``, and one message per
    call that ended in an exit code the corpus does not allow."""
    import epigame.cli

    out, unexpected = [], []
    with tempfile.TemporaryDirectory() as directory:
        def run(argv, codes=(0,)) -> tuple[int, str]:
            dump = Path(argv[argv.index("--dump") + 1]) if "--dump" in argv else None
            if dump is not None:
                dump.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = epigame.cli.main(argv)
            if dump is None:
                dumped = "-"
            elif dump.exists():
                dumped = _digest(dump.read_text(encoding="utf-8").replace(directory, TOKEN))
            else:
                dumped = "absent"
            call = shlex.join(arg.replace(directory, TOKEN) for arg in argv)
            out.append("\t".join([call, str(code), *(
                _digest(s.getvalue().replace(directory, TOKEN)) for s in (stdout, stderr)),
                dumped]))
            if code not in codes:
                unexpected.append(f"exit {code}, expected one of {codes}: {call}")
            return code, stdout.getvalue()

        for argv, codes in corpus(Path(directory), run):
            run(argv, codes)
    return out, unexpected


def changes(expected: list[str], actual: list[str]) -> list[str]:
    """One message per call whose line differs, naming the call's argv."""
    found = [f"changed: {new.split(chr(9))[0]}" for old, new in zip(expected, actual) if old != new]
    if len(expected) != len(actual):
        found.append(f"{len(actual)} calls, the contract has {len(expected)}")
    return found


def main(argv) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    actual, found = lines()
    if argv != ["--write"]:
        found += changes(CONTRACT.read_text(encoding="utf-8").splitlines(), actual)
    elif not found:  # a call with an exit code the corpus does not allow is not pinned
        CONTRACT.write_text("".join(line + "\n" for line in actual), encoding="utf-8")
        print(f"wrote {len(actual)} lines to {CONTRACT}")
        return 0
    for message in found:
        print(message)
    print(f"{len(actual)} calls, {len(found)} found")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
