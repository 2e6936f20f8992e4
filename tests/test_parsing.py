"""The game and model file parsers: round trips, the exact error of every
rejected input, and the bounds a bad input may not break."""

import contextlib
import io
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigame.cli import main
from epigame.elimination import GLOBAL, LOCAL
from epigame.epistemic import parse_model, render_model
from epigame.errors import ParseError, ValidationError
from epigame.games import Game, parse_game, render_game
from epigame.generators import GeneratorConfig, generate_model
from epigame.optimality import Notion
from epigame.verify import BELIEF_CLASS_NOTIONS, CLAIMS

from conftest import TIE_GAME_TEXT

# --- round trips ---------------------------------------------------------------

# integers, p/q forms and values at or near the 1000-digit literal bound
payoff_values = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.builds(lambda k, r, q, sign: sign * Fraction(10 ** k - r, q),
              st.integers(990, 998), st.integers(0, 10 ** 6), st.integers(1, 9),
              st.sampled_from((1, -1))),
    st.builds(lambda r, sign: sign * Fraction(10 ** 999 + r),
              st.integers(0, 10 ** 6), st.sampled_from((1, -1))),
)


@st.composite
def games(draw, players=(2, 3)):
    n = draw(st.integers(*players))
    strategies = tuple(
        tuple(f"s{i}{k}" for k in range(draw(st.integers(1, 4)))) for i in range(n)
    )
    size = 1
    for labels in strategies:
        size *= len(labels)
    tables = tuple(
        tuple(draw(st.lists(payoff_values, min_size=size, max_size=size))) for _ in range(n)
    )
    return Game(strategies, tables)


@st.composite
def reordered(draw, text):
    """The same file with every line after the first shuffled, and comments
    and blank lines put in."""
    first, *rest = text.splitlines()
    lines = [first]
    for line in draw(st.permutations(rest)):
        extra = draw(st.sampled_from(("", "blank", "comment", "trailing")))
        if extra == "blank":
            lines.append("   ")
        elif extra == "comment":
            lines.append("# payoff 1: not a line")
        lines.append(line + "  # note" if extra == "trailing" else line)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(games(), st.data())
def test_parse_game_inverts_render_game_in_any_line_order(game, data):
    text = render_game(game)
    assert parse_game(text) == game
    assert parse_game(data.draw(reordered(text))) == game


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("belief", "knowledge")),
       st.integers(1, 12), st.data())
def test_parse_model_inverts_render_model_in_any_line_order(seed, target, states, data):
    game = data.draw(games())
    model = generate_model(
        GeneratorConfig(seed=seed, states=(1, states), target_class=target), game)
    text = render_model(model)
    assert parse_model(text, game) == model
    assert parse_model(data.draw(reordered(text)), game) == model


# --- every rejected input, with its exact error --------------------------------

GAME_2x2 = "players: 2\nstrategies 1: U D\nstrategies 2: L R\n"
FULL_PAYOFFS = "".join(
    f"payoff {i}: {a} {b} = 1\n" for i in (1, 2) for a in "UD" for b in "LR"
)

GAME_ERRORS = {
    "no colon": (
        "players: 2\nstrategies 1 U D\n",
        ParseError, "expected 'keyword ...:' directive", 2, 1),
    "duplicate players": (
        "players: 2\nplayers: 3\n",
        ParseError, "duplicate players directive", 2, 1),
    "players not an integer": (
        "players: two\n",
        ParseError, "players count must be an integer", 1, 12),
    "malformed strategies": (
        "players: 2\nstrategies x: U\n",
        ParseError, "malformed strategies directive", 2, 1),
    "malformed payoff": (
        GAME_2x2 + "payoff: U L = 1\n",
        ParseError, "malformed payoff directive", 4, 1),
    "strategies player past n": (
        "players: 2\nstrategies 3: U\n",
        ParseError, "player number 3 out of range", 2, 12),
    "payoff player past n": (
        GAME_2x2 + "payoff 3: U L = 1\n",
        ParseError, "player number 3 out of range", 4, 8),
    "payoff player 0": (
        "payoff 0: U L = 1\nplayers: 2\n",
        ParseError, "player number 0 out of range", 1, 8),
    "duplicate strategies": (
        GAME_2x2 + "strategies 2: X\n",
        ParseError, "duplicate strategies for player 2", 4, 1),
    "reserved character in a label": (
        "players: 2\nstrategies 1: U a=b\n",
        ParseError, "strategy label 'a=b' contains the reserved '='", 2, 17),
    "no '='": (
        GAME_2x2 + "payoff 1: U L 1\n",
        ParseError, "payoff line needs '= value'", 4, 15),
    "bad literal": (
        GAME_2x2 + "payoff 1: U L =  x1\n",
        ParseError, "not an exact rational: 'x1'", 4, 16),
    "literal with too many digits": (
        GAME_2x2 + "payoff 1: U L = " + "7" * 1001 + "\n",
        ParseError, "literal has more than 1000 digits", 4, 16),
    "literal with too large an exponent": (
        GAME_2x2 + "payoff 1: U L = 1e1001\n",
        ParseError, "literal has an exponent beyond 1000", 4, 16),
    "division by zero": (
        GAME_2x2 + "payoff 1: U L = 1/0\n",
        ParseError, "not an exact rational: '1/0'", 4, 16),
    "unknown directive": (
        GAME_2x2 + "payout 1: U L = 1\n",
        ParseError, "unknown directive 'payout'", 4, 1),
    "no players": (
        "strategies 1: U\n",
        ParseError, "missing players directive", 0, 0),
    "one player": (
        "players: 1\nstrategies 1: a b\npayoff 1: a = 0\npayoff 1: b = 0\n",
        ValidationError, "a game needs at least 2 players (n > 1)", None, None),
    "missing strategies": (
        "players: 3\nstrategies 2: L R\n",
        ValidationError, "missing strategies for players [1, 3]", None, None),
    "joint too short": (
        GAME_2x2 + "payoff 1: U = 1\n",
        ParseError, "joint strategy needs 2 entries, got 1", 4, 1),
    "unknown label": (
        GAME_2x2 + "payoff 1: U X = 1\n",
        ParseError, "player 2 has no strategy 'X'", 4, 1),
    "duplicate payoff": (
        GAME_2x2 + FULL_PAYOFFS + "payoff 2: D L = 3\n",
        ValidationError, "duplicate payoff for player 2 at ('D', 'L')", None, None),
    "missing payoff": (
        GAME_2x2 + FULL_PAYOFFS.replace("payoff 2: U R = 1\n", ""),
        ValidationError, "player 2 is missing payoff entries, e.g. ('U', 'R')", None, None),
    "no payoffs": (
        GAME_2x2,
        ValidationError, "player 1 is missing payoff entries, e.g. ('U', 'L')", None, None),
    "duplicate labels": (
        "players: 2\nstrategies 1: U U\nstrategies 2: L\npayoff 1: U L = 1\npayoff 2: U L = 1\n",
        ValidationError, "player 1 has duplicate strategy labels", None, None),
    "empty strategy set": (
        "players: 2\nstrategies 1:\nstrategies 2: L\n",
        ValidationError, "player 1 has an empty strategy set", None, None),
    # where a file has several faults, the one found first is reported
    "an in-pass fault before a later-checked one": (
        GAME_2x2 + "payoff 1: U X = 1\nfoo: 1\n",
        ParseError, "unknown directive 'foo'", 5, 1),
    "a duplicate before an unknown label": (
        GAME_2x2 + "payoff 1: U L = 1\npayoff 1: U L = 2\npayoff 1: U X = 1\n",
        ValidationError, "duplicate payoff for player 1 at ('U', 'L')", None, None),
    "an unknown label before a duplicate": (
        GAME_2x2 + "payoff 1: U X = 1\npayoff 1: U L = 1\npayoff 1: U L = 2\n",
        ParseError, "player 2 has no strategy 'X'", 4, 1),
    "a missing payoff before duplicate labels": (
        "players: 2\nstrategies 1: U V U\nstrategies 2: L\npayoff 1: U L = 1\n",
        ValidationError, "player 1 is missing payoff entries, e.g. ('V', 'L')", None, None),
    "a missing payoff of player 1 before one of player 2": (
        GAME_2x2 + FULL_PAYOFFS.replace("payoff 2: U R = 1\n", "").replace(
            "payoff 1: D R = 1\n", ""),
        ValidationError, "player 1 is missing payoff entries, e.g. ('D', 'R')", None, None),
}

MODEL_ERRORS = {
    "no colon": (
        "states: a\nmap 1 a -> U\n",
        ParseError, "expected 'keyword ...:' directive", 2, 1),
    "duplicate states": (
        "states: a\nstates: b\n",
        ParseError, "duplicate states directive", 2, 1),
    "duplicate state labels": (
        "states: a a\n",
        ParseError, "state labels must be distinct", 1, 9),
    "no states": (
        "states:\n",
        ParseError, "state space must be non-empty", 1, 9),
    "reserved character in a state label": (
        "states: a b=c\n",
        ParseError, "state label 'b=c' contains the reserved '='", 1, 9),
    "malformed map": (
        "states: a\nmap x: a -> U\n",
        ParseError, "malformed map directive", 2, 1),
    "malformed poss": (
        "states: a\npossible 1: a -> {a}\n",
        ParseError, "malformed poss directive", 2, 1),
    "map player past n": (
        "states: a\nmap 3: a -> U\n",
        ParseError, "player number 3 out of range", 2, 5),
    "poss player 0": (
        "states: a\nposs 0: a -> {a}\n",
        ParseError, "player number 0 out of range", 2, 6),
    "no '->'": (
        "states: a\nmap 1: a U\n",
        ParseError, "map line needs '->'", 2, 10),
    "states not first": (
        "map 1: a -> U\nstates: a\n",
        ParseError, "states directive must come first", 1, 1),
    "unknown state": (
        "states: a\nposs 2: b -> {a}\n",
        ParseError, "unknown state 'b'", 2, 1),
    "poss without braces": (
        "states: a\nposs 1: a -> a\n",
        ParseError, "poss line needs '{state ...}'", 2, 14),
    "duplicate map": (
        "states: a\nmap 1: a -> U\nmap 1: a -> D\n",
        ValidationError, "duplicate map for player 1 at state a", None, None),
    "duplicate poss": (
        "states: a\nposs 2: a -> {a}\nposs 2: a -> {}\n",
        ValidationError, "duplicate poss for player 2 at state a", None, None),
    "a directive that starts with map": (
        "states: a\nmapping: a\n",
        ParseError, "malformed map directive", 2, 1),
    "unknown keyword": (
        "states: a\nfoo 1: a -> U\n",
        ParseError, "unknown directive 'foo'", 2, 1),
    "missing states": (
        "# nothing\n",
        ParseError, "missing states directive", 0, 0),
    "missing map": (
        "states: a b\nmap 1: a -> U\nmap 1: b -> U\nmap 2: b -> L\n",
        ValidationError, "missing map lines, e.g. player 2 state a", None, None),
    "missing poss": (
        "states: a\nmap 1: a -> U\nmap 2: a -> L\nposs 1: a -> {a}\n",
        ValidationError, "missing poss lines, e.g. player 2 state a", None, None),
    "map to an unknown strategy": (
        "states: a\nmap 1: a -> Q\nmap 2: a -> L\nposs 1: a -> {a}\nposs 2: a -> {a}\n",
        ValidationError, "player 1 has no strategy 'Q'", None, None),
    # where a file has several faults, the one found first is reported
    "a missing map before a missing poss": (
        "states: a\nmap 1: a -> U\n",
        ValidationError, "missing map lines, e.g. player 2 state a", None, None),
    "unknown possible states before an unknown strategy": (
        "states: a\nmap 1: a -> Q\nmap 2: a -> L\nposs 1: a -> {a}\nposs 2: a -> {z y}\n",
        ValidationError, "correspondence targets unknown states ['y', 'z']", None, None),
    "the first unknown possible set is named": (
        "states: a b\nmap 1: a -> U\nmap 2: a -> L\nmap 1: b -> U\nmap 2: b -> L\n"
        "poss 1: b -> {y}\nposs 1: a -> {x}\nposs 2: a -> {a}\nposs 2: b -> {b}\n",
        ValidationError, "correspondence targets unknown states ['x']", None, None),
}


def check_error(parse, source, kind, message, line, column):
    with pytest.raises(kind) as err:
        parse(source)
    assert type(err.value) is kind
    if kind is ParseError:
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == (f"line {line}, column {column}: {message}" if line else message)
    else:
        assert str(err.value) == message


@pytest.mark.parametrize("case", GAME_ERRORS.values(), ids=GAME_ERRORS.keys())
def test_every_game_file_error(case):
    check_error(parse_game, *case)


@pytest.mark.parametrize("case", MODEL_ERRORS.values(), ids=MODEL_ERRORS.keys())
def test_every_model_file_error(case, tie_game):
    check_error(lambda source: parse_model(source, tie_game), *case)


# --- player numbers given before the players count -------------------------------

@pytest.mark.parametrize("line", ["payoff 3: U L = 1", "strategies 3: z"])
def test_player_number_past_a_later_players_count(line):
    source = line + "\n" + TIE_GAME_TEXT.replace("players: 2\n", "") + "players: 2\n"
    with pytest.raises(ParseError) as err:
        parse_game(source)
    keyword = line.split()[0]
    assert (err.value.line, err.value.column) == (1, len(keyword) + 2)
    assert str(err.value) == f"line 1, column {len(keyword) + 2}: player number 3 out of range"


def test_players_count_after_the_payoffs_accepted(tie_game):
    lines = TIE_GAME_TEXT.splitlines()
    assert parse_game("\n".join(lines[2:] + lines[:2])) == tie_game


@pytest.mark.parametrize("source, message, column", [
    ("players: 2\n: 5\n", "expected 'keyword ...:' directive", 1),
    ("players: \u00b2\n", "players count must be an integer", 10),
    ("players: 2\npayoff \u00b2: a b = 1\n", "malformed payoff directive", 1),
])
def test_inputs_that_raised_other_errors_are_parse_errors(source, message, column):
    # an empty head and a digit that int() rejects ended in IndexError or ValueError
    line = 1 + source.startswith("players: 2\n")
    with pytest.raises(ParseError) as err:
        parse_game(source)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_an_empty_model_directive_is_a_parse_error(tie_game):
    with pytest.raises(ParseError) as err:
        parse_model("states: a\n: x\n", tie_game)
    assert str(err.value) == "line 2, column 1: expected 'keyword ...:' directive"


# --- bounded memory --------------------------------------------------------------

def test_missing_payoffs_found_without_building_the_product():
    players = 18
    source = (f"players: {players}\n"
              + "".join(f"strategies {i + 1}: a b\n" for i in range(players))
              + "payoff 1: " + " ".join("a" * players) + " = 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            parse_game(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "player 1 is missing payoff entries, e.g. " + repr(("a",) * (players - 1) + ("b",)))
    assert peak < 5 * 2 ** 20


def test_a_players_count_alone_is_bounded_by_the_file():
    # the message names the first ten missing players and the count, and the
    # work stays within the file's strategies lines, not the players count
    source = "players: 100000\nstrategies 2: a\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            parse_game(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert message == (
        "missing strategies for players [1, 3, 4, 5, 6, 7, 8, 9, 10, 11] and more, 99999 in all")
    assert len(message) < 1000
    assert peak < 2 ** 20


# --- spacing, repeated lines and mutated files ------------------------------------

SPACES = ("", " ", "  ", "\t")


@st.composite
def respaced(draw, text):
    """The same file with every head rewritten with other spacing
    (``payoff  2 :``, ``map\\t1:``), and other spacing after the colon."""
    lines = []
    for line in text.splitlines():
        head, _, rest = line.partition(":")
        sep, lead, trail, after = (draw(st.sampled_from(SPACES[1:])),
                                   *(draw(st.sampled_from(SPACES)) for _ in range(3)))
        lines.append(lead + sep.join(head.split()) + trail + ":" + after + rest.strip())
    return "\n".join(lines) + "\n"


def drawn_model(data, game, states=8):
    config = GeneratorConfig(seed=data.draw(st.integers(0, 10 ** 6)), states=(1, states),
                             target_class=data.draw(st.sampled_from(("belief", "knowledge"))))
    return generate_model(config, game)


@settings(max_examples=40, deadline=None)
@given(games(), st.data())
def test_respaced_heads_comments_and_blank_lines_parse_alike(game, data):
    text = data.draw(reordered(data.draw(respaced(render_game(game)))))
    assert parse_game(text) == game
    model = drawn_model(data, game)
    text = data.draw(reordered(data.draw(respaced(render_model(model)))))
    assert parse_model(text, game) == model


@settings(max_examples=40, deadline=None)
@given(games(), st.data())
def test_a_line_repeated_under_another_spacing_is_a_duplicate(game, data):
    model = drawn_model(data, game)
    for text, parse in ((render_game(game), parse_game),
                        (render_model(model), lambda source: parse_model(source, game))):
        lines = text.splitlines()
        line = data.draw(st.sampled_from([line for line in lines if line.startswith(
            ("payoff", "map", "poss"))]))
        head, _, rest = line.partition(":")
        keyword, player = head.split()
        lines.insert(data.draw(st.integers(1, len(lines))), f" {keyword}  {player} :{rest}")
        if keyword == "payoff":
            at = tuple(rest.partition("=")[0].split())
        else:
            at = "state " + rest.partition("->")[0].strip()
        with pytest.raises(ValidationError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"duplicate {keyword} for player {player} at {at}"


@st.composite
def mutated(draw, text):
    """``text``'s lines after 1 to 3 mutations, each a dropped line, a
    duplicated line put anywhere, or two tokens of a line swapped; and
    whether a swap was made."""
    lines = text.splitlines()
    swapped = False
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap")))
        if kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        else:
            tokens = lines[k].split(" ")
            a, b = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[k] = " ".join(tokens)
            swapped = True
        if not lines:
            break
    return lines, swapped


def is_broken(lines, swapped, text):
    """Whether a mutation without a swap changed the file's lines: a
    duplicate and a drop can move a line, which both formats accept."""
    return not swapped and sorted(lines) != sorted(text.splitlines())


@settings(max_examples=60, deadline=None)
@given(games(), st.data())
def test_mutated_files_end_in_input_errors(game, data):
    # a dropped or duplicated line breaks a rendered file, unless a later drop
    # or duplicate gives back its lines; a token swap may leave it valid (two
    # equal tokens), but never raises another error
    model = drawn_model(data, game, states=6)
    for text, parse in ((render_game(game), parse_game),
                        (render_model(model), lambda source: parse_model(source, game))):
        lines, swapped = data.draw(mutated(text))
        try:
            parse("\n".join(lines) + "\n")
        except (ParseError, ValidationError):
            continue
        assert not is_broken(lines, swapped, text), \
            "a file with a line dropped or duplicated was accepted"


def _cli_argv(data, game, model):
    """A drawn ``eliminate``, ``epistemic`` or single-check ``verify`` call on
    the files ``GAME`` and ``MODEL``; each ``verify`` option is one its claim
    reads."""
    notion = st.sampled_from([n.value for n in Notion] + ["sd,mwd"])
    checks = [name for name, claim in CLAIMS.items() if claim.reads[0] is not None]
    command = data.draw(st.sampled_from(["eliminate", "epistemic", *checks]))
    if command == "eliminate":
        return ["eliminate", "--game", "GAME", "--notion", data.draw(notion),
                "--mode", data.draw(st.sampled_from((GLOBAL, LOCAL))),
                *data.draw(st.sampled_from(((), ("--trace",))))]
    if command == "epistemic":
        action = data.draw(st.sampled_from(("validate", "rat", "commonbox")))
        argv = ["epistemic", "--game", "GAME", "--model", "MODEL", action]
        if action == "rat":
            argv += ["--profile", data.draw(notion)]
        elif action == "commonbox":
            argv.append(",".join(data.draw(st.lists(st.sampled_from(model.space.states)))))
        return argv
    values = {"--model": st.just("MODEL"), "--profile": notion,
              "--joint": st.sampled_from([",".join(j) for j in game.joint_strategies]),
              "--belief-class": st.sampled_from(list(BELIEF_CLASS_NOTIONS))}
    argv = ["verify", command, "--game", "GAME"]
    for option in CLAIMS[command].reads[0]:
        # --model and --profile are needed where they are read
        if option in ("--model", "--profile") or data.draw(st.booleans()):
            argv += [option, data.draw(values[option])]
    return argv


# 2-player games: on a 3-player game the monotonicity check may take a
# second or more, within its enumeration budget
@settings(max_examples=100, deadline=None)
@given(games(players=(2, 2)), st.data())
def test_mutated_files_through_main_end_in_an_exit_code(game, data):
    # main returns 0, 1 or 2 and raises nothing on a mutated game or model
    # file; a file with a line dropped or duplicated ends in 2
    model = drawn_model(data, game, states=6)
    argv = _cli_argv(data, game, model)
    texts = {"GAME": render_game(game), "MODEL": render_model(model)}
    name = data.draw(st.sampled_from([name for name in texts if name in argv]))
    lines, swapped = data.draw(mutated(texts[name]))
    broken = is_broken(lines, swapped, texts[name])
    texts[name] = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as directory:
        for key, text in texts.items():
            (Path(directory) / key).write_text(text, encoding="utf-8")
        argv = [str(Path(directory) / arg) if arg in texts else arg for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2) and (code == 2 or not broken), (argv, code)
