import gc
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epigame.cli import main
from epigame.games import parse_game
from epigame.verify import CLAIMS

from conftest import FLAT_GAME_TEXT, TIE_GAME_TEXT


@pytest.fixture()
def tie_game_file(tmp_path):
    path = tmp_path / "tie.game"
    path.write_text(TIE_GAME_TEXT)
    return str(path)


@pytest.fixture()
def flat_game_file(tmp_path):
    path = tmp_path / "flat.game"
    path.write_text(FLAT_GAME_TEXT)
    return str(path)


@pytest.fixture()
def singleton_model_file(tmp_path, tie_game):
    from epigame.epistemic import render_model, singleton_model

    path = tmp_path / "singleton.model"
    path.write_text(render_model(singleton_model(tie_game)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_commands_leave_no_cyclic_garbage(capsys, tie_game_file, singleton_model_file):
    # what a command leaves behind is freed by reference counting alone
    commands = [
        ["eliminate", "--game", tie_game_file, "--notion", "mwd", "--trace"],
        ["epistemic", "--game", tie_game_file, "--model", singleton_model_file,
         "--profile", "msd", "rat"],
        ["epistemic", "--game", tie_game_file, "--model", singleton_model_file, "validate"],
        ["epistemic", "--game", tie_game_file, "--model", singleton_model_file,
         "commonbox", "U.L,D.R"],
        ["verify", "thm1i", "--samples", "3"],
    ]
    run(capsys, *commands[0])  # warm-up
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert run(capsys, *argv)[0] == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_eliminate_weak_dominance_local(capsys, tie_game_file):
    code, out, _ = run(capsys, "eliminate", "--game", tie_game_file, "--notion", "wd", "--mode", "local")
    assert code == 0
    assert "restrict 1: D" in out
    assert "restrict 2: R" in out
    assert "stabilized_at: 1" in out


def test_eliminate_trace_and_dump(capsys, tmp_path, tie_game_file):
    dump_file = tmp_path / "trace.dump"
    code, out, _ = run(
        capsys,
        "eliminate", "--game", tie_game_file, "--notion", "mwd", "--mode", "local",
        "--trace", "--dump", str(dump_file),
    )
    assert code == 0
    dump = dump_file.read_text()
    assert out == dump
    assert "stage 0 restrict 1: U D" in dump
    assert "eliminate stage=0 player=1 strategy=U" in dump
    assert "outcome restrict 1: D" in dump
    # dumps are deterministic, suitable for golden diffs
    code, out2, _ = run(
        capsys,
        "eliminate", "--game", tie_game_file, "--notion", "mwd", "--mode", "local", "--trace",
    )
    assert out2 == dump


def _player_one_game(rows):
    """A 2-player game text: player 1's strategies with payoffs against L
    and R, player 2 indifferent everywhere."""
    lines = ["players: 2", "strategies 1: " + " ".join(rows), "strategies 2: L R"]
    for label, payoffs in rows.items():
        lines += [f"payoff 1: {label} {t} = {v}" for t, v in zip("LR", payoffs)]
    lines += [f"payoff 2: {label} {t} = 0" for label in rows for t in "LR"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["local", "global"])
@pytest.mark.parametrize("rows, eliminated, witness", [
    # C is weakly dominated by p*A + (1-p)*B for every p in [1/2, 1]: the
    # one-phase program stops at p = 1, Bland's two-phase program at 1/2
    ({"A": (0, 2), "B": (2, 0), "C": (0, 1)}, "C", "1/2*A + 1/2*B"),
    # S is weakly dominated by every mixture of A and B; here both programs
    # stop at A
    ({"S": (0, 0), "A": (1, 0), "B": (0, 1)}, "S", "1*A"),
])
def test_mwd_witness_with_several_optima_comes_from_blands_program(
    capsys, monkeypatch, tmp_path, mode, rows, eliminated, witness
):
    import epigame.optimality as optimality

    calls = []
    solve = optimality.solve
    monkeypatch.setattr(optimality, "solve", lambda *args: calls.append(args) or solve(*args))
    path = tmp_path / "ties.game"
    path.write_text(_player_one_game(rows))
    code, out, _ = run(capsys, "eliminate", "--game", str(path), "--notion", "mwd",
                       "--mode", mode, "--trace")
    assert code == 0
    kept = " ".join(label for label in rows if label != eliminated)
    assert out.splitlines()[-3:] == [
        f"eliminate stage=0 player=1 strategy={eliminated} reason=weakly dominated by a "
        f"mixed strategy witness={witness}",
        f"outcome restrict 1: {kept}",
        "outcome restrict 2: L R",
    ]
    # the witness program has several optimal points, so the one-phase
    # decision's vertex is not read and the two-phase fallback runs once
    assert len(calls) == 1


def test_eliminate_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("players: 2\nstrategies 1 U\n")
    code, _, err = run(capsys, "eliminate", "--game", str(bad), "--notion", "sd")
    assert code == 2
    assert "error:" in err


def test_eliminate_missing_file(capsys):
    code, _, err = run(capsys, "eliminate", "--game", "/nonexistent.game", "--notion", "sd")
    assert code == 2


@pytest.mark.parametrize("which", ["game", "model"])
def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, tie_game_file,
                                                   singleton_model_file, which):
    latin1 = tmp_path / f"latin1.{which}"
    latin1.write_bytes("players: 2\nstrategies 1: \xe9 D\n".encode("latin-1"))
    game, model = (latin1, singleton_model_file) if which == "game" else (tie_game_file, latin1)
    code, out, err = run(capsys, "epistemic", "--game", str(game), "--model", str(model),
                         "validate")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_eliminate_dump_to_an_unwritable_path_is_an_input_error(capsys, tmp_path, tie_game_file,
                                                                 where):
    dump = tmp_path / "missing" / "trace.dump" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "eliminate", "--game", tie_game_file, "--notion", "sd",
                         "--dump", str(dump))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {dump}: ") and err.count("\n") == 1


def test_commands_on_files_intern_no_strings(capsys, monkeypatch, tmp_path, tie_game_file,
                                             singleton_model_file):
    # sys.intern grows the interpreter's interned-string table, which a
    # command that reads or writes a file has no cause to do
    dump = tmp_path / "trace.dump"
    commands = [
        ["eliminate", "--game", tie_game_file, "--notion", "mwd", "--trace", "--dump", str(dump)],
        ["epistemic", "--game", tie_game_file, "--model", singleton_model_file, "rat"],
        ["verify", "thm1i", "--game", tie_game_file, "--model", singleton_model_file,
         "--profile", "sd"],
    ]
    run(capsys, *commands[0])  # warm-up
    expected = [run(capsys, *argv) for argv in commands]
    expected_dump = dump.read_text(encoding="utf-8")
    dump.unlink()

    def intern(string):
        raise AssertionError(f"interned {string!r}")

    with monkeypatch.context() as patch:  # pytest's own reporting interns
        patch.setattr(sys, "intern", intern)
        actual = [run(capsys, *argv) for argv in commands]
    assert actual == expected
    assert dump.read_text(encoding="utf-8") == expected_dump


def test_epistemic_validate(capsys, tie_game_file, singleton_model_file):
    code, out, _ = run(
        capsys, "epistemic", "--game", tie_game_file, "--model", singleton_model_file, "validate"
    )
    assert code == 0
    assert "model class: knowledge" in out


def test_epistemic_rat_and_commonbox(capsys, tie_game_file, singleton_model_file):
    code, out, _ = run(
        capsys,
        "epistemic", "--game", tie_game_file, "--model", singleton_model_file,
        "--profile", "wd", "rat",
    )
    assert code == 0
    assert out.strip() == "rat: U.L D.R"

    code, out, _ = run(
        capsys,
        "epistemic", "--game", tie_game_file, "--model", singleton_model_file,
        "commonbox", "U.L,D.R",
    )
    assert code == 0
    assert out.strip() == "commonbox: U.L D.R"

    code, _, err = run(
        capsys,
        "epistemic", "--game", tie_game_file, "--model", singleton_model_file, "commonbox",
    )
    assert code == 2


@pytest.mark.parametrize("event", ["U.L,,D.R", "U.L,", ",U.L", ","])
def test_commonbox_rejects_an_empty_event_entry(capsys, tie_game_file, singleton_model_file,
                                                event):
    # an empty entry was dropped: each of these printed a common box, exit 0
    code, out, err = run(capsys, "epistemic", "--game", tie_game_file, "--model",
                         singleton_model_file, "commonbox", event)
    assert (code, out) == (2, "")
    assert err == f"error: event {event!r} has an empty entry\n"


def test_commonbox_of_the_empty_event(capsys, tie_game_file, singleton_model_file):
    code, out, _ = run(capsys, "epistemic", "--game", tie_game_file, "--model",
                       singleton_model_file, "commonbox", "")
    assert (code, out) == (0, "commonbox: \n")


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (["--profile", "wd", "validate"], "--profile"),
        (["--profile", "wd", "commonbox", "U.L"], "--profile"),
        (["rat", "U.L,D.R"], "event"),
        (["validate", "U.L"], "event"),
    ],
)
def test_epistemic_rejects_an_option_it_would_ignore(
    capsys, tie_game_file, singleton_model_file, argv, ignored
):
    code, out, err = run(
        capsys, "epistemic", "--game", tie_game_file, "--model", singleton_model_file, *argv
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and ignored in err


def test_verify_thm2_auto_search(capsys, tie_game_file):
    code, out, _ = run(capsys, "verify", "thm2", "--game", tie_game_file, "--profile", "wd")
    assert code == 1  # counterexample found: that is the expected outcome
    assert "verdict: counterexample" in out
    assert "hypothesis witness ('U', 'L')" in out
    assert "counterexample joint: ('U', 'L')" in out


def test_verify_thm2_hypothesis_not_met(capsys, tie_game_file):
    code, _, err = run(
        capsys, "verify", "thm2", "--game", tie_game_file, "--profile", "sd", "--joint", "U,L"
    )
    assert code == 2
    assert "hypothesis not met" in err


@pytest.mark.parametrize("joint", ["", "U", "U,L,R"])
def test_verify_thm2_rejects_a_joint_strategy_of_the_wrong_arity(capsys, tie_game_file, joint):
    code, out, err = run(
        capsys, "verify", "thm2", "--game", tie_game_file, "--profile", "wd", "--joint", joint
    )
    assert code == 2
    assert out == ""
    assert "needs 2 entries" in err


def test_verify_thm1iii_single_game(capsys, tie_game_file):
    code, out, _ = run(capsys, "verify", "thm1iii", "--game", tie_game_file, "--profile", "wd")
    assert code == 0
    assert "verdict: holds-on-all" in out


def test_verify_suites_small(capsys):
    code, out, _ = run(capsys, "verify", "pearce", "--samples", "20", "--seed", "1")
    assert code == 0
    assert "claim: pearce" in out

    code, out, _ = run(capsys, "verify", "thm1i", "--profile", "sd", "--samples", "25")
    assert code == 0

    code, out, _ = run(capsys, "verify", "lemma-inc", "--samples", "10")
    assert code == 0

    code, out, _ = run(capsys, "verify", "monotonicity", "--samples", "100")
    assert code == 0


def test_verify_monotonicity_on_game(capsys, tie_game_file):
    code, out, _ = run(capsys, "verify", "monotonicity", "--game", tie_game_file)
    assert code == 0
    assert "wd non-monotonicity witnesses on this game" in out
    assert out.startswith("claim: lem.mono\ninstances: 1\nverdict: holds-on-all\nseed: 0\n")


def test_verify_monotonicity_on_game_past_the_budget(capsys, tmp_path, monkeypatch):
    # player 1 faces 11 opponent profiles: 4**11 subset pairs > 1 << 20;
    # the predicate core is patched where the verifiers look it up
    import epigame.verify

    def never(*args):
        raise AssertionError("predicate evaluated past the budget")

    monkeypatch.setattr(epigame.verify, "_holds_core", never)
    path = tmp_path / "wide.game"
    path.write_text(_game_text(["U", "D"], [f"c{k}" for k in range(11)]))
    code, out, err = run(capsys, "verify", "monotonicity", "--game", str(path))
    assert code == 2
    assert "holds-on-all" not in out
    assert "4**11 opponent-subset pairs" in err


def test_verify_cor_suites(capsys):
    code, _, _ = run(capsys, "verify", "cor1", "--samples", "15")
    assert code == 0
    code, _, _ = run(capsys, "verify", "cor2", "--samples", "15", "--belief-class", "point")
    assert code == 0


@pytest.mark.parametrize("claim", ["thm1i", "thm1ii"])
def test_verify_bri_suites_draw_two_player_games(capsys, claim):
    # bri admits 2-player games only, so its suites draw no others
    code, out, err = run(capsys, "verify", claim, "--profile", "bri", "--samples", "5")
    assert (code, err) == (0, "")
    assert "instances: 5\nverdict: holds-on-all\n" in out


def test_generate_game_round_trip(capsys):
    code, out, _ = run(capsys, "generate", "game", "--seed", "9")
    assert code == 0
    game = parse_game(out)
    assert game.n >= 2
    code, out2, _ = run(capsys, "generate", "game", "--seed", "9")
    assert out2 == out


def test_generate_model_round_trip(capsys, tmp_path, tie_game_file):
    code, out, _ = run(
        capsys, "generate", "model", "--seed", "3", "--game", tie_game_file,
        "--class", "belief",
    )
    assert code == 0
    from epigame.epistemic import parse_model

    game = parse_game(TIE_GAME_TEXT)
    model = parse_model(out, game)
    assert model.model_class in ("belief", "knowledge")


def test_verify_single_instance_with_model(capsys, tie_game_file, singleton_model_file):
    code, out, _ = run(
        capsys,
        "verify", "thm1i", "--game", tie_game_file, "--model", singleton_model_file,
        "--profile", "sd",
    )
    assert code == 0
    assert "claim: thm1.i" in out


@pytest.mark.parametrize(
    "argv, ignored",
    [
        (["thm1i", "--game", "GAME", "--profile", "sd"], "--game"),
        (["thm1ii", "--game", "GAME"], "--game"),
        (["cor1", "--game", "GAME"], "--game"),
        (["cor2", "--game", "GAME"], "--game"),
        (["pearce", "--game", "GAME"], "--game"),
        (["pearce", "--game", "GAME", "--model", "MODEL"], "--game"),
        (["lemma-inc", "--game", "GAME"], "--game"),
        (["thm1iii", "--game", "GAME", "--model", "MODEL", "--profile", "wd"], "--model"),
        (["thm2", "--game", "GAME", "--model", "MODEL", "--profile", "wd"], "--model"),
        (["monotonicity", "--game", "GAME", "--model", "MODEL"], "--model"),
        (["pearce", "--profile", "sd", "--joint", "a,b", "--belief-class", "point"], "--profile"),
        (["pearce", "--joint", "a,b"], "--joint"),
        (["pearce", "--belief-class", "point"], "--belief-class"),
        (["cor1", "--profile", "sd"], "--profile"),
        (["cor2", "--profile", "brp"], "--profile"),
        (["lemma-inc", "--profile", "sd"], "--profile"),
        (["monotonicity", "--profile", "sd"], "--profile"),
        (["thm1iii", "--profile", "wd"], "--profile"),
        (["thm1i", "--joint", "U,L"], "--joint"),
        (["cor1", "--belief-class", "point"], "--belief-class"),
        (["thm2", "--game", "GAME", "--profile", "wd"], "--samples"),
        (["thm2", "--game", "GAME", "--profile", "wd", "--belief-class", "point"],
         "--belief-class"),
        (["thm1iii", "--game", "GAME", "--profile", "wd"], "--samples"),
        (["monotonicity", "--game", "GAME"], "--samples"),
        (["thm1i", "--game", "GAME", "--model", "MODEL", "--profile", "sd"], "--samples"),
        (["cor2", "--game", "GAME", "--model", "MODEL"], "--samples"),
        (["thm2", "--profile", "sd"], "--game"),
        (["pearce", "--model", "MODEL"], "takes no --model"),
        (["lemma-inc", "--model", "MODEL"], "takes no --model"),
    ],
)
def test_verify_rejects_an_option_it_would_ignore(
    capsys, tie_game_file, singleton_model_file, argv, ignored
):
    files = {"GAME": tie_game_file, "MODEL": singleton_model_file}
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, "verify", *argv, "--samples", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and ignored in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm1i", "--samples", "2"],
        ["verify", "thm1ii", "--samples", "2"],
        ["verify", "thm1i", "--game", "GAME", "--model", "MODEL"],
        ["verify", "thm1ii", "--game", "GAME", "--model", "MODEL"],
        ["verify", "thm1iii", "--game", "GAME"],
        ["verify", "thm2", "--game", "GAME"],
        ["epistemic", "--game", "GAME", "--model", "MODEL", "rat"],
    ],
)
def test_empty_profile_is_an_input_error(capsys, tie_game_file, singleton_model_file, argv):
    files = {"GAME": tie_game_file, "MODEL": singleton_model_file}
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, *argv, "--profile", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cor1", "--game", "", "--samples", "2"], "would ignore --game"),
        (["cor1", "--game", "", "--model", ""], "cannot read"),
        (["cor1", "--game", "GAME", "--model", ""], "cannot read"),
        (["thm2", "--game", "", "--profile", "wd"], "cannot read"),
        (["thm1iii", "--game", "", "--profile", "sd"], "cannot read"),
        (["monotonicity", "--game", ""], "cannot read"),
        (["pearce", "--game", ""], "takes no --game"),
        (["thm1i", "--model", "", "--samples", "2"], "--model needs --game"),
    ],
)
def test_empty_file_option_is_an_input_error(capsys, tie_game_file, argv, message):
    argv = [tie_game_file if arg == "GAME" else arg for arg in argv]
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@given(
    claim=st.sampled_from(sorted(CLAIMS)),
    options=st.sets(st.sampled_from(
        ["--game", "--model", "--profile", "--joint", "--belief-class", "--samples"]
    )),
)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_verify_option_errors_follow_the_table(
    capsys, monkeypatch, tie_game_file, singleton_model_file, claim, options
):
    # a suite run without --samples checks 300 instances; the suites have their
    # own tests, so here each one is a stub that holds
    import epigame.verify as verify_mod

    def holds(*args, **kwargs):
        return verify_mod._report("stub", 1, False, None, 0)

    for name in ("thm1_suite", "thm1iii_suite", "cor_suite", "pearce_suite",
                 "lemma_inc_suite", "monotonicity_suite"):
        monkeypatch.setattr(verify_mod, name, holds)
    values = {"--game": tie_game_file, "--model": singleton_model_file, "--profile": "sd",
              "--joint": "U,L", "--belief-class": "point", "--samples": "1"}
    argv = ["verify", claim]
    for option in sorted(options):
        argv += [option, values[option]]
    single, suite = CLAIMS[claim].reads
    reads = single if "--game" in options else suite
    forbidden = (
        reads is None
        or not options - {"--game"} <= set(reads)
        or ("--model" in reads) != ("--model" in options)
    )
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    flagged = any(text in err for text in ("takes no", "would ignore", "needs --game"))
    assert flagged == forbidden, (argv, err)


@pytest.mark.parametrize("profile", ["sd,msd", "sd msd", "xx", "msd,", ",brc", "sd,,wd"])
def test_verify_suite_rejects_bad_profile(capsys, profile):
    code, out, err = run(capsys, "verify", "thm1i", "--profile", profile, "--samples", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("samples", ["0", "-4"])
def test_verify_rejects_non_positive_samples(capsys, samples):
    for claim in ("thm1i", "pearce", "monotonicity"):
        code, out, err = run(capsys, "verify", claim, "--samples", samples)
        assert code == 2
        assert "holds-on-all" not in out
        assert "--samples must be at least 1" in err


def _game_text(row_labels, col_labels, value="0"):
    lines = [
        "players: 2",
        "strategies 1: " + " ".join(row_labels),
        "strategies 2: " + " ".join(col_labels),
    ]
    for player in (1, 2):
        for row in row_labels:
            for col in col_labels:
                lines.append(f"payoff {player}: {row} {col} = {value}")
    return "\n".join(lines) + "\n"


def test_dotted_strategy_labels_rejected(capsys, tmp_path):
    # a.b/a against c/b.c would name two states "a.b.c"
    path = tmp_path / "dotted.game"
    path.write_text(_game_text(["a.b", "a"], ["c", "b.c"]))
    for argv in (
        ("eliminate", "--game", str(path), "--notion", "sd"),
        ("verify", "thm1iii", "--game", str(path), "--profile", "sd"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "line 2, column 15: strategy label 'a.b' contains the reserved '.'" in err


@pytest.mark.parametrize("label, reserved", [
    ("a,b", ","), ("{a", "{"), ("a}", "}"), ("a=b", "="), ("a->b", "->"),
])
def test_reserved_characters_in_strategy_labels_rejected(capsys, tmp_path, label, reserved):
    path = tmp_path / "reserved.game"
    path.write_text(_game_text(["U", label], ["L"]))
    code, out, err = run(capsys, "eliminate", "--game", str(path), "--notion", "sd")
    assert code == 2 and out == ""
    assert f"line 2, column 17: strategy label {label!r} contains the reserved {reserved!r}" in err


@pytest.mark.parametrize("state, reserved", [
    ("a,b", ","), ("{a", "{"), ("a}", "}"), ("a=b", "="), ("a->b", "->"),
])
def test_reserved_characters_in_state_labels_rejected(capsys, tmp_path, tie_game_file, state, reserved):
    model = tmp_path / "reserved.model"
    states = [state, "w"]
    lines = ["states: " + " ".join(states)]
    for player, strategy in ((1, "U"), (2, "L")):
        lines += [f"map {player}: {s} -> {strategy}" for s in states]
        lines += [f"poss {player}: {s} -> {{{' '.join(states)}}}" for s in states]
    model.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        capsys, "epistemic", "--game", tie_game_file, "--model", str(model), "validate"
    )
    assert code == 2 and out == ""
    assert f"reserved {reserved!r}" in err


def test_payoff_literal_with_huge_exponent_rejected(capsys, tmp_path):
    path = tmp_path / "huge.game"
    path.write_text(_game_text(["U"], ["L"], value="1e9999999"))
    code, out, err = run(capsys, "eliminate", "--game", str(path), "--notion", "sd")
    assert code == 2 and out == ""
    assert "line 4" in err and "exponent beyond 1000" in err


def test_generate_game_rejects_more_strategies_than_labels(capsys):
    # the generator labels strategies a..j; more used to print a 10x10 game
    code, out, err = run(capsys, "generate", "game", "--seed", "1", "--strategies", "12", "12")
    assert code == 2
    assert out == ""
    assert err == "error: at most 10 strategies per player, got 12\n"
    code, out, _ = run(capsys, "generate", "game", "--seed", "1", "--strategies", "10", "10")
    assert code == 0
    assert parse_game(out).strategies[0] == tuple("abcdefghij")


@pytest.mark.parametrize("players, strategies", [("9", "3"), ("15", "1")])
def test_generate_game_past_the_budget(capsys, players, strategies):
    # 3**9 joint profiles used to print a 9-player game; 15 one-strategy
    # players count as 2**15 profiles
    code, out, err = run(capsys, "generate", "game", "--seed", "1",
                         "--players", "2", players, "--strategies", "1", strategies)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {players} players with up to {strategies} strategies")
    assert "budget of 16384 joint profiles" in err


def test_generator_budget_is_inclusive():
    from epigame.generators import GENERATION_BUDGET, GeneratorConfig

    # 2**14 joint profiles and 2**14 states are at the budget, not past it;
    # only the configuration is built here, no game or model
    assert GENERATION_BUDGET == 2**14
    GeneratorConfig(seed=0, players=(2, 14), strategies=(2, 2), states=(2, 2**14))
    GeneratorConfig(seed=0, players=(2, 14), strategies=(1, 1))


def test_generate_model_past_the_budget(capsys, tie_game_file):
    code, out, err = run(capsys, "generate", "model", "--seed", "1", "--game", tie_game_file,
                         "--states", "2", "16385")
    assert code == 2
    assert out == ""
    assert err == "error: 16385 states exceed the budget of 16384\n"


# A 2x3 game whose global sd elimination takes three stages (R, then D, then
# C; outcome U L), and two models on which one level of belief in
# rationality is not enough: w0 lies in RAT and B(RAT) and plays C, but the
# belief chain w0 -> w1 -> w2 leaves RAT. The claims hold only because the
# checks use common belief.
THREE_STAGE_GAME_TEXT = """\
players: 2
strategies 1: U D
strategies 2: L C R
payoff 1: U L = 1
payoff 1: U C = 1
payoff 1: U R = 0
payoff 1: D L = 0
payoff 1: D C = 0
payoff 1: D R = 2
payoff 2: U L = 2
payoff 2: U C = 1
payoff 2: U R = 0
payoff 2: D L = 0
payoff 2: D C = 2
payoff 2: D R = 1
"""

THREE_STAGE_MODELS = {
    "belief": """\
states: w0 w1 w2
map 1: w0 -> U
map 1: w1 -> D
map 1: w2 -> U
map 2: w0 -> C
map 2: w1 -> C
map 2: w2 -> R
poss 1: w0 -> {w0}
poss 1: w1 -> {w2}
poss 1: w2 -> {w2}
poss 2: w0 -> {w1}
poss 2: w1 -> {w1}
poss 2: w2 -> {w2}
""",
    "knowledge": """\
states: w0 w1 w2
map 1: w0 -> U
map 1: w1 -> D
map 1: w2 -> D
map 2: w0 -> C
map 2: w1 -> C
map 2: w2 -> R
poss 1: w0 -> {w0}
poss 1: w1 -> {w1 w2}
poss 1: w2 -> {w1 w2}
poss 2: w0 -> {w0 w1}
poss 2: w1 -> {w0 w1}
poss 2: w2 -> {w2}
""",
}


@pytest.mark.parametrize("claim, profile, model", [
    *[("thm1i", notion, "belief") for notion in ("sd", "msd", "brp", "brc")],
    *[("thm1ii", notion, "knowledge") for notion in ("sd", "msd", "brp", "brc")],
    *[(claim, None, model) for claim in ("cor1", "cor2") for model in ("belief", "knowledge")],
])
def test_claims_need_common_belief_on_a_three_stage_game(capsys, tmp_path, claim, profile,
                                                         model):
    game = tmp_path / "three-stage.game"
    game.write_text(THREE_STAGE_GAME_TEXT)
    path = tmp_path / f"{model}.model"
    path.write_text(THREE_STAGE_MODELS[model])
    argv = [claim, "--game", str(game), "--model", str(path)]
    code, out, err = run(capsys, "verify", *argv, *(["--profile", profile] if profile else []))
    assert (code, err) == (0, "")
    assert "verdict: holds-on-all" in out
