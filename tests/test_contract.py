"""The output contract: every call of the corpus prints what contract.txt pins
and exits as the corpus allows, in-process, as ``python -m epigame.cli`` and
under ``PYTHONHASHSEED`` 1 and 2."""

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epigame
import epigame.cli

import contract

SRC = Path(epigame.__file__).resolve().parents[1]


def test_every_call_prints_what_the_contract_pins():
    expected = contract.CONTRACT.read_text(encoding="utf-8").splitlines()
    actual, found = contract.lines()
    found += contract.changes(expected, actual)
    assert not found, "\n".join(found)


def _contract_under_hash_seed(seed: str, src: Path) -> subprocess.CompletedProcess:
    """``contract.main`` in a fresh interpreter, on the engine in ``src``."""
    path = os.pathsep.join([str(src), str(Path(contract.__file__).parent)])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    script = "import sys, contract; sys.exit(contract.main([]))"
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("seed", ["1", "2"])
def test_the_contract_holds_under_other_hash_seeds(seed):
    # parsed labels and notions hash by their strings: an output order that
    # followed a hash would change with the seed
    done = _contract_under_hash_seed(seed, SRC)
    assert done.returncode == 0, done.stdout + done.stderr


def test_the_hash_seed_check_reads_the_engine_it_is_given(tmp_path):
    # a copy of the engine that prints restrictions differently breaks the
    # contract: the check must run that copy, not the src/ beside contract.py
    shutil.copytree(SRC / "epigame", tmp_path / "epigame",
                    ignore=shutil.ignore_patterns("__pycache__"))
    games = tmp_path / "epigame" / "games.py"
    text = games.read_text(encoding="utf-8")
    assert text.count('f"restrict {i + 1}: "') == 1
    games.write_text(text.replace('f"restrict {i + 1}: "', 'f"keep {i + 1}: "'),
                     encoding="utf-8")
    done = _contract_under_hash_seed("1", tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "changed: eliminate --game DIR/seed9.game --notion sd\n" in done.stdout


def _in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = epigame.cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def test_the_entry_point_exits_as_main_returns(tmp_path):
    # sys.exit(main()) under python -m: the process's exit code, stdout and
    # stderr are main's, for a holding check, a counterexample and an input error
    calls = [argv for argv, _ in contract.corpus(tmp_path, lambda argv: _in_process(argv)[:2])]
    game = str(tmp_path / "seed9.game")
    chosen = [["eliminate", "--game", game, "--notion", "sd"],
              ["verify", "thm2", "--game", game, "--profile", "wd"],
              ["eliminate", "--game", game, "--notion", "xx"]]
    assert all(argv in calls for argv in chosen)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    for argv, code in zip(chosen, (0, 1, 2)):
        done = subprocess.run([sys.executable, "-m", "epigame.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == _in_process(argv)
        assert done.returncode == code
