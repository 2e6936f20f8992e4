"""The output contract: what each call of the reachability corpus prints.

``contract.txt`` holds one line per CLI call, in the order they run: the
``generate`` calls that make the corpus's inputs, then the corpus of
``tests/reachability.py``. Each line is tab-separated: the argv, the exit
code, and the sha256 of stdout, of stderr and of the ``--dump`` file (``-``
for a call without ``--dump``, ``absent`` when the call wrote none). Calls
run in-process through ``epigame.cli.main``, in a temporary directory whose
path is replaced by ``DIR`` before anything is hashed, so the digests do not
depend on it. A change that alters a line names each changed call and says
why.

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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lines() -> list[str]:
    """The contract's lines for the tree on ``sys.path``."""
    import epigame.cli
    from reachability import corpus

    out = []
    with tempfile.TemporaryDirectory() as directory:
        def run(argv) -> tuple[int, str]:
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
            fields = [shlex.join(arg.replace(directory, TOKEN) for arg in argv), str(code),
                      *(_digest(s.getvalue().replace(directory, TOKEN)) for s in (stdout, stderr)),
                      dumped]
            out.append("\t".join(fields))
            return code, stdout.getvalue()

        for argv, _ in corpus(Path(directory), run):
            run(argv)
    return out


def changes(expected: list[str], actual: list[str]) -> list[str]:
    """One message per call whose line differs, naming the call's argv."""
    found = [f"changed: {new.split(chr(9))[0]}" for old, new in zip(expected, actual) if old != new]
    if len(expected) != len(actual):
        found.append(f"{len(actual)} calls, the contract has {len(expected)}")
    return found


def main(argv) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    actual = lines()
    if argv == ["--write"]:
        CONTRACT.write_text("".join(line + "\n" for line in actual), encoding="utf-8")
        print(f"wrote {len(actual)} lines to {CONTRACT}")
        return 0
    found = changes(CONTRACT.read_text(encoding="utf-8").splitlines(), actual)
    for message in found:
        print(message)
    print(f"{len(actual)} calls, {len(found)} changes")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
