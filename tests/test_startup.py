"""What importing the engine loads: the CLI's start-up is paid on every run,
so no engine module imports `dataclasses` or `typing`, and neither they nor
`inspect` are loaded on the engine's behalf."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import epigame

SOURCES = sorted(Path(epigame.__file__).parent.glob("*.py"))
FORBIDDEN = {"dataclasses", "typing", "inspect"}


def _stdlib_imports() -> set[str]:
    """The top-level names of the modules the engine imports, its own aside."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return {name for name in names if name != "__future__" and not name.startswith("epigame")}


def test_no_engine_module_imports_dataclasses_or_typing():
    found = sorted(name for name in _stdlib_imports()
                   if name.split(".")[0] in {"dataclasses", "typing"})
    assert found == []


def test_importing_the_cli_loads_no_dataclasses_typing_or_inspect():
    # a bare interpreter (-S: no site) first imports the other stdlib modules
    # the engine names, so what the engine import adds is the engine's own doing
    stdlib = sorted(name for name in _stdlib_imports() if name.split(".")[0] not in FORBIDDEN)
    script = (
        "import importlib, json, sys\n"
        f"for name in {stdlib!r}:\n"
        "    importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "import epigame.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(epigame.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(json.loads(done.stdout))
    assert "epigame.cli" in added
    assert not FORBIDDEN & added
