"""Which engine functions does no CLI run reach?

Runs the output contract's corpus (``contract.lines``, its one driver) under
``sys.setprofile``. The engine is imported under the profiler too, so a
decorator run at import counts as reached.

It prints every function defined in ``src/epigame`` that the corpus never
called, and exits 1 if one of them is outside the allowlist (``DOCUMENTED``,
the API that README documents, and the names ``perfbench`` reaches by name).
A function that no CLI run reaches and no one documents is a second
entrance: delete it, or route it through the one the CLI uses.

Run from anywhere, standard library only:

    python tests/reachability.py
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import contract

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
    # the values' repr for API callers: the CLI prints labels, never a repr
    "games.Value.__repr__",
    "optimality.BestResponseVerdict.__init__",  # the verdict of solve_br_lp
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


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        contract.lines()
    finally:
        sys.setprofile(None)

    package = Path(sys.modules["epigame"].__file__).resolve().parent
    functions = engine_functions(package)
    reached = {(str(Path(name).resolve()), line) for name, line in reached
               if name.endswith(".py") and os.path.basename(os.path.dirname(name)) == "epigame"}
    never = sorted(name for key, name in functions.items() if key not in reached)
    pinned = {f"{module.removeprefix('epigame.')}.{'.'.join(attrs)}"
              for module, attrs in pinned_names()}
    allowed = DOCUMENTED | pinned
    for name in never:
        print(f"never called: {name}{'' if name in allowed else '  (not allowed)'}")
    stray = [name for name in never if name not in allowed]
    print(f"{len(functions) - len(never)} of {len(functions)} functions reached; "
          f"{len(stray)} unreached outside the allowlist")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
