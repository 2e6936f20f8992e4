"""Engine invariants must be raised errors: `python -O` strips `assert`.
No functools cache may hold games past their use. The exact re-checks in
`games` share no code with the programs and predicates they check, the
model layer runs no elimination, every import is at a module's top, only
`Game` caches, and each raise names one of six error classes, apart from a
game's read-only guard."""

import ast
from pathlib import Path

import epigame

SOURCES = sorted(Path(epigame.__file__).parent.glob("*.py"))


def test_engine_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_functools_cache(decorator) -> bool:
    # @lru_cache, @lru_cache(maxsize=...), @cache, @functools.lru_cache(...)
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def test_engine_has_no_functools_caches():
    # results are memoised per game (games.per_game) and freed with it; a
    # module-level cache would keep every game it saw alive
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_functools_cache(d) for d in node.decorator_list)
    ]
    assert found == []


def _walk_scoped(tree, scope=""):
    """Every node under ``tree`` with the qualified name of the class or
    function it lies in ('' at module level)."""
    for child in ast.iter_child_nodes(tree):
        yield child, scope
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        yield from _walk_scoped(child, inner)


def test_only_game_caches_and_epistemic_imports_no_functools():
    # every other value builds its derived fields in its constructor, so a
    # model is classified when it is built and no class can be assigned
    cached = [
        f"{path.name}:{scope}.{node.name}"
        for path in SOURCES
        for node, scope in _walk_scoped(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any("cached_property" in (getattr(d, "id", None), getattr(d, "attr", None))
                for d in node.decorator_list)
    ]
    assert cached and all(name.startswith("games.py:Game.") for name in cached), cached
    assert "functools" not in (Path(epigame.__file__).parent / "epistemic.py").read_text(
        encoding="utf-8")


def _engine_imports(name: str) -> list[str]:
    """The engine modules that ``src/epigame/<name>.py`` imports."""
    tree = ast.parse((Path(epigame.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    engine = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("epigame")):
            engine.append(node.module)
        elif isinstance(node, ast.Import):
            engine += [alias.name for alias in node.names if alias.name.startswith("epigame")]
    return engine


def test_games_imports_no_engine_module_but_errors():
    # expected_payoff and dominates re-check what the simplex and the
    # predicate core found, so games must not lean on either
    assert _engine_imports("games") == ["errors"]


def test_the_model_layer_runs_no_elimination():
    # thm1.iii builds its model around the memoised limit in verify; the
    # model layer only reads the predicate core
    assert not {"elimination", "lattice"} & set(_engine_imports("epistemic"))


def test_engine_functions_import_nothing_in_their_bodies():
    # every dependency is stated at the top of its module
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


# bad input is a ParseError or a ValidationError (HypothesisNotMet is one);
# the rest carry a witness that a caller reads, or report an engine fault
RAISED = {"ParseError", "ValidationError", "HypothesisNotMet", "NonContractingStep",
          "InvariantViolated"}
# Python's read-only-attribute protocol: a game refuses every assignment and
# deletion, since its cached tables are not data descriptors
GUARDS = {("AttributeError", "games.py", "Game.__setattr__"),
          ("AttributeError", "games.py", "Game.__delattr__")}


def test_every_raise_names_an_input_witness_or_fault_class():
    found, guards = [], set()
    for path in SOURCES:
        for node, scope in _walk_scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = (getattr(exc, "id", None), path.name, scope)
                if raised in GUARDS:
                    guards.add(raised)
                elif raised[0] not in RAISED:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [] and guards == GUARDS


def test_errors_defines_only_the_raised_classes_and_their_base():
    tree = ast.parse((Path(epigame.__file__).parent / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert defined == RAISED | {"EngineError"}
