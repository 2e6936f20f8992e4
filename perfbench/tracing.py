"""Spans and work counts recorded around the engine's public functions.

Nothing here edits the engine: each traced function is replaced, for the
length of a traced pass, by a wrapper in every ``epigame`` module that holds
it. Modules import these names by value, so replacing the attribute in the
defining module alone would miss most calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get a span; the span is named "<module>.<function>"
SPANNED = (
    ("cli", "main"),
    ("verify", "thm1_suite"),
    ("verify", "thm1iii_suite"),
    ("verify", "cor_suite"),
    ("verify", "pearce_suite"),
    ("verify", "lemma_inc_suite"),
    ("verify", "monotonicity_suite"),
    ("verify", "verify_thm1i"),
    ("verify", "verify_thm1ii"),
    ("verify", "verify_thm1iii"),
    ("verify", "verify_cor1"),
    ("verify", "verify_cor2"),
    ("elimination", "outcome"),
    ("elimination", "t_global"),
    ("elimination", "u_local"),
    ("elimination", "explain_elimination"),
    ("lattice", "iterate_to_outcome"),
    ("optimality", "holds"),
    ("optimality", "solve_dominance_lp"),
    ("optimality", "solve_br_lp"),
    ("simplex", "matrix_game_value"),
    ("simplex", "solve"),
    ("epistemic", "rat_event"),
    ("epistemic", "box_chain"),
    ("epistemic", "common_box"),
    ("epistemic", "parse_model"),
    ("games", "parse_game"),
    ("generators", "generate_game"),
    ("generators", "generate_model"),
)
# functions that are only counted: they run too often, or too briefly, for a span
COUNTED = (
    ("simplex", "_pivot", "simplex.pivots"),
    ("epistemic", "restriction_of", "epistemic.restriction_of_calls"),
)
LP_SPANS = frozenset({"simplex.matrix_game_value", "simplex.solve"})


def epigame_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "epigame" or name.startswith("epigame.")) and m is not None]


def find_caches():
    """Every functools cache on the engine's modules, found by its interface
    rather than by name, so caches added later are covered too."""
    seen = {}
    for module in epigame_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            ):
                seen[id(value)] = value
    return list(seen.values())


class CacheStats:
    """Hit, miss and size figures read from ``cache_info()``, summed per
    defining module (``optimality``, ``games``, ...)."""

    def __init__(self, caches):
        self.caches = caches
        self.hits = Counter()
        self.misses = Counter()
        self.size = Counter()  # largest combined size seen when harvested

    def clear(self, harvest: bool) -> None:
        if harvest:
            size = Counter()
            for cache in self.caches:
                info = cache.cache_info()
                layer = cache.__module__.rsplit(".", 1)[-1]
                self.hits[layer] += info.hits
                self.misses[layer] += info.misses
                size[layer] += info.currsize
            for layer, value in size.items():
                self.size[layer] = max(self.size[layer], value)
        for cache in self.caches:
            cache.cache_clear()
            if cache.cache_info().currsize != 0:
                raise RuntimeError(f"{cache.__module__}.{cache.__name__} did not clear")


class Tracer:
    """Spans with name, start, end, parent and operation id, kept in memory;
    self time (duration minus the time covered by child spans) and call
    counts are summed per span name as spans close."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.stack: list[list] = []  # [name, start, child_time, lp_seen, span_index]
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op_id = -1

    def spanned(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer.counts, result)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def enter(self, name: str) -> None:
        parent = self.stack[-1][4] if self.stack else -1
        index = -1
        start = time.perf_counter()
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op_id])
        self.stack.append([name, start, 0.0, False, index])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, lp_seen, index = self.stack.pop()
        duration = end - start
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if index >= 0:
            self.spans[index][2] = end
        lp_seen = lp_seen or name in LP_SPANS
        if name == "optimality.holds" and lp_seen:
            self.counts["optimality.holds_with_lp"] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent[3] = parent[3] or lp_seen


def _stages(counts, trace):
    counts["lattice.stages"] += len(trace.stages) - 1


def _box_steps(counts, chain):
    counts["epistemic.box_steps"] += len(chain)


def _instances(counts, report):
    counts["verify.instances"] += report.instances_checked


AFTER = {
    "lattice.iterate_to_outcome": _stages,
    "epistemic.box_chain": _box_steps,
}


def install(tracer: Tracer):
    """Replace every traced name in every engine module; returns a function
    that puts the originals back."""
    modules = epigame_modules()
    replaced = []  # (module, attribute, original)

    def replace(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, attr, original))
                    setattr(module, attr, wrapper)

    for module_name, fn_name in SPANNED:
        original = getattr(sys.modules[f"epigame.{module_name}"], fn_name)
        name = f"{module_name}.{fn_name}"
        after = _instances if fn_name.endswith("_suite") else AFTER.get(name)
        replace(original, tracer.spanned(name, original, after))
    for module_name, fn_name, key in COUNTED:
        original = getattr(sys.modules[f"epigame.{module_name}"], fn_name)
        replace(original, tracer.counted(key, original))

    lattice = sys.modules["epigame.lattice"]
    enumerate_original = lattice.enumerate_restrictions

    def enumerate_counted(game):
        for restriction in enumerate_original(game):
            tracer.counts["lattice.enumerated"] += 1
            yield restriction

    replace(enumerate_original, enumerate_counted)

    restriction_cls = sys.modules["epigame.games"].Restriction
    post_init = restriction_cls.__post_init__

    def post_init_counted(self):
        tracer.counts["games.restriction_new"] += 1
        post_init(self)

    restriction_cls.__post_init__ = post_init_counted

    def restore():
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)
        restriction_cls.__post_init__ = post_init

    return restore


def layer_metrics(tracer: Tracer, caches: CacheStats) -> tuple[dict, dict]:
    """Per-layer figures of one traced pass: (times in seconds, counts)."""
    s = tracer.self_time
    c = tracer.calls
    k = tracer.counts
    holds = c["optimality.holds"]
    times = {
        "simplex.mgv_s": s["simplex.matrix_game_value"],
        "simplex.solve_s": s["simplex.solve"],
        "optimality.holds_self_s": s["optimality.holds"],
        "games.parse_game_s": s["games.parse_game"],
        "elimination.step_s": s["elimination.t_global"] + s["elimination.u_local"],
        "elimination.explain_s": s["elimination.explain_elimination"],
        "epistemic.common_box_s": s["epistemic.common_box"] + s["epistemic.box_chain"],
        "epistemic.rat_event_s": s["epistemic.rat_event"],
        "epistemic.parse_model_s": s["epistemic.parse_model"],
        "verify.suite_self_s": sum(v for n, v in s.items() if n.startswith("verify.")),
        "generators.generate_s": s["generators.generate_game"] + s["generators.generate_model"],
        # argument parsing, output rendering and the validation checks the CLI
        # makes itself: whatever cli.main does outside the spanned functions
        "cli.main_self_s": s["cli.main"],
    }
    counts = {
        "simplex.mgv_calls": c["simplex.matrix_game_value"],
        "simplex.solve_calls": c["simplex.solve"],
        "simplex.pivots": k["simplex.pivots"],
        "optimality.holds_calls": holds,
        "optimality.lp_per_holds": k["optimality.holds_with_lp"] / holds if holds else 0.0,
        "optimality.cache_hits": caches.hits["optimality"],
        "optimality.cache_misses": caches.misses["optimality"],
        "optimality.cache_size": caches.size["optimality"],
        "games.restriction_new": k["games.restriction_new"],
        "games.opponents_hits": caches.hits["games"],
        "games.opponents_misses": caches.misses["games"],
        "elimination.step_calls": c["elimination.t_global"] + c["elimination.u_local"],
        "lattice.iterate_calls": c["lattice.iterate_to_outcome"],
        "lattice.stages": k["lattice.stages"],
        "lattice.enumerated": k["lattice.enumerated"],
        "epistemic.box_steps": k["epistemic.box_steps"],
        "epistemic.restriction_of_calls": k["epistemic.restriction_of_calls"],
        "verify.instances": k["verify.instances"],
    }
    return times, counts
