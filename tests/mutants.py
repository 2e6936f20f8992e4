"""A catalogue of source mutants, each killed by named Tier-1 tests.

Each entry is one edit of one file under ``src/``: the exact old text, which
must occur once in the file, and the new text. It names the pytest node ids
that the edit must make fail, every one of them. The runner first runs all
the listed tests on an unmutated copy of ``src/`` and requires them to pass.
Then, for each entry, it copies ``src/`` to a temporary directory, applies
the edit there and runs the entry's tests, from this directory, against that
copy. The tree under test is never edited.

Run from anywhere, with pytest installed (standard library otherwise):

    python tests/mutants.py

It exits 0 when every entry is killed by all its tests, 1 when a mutant
survives some of them, and 2 on an entry that cannot be applied or run.
A mutation check that kills a new mutant adds it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each entry's own budget; the whole catalogue stays under three minutes
ENTRY_SECONDS = 15
FAILED_LOG = "MUTANTS_FAILED_LOG"

Mutant = namedtuple("Mutant", "name file old new tests")

THM1_EMPTY_PLAY = (
    "    if not event:  # an empty play lies inside every limit\n"
    "        return _report(claim, 1, False, None, seed)\n"
)
COR_EMPTY_PLAY = (
    "    if not event:  # an empty play lies inside every limit\n"
    "        return _report(claim, 1, False, None, seed, notes)\n"
)

CATALOGUE = (
    Mutant(
        "pearce draws from Random(seed)", "epigame/verify.py",
        '_suite_config(instance_seed, "belief"))\n        rng = random.Random(instance_seed)\n',
        '_suite_config(instance_seed, "belief"))\n        rng = random.Random(seed)\n',
        ["tests/test_verify.py::test_a_failing_instance_reruns_alone_from_its_instance_seed"
         "[pearce]"],
    ),
    Mutant(
        "cor picks its model class by position", "epigame/verify.py",
        'target = "belief" if instance_seed % 2 else "knowledge"',
        'target = "belief" if (instance_seed - seed) % 2 else "knowledge"',
        ["tests/test_verify.py::test_a_failing_instance_reruns_alone_from_its_instance_seed"
         "[cor1]",
         "tests/test_verify.py::test_a_failing_instance_reruns_alone_from_its_instance_seed"
         "[cor2]",
         "tests/test_verify.py::test_suites_report_their_first_failure[<lambda>-expected2]",
         "tests/test_verify.py::test_suites_report_their_first_failure[<lambda>-expected3]"],
    ),
    Mutant(
        "_suite counts calls", "epigame/verify.py",
        "checked += report.instances_checked",
        "checked += 1",
        ["tests/test_verify.py::test_pearce_suite_small_batch",
         "tests/test_verify.py::test_pearce_and_monotonicity_suites_report_their_first_failure"
         "[pearce-pearce-4]",
         "tests/test_verify.py::test_a_failing_instance_reruns_alone_from_its_instance_seed"
         "[pearce]"],
    ),
    Mutant(
        "thm1 takes the empty-play short cut on every play", "epigame/verify.py",
        THM1_EMPTY_PLAY, THM1_EMPTY_PLAY.replace("if not event:", "if True:"),
        ["tests/test_verify.py::test_suites_report_their_first_failure[<lambda>-expected0]",
         "tests/test_verify.py::test_suites_report_their_first_failure[<lambda>-expected1]",
         "tests/test_verify.py::test_a_failing_suite_report_reruns_from_its_seed[thm1]",
         "tests/test_verify.py::test_inclusion_checks_report_counterexamples"
         "[thm1i-belief-keys0-notes0]",
         "tests/test_verify.py::test_inclusion_checks_report_counterexamples"
         "[thm1ii-knowledge-keys1-notes1]",
         "tests/test_verify.py::test_an_empty_play_holds_without_an_elimination_limit"
         "[thm1i-belief-3-True]",
         "tests/test_verify.py::test_an_empty_play_holds_without_an_elimination_limit"
         "[thm1ii-knowledge-2-True]"],
    ),
    Mutant(
        "cor takes the empty-play short cut on every play", "epigame/verify.py",
        COR_EMPTY_PLAY, COR_EMPTY_PLAY.replace("if not event:", "if True:"),
        ["tests/test_verify.py::test_suites_report_their_first_failure[<lambda>-expected2]",
         "tests/test_verify.py::test_suites_report_their_first_failure[<lambda>-expected3]",
         "tests/test_verify.py::test_a_failing_suite_report_reruns_from_its_seed[cor1]",
         "tests/test_verify.py::test_a_failing_suite_report_reruns_from_its_seed[cor2]",
         "tests/test_verify.py::test_inclusion_checks_report_counterexamples"
         "[cor1-belief-keys2-notes2]",
         "tests/test_verify.py::test_inclusion_checks_report_counterexamples"
         "[cor1-knowledge-keys3-notes3]",
         "tests/test_verify.py::test_inclusion_checks_report_counterexamples"
         "[cor2-belief-keys4-notes4]",
         "tests/test_verify.py::test_inclusion_checks_report_counterexamples"
         "[cor2-knowledge-keys5-notes5]",
         "tests/test_verify.py::test_an_empty_play_holds_without_an_elimination_limit"
         "[cor1-belief-6-True]",
         "tests/test_verify.py::test_an_empty_play_holds_without_an_elimination_limit"
         "[cor1-knowledge-2-True]",
         "tests/test_verify.py::test_an_empty_play_holds_without_an_elimination_limit"
         "[cor2-belief-6-True]",
         "tests/test_verify.py::test_an_empty_play_holds_without_an_elimination_limit"
         "[cor2-knowledge-2-True]"],
    ),
    Mutant(
        "the lemma's operator images keyed by player 1's mask", "epigame/verify.py",
        "        image = images.get(restriction.masks)\n"
        "        if image is None:\n"
        "            image = images[restriction.masks] = op.apply(restriction)\n",
        "        image = images.get(restriction.masks[0])\n"
        "        if image is None:\n"
        "            image = images[restriction.masks[0]] = op.apply(restriction)\n",
        ["tests/test_acceptance.py::test_criterion_07_inclusion_lemma_suite",
         "tests/test_cli.py::test_verify_suites_small",
         "tests/test_contract.py::test_every_call_prints_what_the_contract_pins",
         "tests/test_contract.py::test_the_contract_holds_under_other_hash_seeds[1]",
         "tests/test_contract.py::test_the_contract_holds_under_other_hash_seeds[2]",
         "tests/test_verify.py::test_lemma_inc_suite_small_batch",
         "tests/test_verify.py::test_lemma_inc_suite_reports_its_first_failure",
         "tests/test_verify.py::test_each_inclusion_premise_fails_as_a_replayable_counterexample"
         "[monotonic]",
         "tests/test_verify.py::test_the_inclusion_lemma_maps_each_restriction_once_per_operator"
         "[enumerated]",
         "tests/test_verify.py::test_the_inclusion_lemma_maps_each_restriction_once_per_operator"
         "[sampled]",
         "tests/test_verify.py::test_a_failed_inclusion_premise_names_the_same_restrictions"
         "[pointwise]",
         "tests/test_verify.py::test_a_failed_inclusion_premise_names_the_same_restrictions"
         "[monotonic]",
         "tests/test_verify.py::test_a_failed_inclusion_premise_names_the_same_restrictions"
         "[contracting]"],
    ),
    Mutant(
        "Game.beats counts ties as wins", "epigame/games.py",
        "map(operator.gt, row_a, row_s)",
        "map(operator.ge, row_a, row_s)",
        ["tests/test_predicate_core.py::test_beats_table_matches_its_definition",
         "tests/test_optimality.py::test_weak_dominance_facts",
         "tests/test_optimality.py::test_strict_dominance_singleton_always_survives",
         "tests/test_optimality.py::test_flat_game_every_strategy_best_response",
         "tests/test_elimination.py::test_global_strict_dominance_pd",
         "tests/test_elimination.py::test_outcome_tie_game_local_wd_with_reasons"],
    ),
    Mutant(
        "M3: sd decided by the weak test", "epigame/optimality.py",
        "    if notion is Notion.SD:\n"
        "        return _pure_dominator(game, i, s, alternatives, opponents, True) is None\n",
        "    if notion is Notion.SD:\n"
        "        return _pure_dominator(game, i, s, alternatives, opponents, False) is None\n",
        ["tests/test_cli.py::test_verify_thm2_hypothesis_not_met"],
    ),
    Mutant(
        "msd and brc decided by a negative value only", "epigame/optimality.py",
        "    return _strict_decision(game, i, s, alternatives, opponents)[0] <= 0\n",
        "    return _strict_decision(game, i, s, alternatives, opponents)[0] < 0\n",
        ["tests/test_verify.py::test_pearce_certificate_needs_an_lp_belief",
         "tests/test_predicate_core.py::test_decisions_agree_with_their_witness_programs"],
    ),
    Mutant(
        "M-degenerate: the decision keeps a degenerate basis's row mixture",
        "epigame/simplex.py",
        "    if decide and not (value > 0 and all(rhs)):\n",
        "    if decide and not value > 0:\n",
        ["tests/test_simplex_oracle.py::"
         "test_the_decision_keeps_no_row_mixture_of_a_degenerate_basis",
         "tests/test_optimality.py::test_a_witness_from_a_degenerate_decision_is_blands"],
    ),
    Mutant(
        "_pivot keeps a negative pivot", "epigame/simplex.py",
        "    if pivot < 0:\n        tableau[:] = ",
        "    if False:\n        tableau[:] = ",
        ["tests/test_simplex_oracle.py::test_negative_phase_one_clean_up_pivot"],
    ),
    Mutant(
        "Bland's tie-break flipped in _leaving", "epigame/simplex.py",
        "basis[r] < basis[leaving]",
        "basis[r] > basis[leaving]",
        ["tests/test_simplex_oracle.py::test_redundant_equality_row_is_dropped",
         "tests/test_simplex_oracle.py::test_matrix_game_value_matches_fraction_solver"],
    ),
    Mutant(
        "optimum_from_origin returns a vertex that is not the only optimum", "epigame/simplex.py",
        "    if not all(reduced):\n        return optimum, None\n",
        "",
        ["tests/test_simplex_oracle.py::"
         "test_one_phase_program_returns_its_vertex_only_when_it_is_the_only_optimum"],
    ),
    Mutant(
        "coherent tests the reflexive inclusion", "epigame/epistemic.py",
        "m & pointing == m for",
        "m & pointing == pointing for",
        ["tests/test_epistemic.py::test_classification_belief_knowledge_invalid"],
    ),
    Mutant(
        "a correspondence classified without its coherence test", "epigame/epistemic.py",
        "if not (self.serial and self.coherent)",
        "if not self.serial",
        ["tests/test_epistemic.py::test_classification_belief_knowledge_invalid",
         "tests/test_epistemic.py::test_invalid_model_rejected_by_operations",
         "tests/test_epistemic.py::test_validation_report_flags_invalid"],
    ),
    Mutant(
        "Game stores what is assigned to it", "epigame/games.py",
        '        raise AttributeError(f"a Game is read-only: cannot assign {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        ["tests/test_values.py::test_no_class_cache_or_table_can_be_assigned"],
    ),
    Mutant(
        "common_box marks every state outside the event bad", "epigame/epistemic.py",
        "    bad = 0\n    frontier = space.full_mask & ~event\n",
        "    bad = space.full_mask & ~event\n    frontier = space.full_mask & ~event\n",
        ["tests/test_epistemic.py::test_common_box_may_leave_the_event_on_belief_models"],
    ),
)


def pytest_runtest_logreport(report):
    """As a pytest plugin: log the node id of each failing test phase."""
    path = os.environ.get(FAILED_LOG)
    if path and report.failed:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(report.nodeid + "\n")


def run_tests(src: Path, tests, log: Path) -> tuple[int, set]:
    """pytest's exit code on ``tests`` with the engine copy ``src`` first on
    the path, and the node ids that failed."""
    log.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]),
               **{FAILED_LOG: str(log)})
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants",
               "--rootdir", str(ROOT), *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set(log.read_text(encoding="utf-8").splitlines()) if log.exists() else set()
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout[-2000:] + done.stderr[-2000:])
    return done.returncode, failed


def apply(mutant: Mutant, src: Path) -> None:
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        print(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times "
              f"in {mutant.file}, not once")
        raise SystemExit(2)
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    if any(not m.tests for m in CATALOGUE):
        print("an entry names no tests")
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean, log = Path(tmp) / "clean", Path(tmp) / "failed.txt"
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        code, failed = run_tests(clean, sorted({test for m in CATALOGUE for test in m.tests}), log)
        if code != 0:
            print(f"the unmutated tree fails {sorted(failed)} (pytest exit {code})")
            return 2
        survived = 0
        for mutant in CATALOGUE:
            src = Path(tmp) / "mutant"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(clean, src)
            apply(mutant, src)
            started = time.perf_counter()
            code, failed = run_tests(src, mutant.tests, log)
            seconds = time.perf_counter() - started
            if code not in (0, 1):
                print(f"{mutant.name}: pytest exit {code}")
                return 2
            missed = [test for test in mutant.tests if test not in failed]
            budget = f" (over its {ENTRY_SECONDS} s budget)" if seconds > ENTRY_SECONDS else ""
            print(f"{mutant.name}: {len(mutant.tests) - len(missed)} of {len(mutant.tests)} "
                  f"tests fail, {seconds:.1f} s{budget}"
                  + (f"; it survives {', '.join(missed)}" if missed else ""))
            survived += bool(missed)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
