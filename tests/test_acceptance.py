"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -s`` to see them)."""

import itertools
import random
import time

import pytest

from epigame.cli import main as cli_main
from epigame.elimination import GLOBAL, LOCAL, NotionProfile, operator, outcome
from epigame.epistemic import (
    EpistemicModel,
    StateSpace,
    box_chain,
    common_box,
    rat_event,
    restriction_of,
    two_block_model,
)
from epigame.games import Restriction
from epigame.generators import GeneratorConfig, generate_model
from epigame.lattice import enumerate_restrictions, iterate_to_outcome, lattice_size
from epigame.optimality import (
    Notion,
    dominates,
    holds,
    solve_br_lp,
    solve_dominance_lp,
)
from epigame.verify import (
    lemma_inc_suite,
    monotonicity_suite,
    nonmonotonicity_witnesses,
    pearce_suite,
    replay,
    search_thm2,
    thm1_suite,
    thm1iii_suite,
    verify_thm2,
)

from reference import (
    box_from_targets,
    enumerate_belief_correspondences,
    enumerate_knowledge_correspondences,
    largest_evident_inside,
    largest_fixpoint_bruteforce,
    monotonicity_counterexample,
    supports_best_response,
)
from test_optimality import grid_has_dominator, grid_has_supporting_belief, random_game


def _announce(number, started, message):
    print(f"ACCEPTANCE {number:>2}: PASS ({time.perf_counter() - started:.2f}s) {message}")


def test_criterion_01_weak_dominance_outcome(capsys, tmp_path, tie_game):
    started = time.perf_counter()
    from conftest import TIE_GAME_TEXT

    game_file = tmp_path / "tie.game"
    game_file.write_text(TIE_GAME_TEXT)
    for notion in ("wd", "mwd"):
        code = cli_main(
            ["eliminate", "--game", str(game_file), "--notion", notion, "--mode", "local"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "restrict 1: D\n" in out and "restrict 2: R\n" in out
    with capsys.disabled():
        _announce(1, started, "local wd and mwd elimination both end at ({D},{R})")


def test_criterion_02_weak_dominance_predicate_facts(tie_game):
    started = time.perf_counter()
    assert holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [("L",)]) is True
    assert holds(Notion.WD, tie_game, 1, "L", ("L", "R"), [("U",)]) is True
    assert holds(Notion.WD, tie_game, 0, "U", ("U", "D"), [("L",), ("R",)]) is False
    _announce(2, started, "the three weak-dominance predicate facts hold exactly")


def test_criterion_03_singleton_counterexample(capsys, tmp_path, tie_game):
    started = time.perf_counter()
    from conftest import TIE_GAME_TEXT

    game_file = tmp_path / "tie.game"
    game_file.write_text(TIE_GAME_TEXT)
    code = cli_main(["verify", "thm2", "--game", str(game_file), "--profile", "wd"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: counterexample" in out
    assert "('U', 'L')" in out

    report = search_thm2(tie_game, NotionProfile.uniform("wd", 2))
    assert report.counterexample["joint"] == ("U", "L")
    assert replay(report)
    fresh = verify_thm2(tie_game, NotionProfile.uniform("wd", 2), ("U", "L"))
    assert not fresh.holds
    with capsys.disabled():
        _announce(3, started, "singleton model refutes the inclusion at (U,L), exit code 1, replayable")


def test_criterion_04_flat_game_boundaries(flat_game):
    started = time.perf_counter()
    brp = NotionProfile.uniform("brp", 2)
    full = flat_game.full_restriction()
    t_outcome = iterate_to_outcome(operator(brp, flat_game, GLOBAL), full).outcome
    assert t_outcome == full

    weak_limits = {}
    for notion in ("wd", "mwd"):
        profile = NotionProfile.uniform(notion, 2)
        limit = iterate_to_outcome(operator(profile, flat_game, LOCAL), full).outcome
        assert limit == Restriction.of(flat_game, (("U",), ("L", "R")))
        assert limit.is_subset_of(full) and limit != full
        weak_limits[notion] = limit

    trace = outcome(brp, flat_game, GLOBAL)
    model = two_block_model(flat_game, trace.outcome)
    recovered = restriction_of(model, common_box(model, rat_event(model, brp)))
    assert recovered == trace.outcome == full
    for limit in weak_limits.values():
        assert not recovered.is_subset_of(limit)
    _announce(4, started, "flat game: best response keeps everything, weak dominance does not bound it")


@pytest.mark.parametrize("notion", ["sd", "msd", "brp", "brc"])
def test_criterion_05_inclusion_suites(notion):
    started = time.perf_counter()
    report = thm1_suite(notion, instances=1000, seed=20250)
    assert report.holds, report.counterexample
    assert report.instances_checked == 1000
    _announce(5, started, f"1000 random belief+knowledge instances hold for {notion}")


def test_criterion_06_construction_suite():
    started = time.perf_counter()
    report = thm1iii_suite(instances=200, seed=777)
    assert report.holds, report.counterexample
    assert report.instances_checked == 200
    _announce(6, started, "reverse-inclusion construction holds on 200 games for all six notions")


def test_criterion_07_inclusion_lemma_suite():
    started = time.perf_counter()
    report = lemma_inc_suite(games=200, seed=99)
    assert report.holds, report.counterexample
    assert report.instances_checked == 200
    _announce(7, started, "inclusion lemma premises and conclusion hold on 200 games for both operator pairs")


def test_criterion_08_monotonicity_suite(tie_game):
    started = time.perf_counter()
    report = monotonicity_suite(small_samples=5000, large_samples=1000, seed=4242)
    assert report.holds, report.counterexample
    assert report.instances_checked == 6000

    witnesses = list(nonmonotonicity_witnesses(tie_game, Notion.WD))
    assert (1, "U", (("L",),), (("L",), ("R",))) in witnesses
    _announce(8, started, "monotonic notions verified on 6000 games; weak-dominance witness reproduced")


def test_criterion_09_pearce_equivalence():
    started = time.perf_counter()
    report = pearce_suite(games=500, seed=55)
    assert report.holds, report.counterexample
    assert report.instances_checked >= 500 * 6
    _announce(9, started, "local correlated-best-response equals local mixed dominance on all samples")


def test_criterion_10_common_belief_characterizations(tie_game):
    started = time.perf_counter()
    checked = 0
    # exhaustive over all correspondence pairs and all events, |states| <= 4
    for size in (1, 2, 3, 4):
        space = StateSpace(tuple(f"w{k}" for k in range(size)))
        maps = (("U",) * size, ("L",) * size)
        events = range(1 << size)
        beliefs = list(enumerate_belief_correspondences(space))
        for c1, c2 in itertools.combinations_with_replacement(beliefs, 2):
            model = EpistemicModel(tie_game, space, maps, (c1, c2))
            for event in events:
                checked += 1
                stable = common_box(model, event)
                assert stable == largest_evident_inside(model, box_from_targets(model, event))
                chain = box_chain(model, event)
                assert all(b & ~a == 0 for a, b in zip(chain, chain[1:]))
        knowledge = list(enumerate_knowledge_correspondences(space))
        for c1, c2 in itertools.combinations_with_replacement(knowledge, 2):
            model = EpistemicModel(tie_game, space, maps, (c1, c2))
            for event in events:
                checked += 1
                stable = common_box(model, event)
                assert stable == largest_evident_inside(model, box_from_targets(model, event))
                assert stable == largest_evident_inside(model, event)
                assert stable & ~event == 0

    # random larger models
    rng = random.Random(1010)
    for seed in range(500):
        target = "belief" if seed % 2 else "knowledge"
        config = GeneratorConfig(seed=seed, states=(5, 8), target_class=target)
        model = generate_model(config, tie_game)
        for _ in range(4):
            event = sum(1 << k for k in range(len(model.space.states)) if rng.random() < 0.5)
            checked += 1
            stable = common_box(model, event)
            assert stable == largest_evident_inside(model, box_from_targets(model, event))
            if model.model_class == "knowledge":
                assert stable == largest_evident_inside(model, event)
    _announce(10, started, f"both common-belief characterizations agree on {checked} checks")


def test_criterion_11_tarski_agreement(tie_game, flat_game, prisoners_dilemma, mix_game):
    started = time.perf_counter()
    rng = random.Random(31)
    games = [tie_game, flat_game, prisoners_dilemma, mix_game]
    for _ in range(20):
        shape = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2)])
        games.append(random_game(rng, shape))
    count = 0
    for game in games:
        assert lattice_size(game) <= 1 << 12
        for notion in ("sd", "msd", "brp", "brc"):
            op = operator(NotionProfile.uniform(notion, game.n), game, GLOBAL)
            witness = monotonicity_counterexample(op, game, samples=200, seed=rng.randrange(10**6))
            assert witness is None, (notion, witness)
            outcome = iterate_to_outcome(op, game.full_restriction()).outcome
            assert largest_fixpoint_bruteforce(op, game) == outcome
            for candidate in enumerate_restrictions(game):
                if candidate.is_subset_of(op.apply(candidate)):
                    assert candidate.is_subset_of(outcome)
            count += 1
    _announce(11, started, f"iterated outcome = brute-force largest fixpoint on {count} operator/game pairs")


def test_criterion_12_lp_exactness():
    started = time.perf_counter()
    rng = random.Random(2718)
    positives = negatives = 0
    for trial in range(150):
        shape = (rng.choice([2, 3, 4, 5]), rng.choice([2, 3]))
        game = random_game(rng, shape, pool=(0, 1, 2, 3))
        i = rng.randrange(2)
        support = game.strategies[i]
        opponents = [
            t
            for t in itertools.product(*[c for j, c in enumerate(game.strategies) if j != i])
            if rng.random() < 0.85
        ]
        if not opponents:
            continue
        s = rng.choice(support)
        for mode in ("strict", "weak"):
            verdict = solve_dominance_lp(game, i, s, support, opponents, mode)
            if verdict.dominated:
                positives += 1
                assert dominates(game, i, verdict.witness, s, opponents, mode)
                assert sum(w for _, w in verdict.witness.weights) == 1
                assert all(w >= 0 for _, w in verdict.witness.weights)
            elif len(support) + 1 <= 6:
                negatives += 1
                assert not grid_has_dominator(game, i, s, support, opponents, mode)
        br = solve_br_lp(game, i, s, support, opponents)
        if br.is_best_response:
            positives += 1
            assert supports_best_response(game, i, br.witness, s, support)
            assert sum(w for _, w in br.witness.weights) == 1
        elif len(opponents) <= 6:
            negatives += 1
            assert not grid_has_supporting_belief(
                game, i, s, [x for x in support if x != s], opponents
            )
    assert positives >= 50 and negatives >= 50
    _announce(
        12,
        started,
        f"{positives} witnesses re-verified exactly, {negatives} negatives survived the grid oracle",
    )
