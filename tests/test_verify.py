import pytest

from epigame.cli import render_report
from epigame.elimination import GLOBAL, LOCAL, NotionProfile, operator, outcome
from epigame.epistemic import (
    rat_event,
    common_box,
    restriction_of,
    singleton_model,
    state_label,
    two_block_model,
)
from epigame.errors import HypothesisNotMet, ValidationError
from epigame.games import Restriction
from epigame.generators import GeneratorConfig, generate_game, generate_model
from epigame.lattice import EliminationTrace, RestrictionOperator
from epigame.optimality import Notion
from epigame.verify import (
    CLAIMS,
    VerificationReport,
    _suite_config,
    cor_suite,
    lemma_inc_suite,
    monotonicity_suite,
    nonmonotonicity_witnesses,
    pearce_suite,
    replay,
    search_thm2,
    thm1_suite,
    thm1iii_suite,
    verify_cor1,
    verify_cor2,
    verify_monotonicity,
    verify_thm1i,
    verify_thm1ii,
    verify_thm1iii,
    verify_thm2,
)


# --- generators ---------------------------------------------------------------

def test_generators_deterministic(tie_game):
    config = GeneratorConfig(seed=5, players=(2, 3), strategies=(2, 4))
    assert generate_game(config) == generate_game(config)
    model_config = GeneratorConfig(seed=5, states=(2, 8), target_class="belief")
    a = generate_model(model_config, tie_game)
    b = generate_model(model_config, tie_game)
    assert a == b


@pytest.mark.parametrize("target", ["belief", "knowledge"])
def test_generated_models_classify_as_requested(tie_game, target):
    for seed in range(40):
        config = GeneratorConfig(seed=seed, states=(1, 7), target_class=target)
        model = generate_model(config, tie_game)
        assert model.model_class in (
            (target,) if target == "belief" else ("knowledge",)
        ) or (target == "belief" and model.model_class == "knowledge")


def test_generated_games_respect_ranges():
    for seed in range(30):
        config = GeneratorConfig(seed=seed, players=(2, 3), strategies=(2, 4))
        game = generate_game(config)
        assert 2 <= game.n <= 3
        assert all(2 <= len(s) <= 4 for s in game.strategies)


# --- single-instance claims -----------------------------------------------------

def test_thm1i_on_singleton_model_strict(tie_game):
    report = verify_thm1i(tie_game, singleton_model(tie_game), NotionProfile.uniform("sd", 2))
    assert report.holds  # strict dominance eliminates nothing here


def test_thm1i_rejects_non_monotonic_profile(tie_game):
    with pytest.raises(ValidationError, match="inclusion claim requires monotonic notions"):
        verify_thm1i(tie_game, singleton_model(tie_game), NotionProfile.uniform("wd", 2))


@pytest.mark.parametrize(
    "notions, named",
    [(("wd", "wd"), "wd is not"), (("mwd", "wd"), "mwd, wd are not"), (("bri", "wd"), "; wd is not")],
)
def test_non_monotonic_profile_names_each_notion_once(tie_game, notions, named):
    with pytest.raises(ValidationError, match="inclusion claim requires monotonic notions") as info:
        verify_thm1i(tie_game, singleton_model(tie_game), NotionProfile(notions))
    assert named in str(info.value)
    assert "bri" not in str(info.value)


def test_thm1i_vacuous_when_rationality_impossible():
    from epigame.games import game_from_payoffs
    from epigame.epistemic import EpistemicModel, PossibilityCorrespondence, StateSpace

    game = game_from_payoffs(
        [("a", "b"), ("x", "y")],
        [
            {("a", "x"): 0, ("a", "y"): 0, ("b", "x"): 1, ("b", "y"): 1},
            {("a", "x"): 0, ("a", "y"): 0, ("b", "x"): 0, ("b", "y"): 0},
        ],
    )
    space = StateSpace(("w",))
    corr = PossibilityCorrespondence(space, (frozenset({"w"}),))
    model = EpistemicModel(game, space, (("a",), ("x",)), (corr, corr))
    assert rat_event(model, NotionProfile.uniform("sd", 2)) == 0
    report = verify_thm1i(game, model, NotionProfile.uniform("sd", 2))
    assert report.holds


def test_thm1ii_requires_knowledge_model(tie_game):
    belief_only = generate_model(
        GeneratorConfig(seed=11, states=(3, 5), target_class="belief"), tie_game
    )
    if belief_only.model_class == "belief":
        with pytest.raises(ValidationError, match="claim needs a knowledge-class model"):
            verify_thm1ii(tie_game, belief_only, NotionProfile.uniform("sd", 2))


def test_thm1ii_flat_game_equality(flat_game):
    profile = NotionProfile.uniform("brp", 2)
    trace = outcome(profile, flat_game, GLOBAL)
    model = two_block_model(flat_game, trace.outcome)
    report = verify_thm1ii(flat_game, model, profile)
    assert report.holds
    kstar = common_box(model, rat_event(model, profile))
    assert restriction_of(model, kstar) == trace.outcome == flat_game.full_restriction()


@pytest.mark.parametrize(
    "check, extra",
    [(verify_thm1i, ("sd",)), (verify_thm1ii, ("sd",)), (verify_cor1, ()), (verify_cor2, ())],
)
def test_inclusion_checks_reject_a_model_over_another_game(tie_game, flat_game, check, extra):
    three_players = generate_game(GeneratorConfig(seed=4, players=(3, 3), strategies=(2, 2)))
    profile = (NotionProfile.uniform(extra[0], 2),) if extra else ()
    with pytest.raises(ValidationError, match=r"different game \(2x2x2\) than the one checked \(2x2\)"):
        check(tie_game, singleton_model(three_players), *profile)
    with pytest.raises(ValidationError, match="different game"):
        check(tie_game, singleton_model(flat_game), *profile)


def test_thm1iii_tie_game_weak_dominance(tie_game):
    report = verify_thm1iii(tie_game, NotionProfile.uniform("wd", 2))
    assert report.holds


def test_thm1iii_flat_game_equality(flat_game):
    report = verify_thm1iii(flat_game, NotionProfile.uniform("brp", 2))
    assert report.holds


def test_thm2_tie_game_weak_dominance(tie_game):
    for notion in ("wd", "mwd"):
        report = verify_thm2(tie_game, NotionProfile.uniform(notion, 2), ("U", "L"))
        assert not report.holds  # the inclusion is violated, as intended
        assert replay(report)


def test_thm2_hypothesis_rejected_for_strict_dominance(tie_game):
    with pytest.raises(HypothesisNotMet) as err:
        verify_thm2(tie_game, NotionProfile.uniform("sd", 2), ("U", "L"))
    assert "survives" in str(err.value)


def test_thm2_rejects_a_joint_strategy_of_the_wrong_arity(tie_game):
    for joint in ((), ("U",), ("U", "L", "R")):
        with pytest.raises(ValidationError, match=r"joint strategy .* needs 2 entries"):
            verify_thm2(tie_game, NotionProfile.uniform("wd", 2), joint)


def test_thm2_search_finds_tie_game_witness(tie_game):
    report = search_thm2(tie_game, NotionProfile.uniform("wd", 2))
    assert report.verdict == "counterexample"
    assert report.counterexample["joint"] == ("U", "L")
    kstar = report.counterexample["kstar"]
    assert state_label(("U", "L")) in kstar
    assert replay(report)


def test_thm2_search_exhausts_without_witness(flat_game):
    report = search_thm2(flat_game, NotionProfile.uniform("brp", 2))
    assert report.holds
    assert report.instances_checked == 4


def test_cor1_prisoners_dilemma_singleton_model(prisoners_dilemma):
    model = singleton_model(prisoners_dilemma)
    rat = rat_event(model, NotionProfile.uniform("brp", 2))
    assert rat == model.space.mask_of({state_label(("D", "D"))})
    report = verify_cor1(prisoners_dilemma, model)
    assert report.holds


def test_cor1_flat_game_construction(flat_game):
    model = two_block_model(
        flat_game, outcome(NotionProfile.uniform("brp", 2), flat_game, GLOBAL).outcome)
    report = verify_cor1(flat_game, model)
    assert report.holds  # both sides are the full game


def test_cor2_flat_game(flat_game):
    model = two_block_model(
        flat_game, outcome(NotionProfile.uniform("brp", 2), flat_game, GLOBAL).outcome)
    for belief_class in ("point", "independent", "correlated"):
        report = verify_cor2(flat_game, model, belief_class)
        assert report.holds


def test_cor2_weak_dominance_fails_in_flat_game(flat_game):
    # the corollary is specific to strict dominance: the common-knowledge
    # restriction is the full game, while local weak dominance eliminates D
    profile = NotionProfile.uniform("brp", 2)
    trace = outcome(profile, flat_game, GLOBAL)
    model = two_block_model(flat_game, trace.outcome)
    kstar = common_box(model, rat_event(model, profile))
    chosen = restriction_of(model, kstar)
    assert chosen == trace.outcome == flat_game.full_restriction()
    for notion in ("wd", "mwd"):
        weak_limit = outcome(NotionProfile.uniform(notion, 2), flat_game, LOCAL).outcome
        assert weak_limit == Restriction.of(flat_game, (("U",), ("L", "R")))
        assert not chosen.is_subset_of(weak_limit)


# --- suites -----------------------------------------------------------------------

@pytest.mark.parametrize("notion", ["sd", "msd", "brp", "brc"])
def test_thm1_suite_small_batches(notion):
    report = thm1_suite(notion, instances=60, seed=123)
    assert report.holds
    assert report.instances_checked == 60


def test_thm1iii_suite_small_batch():
    report = thm1iii_suite(instances=25, seed=17)
    assert report.holds


def test_cor_suites_small_batches():
    assert cor_suite("cor1", instances=40, seed=3).holds
    assert cor_suite("cor2", instances=40, seed=3).holds
    assert cor_suite("cor2", instances=20, seed=3, belief_class="independent").holds


def test_cor_suite_rejects_an_unknown_corollary():
    with pytest.raises(ValidationError, match="unknown corollary 'cor3'"):
        cor_suite("cor3", instances=2)


def test_pearce_suite_small_batch():
    report = pearce_suite(games=40, seed=8)
    assert report.holds
    assert report.instances_checked >= 40


def test_pearce_certificate_needs_an_lp_belief():
    # M = (2, 2) has no pure dominator and is a best response to no point
    # belief, so only the column mixture of the strict game supports it
    from epigame.games import expected_payoff, game_from_payoffs
    from epigame.optimality import solve_br_lp
    from epigame.verify import _pearce_violation

    payoffs = {("T", "L"): 3, ("T", "R"): 0, ("M", "L"): 2, ("M", "R"): 2,
               ("B", "L"): 0, ("B", "R"): 3}
    game = game_from_payoffs([("T", "M", "B"), ("L", "R")],
                             [payoffs, {joint: 0 for joint in payoffs}])
    assert _pearce_violation(game, game.full_restriction()) is None
    belief = solve_br_lp(game, 0, "M", ("T", "M", "B"), [("L",), ("R",)]).witness
    mine = expected_payoff(game, 0, "M", belief)
    assert all(expected_payoff(game, 0, a, belief) <= mine for a in ("T", "B"))


def test_lemma_inc_suite_small_batch():
    report = lemma_inc_suite(games=25, seed=4)
    assert report.holds


def test_monotonicity_suite_small_batch():
    report = monotonicity_suite(small_samples=300, large_samples=60, seed=2)
    assert report.holds
    assert report.instances_checked == 360


def _empty_limit(game, profile, mode):
    return Restriction(game, (0,) * game.n)


@pytest.mark.parametrize(
    "run, expected",
    [
        # a suite's seed s checks instances s, s+1, ...; the first failure
        # reports its instance count and the suite seed
        (lambda: thm1_suite("msd", 5, seed=0), ("thm1.i+ii", 3, 0, "thm1.ii", ())),
        (lambda: thm1_suite("msd", 5, seed=3), ("thm1.i+ii", 1, 3, "thm1.i", ())),
        (lambda: cor_suite("cor1", 5, seed=3), ("cor1", 4, 3, "cor1", ("belief",))),
        (lambda: cor_suite("cor2", 5, seed=5), ("cor2", 2, 5, "cor2", ())),
    ],
)
def test_suites_report_their_first_failure(monkeypatch, run, expected):
    import epigame.verify as verify

    monkeypatch.setattr(verify, "elimination_limit", _empty_limit)
    report = run()
    assert (report.claim, report.instances_checked, report.seed,
            report.counterexample["kind"], report.notes) == expected
    assert report.verdict == "counterexample"


def test_thm1iii_suite_reports_its_first_failure(monkeypatch):
    import epigame.verify as verify

    real = verify._common_belief_play
    calls = []

    def fail_from_the_second_instance(model, profile):
        # six notions per instance: the seventh call is the second instance's first
        calls.append(profile)
        event, recovered = real(model, profile)
        if len(calls) > 6:
            recovered = Restriction(model.game, (0,) * model.game.n)
        return event, recovered

    monkeypatch.setattr(verify, "_common_belief_play", fail_from_the_second_instance)
    report = thm1iii_suite(5, seed=3)
    assert (report.claim, report.instances_checked, report.seed,
            report.counterexample["kind"], report.notes) == ("thm1.iii", 2, 3, "thm1.iii", ())
    assert report.counterexample["profile"] == NotionProfile.uniform("sd", report.counterexample["game"].n)


def test_lemma_inc_suite_reports_its_first_failure(monkeypatch):
    _inclusion_lemma_fails_at_instance_seed_6(monkeypatch)
    report = lemma_inc_suite(5, seed=4)
    assert (report.claim, report.instances_checked, report.seed,
            report.counterexample["kind"], report.notes) == ("lem.inc", 3, 4, "lem.inc", ())
    payload = report.counterexample
    assert set(payload) == {"kind", "game", "instance_seed", "op1", "op2", "outcome1", "outcome2"}
    assert (payload["instance_seed"], payload["op2"]) == (6, "U[msd]")
    assert not payload["outcome1"].is_subset_of(payload["outcome2"])
    # both outcomes print in the restriction file format
    lines = render_report(report).splitlines()
    assert "counterexample outcome1: restrict 1: b c" in lines
    assert "counterexample outcome2: restrict 2:" in lines
    assert replay(report) is True


def _brc_keeps_everything(monkeypatch):
    # local brc stops eliminating once the restriction is not the full game
    import epigame.verify as verify

    real = verify.u_local

    def u_local(profile, game, restriction):
        if profile.notions[0] is Notion.BR_CORRELATED and restriction != game.full_restriction():
            return restriction
        return real(profile, game, restriction)

    monkeypatch.setattr(verify, "u_local", u_local)


def _at_most_one_opponent(monkeypatch, spare_two_by_two=False):
    # every notion holds against at most one opponent profile and fails
    # against more: not monotonic; the replay reads it too
    import epigame.optimality as optimality
    import epigame.verify as verify

    real = optimality._holds_core

    def fake(game, notion, i, s, alternatives, opponents):
        if spare_two_by_two and game.strategies == (("a", "b"), ("x", "y")):
            return real(game, notion, i, s, alternatives, opponents)
        return opponents & (opponents - 1) == 0

    monkeypatch.setattr(verify, "_holds_core", fake)
    monkeypatch.setattr(optimality, "_holds_core", fake)


_FORCED_FAILURES = {
    # name: (patch, run(seed, instances), suite seed)
    "pearce": (_brc_keeps_everything, lambda seed, n: pearce_suite(n, seed=seed), 8),
    "mono-exhaustive": (
        _at_most_one_opponent,
        lambda seed, n: monotonicity_suite(small_samples=n, large_samples=4, seed=seed), 2,
    ),
    "mono-sampled": (
        lambda monkeypatch: _at_most_one_opponent(monkeypatch, spare_two_by_two=True),
        lambda seed, n: monotonicity_suite(small_samples=3, large_samples=n - 3, seed=seed), 2,
    ),
}


@pytest.mark.parametrize(
    "name, claim, instances",
    [("pearce", "pearce", 4), ("mono-exhaustive", "lem.mono", 1), ("mono-sampled", "lem.mono", 4)],
)
def test_pearce_and_monotonicity_suites_report_their_first_failure(
    monkeypatch, name, claim, instances
):
    patch, run, seed = _FORCED_FAILURES[name]
    patch(monkeypatch)
    report = run(seed, 8)
    assert report.verdict == "counterexample"
    assert (report.claim, report.instances_checked, report.seed) == (claim, instances, seed)
    keys = {"kind", "game", "restriction", "player", "strategy", "msd", "brc"} if (
        claim == "pearce") else {"kind", "game", "notion", "witness"}
    assert set(report.counterexample) == keys
    assert report.counterexample["kind"] == claim
    # players count from 1 in payloads, as in traces
    payload = report.counterexample
    if claim == "pearce":
        assert payload["player"] == 2
    else:
        assert payload["witness"][0] == 1
    assert replay(report) is True


def test_verify_monotonicity_reports_a_replayable_failure(monkeypatch, tie_game):
    held = verify_monotonicity(tie_game, seed=3)
    assert (held.claim, held.instances_checked, held.verdict, held.seed) == (
        "lem.mono", 1, "holds-on-all", 3)
    assert held.notes == ("wd non-monotonicity witnesses on this game: 6",)
    _at_most_one_opponent(monkeypatch)
    report = verify_monotonicity(tie_game, seed=3)
    assert (report.claim, report.instances_checked, report.verdict, report.seed) == (
        "lem.mono", 1, "counterexample", 3)
    assert set(report.counterexample) == {"kind", "game", "notion", "witness"}
    assert report.counterexample["notion"] is Notion.SD
    assert replay(report) is True


def _empty_limit_patch(monkeypatch):
    import epigame.verify as verify

    monkeypatch.setattr(verify, "elimination_limit", _empty_limit)


def _inclusion_lemma_fails_at_instance_seed_6(monkeypatch):
    # U[msd]'s outcome is empty on the lem.inc suite's game at instance seed
    # 6, so the conclusion of the second pair fails there
    import epigame.verify as verify

    real = verify.iterate_to_outcome
    failing = generate_game(_suite_config(6, "belief", strategies=(2, 3)))

    def iterate(op, start):
        trace = real(op, start)
        if op.name == "U[msd]" and start.game == failing:
            empty = Restriction(failing, (0,) * failing.n)
            return EliminationTrace(trace.operator, trace.stages + (empty,), trace.records)
        return trace

    monkeypatch.setattr(verify, "iterate_to_outcome", iterate)


def _brp_keeps_nothing_on_even_restrictions(monkeypatch):
    # T[brp] keeps nothing on a restriction with an even number of
    # strategies: still inside U[sd] pointwise, but not monotonic
    import epigame.verify as verify

    real = verify.operator

    def operator(profile, game, mode):
        made = real(profile, game, mode)
        if made.name != "T[brp]":
            return made

        def apply(restriction):
            if sum(bin(mask).count("1") for mask in restriction.masks) % 2:
                return made.apply(restriction)
            return Restriction(game, (0,) * game.n)

        return RestrictionOperator(made.name, apply)

    monkeypatch.setattr(verify, "operator", operator)


def _sd_expands_its_first_stage(monkeypatch):
    # U[sd] maps its own first stage back to the full game: not contracting
    import epigame.verify as verify

    real = verify.operator

    def operator(profile, game, mode):
        made = real(profile, game, mode)
        if made.name != "U[sd]":
            return made
        full = game.full_restriction()
        first = made.apply(full)

        def apply(restriction):
            return full if restriction == first != full else made.apply(restriction)

        return RestrictionOperator(made.name, apply)

    monkeypatch.setattr(verify, "operator", operator)


def _sd_image_drops_a_strategy(monkeypatch):
    # U[sd]'s image loses player 1's first kept strategy, so a restriction
    # where T[brp] keeps it breaks the pointwise-inclusion premise
    import epigame.verify as verify

    real = verify.operator

    def operator(profile, game, mode):
        made = real(profile, game, mode)
        if made.name != "U[sd]":
            return made

        def apply(restriction):
            masks = made.apply(restriction).masks
            return Restriction(game, (masks[0] & (masks[0] - 1),) + masks[1:])

        return RestrictionOperator(made.name, apply)

    monkeypatch.setattr(verify, "operator", operator)


def test_a_failed_inclusion_premise_is_a_replayable_counterexample(monkeypatch, capsys):
    from epigame.cli import main

    _sd_image_drops_a_strategy(monkeypatch)
    assert main(["verify", "lemma-inc", "--samples", "8"]) == 1
    out = capsys.readouterr().out
    assert "verdict: counterexample" in out
    assert "counterexample premise: pointwise inclusion op1(G) <= op2(G)" in out
    assert "counterexample restriction: restrict 1: " in out
    report = lemma_inc_suite(8)
    assert set(report.counterexample) == {
        "kind", "game", "instance_seed", "op1", "op2", "premise", "restriction"}
    assert (report.counterexample["op1"], report.counterexample["op2"]) == ("T[brp]", "U[sd]")
    assert replay(report) is True


def _thm1iii_fails_at_instance_seed_4(monkeypatch):
    import epigame.verify as verify

    real = verify._common_belief_play
    failing = generate_game(GeneratorConfig(seed=4, players=(2, 3), strategies=(2, 3)))

    def play(model, profile):
        event, recovered = real(model, profile)
        if model.game == failing:
            recovered = Restriction(model.game, (0,) * model.game.n)
        return event, recovered

    monkeypatch.setattr(verify, "_common_belief_play", play)


@pytest.mark.parametrize(
    "patch, run, seed",
    [
        (_empty_limit_patch, lambda seed, n: thm1_suite("msd", n, seed=seed), 0),
        (_empty_limit_patch, lambda seed, n: cor_suite("cor1", n, seed=seed), 3),
        (_empty_limit_patch, lambda seed, n: cor_suite("cor2", n, seed=seed), 5),
        (_thm1iii_fails_at_instance_seed_4, lambda seed, n: thm1iii_suite(n, seed=seed), 3),
        (_inclusion_lemma_fails_at_instance_seed_6, lambda seed, n: lemma_inc_suite(n, seed=seed), 4),
        (_sd_image_drops_a_strategy, lambda seed, n: lemma_inc_suite(n, seed=seed), 2),
        (_brp_keeps_nothing_on_even_restrictions,
         lambda seed, n: lemma_inc_suite(n, seed=seed), 2),
        (_sd_expands_its_first_stage, lambda seed, n: lemma_inc_suite(n, seed=seed), 47),
        *_FORCED_FAILURES.values(),
    ],
    ids=["thm1", "cor1", "cor2", "thm1iii", "lem.inc", "lem.inc-premise",
         "lem.inc-monotonic", "lem.inc-contracting", *_FORCED_FAILURES],
)
def test_a_failing_suite_report_reruns_from_its_seed(monkeypatch, patch, run, seed):
    # a report is a value: the suite seed and the instance count it states
    # re-run the failure to an equal report
    patch(monkeypatch)
    report = run(seed, 8)
    assert report.verdict == "counterexample"
    assert report.seed == seed
    assert run(report.seed, report.instances_checked) == report


@pytest.mark.parametrize("patch, seed, premise, keys", [
    # the pointwise premise is forced in the CLI test above
    (_brp_keeps_nothing_on_even_restrictions, 2, "op1 monotonic", {"restriction", "larger"}),
    # suite seed 47's first game has 256 restrictions, and none of the 41
    # sampled is U[sd]'s first stage: the iteration finds the expansion
    (_sd_expands_its_first_stage, 47, "op2 contracting", {"restriction"}),
], ids=["monotonic", "contracting"])
def test_each_inclusion_premise_fails_as_a_replayable_counterexample(
    monkeypatch, patch, seed, premise, keys
):
    patch(monkeypatch)
    report = lemma_inc_suite(8, seed=seed)
    payload = report.counterexample
    assert set(payload) == {"kind", "game", "instance_seed", "op1", "op2", "premise"} | keys
    assert (payload["premise"], payload["op1"], payload["op2"]) == (premise, "T[brp]", "U[sd]")
    if "larger" in payload:
        assert payload["restriction"].is_subset_of(payload["larger"])
    lines = render_report(report).splitlines()
    assert f"counterexample premise: {premise}" in lines
    assert any(line.startswith("counterexample restriction: restrict 1:") for line in lines)
    assert replay(report) is True


def _forged_payloads(tie_game):
    """Per claim, a payload that states a violation on an instance where the
    claim holds; its other keys are what a real payload of the kind carries."""
    sd = NotionProfile.uniform(Notion.SD, 2)
    model = singleton_model(tie_game)
    full, corner = tie_game.full_restriction(), Restriction(tie_game, (1, 1))
    lemma_game = generate_game(GeneratorConfig(seed=4, players=(2, 3), strategies=(2, 3)))
    return {
        "thm1i": {"game": tie_game, "model": model, "profile": sd, "chosen": full, "limit": corner},
        "thm1ii": {"game": tie_game, "model": model, "profile": sd, "chosen": full,
                   "limit": corner},
        "thm1iii": {"game": tie_game, "profile": sd, "model": two_block_model(tie_game, full),
                    "limit": full, "recovered": corner},
        # thm2's check builds a violation: on a joint strategy that meets its
        # hypothesis it always reproduces, so the forged one misses it
        "thm2": {"game": tie_game, "profile": NotionProfile.uniform(Notion.WD, 2),
                 "joint": ("D", "R"), "model": model},
        "cor1": {"game": tie_game, "model": model, "chosen": full, "limit": corner},
        "cor2": {"game": tie_game, "model": model, "belief_class": "point", "chosen": full,
                 "limit": corner},
        "pearce": {"game": tie_game, "restriction": full, "player": 1, "strategy": "U",
                   "msd": None, "brc": None},
        "lemma-inc": {"game": lemma_game, "instance_seed": 4, "op1": "T[brp]", "op2": "U[sd]",
                      "outcome1": lemma_game.full_restriction(),
                      "outcome2": Restriction(lemma_game, (0,) * lemma_game.n)},
        "monotonicity": {"game": tie_game, "notion": Notion.SD,
                         "witness": next(nonmonotonicity_witnesses(tie_game, Notion.WD))},
    }


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_replay_reruns_each_claim(tie_game, name):
    # a forged report on an instance where the claim holds does not replay
    forged = _forged_payloads(tie_game)
    assert forged.keys() == CLAIMS.keys()
    payload = {"kind": CLAIMS[name].kind, **forged[name]}
    report = VerificationReport(CLAIMS[name].kind, 1, "counterexample", payload, seed=0)
    if name == "thm2":
        with pytest.raises(HypothesisNotMet):
            replay(report)
    else:
        assert replay(report) is False


def test_replay_rejects_a_kind_outside_the_table(tie_game):
    payload = {"kind": "thm3", "game": tie_game}
    with pytest.raises(ValidationError, match="unknown payload kind 'thm3'"):
        replay(VerificationReport("thm3", 1, "counterexample", payload, seed=0))


@pytest.mark.parametrize("seed", [[1], "x", True, 2.5], ids=["list", "text", "bool", "float"])
@pytest.mark.parametrize("check", [
    lambda g, seed: verify_thm1i(g, singleton_model(g), NotionProfile.uniform("sd", 2), seed),
    lambda g, seed: verify_thm1ii(g, singleton_model(g), NotionProfile.uniform("sd", 2), seed),
    lambda g, seed: verify_thm1iii(g, NotionProfile.uniform("sd", 2), seed),
    lambda g, seed: verify_thm2(g, NotionProfile.uniform("wd", 2), ("U", "L"), seed),
    lambda g, seed: search_thm2(g, NotionProfile.uniform("wd", 2), seed),
    lambda g, seed: verify_cor1(g, singleton_model(g), seed),
    lambda g, seed: verify_cor2(g, singleton_model(g), seed=seed),
    lambda g, seed: verify_monotonicity(g, seed),
], ids=["thm1i", "thm1ii", "thm1iii", "thm2", "search-thm2", "cor1", "cor2", "monotonicity"])
def test_a_checker_rejects_a_seed_that_is_not_an_int(tie_game, check, seed):
    # each checker echoed any seed into its report
    with pytest.raises(ValidationError, match="seed must be an int"):
        check(tie_game, seed)
    assert check(tie_game, None).seed is None
    assert check(tie_game, 7).seed == 7


def test_cor1_suite_games_do_not_depend_on_the_belief_class(monkeypatch):
    import epigame.verify as verify

    real = verify.verify_cor1
    seen = {"correlated": [], "independent": []}
    for belief_class, games in seen.items():
        def record(game, model, seed=None, games=games):
            games.append(game)
            return real(game, model, seed=seed)

        monkeypatch.setattr(verify, "verify_cor1", record)
        assert cor_suite("cor1", 6, seed=3, belief_class=belief_class).holds
    assert len(seen["correlated"]) == 6
    assert seen["correlated"] == seen["independent"]


def test_engine_builds_no_restriction_from_labels(monkeypatch):
    # restrictions are masks inside the engine; Restriction.of is the label
    # entry for parsers and callers only
    from epigame.verify import elimination_limit

    game = generate_game(GeneratorConfig(seed=11, players=(3, 3), strategies=(2, 3)))
    model = generate_model(GeneratorConfig(seed=11, states=(5, 8)), game)

    def of(*args):
        raise AssertionError("Restriction.of called inside the engine")

    monkeypatch.setattr(Restriction, "of", of)
    for notion in ("sd", "wd", "msd", "mwd", "brp", "brc"):
        profile = NotionProfile.uniform(notion, game.n)
        for mode in ("global", "local"):
            outcome(profile, game, mode)
            elimination_limit(game, profile, mode)
        rat_event(model, profile)
    restriction_of(model, model.space.full_mask)
    assert thm1_suite("sd", instances=3, seed=1).holds
    assert thm1iii_suite(instances=2, seed=1).holds
    assert cor_suite("cor1", instances=3, seed=1).holds
    assert pearce_suite(games=2, seed=1).holds
    assert lemma_inc_suite(games=2, seed=1).holds
    assert monotonicity_suite(small_samples=5, large_samples=2, seed=1).holds


def test_weak_dominance_finder_reproduces_tie_game_witness(tie_game):
    witnesses = list(nonmonotonicity_witnesses(tie_game, Notion.WD))
    assert (
        1,
        "U",
        (("L",),),
        (("L",), ("R",)),
    ) in witnesses
    # and the monotonic notions admit no witness on this game
    for notion in (Notion.SD, Notion.MSD, Notion.BR_POINT, Notion.BR_CORRELATED):
        assert next(nonmonotonicity_witnesses(tie_game, notion), None) is None


def test_a_real_wd_witness_replays_under_wd_and_not_under_sd(tie_game):
    # no patch: replay re-runs the witness through the index test that found it
    witness = next(nonmonotonicity_witnesses(tie_game, Notion.WD))

    def report(notion, witness):
        payload = {"kind": "lem.mono", "game": tie_game, "notion": notion, "witness": witness}
        return VerificationReport("lem.mono", 1, "counterexample", payload, seed=0)

    assert replay(report(Notion.WD, witness)) is True
    assert replay(report(Notion.SD, witness)) is False
    player, strategy, smaller, larger = witness
    for forged in ((player, "Z", smaller, larger), (player, strategy, smaller, (("Z",),))):
        with pytest.raises(ValidationError):
            replay(report(Notion.WD, forged))


_RENDER_WITNESSES = """\
import sys
from epigame.cli import render_report
from epigame.games import parse_game
from epigame.optimality import Notion
from epigame.verify import VerificationReport, nonmonotonicity_witnesses

game = parse_game(sys.stdin.read())
for witness in nonmonotonicity_witnesses(game, Notion.WD):
    payload = {"kind": "lem.mono", "game": game, "notion": Notion.WD, "witness": witness}
    print(render_report(VerificationReport("lem.mono", 1, "counterexample", payload, seed=0)))
"""


def test_monotonicity_witnesses_render_alike_in_every_process():
    # a witness lists its opponent profiles in offset order, whatever the
    # string hash seed of the process
    import os
    import subprocess
    import sys
    from pathlib import Path

    import epigame
    from conftest import TIE_GAME_TEXT

    src = str(Path(epigame.__file__).resolve().parents[1])
    renderings = set()
    for hash_seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", _RENDER_WITNESSES], input=TIE_GAME_TEXT,
                              env=env, capture_output=True, text=True, check=True)
        assert "counterexample witness: (1, 'U', (('L',),), (('L',), ('R',)))" in done.stdout
        renderings.add(done.stdout)
    assert len(renderings) == 1


def _all_point_to_dd(game):
    # belief-class, not knowledge-class: every state considers only D.D possible
    from epigame.epistemic import EpistemicModel, PossibilityCorrespondence

    model = singleton_model(game)
    target = frozenset({state_label(("D", "D"))})
    corr = PossibilityCorrespondence(model.space, (target,) * len(model.space.states))
    return EpistemicModel(game, model.space, model.strategy_maps, (corr, corr))


_THM1_KEYS = {"kind", "game", "model", "profile", "event", "chosen", "limit"}


@pytest.mark.parametrize(
    "check, model_class, keys, notes",
    [
        ("thm1i", "belief", _THM1_KEYS, ()),
        ("thm1ii", "knowledge", _THM1_KEYS, ()),
        ("cor1", "belief", {"kind", "game", "model", "profile", "chosen", "limit"}, ("belief",)),
        ("cor1", "knowledge", {"kind", "game", "model", "profile", "chosen", "limit"}, ("belief",)),
        ("cor2", "belief", {"kind", "game", "model", "belief_class", "chosen", "limit"}, ()),
        ("cor2", "knowledge", {"kind", "game", "model", "belief_class", "chosen", "limit"}, ()),
    ],
)
def test_inclusion_checks_report_counterexamples(
    monkeypatch, prisoners_dilemma, check, model_class, keys, notes
):
    import epigame.verify as verify

    game = prisoners_dilemma
    model = singleton_model(game) if model_class == "knowledge" else _all_point_to_dd(game)
    assert model.model_class == model_class
    run = {
        "thm1i": lambda: verify_thm1i(game, model, NotionProfile.uniform("sd", 2)),
        "thm1ii": lambda: verify_thm1ii(game, model, NotionProfile.uniform("sd", 2)),
        "cor1": lambda: verify_cor1(game, model),
        "cor2": lambda: verify_cor2(game, model),
    }[check]
    if check == "cor1":
        # with the true limit the check holds, on a knowledge model for both events
        expected = ("belief", "knowledge") if model_class == "knowledge" else ("belief",)
        assert run().notes == expected
    monkeypatch.setattr(
        verify, "elimination_limit", lambda game, profile, mode: Restriction(game, (0,) * game.n)
    )
    report = run()
    assert report.verdict == "counterexample"
    assert set(report.counterexample) == keys
    assert report.counterexample["kind"] == report.claim
    assert report.counterexample["chosen"] == Restriction.of(game, (("D",), ("D",)))
    assert report.notes == notes
    assert replay(report) is True


def test_replay_reports_false_without_counterexample(tie_game):
    report = verify_thm1iii(tie_game, NotionProfile.uniform("sd", 2))
    assert report.holds
    assert replay(report) is False
