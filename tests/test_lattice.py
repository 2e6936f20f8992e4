import itertools
import random

import pytest

from epigame.elimination import GLOBAL, LOCAL, NotionProfile, operator
from epigame.errors import NonContractingStep, ValidationError
from epigame.games import Restriction, game_from_payoffs
from epigame.lattice import (
    RestrictionOperator,
    enumerate_restrictions,
    iterate_to_outcome,
    lattice_size,
    sample_restriction,
)
from epigame.verify import _inclusion_lemma_violation

from reference import largest_fixpoint_bruteforce, monotonicity_counterexample


def identity_operator(game):
    return RestrictionOperator("identity", lambda g: g)


def constant_full_operator(game):
    full = game.full_restriction()
    return RestrictionOperator("const-full", lambda g: full)


def test_identity_trace(tie_game):
    full = tie_game.full_restriction()
    trace = iterate_to_outcome(identity_operator(tie_game), full)
    assert trace.outcome == full
    assert trace.stabilized_at == 0
    assert trace.stages == (full, full)


def test_local_weak_dominance_outcome(tie_game):
    op = operator(NotionProfile.uniform("wd", 2), tie_game, LOCAL)
    trace = iterate_to_outcome(op, tie_game.full_restriction())
    assert trace.outcome == Restriction.of(tie_game, (("D",), ("R",)))
    assert trace.stabilized_at <= 2


def test_strict_dominance_outcome_prisoners_dilemma(prisoners_dilemma):
    op = operator(NotionProfile.uniform("sd", 2), prisoners_dilemma, GLOBAL)
    trace = iterate_to_outcome(op, prisoners_dilemma.full_restriction())
    assert trace.outcome == Restriction.of(prisoners_dilemma, (("D",), ("D",)))
    # oracle: re-run the per-stage eliminations by brute force
    current = prisoners_dilemma.full_restriction()
    for stage in trace.stages[1:]:
        expected = []
        for i in range(2):
            keep = []
            for s in current.components[i]:
                opponents = [t for t in itertools.product(
                    *[c for j, c in enumerate(current.components) if j != i])]
                dominated = any(
                    all(
                        prisoners_dilemma.payoff(i, t[:i] + (alt,) + t[i:])
                        > prisoners_dilemma.payoff(i, t[:i] + (s,) + t[i:])
                        for t in opponents
                    )
                    for alt in prisoners_dilemma.strategies[i]
                    if alt != s
                ) if opponents else len(prisoners_dilemma.strategies[i]) > 1
                if not dominated:
                    keep.append(s)
            expected.append(tuple(keep))
        assert stage == Restriction.of(prisoners_dilemma, tuple(expected))
        current = stage


def test_trace_is_weakly_decreasing(tie_game, prisoners_dilemma, mix_game):
    for game in (tie_game, prisoners_dilemma, mix_game):
        for notion in ("sd", "wd", "msd", "mwd", "brp", "brc"):
            for mode in (GLOBAL, LOCAL):
                op = operator(NotionProfile.uniform(notion, game.n), game, mode)
                trace = iterate_to_outcome(op, game.full_restriction())
                for a, b in zip(trace.stages, trace.stages[1:]):
                    assert b.is_subset_of(a)
                assert trace.stages[trace.stabilized_at] == trace.stages[trace.stabilized_at + 1]
                assert op.apply(trace.outcome) == trace.outcome


def test_non_contracting_step_detected(tie_game):
    full = tie_game.full_restriction()

    def expanding(g):
        return full

    op = RestrictionOperator("bad", expanding)
    start = Restriction.of(tie_game, (("U",), ("L",)))
    with pytest.raises(NonContractingStep):
        iterate_to_outcome(op, start)


def test_bruteforce_matches_iteration_on_pd(prisoners_dilemma):
    op = operator(NotionProfile.uniform("sd", 2), prisoners_dilemma, GLOBAL)
    best = largest_fixpoint_bruteforce(op, prisoners_dilemma)
    trace = iterate_to_outcome(op, prisoners_dilemma.full_restriction())
    assert best == trace.outcome == Restriction.of(prisoners_dilemma, (("D",), ("D",)))


def test_bruteforce_identity_returns_full(tie_game):
    assert largest_fixpoint_bruteforce(identity_operator(tie_game), tie_game) == tie_game.full_restriction()


def test_bruteforce_point_best_response_flat_game(flat_game):
    op = operator(NotionProfile.uniform("brp", 2), flat_game, GLOBAL)
    assert largest_fixpoint_bruteforce(op, flat_game) == flat_game.full_restriction()


def test_bruteforce_budget():
    strategies = [tuple(f"a{k}" for k in range(11)), tuple(f"b{k}" for k in range(10))]
    joints = list(itertools.product(*strategies))
    game = game_from_payoffs(strategies, [{j: 0 for j in joints}, {j: 0 for j in joints}])
    assert lattice_size(game) == 1 << 21
    with pytest.raises(ValidationError, match="lattice has 2097152 restrictions, budget is"):
        largest_fixpoint_bruteforce(identity_operator(game), game)


def test_probe_finds_local_operator_non_monotonic(tie_game):
    op = operator(NotionProfile.uniform("sd", 2), tie_game, LOCAL)
    small, big = monotonicity_counterexample(op, tie_game, samples=1000, seed=1)
    assert small.is_subset_of(big)
    assert not op.apply(small).is_subset_of(op.apply(big))


def test_probe_passes_global_strict_dominance(tie_game):
    op = operator(NotionProfile.uniform("sd", 2), tie_game, GLOBAL)
    assert monotonicity_counterexample(op, tie_game, samples=1000, seed=1) is None


def test_probe_passes_constant_operator(tie_game):
    op = constant_full_operator(tie_game)
    assert monotonicity_counterexample(op, tie_game, samples=200, seed=3) is None


def _outcomes(game, pair):
    return tuple(
        iterate_to_outcome(operator(NotionProfile.uniform(notion, game.n), game, mode),
                           game.full_restriction()).outcome
        for notion, mode in pair)


def test_inclusion_lemma_brp_into_usd(tie_game):
    # the lattice has 16 restrictions: every premise is checked on each
    assert _inclusion_lemma_violation(tie_game, 0) is None
    outcome1, outcome2 = _outcomes(tie_game, (("brp", GLOBAL), ("sd", LOCAL)))
    assert outcome1.is_subset_of(outcome2)


def test_inclusion_lemma_msd_pair_on_pd(prisoners_dilemma):
    assert _inclusion_lemma_violation(prisoners_dilemma, 0) is None
    expected = Restriction.of(prisoners_dilemma, (("D",), ("D",)))
    assert _outcomes(prisoners_dilemma, (("msd", GLOBAL), ("msd", LOCAL))) == (expected, expected)


def test_inclusion_lemma_premise_violation(monkeypatch, prisoners_dilemma):
    # with the identity in place of T[brp], op1 keeps C where U[sd] drops it
    import epigame.verify as verify

    real = verify.operator

    def operator_with_identity(profile, game, mode):
        made = real(profile, game, mode)
        return identity_operator(game) if made.name == "T[brp]" else made

    monkeypatch.setattr(verify, "operator", operator_with_identity)
    payload = _inclusion_lemma_violation(prisoners_dilemma, 0)
    assert payload["premise"] == "pointwise inclusion op1(G) <= op2(G)"
    assert (payload["op1"], payload["op2"]) == ("identity", "U[sd]")


def test_tarski_agreement_for_monotonic_operators(tie_game, flat_game, prisoners_dilemma, mix_game):
    rng = random.Random(42)
    games = [tie_game, flat_game, prisoners_dilemma, mix_game]
    for game in games:
        for notion in ("sd", "msd", "brp", "brc"):
            op = operator(NotionProfile.uniform(notion, game.n), game, GLOBAL)
            witness = monotonicity_counterexample(op, game, samples=300, seed=rng.randrange(10**6))
            assert witness is None, (game, notion, witness)
            outcome = iterate_to_outcome(op, game.full_restriction()).outcome
            assert largest_fixpoint_bruteforce(op, game) == outcome
            for candidate in enumerate_restrictions(game):
                if candidate.is_subset_of(op.apply(candidate)):
                    assert candidate.is_subset_of(outcome)


def test_enumerate_restrictions_counts(tie_game):
    assert len(list(enumerate_restrictions(tie_game))) == 16
    assert lattice_size(tie_game) == 16


def test_sample_restriction_is_within(tie_game):
    rng = random.Random(0)
    within = Restriction.of(tie_game, (("U",), ("L", "R")))
    for _ in range(50):
        r = sample_restriction(rng, tie_game, within=within)
        assert r.is_subset_of(within)
