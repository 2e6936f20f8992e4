"""Machine checks for the claims tying common belief/knowledge of
rationality to iterated elimination.

Each claim is one check, which its single-instance checker, its seeded
random suite and :func:`replay` share. A :class:`VerificationReport` is a
value: the same inputs give an equal report with the same rendering. The
suites for theorem 1, the corollaries and the inclusion lemma share one
instance loop, :func:`_suite`; the Pearce and monotonicity suites count
restrictions or two phases under one random stream and keep their own.
The inclusion lemma is one check on its two operator pairs,
:func:`_inclusion_lemma_violation`. Every claim reads the elimination
outcome through the memoised :func:`elimination_limit`; thm1.iii builds
its two-block model around it.
Monotonicity has one violation test on indices, :func:`_violations`, which
the exhaustive :func:`nonmonotonicity_witnesses`, the suite's sampled phase
and :func:`replay` share. A failing suite report states the suite seed and
the instances checked up to the failure, so the same suite call with those
two re-runs it; a monotonicity failure in the larger phase re-runs with the
same ``small_samples`` and the rest of the count as ``large_samples``.
Counterexample payloads are replayable: :func:`replay` re-runs the failing
instance and must reproduce the violation. A monotonicity witness is
(player, strategy, smaller, larger), each opponent set a tuple of opponent
profiles in offset order. A Pearce payload names the player, the strategy,
and its ``msd`` mixture and ``brc`` belief. Both number players from 1, as
traces do.

Each claim is one record of :data:`CLAIMS`, which carries both its names:
the key is the CLI's (thm1i, lemma-inc, monotonicity), the ``kind`` the
engine's stable id, which its payloads carry too (thm1.i, lem.inc, lem.mono).
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from .elimination import GLOBAL, LOCAL, NotionProfile, operator, profile_names, u_local
from .epistemic import (
    EpistemicModel,
    common_box,
    rat_event,
    restriction_of,
    singleton_model,
    state_label,
    two_block_model,
)
from .errors import HypothesisNotMet, NonContractingStep, ValidationError
from .games import (Game, JointStrategy, Restriction, Value, as_int, dominates, expected_payoff,
                    per_game, set_bits)
from .generators import GeneratorConfig, generate_game, generate_model
from .lattice import enumerate_restrictions, iterate_to_outcome, lattice_size, sample_restriction
from .optimality import (
    MONOTONIC_NOTIONS,
    Notion,
    _holds_core,
    _opponent_set_mask,
    _pearce_certificates,
    evaluated_notion,
    parse_notion,
)

HOLDS_ON_ALL = "holds-on-all"
COUNTEREXAMPLE = "counterexample"
# the most opponent-subset pairs the exhaustive monotonicity check may visit
ENUMERATION_BUDGET = 1 << 20


def elimination_limit(game: Game, profile: NotionProfile, mode: str) -> Restriction:
    """The outcome of iterating one elimination operator from the full game.
    Its masks are memoised: a restriction in the memo would refer back to
    the game."""
    return Restriction(game, _limit_masks(game, profile, mode))


@per_game
def _limit_masks(game: Game, profile: NotionProfile, mode: str):
    op = operator(profile, game, mode)
    return iterate_to_outcome(op, game.full_restriction()).outcome.masks


class VerificationReport(Value):
    _fields = ("claim", "instances_checked", "verdict", "counterexample", "seed", "notes")

    def __init__(self, claim: str, instances_checked: int, verdict: str,
                 counterexample: dict | None = None, seed: int | None = None, notes=()):
        self._claim, self._instances_checked, self._verdict = claim, instances_checked, verdict
        self._counterexample, self._seed, self._notes = counterexample, seed, notes

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS_ON_ALL


def _report(claim, instances, violated, payload, seed, notes=()):
    """Every report is made here, so here the seed a checker is given is read."""
    seed = None if seed is None else as_int("seed", seed)
    return VerificationReport(claim, instances, COUNTEREXAMPLE if violated else HOLDS_ON_ALL,
                              payload if violated else None, seed, tuple(notes))


def _require_model(game: Game, model: EpistemicModel, wanted: str) -> None:
    """The model must be over ``game`` and of the wanted class."""
    if model.game != game:
        shapes = ["x".join(str(len(labels)) for labels in g.strategies) for g in (model.game, game)]
        raise ValidationError(
            f"model is over a different game ({shapes[0]}) than the one checked ({shapes[1]})"
        )
    if wanted == "belief":
        if model.model_class not in ("belief", "knowledge"):
            raise ValidationError("claim needs a belief-class model")
    elif model.model_class != wanted:
        raise ValidationError(f"claim needs a {wanted}-class model")


# --- single-instance checks ----------------------------------------------------

def _common_belief_play(model: EpistemicModel, profile: NotionProfile):
    """The event RAT and CB(RAT), true common belief of rationality, and the
    restriction it projects to. On a knowledge-class model the truth axiom
    puts CB(RAT) inside RAT, so the event is CB(RAT), common knowledge of
    rationality: one event serves both."""
    rat = rat_event(model, profile)
    event = rat & common_box(model, rat)
    return event, restriction_of(model, event)


def _check_inclusion(claim, chosen, limit, seed, notes=(), **extras):
    """The inclusion claims' one check: the restriction played under
    RAT and CB(RAT) lies inside the elimination limit."""
    violated = not chosen.is_subset_of(limit)
    payload = {"kind": claim, **extras, "chosen": chosen, "limit": limit}
    return _report(claim, 1, violated, payload, seed, notes)


def _verify_thm1(claim, model_class, game, model, profile, seed):
    """Theorem 1 (i) or (ii): one check, on a belief- or a knowledge-class model."""
    bad = profile.non_monotonic()
    if bad:
        raise ValidationError(
            "inclusion claim requires monotonic notions; "
            f"{', '.join(n.value for n in bad)} {'is' if len(bad) == 1 else 'are'} not "
            "(use the singleton-model counterexample check instead)"
        )
    _require_model(game, model, model_class)
    event, chosen = _common_belief_play(model, profile)
    limit = elimination_limit(game, profile, GLOBAL)
    return _check_inclusion(
        claim, chosen, limit, seed,
        game=game, model=model, profile=profile, event=model.space.event_of(event),
    )


def verify_thm1i(
    game: Game, model: EpistemicModel, profile: NotionProfile, seed: int | None = None
) -> VerificationReport:
    """True common belief of rationality confines play to the global
    elimination outcome: G_(RAT and common-belief-of-RAT) <= T-outcome."""
    return _verify_thm1("thm1.i", "belief", game, model, profile, seed)


def verify_thm1ii(
    game: Game, model: EpistemicModel, profile: NotionProfile, seed: int | None = None
) -> VerificationReport:
    """Common knowledge of rationality confines play to the global
    elimination outcome: G_(common-knowledge-of-RAT) <= T-outcome."""
    return _verify_thm1("thm1.ii", "knowledge", game, model, profile, seed)


def verify_thm1iii(
    game: Game, profile: NotionProfile, seed: int | None = None
) -> VerificationReport:
    """The two-block knowledge model built around the elimination outcome
    achieves the reverse inclusion: T-outcome <= G_(common-knowledge-of-RAT).
    Holds for every notion, monotonic or not."""
    limit = elimination_limit(game, profile, GLOBAL)
    model = two_block_model(game, limit)
    _, recovered = _common_belief_play(model, profile)
    violated = not limit.is_subset_of(recovered)
    payload = {
        "kind": "thm1.iii",
        "game": game,
        "profile": profile,
        "model": model,
        "limit": limit,
        "recovered": recovered,
    }
    return _report("thm1.iii", 1, violated, payload, seed)


def thm2_hypothesis_clauses(
    game: Game, profile: NotionProfile, joint: JointStrategy
) -> list[str]:
    """Failing clauses of the counterexample hypothesis: the joint strategy
    must be outside the elimination outcome yet mutually optimal against its
    own components."""
    failures = []
    notions = profile.validate_for(game)
    limit = elimination_limit(game, profile, GLOBAL)
    indices = [game.strategy_index(i, label) for i, label in zip(range(game.n), joint)]
    if all(mask >> k & 1 for mask, k in zip(limit.masks, indices)):
        failures.append(f"joint strategy {joint} survives the elimination")
    for i, k in enumerate(indices):
        opponents = joint[:i] + joint[i + 1:]
        offset = game.opponent_offset(i, opponents)
        if not _holds_core(game, notions[i], i, k, game.full_masks[i], 1 << offset):
            failures.append(
                f"player {i + 1} strategy {joint[i]} is not "
                f"{profile.notions[i].value}-optimal against {opponents}"
            )
    return failures


def verify_thm2(
    game: Game, profile: NotionProfile, joint: JointStrategy, seed: int | None = None
) -> VerificationReport:
    """Build the singleton-possibility knowledge model and confirm that the
    common-knowledge inclusion fails at the given joint strategy.

    Raises :class:`HypothesisNotMet` when the joint strategy does not
    qualify. A ``counterexample`` verdict is the expected, successful result.
    """
    profile.validate_for(game)
    if len(joint) != game.n:
        raise ValidationError(f"joint strategy {tuple(joint)} needs {game.n} entries")
    clauses = thm2_hypothesis_clauses(game, profile, joint)
    if clauses:
        raise HypothesisNotMet(clauses)
    model = singleton_model(game)
    kstar, chosen = _common_belief_play(model, profile)
    limit = elimination_limit(game, profile, GLOBAL)
    k = model.space.index[state_label(joint)]
    violated = kstar >> k & 1 and not chosen.is_subset_of(limit)
    payload = {
        "kind": "thm2",
        "game": game,
        "profile": profile,
        "joint": joint,
        "model": model,
        "kstar": model.space.event_of(kstar),
        "chosen": chosen,
        "limit": limit,
    }
    return _report("thm2", 1, violated, payload, seed)


def search_thm2(game: Game, profile: NotionProfile, seed: int | None = None) -> VerificationReport:
    """Scan all joint strategies for one meeting the counterexample
    hypothesis; verify the first hit."""
    for tried, joint in enumerate(game.joint_strategies, 1):
        if not thm2_hypothesis_clauses(game, profile, joint):
            report = verify_thm2(game, profile, joint, seed=seed)
            return _report("thm2", tried, not report.holds, report.counterexample, seed,
                           (f"hypothesis witness {joint}",))
    notes = ("no joint strategy meets the hypothesis",)
    return _report("thm2", len(game.joint_strategies), False, None, seed, notes)


def _verify_cor(claim, game, model, rationality, dominance, seed, notes=(), **extras):
    """The corollaries' one check: play under RAT and CB(RAT) for the
    ``rationality`` profile lies inside the local limit of ``dominance``."""
    _require_model(game, model, "belief")
    limit = elimination_limit(game, NotionProfile.uniform(dominance, game.n), LOCAL)
    _, chosen = _common_belief_play(model, rationality)
    return _check_inclusion(claim, chosen, limit, seed, notes, game=game, model=model, **extras)


def verify_cor1(game: Game, model: EpistemicModel, seed: int | None = None) -> VerificationReport:
    """Point-belief rationality under true common belief (or common
    knowledge) confines play to the local strict-dominance outcome."""
    profile = NotionProfile.uniform(Notion.BR_POINT, game.n)
    report = _verify_cor(
        "cor1", game, model, profile, Notion.SD, seed, ("belief",), profile=profile
    )
    if model.model_class == "knowledge" and report.holds:
        notes = report.notes + ("knowledge",)
        return _report("cor1", report.instances_checked, False, None, seed, notes)
    return report


BELIEF_CLASS_NOTIONS = {
    "point": Notion.BR_POINT,
    "independent": Notion.BR_INDEPENDENT,
    "correlated": Notion.BR_CORRELATED,
}


def _belief_class_notion(belief_class: str) -> Notion:
    """The best-response notion of a belief class name."""
    if not isinstance(belief_class, str) or belief_class not in BELIEF_CLASS_NOTIONS:
        raise ValidationError(f"unknown belief class {belief_class!r}")
    return BELIEF_CLASS_NOTIONS[belief_class]


def verify_cor2(
    game: Game,
    model: EpistemicModel,
    belief_class: str = "correlated",
    seed: int | None = None,
) -> VerificationReport:
    """Best-response rationality (point, independent, or correlated beliefs)
    under true common belief confines play to the local mixed-strict-
    dominance outcome."""
    profile = NotionProfile.uniform(_belief_class_notion(belief_class), game.n)
    profile.validate_for(game)
    return _verify_cor("cor2", game, model, profile, Notion.MSD, seed, belief_class=belief_class)


# --- seeded random suites --------------------------------------------------------

def _suite_config(seed: int, target_class: str, notion=None, strategies=(2, 4), states=(2, 8)):
    return GeneratorConfig(
        seed=seed,
        # 2 or 3 players, but bri admits 2 only
        players=(2, 2) if notion is Notion.BR_INDEPENDENT else (2, 3),
        strategies=strategies,
        states=states,
        target_class=target_class,
    )


def _suite(claim, instances, seed, check, notes=()) -> VerificationReport:
    """The suites' one instance loop: ``check(seed + k)`` for k = 0, 1, ...
    The first failing report is returned under the suite's claim and seed,
    counting the instances up to its own; if none fails, a holds-on-all
    report."""
    as_int("instances", instances, 1)
    as_int("seed", seed)
    for k in range(instances):
        report = check(seed + k)
        if not report.holds:
            return _report(claim, k + 1, True, report.counterexample, seed, report.notes)
    return _report(claim, instances, False, None, seed, notes)


def _first_failure(reports) -> VerificationReport:
    """The first failing report, else the last; none after a failure is made."""
    for report in reports:
        if not report.holds:
            break
    return report


def thm1_suite(notion: Notion | str, instances: int, seed: int = 0) -> VerificationReport:
    """Random (game, belief model, knowledge model) instances for one
    monotonic notion; checks the common-belief and the common-knowledge
    inclusion on every instance."""
    profile_notion = parse_notion(notion)

    def check(instance_seed):
        config = _suite_config(instance_seed, "belief", profile_notion)
        game = generate_game(config)
        profile = NotionProfile.uniform(profile_notion, game.n)
        belief_model = generate_model(config, game)
        knowledge_model = generate_model(
            _suite_config(instance_seed, "knowledge", profile_notion), game)
        return _first_failure(verify_one(game, model, profile) for verify_one, model in
                              ((verify_thm1i, belief_model), (verify_thm1ii, knowledge_model)))

    return _suite("thm1.i+ii", instances, seed, check, (f"notion {profile_notion.value}",))


def thm1iii_suite(instances: int, seed: int = 0) -> VerificationReport:
    """The construction of the reverse inclusion on random games, for every
    notion including the non-monotonic ones."""

    def check(instance_seed):
        game = generate_game(_suite_config(instance_seed, "knowledge", strategies=(2, 3)))
        return _first_failure(verify_thm1iii(game, NotionProfile.uniform(notion, game.n))
                              for notion in Notion if notion is not Notion.BR_INDEPENDENT)

    return _suite("thm1.iii", instances, seed, check)


def cor_suite(
    which: str,
    instances: int,
    seed: int = 0,
    belief_class: str = "correlated",
) -> VerificationReport:
    """Random-model suites for the two dominance corollaries. cor2 with
    independent beliefs runs on 2-player games, the only ones it admits."""
    if which not in ("cor1", "cor2"):
        raise ValidationError(f"unknown corollary {which!r}; expected cor1 or cor2")
    notion = _belief_class_notion(belief_class)
    claim = CLAIMS[which]
    # a check that reads no belief class draws the games of point beliefs
    if "--belief-class" not in claim.reads[0]:
        notion = Notion.BR_POINT

    def check(instance_seed):
        target = "belief" if (instance_seed - seed) % 2 else "knowledge"
        config = _suite_config(instance_seed, target, notion, (2, 3), (2, 6))
        game = generate_game(config)
        model = generate_model(config, game)
        return claim.check(SimpleNamespace(game=game, model=model, belief_class=belief_class,
                                           seed=None))

    return _suite(which, instances, seed, check)


# restrictions per Pearce suite game: the full game and five sampled ones
PEARCE_RESTRICTIONS = 6


def _pearce_violation(game: Game, restriction: Restriction) -> dict | None:
    """Pearce's lemma on one restriction, by certificates: for each player's
    strategy ``s``, exactly one of a strictly dominating mixture and a
    supporting correlated belief exists, it re-checks in Fractions, and the
    local brc step keeps ``s`` iff the belief exists. The payload of the
    first strategy that fails, else None."""
    kept = u_local(NotionProfile.uniform(Notion.BR_CORRELATED, game.n), game, restriction)
    masks = restriction.masks
    for i in range(game.n):
        labels = game.strategies[i]
        opponents = game.opponent_mask(i, masks)
        profiles = [game.opponent_profile(i, o) for o in set_bits(opponents)]
        for s in set_bits(masks[i]):
            mixture, belief = _pearce_certificates(game, i, s, masks[i], opponents)
            in_step = kept.masks[i] >> s & 1 == 1
            if belief is None:
                certified = mixture is not None and not in_step and dominates(
                    game, i, mixture, labels[s], profiles, "strict")
            else:
                mine = expected_payoff(game, i, labels[s], belief)
                certified = mixture is None and in_step and all(
                    expected_payoff(game, i, labels[a], belief) <= mine
                    for a in set_bits(masks[i] & ~(1 << s)))
            if not certified:
                return {"kind": "pearce", "game": game, "restriction": restriction,
                        "player": i + 1, "strategy": labels[s], "msd": mixture, "brc": belief}
    return None


def pearce_suite(games: int, seed: int = 0) -> VerificationReport:
    """Pearce's lemma, certified per strategy (:func:`_pearce_violation`), on
    each game's full restriction and sampled restrictions with non-empty
    components."""
    rng = random.Random(as_int("seed", seed))
    checked = 0
    for k in range(as_int("games", games, 1)):
        game = generate_game(_suite_config(seed + k, "belief"))
        candidates = [game.full_restriction()]
        while len(candidates) < PEARCE_RESTRICTIONS:
            candidate = sample_restriction(rng, game)
            if not candidate.has_empty_component():
                candidates.append(candidate)
        for restriction in candidates:
            checked += 1
            payload = _pearce_violation(game, restriction)
            if payload is not None:
                return _report("pearce", checked, True, payload, seed)
    return _report("pearce", checked, False, None, seed)


# the inclusion lemma's operator pairs (op1 monotonic, op2 contracting)
LEMMA_PAIRS = (
    (Notion.BR_POINT, GLOBAL, Notion.SD, LOCAL),
    (Notion.MSD, GLOBAL, Notion.MSD, LOCAL),
)
# the largest lattice whose every restriction the lemma's premises are checked on
EXHAUSTIVE_LIMIT = 1 << 6
# sampled restrictions, and sampled pairs for op1's monotonicity, per pair
LEMMA_SAMPLES = 40


def _inclusion_lemma_violation(game: Game, instance_seed: int) -> dict | None:
    """The inclusion lemma on one suite instance, for each operator pair: if
    op1 <= op2 pointwise, op1 is monotonic and op2 contracting, op1's outcome
    lies inside op2's. The premises are checked on every restriction of a
    lattice of at most :data:`EXHAUSTIVE_LIMIT`, else on the full game and
    samples, and op1's monotonicity on sampled pairs, all drawn from
    ``Random(instance_seed)``. The payload of the first failure, else None: a
    premise with its ``restriction`` (and ``larger``), or both outcomes."""
    full = game.full_restriction()
    for notion1, mode1, notion2, mode2 in LEMMA_PAIRS:
        op1 = operator(NotionProfile.uniform(notion1, game.n), game, mode1)
        op2 = operator(NotionProfile.uniform(notion2, game.n), game, mode2)
        payload = {"kind": "lem.inc", "game": game, "instance_seed": instance_seed,
                   "op1": op1.name, "op2": op2.name}
        if lattice_size(game) <= EXHAUSTIVE_LIMIT:
            candidates = enumerate_restrictions(game)
        else:
            rng = random.Random(instance_seed)
            candidates = [full] + [sample_restriction(rng, game) for _ in range(LEMMA_SAMPLES)]
        for candidate in candidates:
            image1 = op1.apply(candidate)
            image2 = op2.apply(candidate)
            if not image1.is_subset_of(image2):
                return {**payload, "premise": "pointwise inclusion op1(G) <= op2(G)",
                        "restriction": candidate}
            if not image2.is_subset_of(candidate):
                return {**payload, "premise": "op2 contracting", "restriction": candidate}
        rng = random.Random(instance_seed)
        for _ in range(LEMMA_SAMPLES):
            big = sample_restriction(rng, game)
            small = sample_restriction(rng, game, within=big)
            if not op1.apply(small).is_subset_of(op1.apply(big)):
                return {**payload, "premise": "op1 monotonic", "restriction": small, "larger": big}
        outcome1 = iterate_to_outcome(op1, full).outcome
        try:
            outcome2 = iterate_to_outcome(op2, full).outcome
        except NonContractingStep as exc:
            return {**payload, "premise": "op2 contracting", "restriction": exc.before}
        if not outcome1.is_subset_of(outcome2):
            return {**payload, "outcome1": outcome1, "outcome2": outcome2}
    return None


def lemma_inc_suite(games: int, seed: int = 0) -> VerificationReport:
    """The inclusion lemma premises and conclusion for the operator pairs
    (global point-best-response, local strict dominance) and (global mixed
    dominance, local mixed dominance) on random games."""

    def check(instance_seed):
        game = generate_game(_suite_config(instance_seed, "belief", strategies=(2, 3)))
        payload = _inclusion_lemma_violation(game, instance_seed)
        return _report("lem.inc", 1, payload is not None, payload, seed)

    return _suite("lem.inc", games, seed, check)


# --- predicate monotonicity -------------------------------------------------------

def _violations(game: Game, notion: Notion, i: int, strategies, pairs):
    """The one monotonicity test: for each of player ``i``'s strategy
    indices and each (smaller, larger) pair of opponent offset masks, in that
    order, the witness (player from 1, strategy, smaller, larger) when the
    predicate holds against the smaller set and fails against the larger.
    Each opponent set in a witness is a tuple of profiles in offset order."""
    alternatives = game.full_masks[i]
    for k in strategies:
        for small, big in pairs:
            if (_holds_core(game, notion, i, k, alternatives, small)
                    and not _holds_core(game, notion, i, k, alternatives, big)):
                yield (i + 1, game.strategies[i][k],
                       *(tuple(game.opponent_profile(i, o) for o in set_bits(mask))
                         for mask in (small, big)))


def nonmonotonicity_witnesses(game: Game, notion: Notion):
    """Monotonicity violations (player, strategy, smaller, larger), exhaustive
    over players, strategies and opponent-subset pairs, in that order. Raises
    a :class:`ValidationError` before evaluating any predicate when some player
    has more opponent-subset pairs than the enumeration budget."""
    for i in range(game.n):
        profiles = math.prod(len(c) for j, c in enumerate(game.strategies) if j != i)
        if 4**profiles > ENUMERATION_BUDGET:
            raise ValidationError(
                f"player {i + 1} has {profiles} opponent profiles, so 4**{profiles} "
                f"opponent-subset pairs; budget is {ENUMERATION_BUDGET}"
            )
    for i in range(game.n):
        # every subset of the opponent offsets as a mask, smallest first
        offsets = list(set_bits(game.opponent_mask(i, game.full_masks)))
        subsets = [
            sum(1 << o for o in combo)
            for size in range(len(offsets) + 1)
            for combo in itertools.combinations(offsets, size)
        ]
        pairs = [(small, big) for small in subsets for big in subsets
                 if small & ~big == 0 and small != big]
        yield from _violations(game, notion, i, range(len(game.strategies[i])), pairs)


def _monotonicity_violation(game: Game, witnesses) -> dict | None:
    """The payload of the first witness that ``witnesses(notion)`` yields
    for a monotonic notion, else None."""
    for notion in MONOTONIC_NOTIONS:
        witness = next(witnesses(notion), None)
        if witness:
            return {"kind": "lem.mono", "game": game, "notion": notion, "witness": witness}
    return None


def verify_monotonicity(game: Game, seed: int | None = None) -> VerificationReport:
    """Monotonicity of the four monotonic notions on one game, exhaustive
    over opponent-set pairs. A holding report notes the game's count of
    weak-dominance non-monotonicity witnesses."""
    payload = _monotonicity_violation(game, partial(nonmonotonicity_witnesses, game))
    if payload is not None:
        return _report("lem.mono", 1, True, payload, seed)
    count = sum(1 for _ in nonmonotonicity_witnesses(game, Notion.WD))
    notes = (f"wd non-monotonicity witnesses on this game: {count}",)
    return _report("lem.mono", 1, False, None, seed, notes)


def monotonicity_suite(small_samples: int = 5000, large_samples: int = 1000,
                       seed: int = 0) -> VerificationReport:
    """Monotonicity of the four monotonic notions: exhaustive opponent-set
    pairs on sampled 2x2 games with payoffs in {0,1,2}, then random larger
    games with sampled subset pairs, both phases from one random stream."""
    if as_int("small_samples", small_samples, 0) + as_int("large_samples", large_samples, 0) < 1:
        raise ValidationError("monotonicity_suite needs at least one game")
    rng = random.Random(as_int("seed", seed))
    checked = 0
    pool = (Fraction(0), Fraction(1), Fraction(2))
    tables = list(itertools.product(pool, repeat=4))
    for _ in range(small_samples):
        game = Game((("a", "b"), ("x", "y")), (rng.choice(tables), rng.choice(tables)))
        checked += 1
        payload = _monotonicity_violation(game, partial(nonmonotonicity_witnesses, game))
        if payload is not None:
            return _report("lem.mono", checked, True, payload, seed)

    for k in range(large_samples):
        game = generate_game(_suite_config(seed + k, "belief", strategies=(2, 3)))
        checked += 1
        for i in range(game.n):
            opponents = game.opponent_mask(i, game.full_masks)
            pairs = []
            for _ in range(4):
                big = sum(1 << o for o in set_bits(opponents) if rng.random() < 0.7)
                small = sum(1 << o for o in set_bits(big) if rng.random() < 0.6)
                pairs.append((small, big))
            strategies = range(len(game.strategies[i]))
            payload = _monotonicity_violation(
                game, lambda notion: _violations(game, notion, i, strategies, pairs))
            if payload is not None:
                return _report("lem.mono", checked, True, payload, seed)
    return _report("lem.mono", checked, False, None, seed)


# --- the claim table --------------------------------------------------------------

def _thm1_suites(inputs) -> VerificationReport:
    """The thm1 suite for the one notion ``inputs.profile`` names, else for
    each monotonic notion in turn, up to the first that fails."""
    notions = MONOTONIC_NOTIONS
    if inputs.profile is not None:
        notions = profile_names(inputs.profile)  # thm1_suite reads each name
        if len(notions) != 1:
            raise ValidationError(f"a random suite takes one notion, got {inputs.profile!r}")
    return _first_failure(thm1_suite(notion, inputs.samples, seed=inputs.seed)
                          for notion in notions)


def _witness_reproduces(payload: dict) -> bool:
    """A monotonicity payload's witness, re-run through :func:`_violations`."""
    game, (player, label, smaller, larger) = payload["game"], payload["witness"]
    i = player - 1
    notion = evaluated_notion(payload["notion"], game.n)
    s = game.strategy_index(i, label)
    small, big = (_opponent_set_mask(game, i, profiles) for profiles in (smaller, larger))
    return any(_violations(game, notion, i, (s,), ((small, big),)))


class Claim(Value):
    """One claim. ``kind`` is its engine id and its payloads' kind. ``reads``
    pairs the options its check reads given --game (None: no check) with those
    its suite reads (None: no suite); a check that reads --model needs it.
    ``check`` reads a namespace of game, model, profile, joint, belief_class
    and seed, ``suite`` one of samples, seed, profile (its text) and
    belief_class. ``replay(payload)`` is True when the violation reproduces;
    None re-runs ``check`` on the payload. They look the checkers and suites
    up when called, so a wrapper put on one of those sees the call."""
    _fields = ("kind", "reads", "check", "suite", "replay")

    def __init__(self, kind: str, reads: tuple, check, suite, replay=None):
        self._kind, self._reads = kind, reads
        self._check, self._suite, self._replay = check, suite, replay


CLAIMS = {
    "thm1i": Claim("thm1.i", (("--model", "--profile"), ("--profile", "--samples")),
                   lambda a: verify_thm1i(a.game, a.model, a.profile, seed=a.seed),
                   _thm1_suites),
    "thm1ii": Claim("thm1.ii", (("--model", "--profile"), ("--profile", "--samples")),
                    lambda a: verify_thm1ii(a.game, a.model, a.profile, seed=a.seed),
                    _thm1_suites),
    "thm1iii": Claim("thm1.iii", (("--profile",), ("--samples",)),
                     lambda a: verify_thm1iii(a.game, a.profile, seed=a.seed),
                     lambda a: thm1iii_suite(a.samples, seed=a.seed)),
    "thm2": Claim("thm2", (("--profile", "--joint"), None),
                  lambda a: search_thm2(a.game, a.profile, seed=a.seed) if a.joint is None
                  else verify_thm2(a.game, a.profile, a.joint, seed=a.seed), None),
    "cor1": Claim("cor1", (("--model",), ("--samples",)),
                  lambda a: verify_cor1(a.game, a.model, seed=a.seed),
                  lambda a: cor_suite("cor1", a.samples, seed=a.seed)),
    "cor2": Claim("cor2", (("--model", "--belief-class"), ("--belief-class", "--samples")),
                  lambda a: verify_cor2(a.game, a.model, a.belief_class, seed=a.seed),
                  lambda a: cor_suite("cor2", a.samples, a.seed, a.belief_class)),
    "pearce": Claim("pearce", (None, ("--samples",)), None,
                    lambda a: pearce_suite(a.samples, seed=a.seed),
                    lambda p: _pearce_violation(p["game"], p["restriction"]) is not None),
    "lemma-inc": Claim("lem.inc", (None, ("--samples",)), None,
                       lambda a: lemma_inc_suite(a.samples, seed=a.seed),
                       lambda p: _inclusion_lemma_violation(p["game"], p["instance_seed"])
                       is not None),
    "monotonicity": Claim("lem.mono", ((), ("--samples",)),
                          lambda a: verify_monotonicity(a.game, seed=a.seed),
                          lambda a: monotonicity_suite(a.samples, max(1, a.samples // 5), a.seed),
                          _witness_reproduces),
}


def replay(report: VerificationReport) -> bool:
    """Re-run the single instance recorded in a counterexample payload;
    returns True when the violation reproduces."""
    payload = report.counterexample
    if payload is None:
        return False
    claim = next((c for c in CLAIMS.values() if c.kind == payload["kind"]), None)
    if claim is None:
        raise ValidationError(f"unknown payload kind {payload['kind']!r}")
    if claim.replay is not None:
        return claim.replay(payload)
    return not claim.check(SimpleNamespace(seed=None, **payload)).holds
