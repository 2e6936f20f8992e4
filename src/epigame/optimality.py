"""Optimality predicates for strategies: strict/weak dominance, their
mixed-strategy versions, and best response to point/independent/correlated
beliefs.

The predicate ``holds(notion, game, i, s_i, G_i, G_minus_i)`` decides whether
``s_i`` is optimal among the alternatives ``G_i`` against the joint opponent
strategies ``G_minus_i``. Mixed dominance and correlated best response reduce
to exact rational linear programs.

Empty opponent sets never occur along eliminations that start from a full
game, but the predicates are total. The convention follows the literal
quantifier structure of the definitions, with a strict-dominance relation
that is irreflexive even over an empty opponent set:

* sd/msd hold iff ``G_i`` offers no alternative distinct from ``s_i``
  (any distinct alternative dominates vacuously),
* wd/mwd hold (a weak dominator needs a strict witness, and there is none),
* best-response notions fail (no belief exists over an empty set).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptyOpponentSet,
    EmptySupport,
    InvariantViolated,
    UnsupportedNotion,
    ValidationError,
)
from .games import (
    CorrelatedBelief,
    Game,
    JointStrategy,
    MixedStrategy,
    expected_payoff,
    insert_own,
    per_game,
)
from .simplex import Status, matrix_game_value, solve

ZERO = Fraction(0)
ONE = Fraction(1)


class Notion(enum.Enum):
    SD = "sd"
    WD = "wd"
    MSD = "msd"
    MWD = "mwd"
    BR_POINT = "brp"
    BR_CORRELATED = "brc"
    BR_INDEPENDENT = "bri"

    def __str__(self) -> str:
        return self.value


MONOTONIC_NOTIONS = frozenset({Notion.SD, Notion.MSD, Notion.BR_POINT, Notion.BR_CORRELATED})
DOMINANCE_NOTIONS = frozenset({Notion.SD, Notion.WD, Notion.MSD, Notion.MWD})
BEST_RESPONSE_NOTIONS = frozenset({Notion.BR_POINT, Notion.BR_CORRELATED, Notion.BR_INDEPENDENT})


def parse_notion(text: str) -> Notion:
    try:
        return Notion(text)
    except ValueError:
        raise ValidationError(
            f"unknown notion {text!r}; expected one of "
            + ", ".join(n.value for n in Notion)
        ) from None


@dataclass(frozen=True)
class DominanceVerdict:
    dominated: bool
    witness: MixedStrategy | None
    optimum: Fraction | None


@dataclass(frozen=True)
class BestResponseVerdict:
    is_best_response: bool
    witness: CorrelatedBelief | None


def _canonical_inputs(game: Game, i: int, s_i: str, G_i, G_minus_i):
    """Validate ``s_i`` and every label; return the alternatives in label
    order and the distinct opponent profiles in product order."""
    game.validate_strategy(i, s_i)
    chosen = set(G_i)
    for s in chosen:
        game.validate_strategy(i, s)
    others = [j for j in range(game.n) if j != i]
    seen = set()
    for joint in G_minus_i:
        joint = tuple(joint)
        if len(joint) != game.n - 1:
            raise ValidationError(
                f"opponent profile {joint} needs {game.n - 1} entries"
            )
        for j, label in zip(others, joint):
            game.validate_strategy(j, label)
        seen.add(joint)

    def key(joint: JointStrategy) -> tuple[int, ...]:
        return tuple(game.strategy_index(j, s) for j, s in zip(others, joint))

    alternatives = tuple(s for s in game.strategies[i] if s in chosen)
    return alternatives, tuple(sorted(seen, key=key))


def holds(notion, game: Game, i: int, s_i: str, G_i, G_minus_i) -> bool:
    """Exact truth value of the optimality predicate.

    ``s_i`` must be a strategy of the game but need not belong to ``G_i``;
    the global elimination operator evaluates current strategies against the
    player's initial strategy set. The labels are validated here; the
    engine's own callers, whose inputs are canonical already, evaluate the
    memoised core directly.
    """
    if isinstance(notion, str):
        notion = parse_notion(notion)
    alternatives, opponents = _canonical_inputs(game, i, s_i, G_i, G_minus_i)
    if notion is Notion.BR_INDEPENDENT:
        if game.n != 2:
            raise UnsupportedNotion(
                "best response to independent beliefs is only decidable here "
                "for 2-player games (where it coincides with correlated beliefs)"
            )
        notion = Notion.BR_CORRELATED
    return _holds_cached(game, notion, i, s_i, alternatives, opponents)


@per_game
def _holds_cached(game, notion, i, s_i, alternatives, opponents):
    """The predicate on canonical inputs: ``alternatives`` in label order,
    ``opponents`` distinct and in product order. ``bri`` is read as ``brc``."""
    if not opponents:
        if notion in (Notion.SD, Notion.MSD):
            return all(s == s_i for s in alternatives)
        if notion in (Notion.WD, Notion.MWD):
            return True
        return False

    if notion is Notion.SD:
        return not _pure_strict_dominator(game, i, s_i, alternatives, opponents)
    if notion is Notion.WD:
        return not _pure_weak_dominator(game, i, s_i, alternatives, opponents)
    if notion is Notion.MSD:
        if _pure_strict_dominator(game, i, s_i, alternatives, opponents):
            return False
        if _mixed_reduces_to_pure(s_i, alternatives, opponents):
            return True
        # no mixture beats s_i strictly at a profile where it already tops
        # every support strategy
        if _point_best_response(game, i, s_i, alternatives, opponents):
            return True
        return not _dominance_verdict(game, i, s_i, alternatives, opponents, "strict").dominated
    if notion is Notion.MWD:
        if _pure_weak_dominator(game, i, s_i, alternatives, opponents):
            return False
        if _mixed_reduces_to_pure(s_i, alternatives, opponents):
            return True
        # a weak dominator matches s_i where it is strictly best, which
        # forces the degenerate mixture
        if _point_strictly_best(game, i, s_i, alternatives, opponents):
            return True
        return not _dominance_verdict(game, i, s_i, alternatives, opponents, "weak").dominated
    if notion is Notion.BR_POINT:
        return _point_best_response(game, i, s_i, alternatives, opponents)

    # correlated best response
    others = [s for s in alternatives if s != s_i]
    if not others:
        return True
    if len(opponents) == 1:
        return _point_best_response(game, i, s_i, alternatives, opponents)
    if len(others) == 1:
        rival = others[0]
        return any(
            game.payoff(i, insert_own(t, i, s_i)) >= game.payoff(i, insert_own(t, i, rival))
            for t in opponents
        )
    # point beliefs are correlated beliefs
    if _point_best_response(game, i, s_i, alternatives, opponents):
        return True
    return _br_verdict(game, i, s_i, alternatives, opponents).is_best_response


def _pure_strict_dominator(game, i, s_i, alternatives, opponents):
    mine = [game.payoff(i, insert_own(t, i, s_i)) for t in opponents]
    for s in alternatives:
        if s == s_i:
            continue
        if all(
            game.payoff(i, insert_own(t, i, s)) > p for t, p in zip(opponents, mine)
        ):
            return s
    return None


def _pure_weak_dominator(game, i, s_i, alternatives, opponents):
    mine = [game.payoff(i, insert_own(t, i, s_i)) for t in opponents]
    for s in alternatives:
        if s == s_i:
            continue
        strict = False
        for t, p in zip(opponents, mine):
            q = game.payoff(i, insert_own(t, i, s))
            if q < p:
                break
            if q > p:
                strict = True
        else:
            if strict:
                return s
    return None


def _mixed_reduces_to_pure(s_i, alternatives, opponents) -> bool:
    # Over one opponent profile, or with at most one alternative besides s_i,
    # a dominating mixture implies a dominating pure strategy.
    return len(opponents) == 1 or len([s for s in alternatives if s != s_i]) <= 1


def _point_best_response(game, i, s_i, alternatives, opponents):
    for t in opponents:
        p = game.payoff(i, insert_own(t, i, s_i))
        if all(p >= game.payoff(i, insert_own(t, i, s)) for s in alternatives):
            return True
    return False


def _point_strictly_best(game, i, s_i, alternatives, opponents):
    for t in opponents:
        p = game.payoff(i, insert_own(t, i, s_i))
        if all(
            p > game.payoff(i, insert_own(t, i, s))
            for s in alternatives
            if s != s_i
        ):
            return True
    return False


def solve_dominance_lp(
    game: Game,
    i: int,
    s_i: str,
    support,
    G_minus_i,
    mode: str,
) -> DominanceVerdict:
    """Decide whether some mixture over ``support`` dominates ``s_i`` over
    ``G_minus_i``.

    Strict mode maximizes the uniform margin eps over the mixture simplex
    (a matrix-game value); dominated iff eps > 0. Weak mode maximizes the
    total slack of the pointwise comparisons; dominated iff the program is
    feasible with positive total slack.
    """
    if mode not in ("strict", "weak"):
        raise ValidationError(f"mode must be 'strict' or 'weak', got {mode!r}")
    support, opponents = _canonical_inputs(game, i, s_i, support, G_minus_i)
    if not opponents:
        raise EmptyOpponentSet("dominance LP needs at least one opponent profile")
    if not support:
        raise EmptySupport("dominance LP needs a non-empty support")
    return _dominance_verdict(game, i, s_i, support, opponents, mode)


@per_game
def _dominance_verdict(game, i, s_i, support, opponents, mode) -> DominanceVerdict:
    mine = [game.payoff(i, insert_own(t, i, s_i)) for t in opponents]
    k = len(support)
    m = len(opponents)

    if mode == "strict":
        # eps* = max over mixtures of the worst payoff advantage
        diffs = [
            [game.payoff(i, insert_own(t, i, s)) - p for t, p in zip(opponents, mine)]
            for s in support
        ]
        optimum, weights, _ = matrix_game_value(diffs)
        if optimum > 0:
            witness = MixedStrategy(i, tuple(zip(support, weights)))
            return DominanceVerdict(True, witness, optimum)
        return DominanceVerdict(False, None, optimum)

    # weak mode: variables m_1..m_k >= 0, slack_1..slack_m >= 0 with
    # sum_j m_j u(s_j, t_r) - slack_r = u(s_i, t_r) and sum_j m_j = 1
    rows = [
        [game.payoff(i, insert_own(t, i, s)) for s in support]
        + [-ONE if q == r else ZERO for q in range(m)]
        for r, t in enumerate(opponents)
    ]
    rows.append([ONE] * k + [ZERO] * m)
    solution = solve(rows, mine + [ONE], [ZERO] * k + [ONE] * m)
    if solution.status is Status.INFEASIBLE:
        return DominanceVerdict(False, None, None)
    if solution.status is not Status.OPTIMAL:
        raise InvariantViolated("weak-dominance program unbounded; its slacks are bounded")
    if solution.value > 0:
        weights = tuple(zip(support, solution.assignment[:k]))
        return DominanceVerdict(True, MixedStrategy(i, weights), solution.value)
    return DominanceVerdict(False, None, solution.value)


def solve_br_lp(game: Game, i: int, s_i: str, G_i, G_minus_i) -> BestResponseVerdict:
    """Decide whether ``s_i`` is a best response within ``G_i`` to some
    correlated belief over ``G_minus_i``.

    The belief simplex is searched exactly: the best achievable worst-case
    advantage of ``s_i`` over its alternatives is another matrix-game value,
    and ``s_i`` is supported iff it is non-negative.
    """
    alternatives, opponents = _canonical_inputs(game, i, s_i, G_i, G_minus_i)
    if not opponents:
        raise EmptyOpponentSet("best-response LP needs at least one opponent profile")
    return _br_verdict(game, i, s_i, alternatives, opponents)


@per_game
def _br_verdict(game, i, s_i, alternatives, opponents) -> BestResponseVerdict:
    mine = [game.payoff(i, insert_own(t, i, s_i)) for t in opponents]
    rivals = [s for s in alternatives if s != s_i]
    if not rivals:
        witness = CorrelatedBelief(
            tuple(
                (t, ONE if r == 0 else ZERO) for r, t in enumerate(opponents)
            )
        )
        return BestResponseVerdict(True, witness)
    # the rivals' best guaranteed advantage over s_i; the belief that holds
    # it down is the column solution, and s_i is supported iff it is <= 0
    rival_edge = [
        [game.payoff(i, insert_own(t, i, s)) - p for t, p in zip(opponents, mine)]
        for s in rivals
    ]
    value, _, belief = matrix_game_value(rival_edge)
    if value <= 0:
        witness = CorrelatedBelief(tuple(zip(opponents, belief)))
        return BestResponseVerdict(True, witness)
    return BestResponseVerdict(False, None)


# --- exact re-verification of witnesses, used by traces and tests -----------

def dominates(game: Game, i: int, mix: MixedStrategy, s_i: str, G_minus_i, mode: str) -> bool:
    """Re-check a dominance witness under exact arithmetic."""
    opponents = list(G_minus_i)
    if not opponents:
        return False
    strict_seen = False
    for t in opponents:
        t = tuple(t)
        value = sum(
            w * game.payoff(i, insert_own(t, i, s)) for s, w in mix.weights
        )
        p = game.payoff(i, insert_own(t, i, s_i))
        if mode == "strict":
            if value <= p:
                return False
        else:
            if value < p:
                return False
            if value > p:
                strict_seen = True
    return True if mode == "strict" else strict_seen


def supports_best_response(
    game: Game, i: int, belief: CorrelatedBelief, s_i: str, G_i
) -> bool:
    """Re-check a best-response witness under exact arithmetic."""
    own = expected_payoff(game, i, s_i, belief)
    return all(own >= expected_payoff(game, i, s, belief) for s in G_i)
