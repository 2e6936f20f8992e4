"""Optimality predicates for strategies: strict/weak dominance, their
mixed-strategy versions, and best response to point/independent/correlated
beliefs.

The predicate ``holds(notion, game, i, s_i, G_i, G_minus_i)`` decides whether
``s_i`` is optimal among the alternatives ``G_i`` against the joint opponent
strategies ``G_minus_i``. Mixed dominance and correlated best response reduce
to exact rational linear programs. A notion, a :class:`Notion` or its name,
is read by :func:`parse_notion` alone; :func:`evaluated_notion` holds the one
``bri`` rule.

A verdict reads only the sign of an exact optimum, and only an eliminated
strategy's witness is printed. ``msd`` and ``brc`` are one predicate by
Pearce's lemma (Pearce 1984): one matrix game decides both (memoised in
``_strict_decision``), its row mixture is both elimination witnesses and its
column mixture is ``solve_br_lp``'s belief, each Bland's (``_strict_game``)
where the decision cannot prove it unique. ``mwd`` is
decided by the memoised one-phase program of ``_weak_program``, and its
witness is that program's optimal vertex where the optimum is unique; the
two-phase ``solve`` runs only as the witness's fallback. ``dominates``, the
exact re-check of a witness, lives in ``games`` and is imported here.

Inside, ``G_i`` is the strategy mask ``alternatives`` and ``G_minus_i`` the
mask ``opponents`` of flat opponent offsets (place in a payoff table, own
index 0). The predicate is computed on every call; the two decisions it
reads, ``_strict_decision`` and ``_weak_program``, are memoised, keyed on
these masks. Offsets are listed, ascending in product order, only to set up
a program and to label a witness.

The pure tests are bitmask tests. ``game.beats[i][s]`` holds, per strategy
``a`` of player ``i``, the mask of the flat opponent offsets at which ``a``
pays more than ``s``; the game builds the table for every player on first
use and frees it with itself. Against the opponent mask ``O``, ``a``
strictly dominates ``s`` iff ``O`` lies inside ``a``'s mask, and ``s`` is
a point best response iff some bit of ``O`` is in no alternative's mask.
The ``sd``, ``wd`` and ``brp`` verdicts and the shortcuts in front of every
program read these masks; payoff rows are read only to set the programs up.

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
from fractions import Fraction

from .errors import InvariantViolated, ValidationError
from .games import (
    CorrelatedBelief,
    Game,
    MixedStrategy,
    Value,
    as_tuple,
    dominates,
    per_game,
    set_bits,
)
from .simplex import Status, matrix_game_value, optimum_from_origin, solve

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


MONOTONIC_NOTIONS = (Notion.SD, Notion.MSD, Notion.BR_POINT, Notion.BR_CORRELATED)


def parse_notion(value) -> Notion:
    """The one reader of notions: a :class:`Notion` or its name."""
    if isinstance(value, Notion):
        return value
    try:
        return Notion(value)
    except ValueError:
        raise ValidationError(
            f"unknown notion {value!r}; expected one of "
            + ", ".join(n.value for n in Notion)
        ) from None


def evaluated_notion(value, n: int) -> Notion:
    """The notion the predicate core evaluates for ``value`` on an
    ``n``-player game: ``bri`` is evaluated as ``brc``, with which it
    coincides on 2-player games, and is a :class:`ValidationError` on any other."""
    notion = parse_notion(value)
    if notion is not Notion.BR_INDEPENDENT:
        return notion
    if n != 2:
        raise ValidationError("independent-belief best response requires exactly 2 players")
    return Notion.BR_CORRELATED


class DominanceVerdict(Value):
    _fields = ("dominated", "witness", "optimum")

    def __init__(self, dominated: bool, witness: MixedStrategy | None, optimum: Fraction | None):
        self._dominated, self._witness, self._optimum = dominated, witness, optimum


class BestResponseVerdict(Value):
    _fields = ("is_best_response", "witness")

    def __init__(self, is_best_response: bool, witness: CorrelatedBelief | None):
        self._is_best_response, self._witness = is_best_response, witness


def _canonical_inputs(game: Game, i: int, s_i: str, G_i, G_minus_i):
    """Validate ``s_i`` and every label; return the index of ``s_i``, the
    alternatives' strategy mask and the opponent profiles' offset mask."""
    s = game.strategy_index(i, s_i)
    G_i, G_minus_i = as_tuple(G_i), as_tuple(G_minus_i)  # not a string's letters
    alternatives = sum(1 << k for k in {game.strategy_index(i, a) for a in G_i})
    return s, alternatives, _opponent_set_mask(game, i, G_minus_i)


def _opponent_set_mask(game: Game, i: int, G_minus_i) -> int:
    """The offset mask of a set of labelled opponent profiles, each validated."""
    return sum(1 << o for o in {game.opponent_offset(i, joint) for joint in as_tuple(G_minus_i)})


def holds(notion, game: Game, i: int, s_i: str, G_i, G_minus_i) -> bool:
    """Exact truth value of the optimality predicate.

    ``s_i`` must be a strategy of the game but need not belong to ``G_i``;
    the global elimination operator evaluates current strategies against the
    player's initial strategy set. The notion and the labels are validated
    here; the engine's own callers, whose inputs are canonical already,
    evaluate the core, ``_holds_core``, directly.
    """
    notion = evaluated_notion(notion, game.n)
    s, alternatives, opponents = _canonical_inputs(game, i, s_i, G_i, G_minus_i)
    return _holds_core(game, notion, i, s, alternatives, opponents)


def _holds_core(game, notion, i, s, alternatives, opponents):
    """The predicate on indices into ``game.scaled_payoffs``: ``s`` is one
    of player ``i``'s strategy indices, ``alternatives`` a strategy mask,
    ``opponents`` a mask of flat opponent offsets and ``notion`` as
    :func:`evaluated_notion` returns it."""
    rivals = alternatives & ~(1 << s)
    if not opponents:
        if notion in (Notion.SD, Notion.MSD):
            return not rivals
        if notion in (Notion.WD, Notion.MWD):
            return True
        return False

    if notion is Notion.SD:
        return _pure_dominator(game, i, s, alternatives, opponents, True) is None
    if notion is Notion.WD:
        return _pure_dominator(game, i, s, alternatives, opponents, False) is None
    if notion is Notion.BR_POINT:
        return _unbeaten(game, i, s, alternatives, opponents) != 0
    if notion is Notion.MWD:
        if _pure_dominator(game, i, s, alternatives, opponents, False) is not None:
            return False
        if _at_most_one(opponents) or _at_most_one(rivals):
            return True
        # a weak dominator matches s where it is strictly best, which
        # forces the degenerate mixture
        if _point_strictly_best(game, i, s, alternatives, opponents):
            return True
        return _weak_program(game, i, s, rivals, opponents)[0] <= 0

    # msd and brc, one predicate by Pearce's lemma: no mixture dominates s
    # strictly iff some correlated belief supports it
    if _pure_dominator(game, i, s, alternatives, opponents, True) is not None:
        return False
    # no mixture beats s strictly at a profile where it already tops every
    # alternative
    if _unbeaten(game, i, s, alternatives, opponents):
        return True
    return _strict_decision(game, i, s, alternatives, opponents)[0] <= 0


def _at_most_one(mask: int) -> bool:
    # Over one opponent profile, or with at most one rival besides s, a
    # dominating mixture implies a dominating pure strategy.
    return mask & (mask - 1) == 0


def _pure_dominator(game, i, s, alternatives, opponents, strict: bool):
    """The first alternative that dominates ``s`` over the (non-empty)
    opponent mask: better at every offset when ``strict``, otherwise at
    least as good at every one and better at some."""
    beats = game.beats[i]
    beats_s = beats[s]
    while alternatives:
        low = alternatives & -alternatives
        a = low.bit_length() - 1
        if strict:
            if not opponents & ~beats_s[a]:
                return a
        elif opponents & beats_s[a] and not opponents & beats[a][s]:
            return a
        alternatives ^= low
    return None


def _unbeaten(game, i, s, alternatives, opponents):
    """The mask of the opponent offsets at which no alternative beats ``s``."""
    beats_s = game.beats[i][s]
    while alternatives:
        low = alternatives & -alternatives
        opponents &= ~beats_s[low.bit_length() - 1]
        alternatives ^= low
    return opponents


def _point_strictly_best(game, i, s, alternatives, opponents):
    """Whether ``s`` beats every other alternative at some opponent offset."""
    beats = game.beats[i]
    for a in set_bits(alternatives & ~(1 << s)):
        opponents &= beats[a][s]
    return opponents != 0


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
    s, support, opponents = _canonical_inputs(game, i, s_i, support, G_minus_i)
    if not opponents:
        raise ValidationError("dominance LP needs at least one opponent profile")
    if not support:
        raise ValidationError("dominance LP needs a non-empty support")
    return _dominance_verdict(game, i, s, support, opponents, mode)


@per_game
def _strict_decision(game, i, s, support, opponents):
    """``_strict_game``'s value, and its row mixture where that is provably
    Bland's, else None, by ``matrix_game_value(..., decide=True)``."""
    edges = _edges(game, i, s, support, opponents)
    return matrix_game_value(edges, game.scaled_payoffs[i][0], decide=True)[:2]


def _strict_game(game, i, s, support, opponents):
    """Bland's value, row mixture and column mixture of the matrix game of
    ``u(a, t) - u(s, t)`` over ``a`` in ``support`` and the opponent offsets
    ``t``, both ascending. By Pearce's lemma this one game decides msd and
    brc: a value > 0 makes the row mixture a strictly dominating mixture,
    and a value <= 0 makes the column mixture a correlated belief under which
    no alternative beats ``s``; it runs for a mixture ``_strict_decision``
    does not give. Posed on player ``i``'s scaled payoffs; the mixtures do not
    see the scale and the value divides it out."""
    return matrix_game_value(_edges(game, i, s, support, opponents), game.scaled_payoffs[i][0])


def _dominance_verdict(game, i, s, support, opponents, mode) -> DominanceVerdict:
    """Both programs are posed on player ``i``'s scaled payoffs; the
    mixtures do not see the scale and the optimum is scaled back."""
    labels = game.strategies[i]
    if mode == "strict":
        optimum, weights = _strict_decision(game, i, s, support, opponents)
        if optimum <= 0:
            return DominanceVerdict(False, None, optimum)
        weights = weights or _strict_game(game, i, s, support, opponents)[1]
        witness = MixedStrategy(i, tuple(zip((labels[a] for a in set_bits(support)), weights)))
        return DominanceVerdict(True, witness, optimum)

    scale = game.scaled_payoffs[i][0]
    if support >> s & 1:
        # the witness program below is _weak_program's under
        # m_s = 1 - sum_j m_j, its objective divided by the scale
        optimum, vertex = _weak_program(game, i, s, support & ~(1 << s), opponents)
        if optimum <= 0:
            return DominanceVerdict(False, None, Fraction(optimum, scale))
        if vertex is not None:
            rivals = iter(vertex)
            weights = tuple((labels[a], ONE - sum(vertex) if a == s else next(rivals))
                            for a in set_bits(support))
            return DominanceVerdict(True, MixedStrategy(i, weights), Fraction(optimum, scale))

    # Bland's witness program: variables m_1..m_k >= 0, slack_1..slack_m >= 0
    # with sum_j m_j u(s_j, t_r) - slack_r = u(s, t_r) and sum_j m_j = 1,
    # each row times the scale
    support = list(set_bits(support))
    offsets = list(set_bits(opponents))
    mine = game.payoff_row(i, s, offsets)
    rows = [game.payoff_row(i, a, offsets) for a in support]
    k = len(support)
    m = len(offsets)
    program = [
        [row[r] for row in rows] + [-scale if q == r else 0 for q in range(m)]
        for r in range(m)
    ]
    program.append([scale] * k + [0] * m)
    solution = solve(program, mine + [scale], [0] * k + [1] * m)
    if solution.status is Status.INFEASIBLE:
        return DominanceVerdict(False, None, None)
    if solution.status is not Status.OPTIMAL:
        raise InvariantViolated("weak-dominance program unbounded; its slacks are bounded")
    if solution.value > 0:
        weights = tuple(zip((labels[a] for a in support), solution.assignment[:k]))
        return DominanceVerdict(True, MixedStrategy(i, weights), solution.value)
    return DominanceVerdict(False, None, solution.value)


def solve_br_lp(game: Game, i: int, s_i: str, G_i, G_minus_i) -> BestResponseVerdict:
    """Decide whether ``s_i`` is a best response within ``G_i`` to some
    correlated belief over ``G_minus_i``.

    The belief is the column solution of msd's strict game over ``G_i``
    (Pearce's lemma): ``s_i`` is supported iff that game's value is at most
    zero.
    """
    s, alternatives, opponents = _canonical_inputs(game, i, s_i, G_i, G_minus_i)
    if not opponents:
        raise ValidationError("best-response LP needs at least one opponent profile")
    # an empty G_i is read as {s}: with no rival, the all-zero game's column
    # mixture, a point belief on the first profile, supports s
    alternatives = alternatives or 1 << s
    if _strict_decision(game, i, s, alternatives, opponents)[0] > 0:
        return BestResponseVerdict(False, None)
    weights = _strict_game(game, i, s, alternatives, opponents)[2]
    return BestResponseVerdict(True, _belief(game, i, opponents, weights))


def _belief(game, i, opponents, weights) -> CorrelatedBelief:
    """The correlated belief with these weights on the opponent offsets."""
    profiles = (game.opponent_profile(i, o) for o in set_bits(opponents))
    return CorrelatedBelief(tuple(zip(profiles, weights)))


def _pearce_certificates(game, i, s, alternatives, opponents):
    """A strictly dominating mixture and a supporting correlated belief for
    ``s``, each None where none is found: a pure dominator, else the strict
    game's row mixture; a point belief at an offset where no alternative
    beats ``s``, else that game's column mixture. By Pearce's lemma exactly
    one of the two exists."""
    dominator = _pure_dominator(game, i, s, alternatives, opponents, True)
    mixture = None if dominator is None else MixedStrategy(
        i, ((game.strategies[i][dominator], ONE),))
    unbeaten = _unbeaten(game, i, s, alternatives, opponents)
    belief = _belief(game, i, unbeaten & -unbeaten, (ONE,)) if unbeaten else None
    if mixture is None and belief is None:
        mixture = _dominance_verdict(game, i, s, alternatives, opponents, "strict").witness
        if mixture is None:
            columns = _strict_game(game, i, s, alternatives, opponents)[2]
            belief = _belief(game, i, opponents, columns)
    return mixture, belief


def _edges(game, i, s, support, opponents):
    """Per strategy ``a`` of ``support`` (ascending), the row of
    ``u(a, t) - u(s, t)`` over the opponent offsets ``t`` (ascending), in
    player ``i``'s scaled payoffs."""
    offsets = list(set_bits(opponents))
    mine = game.payoff_row(i, s, offsets)
    return [[q - p for q, p in zip(game.payoff_row(i, a, offsets), mine)]
            for a in set_bits(support)]


@per_game
def _weak_program(game, i, s, rivals, opponents):
    """The optimum of the one-phase program that decides whether a mixture
    weakly dominates ``s``, and its optimal vertex where that is unique
    (``simplex.optimum_from_origin``): with ``d_jt = u(j, t) - u(s, t)`` and
    weight ``m_j`` on rival ``j`` (the rest on ``s``), max
    ``sum_j (sum_t d_jt) m_j`` subject to ``-sum_j d_jt m_j <= 0`` per
    opponent offset ``t``, ``sum_j m_j <= 1`` and ``m >= 0``, in player
    ``i``'s scaled payoffs. A dominator keeping weight on ``s`` rescales to
    one over the rivals, so the optimum is positive iff ``s`` is dominated,
    whether or not ``s`` is an alternative. The vertex holds the rivals'
    weights, ascending; it is ``_dominance_verdict``'s witness."""
    edges = _edges(game, i, s, rivals, opponents)
    rows = [[-d for d in column] for column in zip(*edges)]
    rows.append([1] * len(edges))
    result = optimum_from_origin(rows, [0] * (len(rows) - 1) + [1], [sum(e) for e in edges])
    if result is None:
        raise InvariantViolated("weak-dominance decision unbounded; its weights sum to at most 1")
    return result
