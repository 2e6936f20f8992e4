"""Iterated elimination of non-optimal strategies.

Two operators over restrictions, differing only in the alternatives a
strategy is measured against:

* the global operator keeps ``s_i in G_i`` satisfying
  ``holds(notion_i, s_i, H_i, G_-i)`` — alternatives come from the player's
  strategy set in the *initial* game;
* the local operator keeps ``s_i in G_i`` satisfying
  ``holds(notion_i, s_i, G_i, G_-i)`` — the customary elimination procedure.

Both eliminate all failing strategies of a stage simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .games import Game, Restriction, as_tuple, set_bits
from .lattice import (
    EliminationRecord,
    EliminationTrace,
    RestrictionOperator,
    iterate_to_outcome,
)
from .optimality import (
    MONOTONIC_NOTIONS,
    Notion,
    _dominance_verdict,
    _holds_core,
    _pure_dominator,
    evaluated_notion,
    parse_notion,
)

GLOBAL = "global"
LOCAL = "local"

# the reasons of the eliminations that a mixed dominator witnesses
_MIXED_REASONS = {
    Notion.MSD: "strictly dominated by a mixed strategy",
    Notion.MWD: "weakly dominated by a mixed strategy",
    Notion.BR_CORRELATED: "no correlated belief supports it",
}


def profile_names(text: str) -> list[str]:
    """The notion names of profile text, separated by commas or whitespace;
    an empty comma entry, as in ``msd,`` or ``sd,,wd``, is a ValidationError."""
    entries = text.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValidationError(f"profile {text!r} has an empty entry")
    return " ".join(entries).split()


@dataclass(frozen=True)
class NotionProfile:
    """One optimality notion per player, each a :class:`Notion` or its name."""

    notions: tuple[Notion, ...]

    def __post_init__(self):
        object.__setattr__(self, "notions", tuple(map(parse_notion, as_tuple(self.notions))))

    @classmethod
    def uniform(cls, notion: Notion | str, n: int) -> "NotionProfile":
        return cls((notion,) * n)

    @classmethod
    def parse(cls, text: str, n: int) -> "NotionProfile":
        parts = profile_names(text)
        if len(parts) == 1:
            return cls.uniform(parts[0], n)
        if len(parts) != n:
            raise ValidationError(f"profile needs 1 or {n} notions, got {len(parts)}")
        return cls(tuple(parts))

    def validate_for(self, game: Game) -> tuple[Notion, ...]:
        """The notions a step evaluates on ``game``, each read by
        ``optimality.evaluated_notion``, where the one ``bri`` rule lives."""
        if len(self.notions) != game.n:
            raise ValidationError(
                f"profile has {len(self.notions)} notions for {game.n} players"
            )
        return tuple(evaluated_notion(n, game.n) for n in self.notions)

    def non_monotonic(self) -> tuple[Notion, ...]:
        """The profile's notions outside the monotonic set, each once, in
        profile order; ``bri``, evaluated only as ``brc``, is not one."""
        return tuple(dict.fromkeys(n for n in self.notions if n not in MONOTONIC_NOTIONS
                                   and n is not Notion.BR_INDEPENDENT))

    def __str__(self) -> str:
        if len(set(self.notions)) == 1:
            return self.notions[0].value
        return ",".join(n.value for n in self.notions)


def _step(profile: NotionProfile, game: Game, g: Restriction, alternatives) -> Restriction:
    """Keep the strategies of ``g`` that satisfy their player's predicate
    against ``alternatives[i]`` (a strategy mask) and the opponent profiles
    of ``g``."""
    notions = profile.validate_for(game)
    if g.game is not game and g.game != game:
        raise ValidationError("the restriction is of another game")
    current = g.masks
    masks = []
    for i in range(game.n):
        opponents = game.opponent_mask(i, current)
        kept, mask = current[i], 0
        while kept:
            low = kept & -kept
            if _holds_core(game, notions[i], i, low.bit_length() - 1, alternatives[i], opponents):
                mask |= low
            kept ^= low
        masks.append(mask)
    return Restriction(game, tuple(masks))


def t_global(profile: NotionProfile, game: Game, g: Restriction) -> Restriction:
    """Keep the strategies that are optimal against alternatives from the
    initial strategy sets."""
    return _step(profile, game, g, game.full_masks)


def u_local(profile: NotionProfile, game: Game, g: Restriction) -> Restriction:
    """Keep the strategies that are optimal against alternatives from the
    current restriction."""
    return _step(profile, game, g, g.masks)


def operator(profile: NotionProfile, game: Game, mode: str) -> RestrictionOperator:
    profile.validate_for(game)
    if mode == GLOBAL:
        return RestrictionOperator(f"T[{profile}]", lambda g: t_global(profile, game, g))
    if mode == LOCAL:
        return RestrictionOperator(f"U[{profile}]", lambda g: u_local(profile, game, g))
    raise ValidationError(f"mode must be {GLOBAL!r} or {LOCAL!r}, got {mode!r}")


def outcome(profile: NotionProfile, game: Game, mode: str) -> EliminationTrace:
    """Iterate the chosen operator from the full game and annotate every
    eliminated strategy with a machine-checkable reason."""
    op = operator(profile, game, mode)
    notions = profile.validate_for(game)
    trace = iterate_to_outcome(op, game.full_restriction())
    records = []
    for stage_index in range(len(trace.stages) - 1):
        before = trace.stages[stage_index].masks
        after = trace.stages[stage_index + 1].masks
        for i in range(game.n):
            alternatives = game.full_masks[i] if mode == GLOBAL else before[i]
            opponents = game.opponent_mask(i, before)
            for s in set_bits(before[i] & ~after[i]):
                records.append(explain_elimination(
                    notions[i], game, stage_index, i, s, alternatives, opponents
                ))
    return EliminationTrace(trace.operator, trace.stages, tuple(records))


def explain_elimination(
    notion: Notion,
    game: Game,
    stage: int,
    i: int,
    s: int,
    alternatives,
    opponents,
) -> EliminationRecord:
    """Build the elimination record (in labels) for a strategy that failed
    its predicate: a dominating (pure or mixed) strategy, or a certificate
    that no belief supports it. Takes the predicate core's inputs, with the
    notion as :meth:`NotionProfile.validate_for` returns it."""
    labels = game.strategies[i]
    label = labels[s]
    if not opponents:
        return EliminationRecord(
            stage, i, label, f"fails {notion.value} against an empty opponent set", None
        )
    if notion in (Notion.SD, Notion.WD):
        strict = notion is Notion.SD
        dominator = _pure_dominator(game, i, s, alternatives, opponents, strict)
        kind = "strictly" if strict else "weakly"
        return EliminationRecord(stage, i, label, f"{kind} dominated", labels[dominator])
    if notion is Notion.BR_POINT:
        # at each opponent profile, the first alternative that does better
        beats_s = game.beats[i][s]
        better = tuple(
            (game.opponent_profile(i, o),
             next((labels[a] for a in set_bits(alternatives) if beats_s[a] >> o & 1), None))
            for o in set_bits(opponents)
        )
        return EliminationRecord(
            stage, i, label, "never a best response to a point belief", better
        )
    # a mixed dominator; for brc it certifies that no correlated belief
    # supports s, over the same alternatives (Pearce's lemma)
    mode = "weak" if notion is Notion.MWD else "strict"
    verdict = _dominance_verdict(game, i, s, alternatives, opponents, mode)
    return EliminationRecord(stage, i, label, _MIXED_REASONS[notion], verdict.witness)
