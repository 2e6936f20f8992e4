"""Finite strategic games with exact rational payoffs, restrictions and beliefs.

Every value is immutable, apart from the memo in which a game keeps results
derived from it. Payoffs, probabilities and expectations are
`fractions.Fraction`s at the public API; inside, the engine reads each
player's payoffs as integers, scaled once per game (``scaled_payoffs``), so
every comparison made anywhere in the engine is exact, and an opponent profile
as its offset in the tables, which ``Game.opponent_offset`` alone decodes.

The exact re-checks of a witness, ``expected_payoff`` and ``dominates``, read
the unscaled tables through one reader that checks every input before it
reads a payoff. This module imports no engine module but ``errors``, so the
re-checks share no code with the programs and predicates they check.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property, wraps
from math import lcm, prod

from .errors import ParseError, ValidationError

JointStrategy = tuple[str, ...]


# Bounds on rational literals, checked before any integer is built: digits of
# the mantissa (numerator and denominator together) and size of the exponent.
MAX_LITERAL_DIGITS = 1000
MAX_LITERAL_EXPONENT = 1000
# What the text formats use as separators: '.' joins the strategies of a state
# label, ',' splits --joint and commonbox arguments, '{' '}' enclose
# possibility sets, '=' ends a payoff's joint strategy, '->' splits map and
# poss lines, '#' starts a comment. State labels may contain '.'.
STRATEGY_LABEL_RESERVED = re.compile(r"[\s.,{}=#]|->")
STATE_LABEL_RESERVED = re.compile(r"[\s,{}=#]|->")
# Entries one game's memo may hold before it starts over, so a caller who
# enumerates a large lattice of one game, each restriction with new keys,
# cannot grow it without bound.
MEMO_BOUND = 1 << 18
_MISSING = object()


def check_label(label, what: str, reserved=STRATEGY_LABEL_RESERVED) -> None:
    """Reject a label the text formats could not read back."""
    if not isinstance(label, str) or not label:
        raise ValidationError(f"{what} must be a non-empty string, got {label!r}")
    found = reserved.search(label)
    if found:
        raise ValidationError(f"{what} {label!r} contains the reserved {found.group()!r}")


def _rational_literal(text: str) -> Fraction:
    """Exact value of an integer, ``p/q`` or decimal literal within the bounds
    above; `ValidationError` otherwise."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if sum(c.isdecimal() for c in mantissa) > MAX_LITERAL_DIGITS:
        raise ValidationError(f"literal has more than {MAX_LITERAL_DIGITS} digits")
    if exponent.isdecimal() and (
        len(exponent) > len(str(MAX_LITERAL_EXPONENT)) or int(exponent) > MAX_LITERAL_EXPONENT
    ):
        raise ValidationError(f"literal has an exponent beyond {MAX_LITERAL_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not an exact rational: {text!r}") from None


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # not a bool, as in as_int
        return Fraction(value)
    if isinstance(value, str):
        return _rational_literal(value)
    raise ValidationError(f"payoffs must be rationals, got {type(value).__name__}")


def as_tuple(values) -> tuple:
    """``values``, any iterable but a string, as a tuple; a tuple is kept as
    given, and a string is not read as its letters."""
    if type(values) is tuple:
        return values
    if not isinstance(values, str):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ValidationError(f"expected a collection, got {values!r}")


def as_int(what: str, value, least: int | None = None) -> int:
    """``value`` if an int (not a bool) of at least ``least``, else a ValidationError."""
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" of at least {least}"
        raise ValidationError(f"{what} must be an int{bound}, got {value!r}")
    return value


class Value:
    """The base of the engine's values. Each field named in ``_fields`` is
    kept as ``_<name>`` and read through a read-only property, so Python
    itself refuses to assign or delete it; the ``_derived`` fields are built
    from the others and take no part in ``==``, ``hash`` or ``repr``. Values
    of one class are equal when their fields are, and hash as the tuple of
    their fields."""

    _fields: tuple[str, ...] = ()
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls):
        for name in cls._fields + cls._derived:
            setattr(cls, name, property(operator.attrgetter("_" + name)))
        read = operator.attrgetter(*("_" + name for name in cls._fields))
        cls._key = property(read if len(cls._fields) > 1 else lambda self: (read(self),))

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"


class Game(Value):
    """An n-player strategic game: ordered strategy labels plus total payoff tables.

    ``payoff_tables[i]`` is flat, indexed by the joint strategy in product
    order (last player varies fastest). Both are stored as tuples, and the
    payoffs as Fractions; a table of Fractions only is kept as given.
    """

    _fields = ("strategies", "payoff_tables")

    def __init__(self, strategies: tuple[tuple[str, ...], ...],
                 payoff_tables: tuple[tuple[Fraction, ...], ...]):
        strategies = tuple(map(as_tuple, as_tuple(strategies)))
        if len(strategies) < 2:
            raise ValidationError("a game needs at least 2 players")
        for i, labels in enumerate(strategies):
            if not labels:
                raise ValidationError(f"player {i + 1} has an empty strategy set")
            for label in labels:
                check_label(label, f"player {i + 1} strategy label")
            if len(set(labels)) != len(labels):
                raise ValidationError(f"player {i + 1} has duplicate strategy labels")
        size = prod(len(labels) for labels in strategies)
        tables = tuple(map(as_tuple, as_tuple(payoff_tables)))
        if len(tables) != len(strategies):
            raise ValidationError("one payoff table per player is required")
        exact = []
        for i, table in enumerate(tables):
            if len(table) != size:
                raise ValidationError(
                    f"payoff table for player {i + 1} has {len(table)} entries, expected {size}")
            if not all(type(v) is Fraction for v in table):  # else kept as given
                if not all(type(v) is int or isinstance(v, Fraction) for v in table):
                    raise ValidationError(
                        f"player {i + 1} has a payoff that is not an int or Fraction")
                table = tuple(map(Fraction, table))
            exact.append(table)
        self._strategies, self._payoff_tables = strategies, tuple(exact)

    @cached_property
    def n(self) -> int:
        return len(self.strategies)

    @cached_property
    def _label_index(self) -> tuple[dict[str, int], ...]:
        return tuple({s: k for k, s in enumerate(labels)} for labels in self.strategies)

    @cached_property
    def memo(self) -> dict:
        """Results of :func:`per_game` functions on this game; freed with it."""
        return {}

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        strides = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.strategies[i + 1])
        return tuple(strides)

    @cached_property
    def joint_strategies(self) -> tuple[JointStrategy, ...]:
        return tuple(itertools.product(*self.strategies))

    @cached_property
    def full_masks(self) -> tuple[int, ...]:
        """Every player's strategy mask with all strategies kept."""
        return tuple((1 << len(labels)) - 1 for labels in self.strategies)

    @cached_property
    def scaled_payoffs(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per player ``(s_i, s_i * payoff_tables[i])`` with ``s_i`` the lcm of
        the player's payoff denominators: the integers every notion is decided
        on, since each is invariant under scaling one player's payoffs."""
        scaled = []
        for table in self.payoff_tables:
            scale = lcm(*(v.denominator for v in table))
            scaled.append((scale, tuple(v.numerator * (scale // v.denominator) for v in table)))
        return tuple(scaled)

    @cached_property
    def beats(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``beats[i][s][a]``: the mask of the flat opponent offsets at which
        strategy ``a`` pays player ``i`` more than strategy ``s`` does."""
        table = []
        for i in range(self.n):
            offsets = list(set_bits(self.opponent_mask(i, self.full_masks)))
            bits = [1 << o for o in offsets]
            rows = [self.payoff_row(i, k, offsets) for k in range(len(self.strategies[i]))]
            table.append(tuple(tuple(
                sum(itertools.compress(bits, map(operator.gt, row_a, row_s))) for row_a in rows
            ) for row_s in rows))
        return tuple(table)

    def payoff_row(self, i: int, k: int, offsets) -> list[int]:
        """Player ``i``'s scaled payoffs from strategy index ``k`` against
        the opponent profiles at ``offsets``."""
        table = self.scaled_payoffs[i][1]
        base = k * self._strides[i]
        return [table[base + o] for o in offsets]

    def opponent_mask(self, i: int, strategy_masks) -> int:
        """The mask of the flat offsets (place in a payoff table, own index
        0) of player ``i``'s opponent profiles in per-player strategy masks."""
        mask = 1
        for j, (kept, stride) in enumerate(zip(strategy_masks, self._strides)):
            if j != i:
                shifted = 0
                while kept:
                    low = kept & -kept
                    shifted |= mask << (low.bit_length() - 1) * stride
                    kept ^= low
                mask = shifted
        return mask

    def opponent_profile(self, i: int, offset: int) -> JointStrategy:
        """The labels of the opponent profile of player ``i`` at an offset."""
        joint = self.joint_strategies[offset]
        return joint[:i] + joint[i + 1:]

    @cached_property
    def _opponent_decoders(self) -> tuple[tuple[tuple[int, dict[str, int], int], ...], ...]:
        """Per player ``i``, ``(j, label index, stride)`` per opponent ``j``."""
        return tuple(tuple((j, self._label_index[j], self._strides[j]) for j in range(self.n)
                           if j != i) for i in range(self.n))

    def opponent_offset(self, i: int, profile) -> int:
        """The offset of player ``i``'s labelled opponent profile, validated:
        the one decoder of opponent profiles, :meth:`opponent_profile`'s inverse."""
        decoders = self._opponent_decoders[self.player(i)]
        profile = as_tuple(profile)
        if len(profile) != len(decoders):
            raise ValidationError(f"opponent profile {profile} needs {self.n - 1} entries")
        offset = 0
        for (j, index, stride), label in zip(decoders, profile):
            try:
                offset += index[label] * stride
            except (KeyError, TypeError):  # an unhashable label is unknown too
                raise ValidationError(f"player {j + 1} has no strategy {label!r}") from None
        return offset

    def player(self, i: int) -> int:
        """``i`` if it numbers a player (0-based); a negative number is not
        read as counted from the last player."""
        if type(i) is not int or not 0 <= i < len(self.strategies):  # not a bool
            raise ValidationError(f"player index {i!r} is not in 0..{self.n - 1}")
        return i

    def strategy_index(self, i: int, label: str) -> int:
        index = self._label_index[self.player(i)]
        try:
            return index[label]
        except (KeyError, TypeError):  # an unhashable label is unknown too
            raise ValidationError(f"player {i + 1} has no strategy {label!r}") from None

    def payoff(self, i: int, joint: JointStrategy) -> Fraction:
        """Exact payoff of player ``i`` (0-based) at a joint strategy."""
        table = self.payoff_tables[self.player(i)]
        joint = as_tuple(joint)
        if len(joint) != self.n:
            raise ValidationError(f"joint strategy {tuple(joint)} needs {self.n} entries")
        index = self.strategy_index
        flat = sum(index(j, s) * stride for j, (s, stride) in enumerate(zip(joint, self._strides)))
        return table[flat]

    def full_restriction(self) -> "Restriction":
        return Restriction(self, self.full_masks)


def per_game(fn):
    """Memoise ``fn(game, *args)`` in ``game.memo``; hashable ``args`` only."""

    @wraps(fn)
    def memoised(game, *args):
        key = (fn, args)
        memo = game.memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = fn(game, *args)
            if len(memo) >= MEMO_BOUND:
                memo.clear()
            memo[key] = value
        return value

    return memoised


def game_from_payoffs(
    strategies: Sequence[Sequence[str]],
    payoffs: Mapping[int, Mapping[JointStrategy, object]] | Sequence[Mapping[JointStrategy, object]],
) -> Game:
    """Build a game from per-player ``{joint: payoff}`` maps; payoffs may be
    ints, strings or Fractions."""
    strategies = tuple(map(as_tuple, as_tuple(strategies)))
    joints = tuple(itertools.product(*strategies))
    tables = []
    for i in range(len(strategies)):
        entry = payoffs[i]
        missing = [j for j in joints if j not in entry]
        if missing:
            raise ValidationError(f"player {i + 1} is missing payoff entries, e.g. {missing[0]}")
        tables.append(tuple(_as_fraction(entry[j]) for j in joints))
    return Game(strategies, tables)


def set_bits(mask: int):
    """The set bits of ``mask``, lowest first: the strategy (or state)
    indices a mask keeps, in label order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Restriction(Value):
    """Per-player subsets of a game's strategy sets, the lattice element.

    Bit ``k`` of ``masks[i]`` keeps player ``i``'s ``k``-th strategy, so the
    game's label order fixes the deterministic iteration order used
    everywhere (traces, products, output). Empty components are legal.
    :meth:`of` builds a restriction from labels.
    """

    _fields = ("game", "masks")

    def __init__(self, game: Game, masks: tuple[int, ...]):
        self._game, self._masks = game, masks
        self.__post_init__()  # looked up per call: a profiler counts restrictions here

    def __post_init__(self):
        if not isinstance(self._game, Game):
            raise ValidationError(f"expected a Game, got {self._game!r}")
        if type(self._masks) is not tuple or len(self._masks) != self._game.n or not all(
            type(mask) is int and 0 <= mask <= full
            for mask, full in zip(self._masks, self._game.full_masks)
        ):
            raise ValidationError(f"not one strategy mask per player: {self._masks!r}")

    @classmethod
    def of(cls, game: Game, components) -> "Restriction":
        """The restriction keeping the labelled strategies, given in any order."""
        return cls(game, tuple(
            sum(1 << k for k in {game.strategy_index(i, s) for s in as_tuple(component)})
            for i, component in enumerate(as_tuple(components))
        ))

    def is_subset_of(self, other: "Restriction") -> bool:
        if self.game is not other.game and self.game != other.game:
            raise ValidationError("restrictions of different games are incomparable")
        return all(mine & ~theirs == 0 for mine, theirs in zip(self.masks, other.masks))

    def has_empty_component(self) -> bool:
        return 0 in self.masks

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        """The components as labels, in the game's label order."""
        return tuple(
            tuple(labels[k] for k in set_bits(mask))
            for labels, mask in zip(self.game.strategies, self.masks)
        )

    @cached_property
    def joint_strategies(self) -> tuple[JointStrategy, ...]:
        return tuple(itertools.product(*self.components))

    def __repr__(self) -> str:
        parts = ", ".join("{" + " ".join(c) + "}" for c in self.components)
        return f"Restriction({parts})"


def _distribution(pairs, what: str, key_name: str, read_key) -> tuple:
    """The one reader of weights: ``(read_key(key), exact weight)`` per pair of
    a mixed strategy or a correlated belief, checked to list no key twice, to
    have no negative weight and to sum to exactly 1. A key need only hash."""
    try:
        weights = tuple((read_key(key), _as_fraction(w)) for key, w in pairs)
        keys = set(key for key, _ in weights)
    except (TypeError, ValueError):  # not (key, weight) pairs, or an unhashable key
        raise ValidationError(f"{what} needs ({key_name}, weight) pairs, keys hashable") from None
    if len(keys) != len(weights):
        raise ValidationError(f"{what} lists a {key_name} twice")
    if any(w < 0 for _, w in weights):
        raise ValidationError(f"{what} has a negative weight")
    if sum(w for _, w in weights) != 1:
        raise ValidationError(f"{what} weights must sum to exactly 1")
    return weights


def _profile_key(joint) -> JointStrategy:
    """A belief's key, a tuple or list of labels, as a tuple; not a string's letters."""
    if not isinstance(joint, (tuple, list)):
        raise ValidationError(f"a belief's joint strategy is a tuple of labels, got {joint!r}")
    return tuple(joint)


class MixedStrategy(Value):
    """A probability distribution over one player's strategies.

    Weights are kept for the whole stated support, zeros included.
    """

    _fields = ("player", "weights")

    def __init__(self, player: int, weights: tuple[tuple[str, Fraction], ...]):
        self._player = player
        self._weights = _distribution(weights, "mixed strategy", "strategy", lambda label: label)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(label for label, w in self.weights if w > 0)

    def __str__(self) -> str:
        return " + ".join(f"{w}*{label}" for label, w in self.weights if w > 0)


class CorrelatedBelief(Value):
    """A distribution over joint opponent strategies."""

    _fields = ("weights",)

    def __init__(self, weights: tuple[tuple[JointStrategy, Fraction], ...]):
        self._weights = _distribution(weights, "correlated belief", "joint strategy", _profile_key)

    def __str__(self) -> str:
        return " + ".join(f"{w}*({','.join(j)})" for j, w in self.weights if w > 0)


def _payoffs_at(game: Game, i: int, strategies, profiles) -> list[list[Fraction]]:
    """Player ``i``'s exact payoff from each of ``strategies`` (a label or a
    :class:`MixedStrategy` of player ``i``) at each labelled opponent profile,
    the one reader of the exact re-checks. Every input is checked before any
    payoff is read: the player, each mixture's player and every own label
    whatever its weight, then every profile, each decoded once by
    :meth:`Game.opponent_offset`. A pure strategy's payoff is its table
    entry, with no unit weight multiplied in: most re-checks are of those."""
    table = game.payoff_tables[game.player(i)]
    stride = game._strides[i]
    bases = []
    for s in strategies:
        if not isinstance(s, MixedStrategy):
            bases.append(game.strategy_index(i, s) * stride)
        elif s.player == i:
            bases.append([(game.strategy_index(i, label) * stride, w) for label, w in s.weights])
        else:
            raise ValidationError(
                f"mixed strategy of player index {s.player!r} given for player index {i}")
    offsets = [game.opponent_offset(i, t) for t in profiles]
    return [[table[base + o] for o in offsets] if type(base) is int
            else [sum(w * table[b + o] for b, w in base) for o in offsets] for base in bases]


def expected_payoff(
    game: Game,
    i: int,
    s_i: str | MixedStrategy,
    belief: CorrelatedBelief,
) -> Fraction:
    """Exact expected payoff of player ``i`` playing ``s_i`` under a belief
    about the opponents; every profile is checked, whatever its probability."""
    (values,) = _payoffs_at(game, i, (s_i,), [t for t, _ in belief.weights])
    return sum(p * v for (_, p), v in zip(belief.weights, values))


def dominates(game: Game, i: int, mix: MixedStrategy, s_i: str, G_minus_i, mode: str) -> bool:
    """Re-check a dominance witness under exact arithmetic: ``mix`` pays
    player ``i`` at least as much as ``s_i`` at every opponent profile of
    ``G_minus_i``, and more at every one (``strict``) or some (``weak``)."""
    if mode not in ("strict", "weak"):
        raise ValidationError(f"mode must be 'strict' or 'weak', got {mode!r}")
    mixed, pure = _payoffs_at(game, i, (mix, s_i), G_minus_i)
    gains = [v - p for v, p in zip(mixed, pure)]
    if not gains or min(gains) < 0:
        return False
    return min(gains) > 0 if mode == "strict" else max(gains) > 0


# ---------------------------------------------------------------------------
# Text formats.
#
# Game files:      players: 2 / strategies 1: U D / payoff 1: U L = 1
# Restrictions:    restrict 1: U D      (written only; empty components stay
#                                        explicit)
# Comments start with '#'; parsing is whitespace-insensitive.
# ---------------------------------------------------------------------------


def _split_directive(number: int, line: str) -> tuple[str, str]:
    head, colon, rest = line.partition(":")
    head = head.strip()
    if not colon or not head:
        raise ParseError("expected 'keyword ...:' directive", number, 1)
    return head, rest.strip()


def _parse_player_number(number: int, head: str, keyword: str, n: int | None) -> int:
    parts = head.split()
    if len(parts) != 2 or parts[0] != keyword or not parts[1].isdecimal():
        raise ParseError(f"malformed {keyword} directive", number, 1)
    player = int(parts[1])
    if player < 1 or (n is not None and player > n):
        raise ParseError(f"player number {player} out of range", number, len(keyword) + 2)
    return player - 1


def parse_game(source: str) -> Game:
    """Parse the game file format, directives in any order, into a validated
    :class:`Game`.

    A payoff line costs one pass of string work: cutting the comment, one
    split at ':', and a lookup of the raw head text (``payoff 2``, spacing
    and all) in a memo local to the call. Only a head not seen before and the
    ``players:`` and ``strategies`` lines are read in full. Two more memos
    read each distinct raw payoff literal once and each distinct raw joint
    text once, for all players, as an offset in product order; payoffs are
    keyed by that offset, and a lazy walk of the product finds a missing one
    in memory bounded by the file."""
    n: int | None = None
    strategy_sets: dict[int, tuple[str, ...]] = {}
    payoff_lines: list[tuple[int, int, str, Fraction]] = []
    players_of: dict[str, int] = {}  # raw payoff head -> player
    unchecked: list[tuple[int, str]] = []  # (line, head) read before the players count
    literals: dict[str, Fraction] = {}  # raw value text -> value

    for number, line in enumerate(source.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        raw_head, colon, rest = line.partition(":")
        player = players_of.get(raw_head)
        if player is None or not colon:
            line = line.strip()
            if not line:
                continue
            head, rest = _split_directive(number, line)
            if head == "players":
                if n is not None:
                    raise ParseError("duplicate players directive", number, 1)
                if not rest.isdecimal():
                    raise ParseError("players count must be an integer", number, len(line))
                n = int(rest)
                for first, seen in unchecked:
                    _parse_player_number(first, seen, seen.split()[0], n)
                continue
            keyword = "strategies" if head.startswith("strategies") else "payoff"
            if not head.startswith(keyword):
                raise ParseError(f"unknown directive {head.split()[0]!r}", number, 1)
            player = _parse_player_number(number, head, keyword, n)
            if n is None:
                unchecked.append((number, head))
            if keyword == "strategies":
                if player in strategy_sets:
                    raise ParseError(f"duplicate strategies for player {player + 1}", number, 1)
                labels = tuple(rest.split())
                for label in labels:
                    try:
                        check_label(label, "strategy label")
                    except ValidationError as exc:
                        raise ParseError(str(exc), number, line.index(label, len(head)) + 1) from None
                strategy_sets[player] = labels
                continue
            players_of[raw_head] = player
        joint_text, equals, value_text = rest.partition("=")
        if not equals:
            raise ParseError("payoff line needs '= value'", number, len(line.strip()))
        value = literals.get(value_text)
        if value is None:
            try:
                value = literals[value_text] = _rational_literal(value_text.strip())
            except ValidationError as exc:
                raise ParseError(str(exc), number, line.strip().rfind("=") + 2) from None
        payoff_lines.append((number, player, joint_text, value))

    if n is None:
        raise ParseError("missing players directive", 0, 0)
    if n < 2:
        raise ValidationError("a game needs at least 2 players (n > 1)")
    missing = n - len(strategy_sets)
    if missing:
        # name the first few, walking no further than the file's strategies lines
        walk = range(min(n, len(strategy_sets) + 10))
        first = [i + 1 for i in walk if i not in strategy_sets][:10]
        more = f" and more, {missing} in all" if missing > len(first) else ""
        raise ValidationError(f"missing strategies for players {first}{more}")

    strategies = tuple(strategy_sets[i] for i in range(n))
    # a repeated label, which Game rejects, takes the index of its first
    # occurrence, so the first missing joint is still reported first
    index = [{s: k for k, s in enumerate(dict.fromkeys(labels))} for labels in strategies]
    offsets: dict[str, int] = {}  # raw joint text -> offset, for every player
    entries: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for number, player, joint_text, value in payoff_lines:
        offset = offsets.get(joint_text)
        if offset is None:
            joint = joint_text.split()
            if len(joint) != n:
                raise ParseError(f"joint strategy needs {n} entries, got {len(joint)}", number, 1)
            offset = 0
            for j, label in enumerate(joint):
                k = index[j].get(label)
                if k is None:
                    raise ParseError(f"player {j + 1} has no strategy {label!r}", number, 1)
                offset = offset * len(index[j]) + k
            offsets[joint_text] = offset
        entry = entries[player]
        if offset in entry:
            joint = tuple(joint_text.split())
            raise ValidationError(f"duplicate payoff for player {player + 1} at {joint}")
        entry[offset] = value

    size = prod(map(len, index))
    for i, entry in enumerate(entries):
        if len(entry) < size:
            missing = next(j for o, j in enumerate(itertools.product(*index)) if o not in entry)
            raise ValidationError(f"player {i + 1} is missing payoff entries, e.g. {missing}")
    return Game(strategies, tuple(tuple(map(entry.__getitem__, range(size))) for entry in entries))


def render_game(game: Game) -> str:
    """Render a game in the file format; ``parse_game`` round-trips exactly."""
    lines = [f"players: {game.n}"]
    for i, labels in enumerate(game.strategies):
        lines.append(f"strategies {i + 1}: " + " ".join(labels))
    for i, table in enumerate(game.payoff_tables):
        for joint, value in zip(game.joint_strategies, table):
            lines.append(f"payoff {i + 1}: " + " ".join(joint) + f" = {value}")
    return "\n".join(lines) + "\n"


def render_restriction(restriction: Restriction) -> str:
    lines = [
        f"restrict {i + 1}: " + " ".join(component)
        for i, component in enumerate(restriction.components)
    ]
    return "\n".join(line.rstrip() for line in lines) + "\n"
