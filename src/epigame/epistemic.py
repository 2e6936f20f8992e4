"""Finite epistemic models over games.

A model joins a state space, per-player strategy maps, and per-player
possibility correspondences. Correspondence properties are computed, never
declared:

  (i)   seriality:    P(w) is non-empty for every state,
  (ii)  coherence:    w' in P(w) implies P(w') = P(w),
  (iii) reflexivity:  w in P(w).

(i)+(ii) makes a belief correspondence, (i)+(ii)+(iii) a knowledge
correspondence (whose possibility sets partition the space).

An event is an ``int`` state mask: bit ``k`` keeps ``space.states[k]``. Every
event function takes and returns masks; :meth:`StateSpace.mask_of` and
:meth:`StateSpace.event_of` convert from and to state labels at the I/O
boundary. Each value turns its labels into masks in the pass that checks
them: :attr:`StateSpace.index`, :attr:`PossibilityCorrespondence.masks` and
:attr:`~PossibilityCorrespondence.sources`, and a model's strategy choices
(:attr:`EpistemicModel.choosers`) are built with the value. :func:`box`,
:func:`common_box`, :func:`rat_event` and the class checks read each distinct
possibility set once, through ``sources``.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import ParseError, ValidationError
from .games import (
    STATE_LABEL_RESERVED,
    Game,
    JointStrategy,
    Restriction,
    Value,
    _parse_player_number,
    _split_directive,
    as_tuple,
    check_label,
    set_bits,
)
from .optimality import _holds_core


class StateSpace(Value):
    _fields = ("states",)
    _derived = ("index",)

    def __init__(self, states: tuple[str, ...]):
        states = as_tuple(states)
        if not states:
            raise ValidationError("state space must be non-empty")
        for s in states:
            check_label(s, "state label", STATE_LABEL_RESERVED)
        index = {s: k for k, s in enumerate(states)}
        if len(index) != len(states):
            raise ValidationError("state labels must be distinct")
        self._states, self._index = states, index

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for s in as_tuple(labels):
            try:
                mask |= 1 << self.index[s]
            except (KeyError, TypeError):  # an unhashable label is unknown too
                raise ValidationError(f"unknown state {s!r}") from None
        return mask

    def event_of(self, mask: int) -> frozenset[str]:
        return frozenset(s for k, s in enumerate(self.states) if mask >> k & 1)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.states)) - 1

    def require_event(self, event: int) -> None:
        """The entry check of every event function: an int mask of these states."""
        if type(event) is not int or not 0 <= event <= self.full_mask:  # not a bool
            raise ValidationError(f"an event is an int state mask in 0..2**{len(self.states)} - 1")


class PossibilityCorrespondence(Value):
    """Total map from states to possibility sets, in state order.

    ``masks[k]`` is state ``k``'s set as a state mask; :attr:`sources` maps
    each distinct mask to the mask of the states that have it. Both are
    built in the pass that checks the targets' labels; ``kind`` is then
    ``belief`` for (i)+(ii), ``knowledge`` for (i)-(iii), else ``invalid``."""

    _fields = ("space", "targets")
    _derived = ("masks", "sources", "kind")

    def __init__(self, space: StateSpace, targets: tuple[frozenset[str], ...]):
        if not isinstance(space, StateSpace):
            raise ValidationError(f"expected a StateSpace, got {space!r}")
        targets = as_tuple(targets)
        if len(targets) != len(space.states):
            raise ValidationError("correspondence must cover every state")
        index = space.index
        read: dict[frozenset[str], list[int]] = {}  # each distinct set -> [mask, its states]
        frozen, masks = [], []
        for k, t in enumerate(targets):
            if type(t) is not frozenset:
                try:
                    t = frozenset(as_tuple(t))
                except TypeError:  # an unhashable label, such as ['a'], is no state
                    raise ValidationError(f"correspondence targets unknown states in {t!r}") from None
            entry = read.get(t)
            if entry is None:
                mask = 0
                for s in t:
                    try:
                        mask |= 1 << index[s]
                    except KeyError:
                        unknown = sorted((u for u in t if u not in index), key=str)
                        raise ValidationError(
                            f"correspondence targets unknown states {unknown}") from None
                entry = read[t] = [mask, 0]
            entry[1] |= 1 << k
            frozen.append(t)
            masks.append(entry[0])
        self._space, self._targets = space, tuple(frozen)
        self._masks, self._sources = tuple(masks), dict(read.values())
        self._kind = ("invalid" if not (self.serial and self.coherent)
                      else "knowledge" if self.reflexive else "belief")

    @property
    def serial(self) -> bool:
        return 0 not in self.sources

    @property
    def coherent(self) -> bool:
        """Every set lies inside its own sources: each state it keeps has it."""
        return all(m & pointing == m for m, pointing in self.sources.items())

    @property
    def reflexive(self) -> bool:
        """Every sources mask lies inside its set: each state having it is in it."""
        return all(m & pointing == pointing for m, pointing in self.sources.items())


class EpistemicModel(Value):
    """States, strategy maps and one possibility correspondence per player.

    ``strategy_maps[i]`` is aligned with the state order and must take values
    in the game's strategy set for player ``i``; a model over a restriction
    simply has smaller images. Inside, the choices are state masks, built
    where the maps' labels are checked: ``choosers[i][s]`` keeps the states at
    which player ``i`` chooses the strategy with index ``s``. Maps and
    correspondences are stored as tuples; ``model_class`` is their weakest ``kind``.
    """

    _fields = ("game", "space", "strategy_maps", "correspondences")
    _derived = ("choosers", "model_class")

    def __init__(self, game: Game, space: StateSpace, strategy_maps: tuple[tuple[str, ...], ...],
                 correspondences: tuple[PossibilityCorrespondence, ...]):
        if not isinstance(game, Game):
            raise ValidationError(f"expected a Game, got {game!r}")
        if not isinstance(space, StateSpace):
            raise ValidationError(f"expected a StateSpace, got {space!r}")
        strategy_maps = tuple(map(as_tuple, as_tuple(strategy_maps)))
        if len(strategy_maps) != game.n:
            raise ValidationError("one strategy map per player is required")
        choosers = []
        for i, (index, labels) in enumerate(zip(game._label_index, strategy_maps)):
            if len(labels) != len(space.states):
                raise ValidationError(f"strategy map for player {i + 1} is not total")
            masks = [0] * len(index)
            for k, label in enumerate(labels):
                try:
                    masks[index[label]] |= 1 << k
                except (KeyError, TypeError):  # an unhashable label is unknown too
                    raise ValidationError(f"player {i + 1} has no strategy {label!r}") from None
            choosers.append(tuple(masks))
        correspondences = as_tuple(correspondences)
        if len(correspondences) != game.n:
            raise ValidationError("one correspondence per player is required")
        for c in correspondences:
            if not isinstance(c, PossibilityCorrespondence):
                raise ValidationError(f"expected a PossibilityCorrespondence, got {c!r}")
            if c.space != space:
                raise ValidationError("correspondence is over a different state space")
        self._game, self._space, self._strategy_maps = game, space, strategy_maps
        self._correspondences, self._choosers = correspondences, tuple(choosers)
        self._model_class = min((c.kind for c in correspondences),
                                key=("invalid", "belief", "knowledge").index)

    def require_valid(self) -> None:
        if self.model_class == "invalid":
            raise ValidationError(
                "operation needs a belief- or knowledge-class model; "
                "validate the correspondences first"
            )


# --- event operators ---------------------------------------------------------

def box(model: EpistemicModel, event: int) -> int:
    """States where every player's possibility set lies inside the event."""
    model.require_valid()
    model.space.require_event(event)
    result = model.space.full_mask
    for c in model.correspondences:
        # each state has one set, so the sources masks are disjoint and their
        # sum is their union
        result &= sum(pointing for m, pointing in c.sources.items() if m & ~event == 0)
    return result


def box_chain(model: EpistemicModel, event: int) -> tuple[int, ...]:
    """The iterated-box chain from an event until it stabilizes."""
    chain = [box(model, event)]
    while True:
        nxt = box(model, chain[-1])
        if nxt == chain[-1]:
            return tuple(chain)
        chain.append(nxt)


def common_box(model: EpistemicModel, event: int) -> int:
    """The common-belief/common-knowledge event: the states from which every
    state reachable in one or more steps along the players' possibility
    relations lies in the event (Fagin, Halpern, Moses & Vardi 1995).

    Computed in one backward reachability pass over each correspondence's
    :attr:`~PossibilityCorrespondence.sources`, the per-set map the class
    checks read too. On a valid model the box
    chain decreases, so this is also the stable value of
    :func:`box_chain`, which the tests use as the reference. A state
    outside the event is not excluded for that alone: a non-reflexive
    belief model can put it in the common box."""
    model.require_valid()
    space = model.space
    space.require_event(event)
    # pointed_from[t]: the states w with t in P_i(w) for some player i,
    # read off each distinct possibility set once
    pointed_from = [0] * len(space.states)
    for c in model.correspondences:
        for m, pointing in c.sources.items():
            for t in set_bits(m):
                pointed_from[t] |= pointing
    # bad: the states with a successor outside the event or bad
    bad = 0
    frontier = space.full_mask & ~event
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = pointed_from[low.bit_length() - 1] & ~bad
        bad |= new
        frontier |= new
    return space.full_mask & ~bad


def restriction_of(model: EpistemicModel, event: int) -> Restriction:
    """Project an event through the strategy maps: component ``i`` is the
    image of player ``i``'s map over the event. An empty event gives empty
    components."""
    model.space.require_event(event)
    return Restriction(model.game, _strategy_masks(model, event))


def _strategy_masks(model: EpistemicModel, mask: int) -> tuple[int, ...]:
    """Per player, the strategy mask of the map's image over a state mask:
    the strategies that some state of the mask chooses."""
    return tuple(sum(1 << s for s, chosen in enumerate(choosers) if chosen & mask)
                 for choosers in model.choosers)


def rat_event(model: EpistemicModel, profile) -> int:
    """States where every player's chosen strategy is optimal, per that
    player's notion in the :class:`~epigame.elimination.NotionProfile`, in
    the restriction projected from their possibility set.

    Player by player, each distinct possibility set is projected once, and a
    strategy is checked only where some state with that set chooses it and
    every earlier player's choice is optimal."""
    model.require_valid()
    game = model.game
    notions = profile.validate_for(game)
    result = model.space.full_mask
    for i, (c, choosers) in enumerate(zip(model.correspondences, model.choosers)):
        rational = 0
        for m, pointing in c.sources.items():
            pointing &= result
            if not pointing:
                continue
            opponents = game.opponent_mask(i, _strategy_masks(model, m))
            for s, chosen in enumerate(choosers):
                if chosen & pointing and _holds_core(
                        game, notions[i], i, s, game.full_masks[i], opponents):
                    rational |= chosen & pointing
        result = rational
    return result


# --- model constructions -----------------------------------------------------

def state_label(joint: JointStrategy) -> str:
    return ".".join(joint)


def _standard_space(game: Game) -> tuple[StateSpace, tuple[tuple[str, ...], ...]]:
    """The states and strategy maps of the full game's standard model: the
    states are its joint strategies and the maps are projections."""
    joints = game.joint_strategies
    return StateSpace(tuple(map(state_label, joints))), tuple(zip(*joints))


def two_block_model(game: Game, restriction: Restriction) -> EpistemicModel:
    """Standard model of the full game whose players consider possible
    exactly the restriction's joint strategies (or their complement).

    With F the restriction's joint strategies as an event, every player's
    correspondence maps states of F to F and everything else to its
    complement; the correspondence collapses to the constant full space when
    F is empty or everything. Always knowledge-class.
    """
    space, maps = _standard_space(game)
    inside = frozenset(state_label(j) for j in restriction.joint_strategies)
    all_states = frozenset(space.states)
    complement = all_states - inside
    if not inside or not complement:
        targets = tuple(all_states for _ in space.states)
    else:
        targets = tuple(inside if s in inside else complement for s in space.states)
    correspondence = PossibilityCorrespondence(space, targets)
    return EpistemicModel(game, space, maps, (correspondence,) * game.n)


def singleton_model(game: Game) -> EpistemicModel:
    """Standard model of the full game where each state is its own
    possibility set, making every event evident."""
    space, maps = _standard_space(game)
    targets = tuple(frozenset({s}) for s in space.states)
    correspondence = PossibilityCorrespondence(space, targets)
    return EpistemicModel(game, space, maps, (correspondence,) * game.n)


# --- text format --------------------------------------------------------------

def parse_model(source: str, game: Game) -> EpistemicModel:
    """Parse the model file format: a ``states:`` line, then total
    ``map i: state -> strategy`` and ``poss i: state -> {states}`` lines in
    any order.

    One pass writes each line into per-player slots in state order. A
    ``map``/``poss`` line costs cutting the comment, one split at ':' and a
    lookup of the raw head text (``poss 2``, spacing and all) in a memo local
    to the call, which holds that player's slots; only a head not seen before
    and the ``states:`` line are read in full. Another memo reads each
    distinct raw ``{...}`` text once, so states with one possibility set
    share one frozenset."""
    space: StateSpace | None = None
    index: dict[str, int] = {}  # state label -> position, once the states are read
    slots: dict[str, list[list]] = {}  # keyword -> per player, one slot per state
    heads: dict[str, tuple[str, int, list]] = {}  # raw head -> (keyword, player, its slots)
    sets: dict[str, frozenset[str]] = {}  # raw '{...}' text -> the set

    for number, line in enumerate(source.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        raw_head, colon, rest = line.partition(":")
        found = heads.get(raw_head)
        if found is None or not colon:
            line = line.strip()
            if not line:
                continue
            head, rest = _split_directive(number, line)
            if head == "states":
                if space is not None:
                    raise ParseError("duplicate states directive", number, 1)
                try:
                    space = StateSpace(rest.split())
                except ValidationError as exc:
                    raise ParseError(str(exc), number, len("states: ") + 1) from None
                index = space.index
                slots = {kind: [[None] * len(space.states) for _ in range(game.n)]
                         for kind in ("map", "poss")}
                continue
            keyword = "map" if head.startswith("map") else "poss"
            if not head.startswith(keyword):
                raise ParseError(f"unknown directive {head.split()[0]!r}", number, 1)
            player = _parse_player_number(number, head, keyword, game.n)
            # before the states line there are no slots, and the line fails below
            found = heads[raw_head] = (keyword, player, slots[keyword][player] if slots else None)
        keyword, player, row = found
        left, arrow, right = rest.partition("->")
        if not arrow:
            raise ParseError(f"{keyword} line needs '->'", number, len(line.strip()))
        k = index.get(left.strip())
        if k is None:
            if space is None:
                raise ParseError("states directive must come first", number, 1)
            raise ParseError(f"unknown state {left.strip()!r}", number, 1)
        if keyword == "map":
            target = right.strip()
        else:
            target = sets.get(right)
            if target is None:
                text = right.strip()
                if not (text.startswith("{") and text.endswith("}")):
                    raise ParseError("poss line needs '{state ...}'", number, len(line.strip()))
                target = sets[right] = frozenset(text[1:-1].split())
        if row[k] is not None:
            raise ValidationError(
                f"duplicate {keyword} for player {player + 1} at state {left.strip()}")
        row[k] = target

    if space is None:
        raise ParseError("missing states directive", 0, 0)
    for keyword, rows in slots.items():
        for i, row in enumerate(rows):
            if None in row:
                raise ValidationError(f"missing {keyword} lines, e.g. player {i + 1} "
                                      f"state {space.states[row.index(None)]}")
    del sets  # the raw texts are read: free them before the masks are built
    correspondences = tuple(PossibilityCorrespondence(space, tuple(row)) for row in slots["poss"])
    return EpistemicModel(game, space, slots["map"], correspondences)


def render_model(model: EpistemicModel) -> str:
    lines = ["states: " + " ".join(model.space.states)]
    for i in range(model.game.n):
        for k, state in enumerate(model.space.states):
            lines.append(f"map {i + 1}: {state} -> {model.strategy_maps[i][k]}")
    states = model.space.states
    for i, c in enumerate(model.correspondences):
        inside = {m: " ".join(states[k] for k in set_bits(m)) for m in c.sources}  # each set once
        for state, mask in zip(states, c.masks):
            lines.append(f"poss {i + 1}: {state} -> {{{inside[mask]}}}")
    return "\n".join(lines) + "\n"


def validation_report(model: EpistemicModel) -> str:
    """Which of properties (i)-(iii) each correspondence satisfies, plus the
    derived model class."""
    lines = []
    for i, c in enumerate(model.correspondences):
        parts = [
            f"serial={'yes' if c.serial else 'no'}",
            f"coherent={'yes' if c.coherent else 'no'}",
            f"reflexive={'yes' if c.reflexive else 'no'}",
        ]
        lines.append(f"correspondence {i + 1}: " + " ".join(parts) + f" class={c.kind}")
    lines.append(f"model class: {model.model_class}")
    return "\n".join(lines) + "\n"
