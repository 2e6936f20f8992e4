"""Exhaustive references the tests check the engine against, written from the
definitions and sharing no helper with the code they check.

* ``set_partitions``: every partition of a set into non-empty blocks;
* ``enumerate_knowledge_correspondences``: every partition of a state space,
  each state mapped to its block;
* ``enumerate_belief_correspondences``: every serial and coherent
  correspondence (``P(w)`` non-empty, and ``P(v) = P(w)`` for ``v`` in
  ``P(w)``), found by trying every map from states to sets of states;
* ``largest_fixpoint_bruteforce``: the union of all post-fixpoints of a
  restriction operator, found by trying every restriction;
* ``monotonicity_counterexample``: a sampled probe of a restriction
  operator's monotonicity, the first pair ``G <= G'`` it finds with
  ``op(G)`` not inside ``op(G')``;
* ``opponent_offsets``: the places in a payoff table of a player's opponent
  profiles, read as mixed-radix numbers over the strategy counts;
* ``parse_restriction``: the reader of the ``restrict i: ...`` lines that
  ``render_restriction`` writes, for the round trip (no command reads them);
* ``box_from_targets``: box(E), the states whose possibility sets all lie
  inside E, read off the sets of state labels;
* ``image_of_states``: per player, the strategies the strategy map gives
  the states of a set of state labels, in the game's label order;
* ``is_evident`` and ``largest_evident_inside``: F is evident when F lies
  inside box(F); the largest evident event inside E is the greatest
  fixpoint of F -> F & box(F), reached from E by iterating;
* ``supports_best_response``: a correlated belief supports ``s_i`` when no
  alternative earns more in expectation, each payoff read from the table.
"""

import itertools
import random

from epigame.epistemic import EpistemicModel, PossibilityCorrespondence, StateSpace
from epigame.errors import ParseError, ValidationError
from epigame.games import CorrelatedBelief, Game, Restriction

# restrictions the brute-force fixpoint may try
ENUMERATION_BUDGET = 1 << 20


def set_partitions(items):
    """All partitions of ``items`` into non-empty blocks, as lists of lists.

    A partition is read off an assignment of a block number to each item in
    which every block number first appears after all smaller ones, so each
    partition comes from exactly one assignment."""
    items = list(items)
    for blocks in itertools.product(range(len(items)), repeat=len(items)):
        if all(b <= max(blocks[:k], default=-1) + 1 for k, b in enumerate(blocks)):
            partition = [[] for _ in range(max(blocks, default=-1) + 1)]
            for item, b in zip(items, blocks):
                partition[b].append(item)
            yield partition


def enumerate_knowledge_correspondences(space: StateSpace):
    for partition in set_partitions(space.states):
        block_of = {s: frozenset(block) for block in partition for s in block}
        yield PossibilityCorrespondence(space, tuple(block_of[s] for s in space.states))


def enumerate_belief_correspondences(space: StateSpace):
    states = space.states
    events = [
        frozenset(itertools.compress(states, chosen))
        for chosen in itertools.product((0, 1), repeat=len(states))
    ]
    non_empty = [e for e in events if e]
    for targets in itertools.product(non_empty, repeat=len(states)):
        of = dict(zip(states, targets))
        if all(of[v] == of[w] for w in states for v in of[w]):
            yield PossibilityCorrespondence(space, targets)


def monotonicity_counterexample(op, game: Game, samples: int, seed: int):
    """The first of ``samples`` random pairs ``(G, G')``, ``G <= G'``, with
    ``op(G)`` not inside ``op(G')``, else None. ``G'`` keeps each strategy,
    and ``G`` each strategy of ``G'``, with probability 1/2, drawn from
    ``Random(seed)`` in label order. None is evidence, not proof."""
    rng = random.Random(seed)

    def keep_half(masks):
        return tuple(sum(1 << k for k in range(mask.bit_length())
                         if mask >> k & 1 and rng.random() < 0.5) for mask in masks)

    full = tuple((1 << len(labels)) - 1 for labels in game.strategies)
    for _ in range(samples):
        big = keep_half(full)
        small = keep_half(big)
        images = [op.apply(Restriction(game, masks)).masks for masks in (small, big)]
        if any(mine & ~theirs for mine, theirs in zip(*images)):
            return Restriction(game, small), Restriction(game, big)
    return None


def largest_fixpoint_bruteforce(op, game: Game, budget: int = ENUMERATION_BUDGET) -> Restriction:
    """Componentwise union of all post-fixpoints ``G <= op(G)``. For a
    monotonic operator this is its largest fixpoint."""
    sizes = [len(labels) for labels in game.strategies]
    if 1 << sum(sizes) > budget:
        raise ValidationError(f"lattice has {1 << sum(sizes)} restrictions, budget is {budget}")
    union = [0] * game.n
    for masks in itertools.product(*(range(1 << k) for k in sizes)):
        image = op.apply(Restriction(game, masks)).masks
        if all(mine & ~theirs == 0 for mine, theirs in zip(masks, image)):
            union = [u | m for u, m in zip(union, masks)]
    return Restriction(game, tuple(union))


def opponent_offsets(counts, i, components):
    """The flat offsets, in product order, of player ``i``'s opponent profiles
    drawn from per-player strategy index lists, with ``i``'s own index 0. A
    joint profile's place in a table in product order (last player fastest)
    is the number whose digits are its indices, digit ``j`` in base
    ``counts[j]``."""
    offsets = []
    for joint in itertools.product(*([0] if j == i else c for j, c in enumerate(components))):
        offset = 0
        for index, count in zip(joint, counts):
            offset = offset * count + index
        offsets.append(offset)
    return offsets


def parse_restriction(source: str, game: Game) -> Restriction:
    """Read one ``restrict i: label ...`` line per player; ``#`` starts a
    comment. A malformed or repeated line is a `ParseError`, a missing
    player a `ValidationError`."""
    components: dict[int, tuple[str, ...]] = {}
    for number, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        words = head.split()
        if not colon or len(words) != 2 or words[0] != "restrict" or not words[1].isdecimal():
            raise ParseError("malformed restrict directive", number, 1)
        player = int(words[1]) - 1
        if not 0 <= player < game.n:
            raise ParseError(f"player number {player + 1} out of range", number, len("restrict ") + 1)
        if player in components:
            raise ParseError(f"duplicate restrict line for player {player + 1}", number, 1)
        components[player] = tuple(rest.split())
    missing = [i + 1 for i in range(game.n) if i not in components]
    if missing:
        raise ValidationError(f"missing restrict lines for players {missing}")
    return Restriction.of(game, tuple(components[i] for i in range(game.n)))


def box_from_targets(model: EpistemicModel, event: int) -> int:
    """The state mask of box(E): the states at which every player's
    possibility set, as labels, lies inside the event."""
    index = model.space.index
    result = 0
    for k in range(len(model.space.states)):
        if all(event >> index[v] & 1 for c in model.correspondences for v in c.targets[k]):
            result |= 1 << k
    return result


def image_of_states(model: EpistemicModel, states) -> tuple[tuple[str, ...], ...]:
    """The strategy labels each player's map gives the labelled states, in
    the game's label order: the projection of a possibility set."""
    images = []
    for labels, strategy_map in zip(model.game.strategies, model.strategy_maps):
        chosen = {strategy for state, strategy in zip(model.space.states, strategy_map)
                  if state in states}
        images.append(tuple(label for label in labels if label in chosen))
    return tuple(images)


def is_evident(model: EpistemicModel, event: int) -> bool:
    return event & ~box_from_targets(model, event) == 0


def largest_evident_inside(model: EpistemicModel, event: int) -> int:
    while True:
        smaller = event & box_from_targets(model, event)
        if smaller == event:
            return event
        event = smaller


def supports_best_response(game: Game, i: int, belief: CorrelatedBelief, s_i: str, G_i) -> bool:
    def expected(label):
        return sum(w * game.payoff(i, joint[:i] + (label,) + joint[i:])
                   for joint, w in belief.weights)

    own = expected(s_i)
    return all(own >= expected(a) for a in G_i)
