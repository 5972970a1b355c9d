"""Backward induction on finite perfect-information games, and the same
solution recovered as the announcement limit of node rationality.

A node is rational when no move on the path from the root to it was
strictly dominated at its decision point.  Move a strictly dominates move b
for the mover when the worst payoff a can still lead to beats the best
payoff b can still lead to, both measured over currently surviving leaves.
Iterating "keep the rational nodes" must converge, on generic trees, to the
path backward induction selects; `bi_via_announcements` checks that against
the direct fold.

Each rationality stage is one pass from the leaves up, linear in the tree
size: every surviving node gets the per-coordinate (min, max) of the payoffs
below it, read from integer keys that order as the Fraction payoffs do (each
coordinate scaled by the lcm of its denominators).  `backward_induction`
reads the Fractions themselves, so it stays an independent oracle.

Payoff ties make backward induction ambiguous, so ties are flagged
(breaking toward the lowest child index) rather than silently resolved, and
the announcement/induction agreement is only promised for generic trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from random import Random
from typing import Iterable

from .dynamics import LimitTrace, _fixpoint
from .topology import Topology, json_field, json_list


@dataclass(frozen=True)
class GameNode:
    """Decision node (player plus children) or leaf (payoff vector)."""

    player: int | None = None
    payoffs: tuple[Fraction, ...] | None = None
    children: tuple["GameNode", ...] = ()

    def __post_init__(self):
        if self.payoffs is not None:
            object.__setattr__(self, "payoffs", tuple(Fraction(x) for x in self.payoffs))
            if self.player is not None or self.children:
                raise ValueError("a leaf carries only its payoff vector")
        else:
            if self.player is None or self.player < 1:
                raise ValueError("decision nodes need a player index >= 1")
            if not self.children:
                raise ValueError("decision nodes need at least one child")

    @classmethod
    def leaf(cls, *payoffs) -> "GameNode":
        return cls(payoffs=tuple(payoffs))

    @classmethod
    def decision(cls, player: int, children: Iterable["GameNode"]) -> "GameNode":
        return cls(player=player, children=tuple(children))

    @property
    def is_leaf(self) -> bool:
        return self.payoffs is not None


@dataclass(frozen=True)
class GameTree:
    """Finite game tree with nodes indexed in preorder."""

    root: GameNode

    @classmethod
    def from_json(cls, data: dict) -> "GameTree":
        """Tree from {"root": node}: leaves {"payoff": [...]} with int or "p/q"
        entries, decision nodes {"player": i, "children": [...]}."""
        tree = cls(_node_from_json(json_field(data, "root")))
        tree.player_count  # raises on ragged payoff vectors or a player without a payoff
        return tree

    def to_json(self) -> dict:
        def node_json(node: GameNode):
            if node.is_leaf:
                return {"payoff": [int(x) if x.denominator == 1 else str(x) for x in node.payoffs]}
            return {"player": node.player, "children": [node_json(c) for c in node.children]}

        return {"kind": "game", "root": node_json(self.root)}

    @cached_property
    def _preorder(self) -> tuple[tuple, tuple, tuple]:
        """Nodes, parent ids and child ids, from one iterative preorder pass."""
        nodes, parents, kids = [], [], []
        stack = [(self.root, None)]
        while stack:
            node, parent = stack.pop()
            nid = len(nodes)
            nodes.append(node)
            parents.append(parent)
            kids.append([])
            if parent is not None:
                kids[parent].append(nid)
            if node.children:
                stack += zip(reversed(node.children), repeat(nid))
        return tuple(nodes), tuple(parents), tuple(map(tuple, kids))

    # Each index is its own attribute: rational_extension reads them in its inner loops.
    @cached_property
    def nodes(self) -> tuple[GameNode, ...]:
        return self._preorder[0]

    @cached_property
    def parent(self) -> tuple[int | None, ...]:
        return self._preorder[1]

    @cached_property
    def children_ids(self) -> tuple[tuple[int, ...], ...]:
        return self._preorder[2]

    @cached_property
    def leaf_ids(self) -> frozenset[int]:
        return frozenset(nid for nid, node in enumerate(self.nodes) if node.is_leaf)

    @cached_property
    def player_count(self) -> int:
        lengths = {len(node.payoffs) for node in self.nodes if node.is_leaf}
        if len(lengths) != 1:
            raise ValueError("all payoff vectors must have the same length")
        count = lengths.pop()
        highest = max((node.player for node in self.nodes if not node.is_leaf), default=1)
        if highest > count:
            raise ValueError(f"player {highest} has no payoff coordinate")
        return count

    @cached_property
    def depth(self) -> int:
        depths = [0] * len(self.nodes)
        for nid, parent in enumerate(self.parent):  # preorder: each parent comes first
            if parent is not None:
                depths[nid] = depths[parent] + 1
        return max(depths)

    @cached_property
    def _payoff_keys(self) -> tuple[tuple[int, ...] | None, ...]:
        """Each leaf's payoffs as ints that order as the Fractions do (None at
        decision nodes): coordinate k is scaled by the lcm of its denominators."""
        leaves = [node.payoffs for node in self.nodes if node.payoffs is not None]
        scales = [lcm(*(x.denominator for x in column)) for column in zip(*leaves, strict=True)]
        ratio = Fraction.as_integer_ratio
        return tuple(
            None
            if node.payoffs is None
            else tuple([n * (scale // d) for (n, d), scale in zip(map(ratio, node.payoffs), scales)])
            for node in self.nodes
        )

    def path_to(self, nid: int) -> list[int]:
        path = [nid]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path


def _node_from_json(body) -> GameNode:
    if isinstance(body, dict) and "payoff" in body:
        if "player" in body or "children" in body:
            raise ValueError("a leaf carries only its payoff vector")
        return GameNode.leaf(*map(_payoff, json_list(body["payoff"], "payoff")))
    player = json_field(body, "player")
    if type(player) is not int:
        raise ValueError(f"player must be an integer, got {player!r}")
    children = json_list(json_field(body, "children"), "children")
    return GameNode.decision(player, map(_node_from_json, children))


def _payoff(value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValueError(f"bad payoff {value!r}") from None


def tree_topology(tree: GameTree) -> Topology:
    """Topology on node ids whose opens are the descendant-closed node sets.

    Each node's minimal open is its subtree, so deeper information refines
    opens.
    """
    count = len(tree.nodes)
    minimal = [1 << nid for nid in range(count)]
    for nid in reversed(range(count)):  # preorder: children come after their parent
        for cid in tree.children_ids[nid]:
            minimal[nid] |= minimal[cid]
    return Topology(tuple(range(count)), tuple(minimal))


@dataclass(frozen=True)
class BIResult:
    value: tuple[Fraction, ...]
    path: tuple[int, ...]
    surviving: frozenset[int]
    generic: bool
    tie_nodes: tuple[int, ...]


def backward_induction(tree: GameTree) -> BIResult:
    """Leaf-to-root fold; each mover takes the child maximizing her payoff.

    Ties are resolved toward the lowest child index and flagged as
    non-generic.
    """
    values: dict[int, tuple[Fraction, ...]] = {}
    choice: dict[int, int] = {}
    ties = []
    for nid in range(len(tree.nodes) - 1, -1, -1):
        node = tree.nodes[nid]
        if node.is_leaf:
            values[nid] = node.payoffs
            continue
        coordinate = node.player - 1
        best_id = None
        best_value = None
        tied = False
        for cid in tree.children_ids[nid]:
            value = values[cid][coordinate]
            if best_value is None or value > best_value:
                best_id, best_value, tied = cid, value, False
            elif value == best_value:
                tied = True
        if tied:
            ties.append(nid)
        choice[nid] = best_id
        values[nid] = values[best_id]
    path = [0]
    while not tree.nodes[path[-1]].is_leaf:
        path.append(choice[path[-1]])
    return BIResult(
        value=values[0],
        path=tuple(path),
        surviving=frozenset(path),
        generic=not ties,
        tie_nodes=tuple(ties),
    )


def rational_extension(tree: GameTree, alive: frozenset[int]) -> frozenset[int]:
    """The surviving nodes reached without any strictly dominated move along
    the way.  The survivors must be closed toward the root (a node survives
    only together with its ancestors), as every rationality stage is.

    One pass from the leaves up gives each surviving node its span: the
    per-coordinate (min, max) payoff keys of the surviving leaves below it.
    """
    keys = tree._payoff_keys
    nodes = tree.nodes
    children_ids = tree.children_ids
    order = sorted(alive)
    spans = [None] * len(nodes)  # (mins, maxes) once a surviving leaf lies below
    dominated_edges = set()
    for nid in reversed(order):  # preorder: children come after their parent
        key = keys[nid]
        if key is not None:
            spans[nid] = (key, key)
            continue
        live = [cid for cid in children_ids[nid] if cid in alive]
        found = [spans[cid] for cid in live if spans[cid] is not None]
        if len(found) == 1:
            spans[nid] = found[0]
        elif found:
            spans[nid] = (
                tuple(map(min, *[span[0] for span in found])),
                tuple(map(max, *[span[1] for span in found])),
            )
        if len(live) < 2 or not found:
            continue
        # A child is dominated when some sibling's worst beats its best, or
        # when it has no surviving leaf and a sibling has one.
        coordinate = nodes[nid].player - 1
        best_worst = max([span[0][coordinate] for span in found])
        for cid in live:
            span = spans[cid]
            if span is None or span[1][coordinate] < best_worst:
                dominated_edges.add(cid)
    # Preorder ids put each parent before its children, and survivors are
    # closed toward the root: one ascending pass decides every node.
    rational = set()
    for nid in order:
        parent = tree.parent[nid]
        if parent is None or (parent in rational and nid not in dominated_edges):
            rational.add(nid)
    return frozenset(rational)


@dataclass(frozen=True)
class BiAnnouncementResult:
    trace: LimitTrace
    surviving: frozenset[int]
    induction: BIResult
    matches_backward_induction: bool
    generic: bool


def bi_via_announcements(tree: GameTree) -> BiAnnouncementResult:
    """Iterate the rationality announcement to its limit and compare with
    the backward induction fold.  Each stage is the survivor set."""
    sizes = []
    for surviving in _fixpoint(frozenset(range(len(tree.nodes))), lambda alive: rational_extension(tree, alive)):
        sizes.append(len(surviving))
    induction = backward_induction(tree)
    matches = (surviving & tree.leaf_ids) == frozenset((induction.path[-1],))
    return BiAnnouncementResult(
        trace=LimitTrace(tuple(sizes), "stabilized-nonempty", surviving),
        surviving=surviving,
        induction=induction,
        matches_backward_induction=matches,
        generic=induction.generic,
    )


def random_game_tree(
    seed: int,
    max_depth: int = 4,
    max_branching: int = 3,
    players: int = 2,
) -> GameTree:
    """Deterministic random generic tree: all payoffs distinct per player."""
    rng = Random(seed)

    def shape(depth: int) -> list | None:
        if depth == 0 or (depth < max_depth and rng.random() < 0.3):
            return None  # leaf
        return [shape(depth - 1) for _ in range(rng.randint(1, max_branching))]

    skeleton = shape(max_depth)
    if skeleton is None:
        skeleton = [None for _ in range(rng.randint(2, max_branching))]

    def count(part) -> int:
        return 1 if part is None else sum(map(count, part))

    leaf_count = count(skeleton)
    pools = [rng.sample(range(leaf_count * 3), leaf_count) for _ in range(players)]
    payoffs = zip(*pools)  # leaf i, in build order, gets entry i of every pool

    def build(part) -> GameNode:
        if part is None:
            return GameNode.leaf(*map(Fraction, next(payoffs)))
        return GameNode.decision(rng.randint(1, players), [build(sub) for sub in part])

    return GameTree(build(skeleton))
