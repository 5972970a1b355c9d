"""Backward induction and its announcement-limit reconstruction."""

import time
from fractions import Fraction
from random import Random

import pytest

from geopal.games import (
    BIResult,
    GameNode,
    GameTree,
    backward_induction,
    bi_via_announcements,
    random_game_tree,
    rational_extension,
    tree_topology,
)
from geopal.topology import bits, verify_topology


def example_tree():
    # Mover 1 chooses between a safe leaf and handing over to mover 2.
    return GameTree(GameNode.decision(1, [
        GameNode.leaf(1, 0),
        GameNode.decision(2, [GameNode.leaf(0, 2), GameNode.leaf(3, 1)]),
    ]))


def test_leaf_game():
    tree = GameTree(GameNode.leaf(2, 2))
    result = backward_induction(tree)
    assert result.value == (Fraction(2), Fraction(2))
    assert result.path == (0,)
    assert result.generic


def test_backward_induction_two_ply():
    result = backward_induction(example_tree())
    assert result.value == (Fraction(1), Fraction(0))
    assert result.path == (0, 1)


def test_tie_is_flagged():
    tree = GameTree(GameNode.decision(1, [GameNode.leaf(1, 0), GameNode.leaf(1, 5)]))
    result = backward_induction(tree)
    assert not result.generic
    assert result.tie_nodes == (0,)
    assert result.path == (0, 1)  # lowest child index on a tie


def test_rational_extension_drops_dominated_leaf_first():
    tree = example_tree()
    survivors = rational_extension(tree, frozenset(range(len(tree.nodes))))
    assert survivors == frozenset({0, 1, 2, 3})  # leaf (3,1) is node 4


def test_rational_extension_root_and_single_child_safe():
    chain = GameTree(GameNode.decision(1, [GameNode.decision(2, [GameNode.leaf(0, 0)])]))
    assert rational_extension(chain, frozenset({0, 1, 2})) == frozenset({0, 1, 2})


def test_announcement_limit_matches_example():
    result = bi_via_announcements(example_tree())
    assert result.trace.sizes == (5, 4, 2)
    assert result.surviving == frozenset({0, 1})
    assert result.matches_backward_induction


def test_depth_one_needs_one_round():
    tree = GameTree(GameNode.decision(1, [GameNode.leaf(2, 0), GameNode.leaf(1, 1)]))
    result = bi_via_announcements(tree)
    assert result.trace.stage_count == 1
    assert result.matches_backward_induction


def test_random_generic_trees_agree_with_induction():
    for seed in range(200):
        tree = random_game_tree(seed, max_depth=4, max_branching=3)
        result = bi_via_announcements(tree)
        assert result.generic, seed
        assert result.matches_backward_induction, seed
        # monotone decreasing sizes, root always alive
        assert list(result.trace.sizes) == sorted(result.trace.sizes, reverse=True)
        assert 0 in result.surviving
        assert result.trace.stage_count <= tree.depth


def test_tree_topology_single_node():
    space = tree_topology(GameTree(GameNode.leaf(2, 2)))
    assert {space.labels(o) for o in space.opens} == {frozenset(), frozenset({0})}


def test_tree_topology_root_two_leaves():
    space = tree_topology(GameTree(GameNode.decision(1, [GameNode.leaf(1, 0), GameNode.leaf(0, 1)])))
    assert {space.labels(o) for o in space.opens} == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_tree_topology_chain():
    chain = GameTree(GameNode.decision(1, [GameNode.decision(2, [GameNode.leaf(0, 0)])]))
    space = tree_topology(chain)
    assert len(space.opens) == 4
    assert verify_topology(space.points, space.opens) == []


def test_tree_topology_always_verifies():
    # Branching kept at 2 so the enumerated open families stay inspectable;
    # verification is quadratic in the family size.
    for seed in range(120):
        tree = random_game_tree(seed, max_depth=3, max_branching=2)
        space = tree_topology(tree)
        assert verify_topology(space.points, space.opens) == []


def test_tree_topology_builds_for_an_eighty_one_node_comb():
    # Node 2k decides between leaf 2k + 1 and the rest of the comb; the
    # last node, 80, is a leaf.
    comb = GameNode.leaf(40, -40)
    for k in range(39, -1, -1):
        comb = GameNode.decision(1 + k % 2, [GameNode.leaf(k, -k), comb])
    space = tree_topology(GameTree(comb))
    assert len(space.points) == 81
    for nid in range(0, 80, 2):
        assert space.minimal[nid] == space.full_mask >> nid << nid
        assert space.minimal[nid + 1] == 1 << nid + 1
    # Every decision node's subtree holds leaf 80: without it only the
    # other leaves are left open.
    assert space.interior(space.full_mask >> 1) == sum(1 << nid for nid in range(1, 80, 2))


def test_tree_topology_minimal_opens_are_subtrees():
    wide = GameTree(
        GameNode.decision(1, [
            GameNode.decision(2, [
                GameNode.decision(1, [GameNode.leaf(i, j, k) for k in range(3)])
                for j in range(3)
            ])
            for i in range(3)
        ])
    )
    assert len(wide.nodes) == 40
    trees = [wide] + [random_game_tree(seed, max_depth=3, max_branching=2) for seed in range(40)]
    for tree in trees:
        count = len(tree.nodes)
        descendant = tree_topology(tree)
        for x in range(count):
            subtree = {y for y in range(count) if x in tree.path_to(y)}
            assert descendant.labels(descendant.minimal[x]) == subtree


def test_tree_topology_interior_is_largest_descendant_closed_subset():
    rng = Random(12)
    for seed in range(40):
        tree = random_game_tree(seed, max_depth=3, max_branching=2)
        space = tree_topology(tree)
        for _ in range(6):
            area = rng.randrange(space.full_mask + 1)
            largest = 0
            candidate = area
            while True:  # every subset of the area, largest first
                if all(
                    candidate >> cid & 1
                    for nid in bits(candidate)
                    for cid in tree.children_ids[nid]
                ):
                    largest |= candidate
                if candidate == 0:
                    break
                candidate = (candidate - 1) & area
            assert space.interior(area) == largest, seed


def test_node_validation():
    with pytest.raises(ValueError):
        GameNode(player=1)  # no children
    with pytest.raises(ValueError):
        GameNode(player=0, children=(GameNode.leaf(1),))
    with pytest.raises(ValueError):
        GameNode(payoffs=(1,), player=2)


def test_payoff_vectors_checked():
    with pytest.raises(ValueError):
        GameTree(GameNode.decision(1, [GameNode.leaf(1, 2), GameNode.leaf(1,)])).player_count
    with pytest.raises(ValueError):
        GameTree(GameNode.decision(3, [GameNode.leaf(1, 2), GameNode.leaf(0, 0)])).player_count


def _recursive_index(tree):
    """The recursive traversals the preorder pass replaced: nodes, child ids, depth."""
    nodes, kids = [], []

    def visit(node):
        nid = len(nodes)
        nodes.append(node)
        kids.append([])
        for child in node.children:
            kids[nid].append(len(nodes))
            visit(child)

    def measure(node):
        return 0 if node.is_leaf else 1 + max(measure(child) for child in node.children)

    visit(tree.root)
    parents = [None] * len(nodes)
    for nid, ids in enumerate(kids):
        for cid in ids:
            parents[cid] = nid
    return nodes, tuple(map(tuple, kids)), tuple(parents), measure(tree.root)


def test_tree_index_matches_recursive_traversal():
    for seed in range(200):
        tree = random_game_tree(seed, max_depth=5, max_branching=3)
        nodes, kids, parents, depth = _recursive_index(tree)
        assert len(tree.nodes) == len(nodes) and all(a is b for a, b in zip(tree.nodes, nodes))
        assert tree.children_ids == kids
        assert tree.parent == parents
        assert tree.depth == depth


def test_deep_chain_indexes_and_solves():
    chain = GameNode.leaf(1, 0)
    for step in range(2000):
        chain = GameNode.decision(1 + step % 2, [chain])
    # At the root, mover 1 drops the outside option (0, 0) for the chain's (1, 0).
    tree = GameTree(GameNode.decision(1, [chain, GameNode.leaf(0, 0)]))
    assert len(tree.nodes) == 2003
    assert tree.depth == 2001
    result = bi_via_announcements(tree)
    assert result.matches_backward_induction and result.generic
    assert result.trace.sizes == (2003, 2002)


def _rational_reference(tree, alive):
    """The path rule: a surviving node is rational when no edge on its root
    path leads to a child whose surviving payoffs for the mover all lie
    below some sibling's."""

    def leaves_below(nid):
        stack, found = [nid], []
        while stack:
            top = stack.pop()
            if tree.nodes[top].is_leaf:
                found.append(top)
            stack.extend(tree.children_ids[top])
        return found

    def span(cid, mover):
        payoffs = [tree.nodes[leaf].payoffs[mover - 1] for leaf in leaves_below(cid) if leaf in alive]
        return (min(payoffs), max(payoffs)) if payoffs else None

    dominated = set()
    for nid in alive:
        node = tree.nodes[nid]
        spans = {cid: span(cid, node.player) for cid in tree.children_ids[nid] if cid in alive}
        for cid, own in spans.items():
            if len(spans) > 1 and any(
                other != cid and theirs is not None and (own is None or theirs[0] > own[1])
                for other, theirs in spans.items()
            ):
                dominated.add(cid)
    return frozenset(nid for nid in alive if not dominated.intersection(tree.path_to(nid)[1:]))


def test_rational_extension_matches_the_path_rule():
    for seed in range(200):
        tree = random_game_tree(seed, max_depth=5, max_branching=3, players=2 + seed % 2)
        alive = frozenset(range(len(tree.nodes)))
        while True:
            survivors = rational_extension(tree, alive)
            assert survivors == _rational_reference(tree, alive), seed
            if survivors == alive:
                break
            alive = survivors


def test_rationality_stage_is_linear_in_depth():
    chain = GameNode.leaf(1, 0)
    for step in range(4000):
        chain = GameNode.decision(1 + step % 2, [chain])
    tree = GameTree(GameNode.decision(1, [chain, GameNode.leaf(0, 0)]))
    alive = frozenset(range(len(tree.nodes)))
    assert len(tree.nodes) == 4003
    tree.nodes  # index the tree outside the timed stage
    start = time.perf_counter()
    survivors = rational_extension(tree, alive)
    assert time.perf_counter() - start < 0.2
    assert survivors == alive - {4002}


def _random_payoff_tree(rng, players):
    """Random tree whose payoffs are Fractions with denominators 1..12,
    negative values, and ties drawn on purpose from a small pool."""
    pool = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(8)]

    def payoff():
        return pool[rng.randrange(len(pool))] if rng.random() < 0.5 else Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    def build(depth):
        if depth == 0 or rng.random() < 0.25:
            return GameNode.leaf(*(payoff() for _ in range(players)))
        return GameNode.decision(rng.randint(1, players), [build(depth - 1) for _ in range(rng.randint(1, 4))])

    return GameTree(build(rng.randint(2, 5)))


def test_rational_stages_match_the_path_rule_on_fraction_payoffs_with_ties():
    rng = Random(13)
    for trial in range(300):
        tree = _random_payoff_tree(rng, players=2 + trial % 2)
        alive = frozenset(range(len(tree.nodes)))
        sizes = [len(alive)]
        while True:
            survivors = _rational_reference(tree, alive)
            assert rational_extension(tree, alive) == survivors, trial
            if survivors == alive:
                break
            alive = survivors
            sizes.append(len(alive))
        result = bi_via_announcements(tree)
        assert result.trace.sizes == tuple(sizes), trial
        assert result.surviving == alive, trial


def test_rational_extension_on_survivors_without_a_leaf_below():
    # Survivors need only be closed toward the root, so a surviving decision
    # node may have lost every leaf below it: such a child is dominated only
    # when a sibling still has a surviving leaf.
    tree = GameTree(GameNode.decision(1, [
        GameNode.decision(2, [GameNode.leaf(5, 0)]),
        GameNode.decision(2, [GameNode.leaf(0, 1), GameNode.leaf(1, 0)]),
        GameNode.leaf(Fraction(1, 3), 0),
    ]))
    for surviving in ({0, 1, 3}, {0, 1, 3, 4}, {0, 1, 3, 6}, {0, 1, 3, 4, 6}, {0, 1, 2, 3, 6}):
        alive = frozenset(surviving)
        assert rational_extension(tree, alive) == _rational_reference(tree, alive), surviving
    assert rational_extension(tree, frozenset({0, 1, 3})) == {0, 1, 3}
    assert rational_extension(tree, frozenset({0, 1, 3, 6})) == {0, 6}


def test_comb_of_three_thousand_decision_nodes_answers_at_once():
    # Node k has a leaf child and the rest of the comb.  Mover 1's leaves lie
    # below everything further down and mover 2's above it, so the first
    # stage settles the whole comb.
    size = 3000
    comb = GameNode.leaf(size, -size)
    for k in range(size - 1, -1, -1):
        comb = GameNode.decision(1 + k % 2, [GameNode.leaf(k, -k), comb])
    tree = GameTree(comb)
    assert len(tree.nodes) == 2 * size + 1
    start = time.perf_counter()
    result = bi_via_announcements(tree)
    assert time.perf_counter() - start < 0.5
    assert result.trace.sizes == (2 * size + 1, 3)
    assert result.surviving == {0, 2, 3}  # mover 2 takes her leaf at node 2
    assert result.matches_backward_induction and result.generic
    assert tree.depth == size
