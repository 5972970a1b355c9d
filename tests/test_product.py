"""Product models: coordinate-wise knowledge, updates, slice openness, the
per-model memo."""

from collections import Counter
from random import Random

import pytest

import geopal.product as product
from geopal.formula import Atom, KnowI, UnsupportedOperator, parse, random_formula
from geopal.product import (
    ProductEvaluator,
    ProductModel,
    h_open,
    random_product_model,
)
from geopal.topology import Topology, generate_from_subbasis


def indiscrete_pair():
    factor = Topology.from_sets([0, 1], [[], [0, 1]])
    return ProductModel.full([factor, factor], {"p": [(1, 0), (1, 1)]})


def test_knowledge_follows_coordinates():
    model = indiscrete_pair()
    # p depends only on the first coordinate: agent 2 (who varies the second)
    # knows it, agent 1 does not.
    assert model.satisfies((1, 0), parse("K2 p")) is True
    assert model.satisfies((1, 0), parse("K1 p")) is False
    assert all(model.satisfies(w, parse("K1 true")) for w in model.worlds)


def test_update_enables_knowledge():
    model = indiscrete_pair().update(parse("p"))
    assert model.worlds == frozenset({(1, 0), (1, 1)})
    assert model.satisfies((1, 0), parse("K1 p")) is True


def test_update_true_and_false():
    model = indiscrete_pair()
    assert model.update(parse("true")) == model
    assert model.update(parse("false")).worlds == frozenset()


def test_three_children_father_announcement():
    factor = Topology.from_sets([0, 1], [[], [0, 1]])
    worlds = ProductModel.full([factor] * 3).worlds
    valuation = {
        f"m_{name}": frozenset(w for w in worlds if w[i] == 1)
        for i, name in enumerate("abc")
    }
    model = ProductModel((factor,) * 3, worlds, valuation)
    updated = model.update(parse("m_a | m_b | m_c"))
    assert len(updated.worlds) == 7
    assert (0, 0, 0) not in updated.worlds


def test_update_commutes_for_atoms():
    for seed in range(150):
        model = random_product_model(seed)
        both = model.update(parse("p & q"))
        staged = model.update(parse("p")).update(parse("q"))
        assert both == staged
        other_order = model.update(parse("q")).update(parse("p"))
        assert both == other_order


def test_relativized_s4_per_agent():
    rng = Random(18)
    for seed in range(300):
        model = random_product_model(seed)
        phi = random_formula(rng, max_depth=2, agents=2)
        for agent in range(1, model.agent_count + 1):
            reflexive = parse(f"K{agent} ({phi}) -> ({phi})")
            transitive = parse(f"K{agent} ({phi}) -> K{agent} K{agent} ({phi})")
            assert model.truth(reflexive) == model.worlds, (seed, agent)
            assert model.truth(transitive) == model.worlds, (seed, agent)


def test_reduction_law_on_survivor_updates():
    # Spot check of the announcement/knowledge law at every surviving world.
    rng = Random(19)
    for seed in range(120):
        model = random_product_model(seed)
        evaluator = ProductEvaluator(model)
        phi = random_formula(rng, max_depth=2, agents=2)
        psi = random_formula(rng, max_depth=2, agents=2)
        for agent in (1, 2):
            lhs = parse(f"[!({phi})] K{agent} ({psi})")
            rhs = parse(f"({phi}) -> K{agent} [!({phi})] ({psi})")
            assert evaluator.table(lhs) == evaluator.table(rhs), (seed, agent)


def test_h_open_examples():
    model = indiscrete_pair()
    full = frozenset(model.worlds)
    assert h_open(model, full, 1) is True
    assert h_open(model, full, 2) is True
    # With an indiscrete factor, a singleton has no open slice.
    assert h_open(model, [(1, 0)], 1) is False
    assert h_open(model, [(1, 0)], 2) is False


def test_h_open_of_open_rectangle():
    sier = Topology.from_sets([0, 1], [[], [0], [0, 1]])
    indiscrete = Topology.from_sets(["x", "y"], [[], ["x", "y"]])
    model = ProductModel.full([sier, indiscrete])
    rectangle = {(0, "x"), (0, "y")}  # {0} x T', with {0} open in the factor
    assert h_open(model, rectangle, 1) is True
    assert h_open(model, rectangle, 2) is True
    column = {(1, "x"), (1, "y")}  # {1} is not open in the first factor
    assert h_open(model, column, 1) is False


def test_h_open_rejects_foreign_tuples():
    model = indiscrete_pair()
    with pytest.raises(ValueError):
        h_open(model, [(5, 0)], 1)
    with pytest.raises(ValueError):
        h_open(model, [(0, 0)], 3)


def test_world_and_agent_validation():
    model = indiscrete_pair().update(parse("p"))
    with pytest.raises(ValueError):
        model.satisfies((0, 0), parse("p"))  # eliminated world
    # Also where evaluation would never reach the node.
    for text in ("K3 p", "I p", "false & K3 p", "true | I p", "[!false] K3 p", "p -> I p"):
        with pytest.raises(UnsupportedOperator):
            model.truth(parse(text))
        with pytest.raises(UnsupportedOperator):
            model.satisfies((1, 0), parse(text))


def test_fresh_model_has_full_product():
    model = random_product_model(77)
    expected = 1
    for factor in model.factors:
        expected *= len(factor.points)
    assert len(model.worlds) == expected


def test_restricted_models_equal_constructed_ones():
    # `_restrict` skips the constructor's checks on a subset of a checked
    # model; the model it builds must equal the constructor's from the same fields.
    rng = Random(41)
    for seed in range(60):
        model = random_product_model(seed)
        surviving = frozenset(w for w in model.worlds if rng.random() < 0.5)
        restricted = product._restrict(model, surviving)
        built = ProductModel(model.factors, surviving, {a: area & surviving for a, area in model.valuation.items()})
        assert restricted == built and repr(restricted) == repr(built), seed
        f = random_formula(rng, max_depth=3, agents=model.agent_count, announce_depth=1)
        assert restricted.truth(f) == built.truth(f), (seed, str(f))
        assert restricted.update(f) == built.update(f), (seed, str(f))


def test_constructor_checks_worlds_and_valuation():
    factor = Topology.from_sets([0, 1], [[], [0, 1]])
    with pytest.raises(ValueError, match="arity"):
        ProductModel((factor, factor), frozenset({(0, 1), (0,)}))
    with pytest.raises(ValueError, match="not in the carrier"):
        ProductModel((factor, factor), frozenset({(0, 1), (0, 7)}))
    with pytest.raises(ValueError, match="non-surviving"):
        ProductModel((factor, factor), frozenset({(0, 1)}), {"p": frozenset({(1, 1)})})
    with pytest.raises(ValueError, match="at least one factor"):
        ProductModel((), frozenset())


# -- the per-model memo -----------------------------------------------------


def test_truth_computes_each_table_once(monkeypatch):
    # Atoms, modalities and announcements are the evaluator's clauses; each
    # runs once per model and formula.
    computed = Counter()
    for name in ("_modal", "_announce"):
        clause = getattr(ProductEvaluator, name)

        def counting(self, f, value, clause=clause):
            computed[id(self.model), f] += 1
            return clause(self, f, value)

        monkeypatch.setattr(ProductEvaluator, name, counting)
    model = indiscrete_pair()
    f = parse("[!p] K1 q & K2 [!p] (K1 q | p)")
    first = model.truth(f)
    assert computed and set(computed.values()) == {1}
    total = sum(computed.values())
    assert model.truth(f) is first
    model.truth(parse("[!p] K1 q"))  # a subformula of f: already computed
    assert sum(computed.values()) == total


def test_update_after_truth_restricts_at_most_once(monkeypatch):
    calls = []
    restrict = product._restrict

    def counting(model, surviving):
        calls.append(model)
        return restrict(model, surviving)

    monkeypatch.setattr(product, "_restrict", counting)
    model = indiscrete_pair()
    f = parse("[!p] K1 q")
    model.truth(f)
    calls.clear()
    updated = model.update(f)
    assert len(calls) <= 1
    assert model.update(f) is updated
    assert len(calls) <= 1
    calls.clear()
    model.update(parse("p"))  # announced inside f: already built
    assert calls == []


# -- the quantifier-form oracle ---------------------------------------------


def test_satisfies_agrees_with_truth_on_random_models():
    rng = Random(32)
    for seed in range(200):
        model = random_product_model(seed)
        f = random_formula(rng, max_depth=4, agents=model.agent_count, announce_depth=2)
        holds = model.truth(f)
        for world in model.loci():
            assert model.satisfies(world, f) == (world in holds), (seed, str(f), world)


def _h_open_reference(model, area, axis):
    """The variant scan h_open replaced: every axis variant of a member stays in the area."""
    area = frozenset(map(tuple, area))
    factor = model.factors[axis - 1]
    return all(
        v in area
        for world in area
        for v in model.variants(world, axis, factor.minimal[factor.index(world[axis - 1])])
    )


def test_h_open_matches_the_variant_scan():
    rng = Random(17)
    outcomes = Counter()
    for seed in range(150):
        model = random_product_model(seed)
        for axis in range(1, model.agent_count + 1):
            # Random areas are rarely open; knowledge extensions along the axis always are.
            areas = [[w for w in model.loci() if rng.random() < density] for density in (0.3, 0.8, 1.0)]
            areas.append(model.truth(KnowI(axis, Atom("p"))))
            for area in areas:
                verdict = h_open(model, area, axis)
                assert verdict == _h_open_reference(model, area, axis), (seed, axis, area)
                outcomes[verdict] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


# -- the mask index -----------------------------------------------------------


def _scrambled_model(rng):
    """Factors of unequal sizes with string labels listed out of sorted order,
    a random part of their product as worlds, and a random valuation."""
    factors = []
    for size in rng.sample([1, 2, 3, 4], rng.randint(2, 3)):
        labels = rng.sample("zyxwvu", size)
        subbasis = [rng.sample(labels, rng.randint(0, size)) for _ in range(2)]
        factors.append(generate_from_subbasis(labels, subbasis))
    full = ProductModel.full(factors).loci()
    worlds = frozenset(w for w in full if rng.random() < 0.7)
    valuation = {atom: frozenset(w for w in worlds if rng.random() < 0.5) for atom in ("p", "q")}
    return ProductModel(tuple(factors), worlds, valuation)


def _knowledge_reference(model, area, agent):
    """The variant scan knowledge_interior replaced: every surviving variant
    in the coordinate's minimal open stays in the area."""
    factor = model.factors[agent - 1]
    return frozenset(
        world
        for world in model.worlds
        if all(
            v not in model.worlds or v in area
            for v in model.variants(world, agent, factor.minimal[factor.index(world[agent - 1])])
        )
    )


def test_masks_on_unsorted_labels_and_partial_worlds():
    rng = Random(33)
    for seed in range(150):
        model = _scrambled_model(rng)
        assert model.loci() == sorted(model.worlds)
        f = random_formula(rng, max_depth=4, agents=model.agent_count, announce_depth=2)
        holds = model.truth(f)
        for world in model.loci():
            assert model.satisfies(world, f) == (world in holds), (seed, str(f), world)
        # Updated models keep the root's index; their K_i reads the same table.
        for stage in (model, model.update(parse("p | q")), model.update(f)):
            for agent in range(1, model.agent_count + 1):
                area = frozenset(w for w in stage.worlds if rng.random() < 0.6)
                mask = sum(1 << stage._bit[w] for w in area)
                known = product.knowledge_interior(stage, mask, agent)
                assert stage._read(known) == _knowledge_reference(stage, area, agent), (seed, agent)


def test_mixed_label_types_in_one_factor():
    # Labels that do not compare fall back to factor order for the index.
    factor = Topology.from_sets([0, "x", 1], [[], [0, "x"], [0, "x", 1]])
    model = ProductModel.full([factor, factor], {"p": [(0, "x"), ("x", 1), (1, 1)]})
    assert len(model.loci()) == 9
    f = parse("[!p | K2 p] K1 (p | K2 ~p)")
    holds = model.truth(f)
    assert all(model.satisfies(w, f) == (w in holds) for w in model.loci())
    assert model.update(f).loci() == [w for w in model.loci() if w in holds]
