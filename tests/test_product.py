"""Product models: coordinate-wise knowledge, updates, slice openness, the
order worlds are listed in."""

import io
import json
from collections import Counter
from random import Random

import pytest

import geopal.product as product
from geopal.cli import dump_model, load_model, run
from geopal.formula import Atom, KnowI, UnsupportedOperator, parse, random_formula
from geopal.product import ProductModel, h_open, random_product_model
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
    assert model.loci() == [(1, 0), (1, 1)]
    assert model.satisfies((1, 0), parse("K1 p")) is True


def test_update_true_and_false():
    model = indiscrete_pair()
    assert model.update(parse("true")) == model
    assert model.update(parse("false")).loci() == []


def test_three_children_father_announcement():
    factor = Topology.from_sets([0, 1], [[], [0, 1]])
    worlds = ProductModel.full([factor] * 3).worlds
    valuation = {
        f"m_{name}": frozenset(w for w in worlds if w[i] == 1)
        for i, name in enumerate("abc")
    }
    model = ProductModel((factor,) * 3, worlds, valuation)
    updated = model.update(parse("m_a | m_b | m_c"))
    assert len(updated.loci()) == 7
    assert (0, 0, 0) not in updated.loci()


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
        phi = random_formula(rng, max_depth=2, agents=2)
        psi = random_formula(rng, max_depth=2, agents=2)
        for agent in (1, 2):
            lhs = parse(f"[!({phi})] K{agent} ({psi})")
            rhs = parse(f"({phi}) -> K{agent} [!({phi})] ({psi})")
            assert model.table(lhs) == model.table(rhs), (seed, agent)


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


def test_knowledge_interior_refuses_agents_without_a_factor():
    # Agent 0 would read factor -1 (agent 2 here) and -1 factor -2 (agent
    # 1); agent 3 has no factor.  None of them builds or caches a relation.
    model = indiscrete_pair()
    for agent in (0, -1, model.agent_count + 1):
        with pytest.raises(UnsupportedOperator, match=f"agent {agent} out of range for 2 factors"):
            product.knowledge_interior(model, model._all, agent)
    assert model._knowledge == {}
    assert product.knowledge_interior(model, model._all, 2) == model._all


def test_fresh_model_has_full_product():
    model = random_product_model(77)
    expected = 1
    for factor in model.factors:
        expected *= len(factor.points)
    assert len(model.worlds) == expected


def test_restricted_models_equal_constructed_ones():
    # `updated` skips the constructor's checks on a carrier within a checked
    # model; the model it builds must equal the constructor's from the same
    # fields, and answer like a model listing only the surviving worlds.
    rng = Random(41)
    for seed in range(60):
        model = random_product_model(seed)
        carrier = sum(1 << i for i in range(model.size) if rng.random() < 0.5)
        restricted = model.updated(carrier)
        built = ProductModel(model.factors, model.worlds, model.valuation, carrier)
        assert restricted == built and repr(restricted) == repr(built), seed
        surviving = frozenset(restricted.loci())
        fresh = ProductModel(model.factors, surviving, {a: area & surviving for a, area in model.valuation.items()})
        assert restricted.to_json() == fresh.to_json(), seed
        f = random_formula(rng, max_depth=3, agents=model.agent_count, announce_depth=1)
        assert restricted.truth(f) == built.truth(f) == fresh.truth(f), (seed, str(f))
        assert restricted.update(f) == built.update(f), (seed, str(f))
        assert restricted.update(f).loci() == fresh.update(f).loci(), (seed, str(f))


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
    with pytest.raises(ValueError, match="carrier"):
        ProductModel((factor, factor), frozenset({(0, 1), (1, 1)}), carrier=0b100)


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
    a random part of their product (or all of it) as worlds, and a random
    valuation."""
    factors = []
    for size in rng.sample([1, 2, 3, 4], rng.randint(2, 3)):
        labels = rng.sample("zyxwvu", size)
        subbasis = [rng.sample(labels, rng.randint(0, size)) for _ in range(2)]
        factors.append(generate_from_subbasis(labels, subbasis))
    full = ProductModel.full(factors).loci()
    density = rng.choice([0.7, 1.0])
    worlds = frozenset(w for w in full if rng.random() < density)
    valuation = {atom: frozenset(w for w in worlds if rng.random() < 0.5) for atom in ("p", "q")}
    return ProductModel(tuple(factors), worlds, valuation)


def _knowledge_reference(model, area, agent):
    """The variant scan knowledge_interior replaced: every surviving variant
    in the coordinate's minimal open stays in the area."""
    factor = model.factors[agent - 1]
    surviving = frozenset(model.loci())
    return frozenset(
        world
        for world in surviving
        if all(
            v not in surviving or v in area
            for v in model.variants(world, agent, factor.minimal[factor.index(world[agent - 1])])
        )
    )


def test_masks_on_unsorted_labels_and_partial_worlds():
    rng = Random(33)
    paths = Counter()
    for seed in range(150):
        model = _scrambled_model(rng)
        paths["table" if model._radix is None else "shift"] += 1
        assert model.loci() == sorted(model.worlds)
        f = random_formula(rng, max_depth=4, agents=model.agent_count, announce_depth=2)
        holds = model.truth(f)
        for world in model.loci():
            assert model.satisfies(world, f) == (world in holds), (seed, str(f), world)
        # Updated models keep the root's index; their K_i reads the same table.
        for stage in (model, model.update(parse("p | q")), model.update(f)):
            for agent in range(1, model.agent_count + 1):
                area = frozenset(w for w in stage.loci() if rng.random() < 0.6)
                mask = sum(1 << stage._bit[w] for w in area)
                known = product.knowledge_interior(stage, mask, agent)
                assert stage._read(known) == _knowledge_reference(stage, area, agent), (seed, agent)
    assert paths["shift"] > 30 and paths["table"] > 30, paths


def _knowledge_by_lines(model, area, agent):
    """K_i read from the per-line (need, members) table, whatever the worlds."""
    outside = model._all & ~area
    pairs, _ = product._knowledge_table(model, agent)
    return model._all & sum(members for need, members in pairs if not need & outside)


def _factor(rng, size, labels):
    """A one-point, discrete, indiscrete, chain or random topology on the labels."""
    shape = "one-point" if size == 1 else rng.choice(["discrete", "indiscrete", "chain", "random"])
    subbasis = {
        "one-point": [],
        "discrete": [[label] for label in labels],
        "indiscrete": [],
        "chain": [labels[:k] for k in range(1, size)],
        "random": [rng.sample(labels, rng.randint(0, size)) for _ in range(2)],
    }[shape]
    return generate_from_subbasis(labels, subbasis)


def test_shift_knowledge_matches_the_line_table_on_full_products():
    # On a model listing the whole product, K_i is read by shifts over the
    # mixed-radix index; it must agree with the line table and the variant
    # scan on the root and on two updates.  Labels: ints, strings listed out
    # of order, mixed types (factor order), and frozensets, whose `<` is not
    # a total order.
    rng = Random(34)
    paths = Counter()
    for seed in range(200):
        label_kind = rng.choice(["int", "str", "mixed", "set"])
        factors = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 4)
            labels = {
                "int": rng.sample(range(10), size),
                "str": rng.sample("zyxwvu", size),
                "mixed": rng.sample([0, "x", 1, "y"], size),
                "set": [frozenset({i, 9 - i}) for i in rng.sample(range(5), size)],
            }[label_kind]
            factors.append(_factor(rng, size, labels))
        full = ProductModel.full(factors)
        valuation = {atom: frozenset(w for w in full.worlds if rng.random() < 0.5) for atom in ("p", "q")}
        model = ProductModel(tuple(factors), full.worlds, valuation)
        paths[label_kind, model._radix is not None] += 1
        f = random_formula(rng, max_depth=3, agents=model.agent_count, announce_depth=1)
        for stage in (model, model.update(parse("p | q")), model.update(f)):
            for agent in range(1, model.agent_count + 1):
                area = frozenset(w for w in stage.loci() if rng.random() < 0.6)
                mask = sum(1 << stage._bit[w] for w in area)
                known = product.knowledge_interior(stage, mask, agent)
                assert known == _knowledge_by_lines(stage, mask, agent), (seed, agent)
                assert stage._read(known) == _knowledge_reference(stage, area, agent), (seed, agent)
    assert all(paths[kind, True] > 30 for kind in ("int", "str", "mixed", "set")), paths


def test_mixed_label_types_in_one_factor(tmp_path):
    # Labels that do not compare fall back to factor order for the index,
    # and every listing of worlds (reports, model files) reads that order.
    factor = Topology.from_sets([0, "x", 1], [[], [0, "x"], [0, "x", 1]])
    model = ProductModel.full([factor, factor], {"p": [(0, "x"), ("x", 1), (1, 1)]})
    assert len(model.loci()) == 9
    f = parse("[!p | K2 p] K1 (p | K2 ~p)")
    holds = model.truth(f)
    assert all(model.satisfies(w, f) == (w in holds) for w in model.loci())
    updated = model.update(f)
    assert updated.loci() == [w for w in model.loci() if w in holds]
    assert updated.summary()[1] == "worlds: " + " ".join(map(product.fmt_world, updated.loci()))
    assert "v(p)={(0, 'x'),('x', 1),(1, 1)}" in model.describe()
    assert ProductModel.from_json(json.loads(json.dumps(model.to_json()))) == model
    again = ProductModel.from_json(json.loads(json.dumps(updated.to_json())))
    assert again.to_json() == updated.to_json() and again.truth(f) == updated.truth(f)
    path, emitted = tmp_path / "mixed.product.json", tmp_path / "updated.json"
    dump_model(model, str(path))
    out = io.StringIO()
    for argv in (["update", "--formula", str(f)], ["update", "--formula", "p", "--emit", str(emitted)],
                 ["ck", "--formula", "true"]):
        assert run([*argv, "--model", str(path)], out=out, err=out) == 0, out.getvalue()
    assert load_model(str(emitted)).to_json() == model.update(parse("p")).to_json()
    assert "worlds: (0,0) (0,x) (0,1) (x,0) (x,x) (x,1) (1,0) (1,x) (1,1)" in out.getvalue()
