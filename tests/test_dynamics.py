"""Announcement limits, common knowledge, muddy children."""

from itertools import combinations
from math import comb
from random import Random

import pytest

from geopal.dynamics import (
    CHILD_NAMES,
    announce_while_true,
    common_knowledge_extension,
    father_formula,
    ignorance_formula,
    kripke_oracle,
    limit_model,
    muddy_model,
    muddy_scenario,
)
from geopal.formula import parse, random_formula
from geopal.product import ProductModel, knowledge_interior, random_product_model
from geopal.sslmodel import random_ssl_model
from geopal.topomodel import random_topomodel


def _proper_atom_models(kind_sampler, count):
    """Random models whose valuation of p is a proper subset of the loci."""
    produced = 0
    seed = 0
    while produced < count:
        model = kind_sampler(seed)
        seed += 1
        if model.update(parse("p")) != model:
            produced += 1
            yield model


SAMPLERS = {
    "topo": lambda seed: random_topomodel(seed, n=5, k=3),
    "ssl": lambda seed: random_ssl_model(seed),
    "product": lambda seed: random_product_model(seed),
}


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_atomic_limit_reached_in_one_stage(kind):
    for model in _proper_atom_models(SAMPLERS[kind], 30):
        trace = limit_model(model, parse("p"))
        assert trace.stage_count == 1
        assert trace.limit == model.update(parse("p"))


def test_truth_limit_is_zero_stages():
    model = random_topomodel(5, n=4, k=2)
    trace = limit_model(model, parse("true"))
    assert trace.stage_count == 0
    assert trace.limit == model
    assert trace.outcome == "stabilized-nonempty"


def test_sizes_strictly_decrease_and_dichotomy_holds():
    rng = Random(60)
    for kind, sampler in SAMPLERS.items():
        for seed in range(60):
            model = sampler(seed)
            modal = {"topo": "IC", "ssl": "KLED", "product": ""}[kind]
            agents = 2 if kind == "product" else 0
            f = random_formula(rng, max_depth=3, modal=modal, agents=agents)
            trace = limit_model(model, f)
            assert list(trace.sizes) == sorted(trace.sizes, reverse=True)
            assert len(set(trace.sizes)) == len(trace.sizes)
            if trace.outcome == "empty":
                assert trace.limit.size == 0
            else:
                assert trace.announcement_valid_in_limit is True
                assert trace.limit.truth(f) == frozenset(trace.limit.loci())
                assert all(trace.limit.satisfies(locus, f) for locus in trace.limit.loci())


def test_pointed_run_stops_when_formula_fails_at_locus():
    model, actual = muddy_model(3, ["a", "b"])
    after_father = model.update(father_formula(3))
    trace = announce_while_true(after_father, actual, ignorance_formula(3))
    assert trace.sizes == (7, 4)
    assert trace.outcome == "halted-at-locus"
    assert trace.final_locus == actual


def test_pointed_run_with_globally_true_formula_stops_immediately():
    model = random_product_model(9)
    world = sorted(model.worlds)[0]
    trace = announce_while_true(model, world, parse("true"))
    assert trace.stage_count == 0
    assert trace.outcome == "stabilized-nonempty"


def test_pointed_run_with_false_formula_makes_no_stage():
    model = random_product_model(9)
    world = sorted(model.worlds)[0]
    trace = announce_while_true(model, world, parse("false"))
    assert trace.stage_count == 0
    assert trace.outcome == "halted-at-locus"


def test_common_knowledge_of_validity_is_everything():
    model = random_product_model(23)
    result = common_knowledge_extension(model, parse("true"))
    assert result.worlds == model.worlds


def test_common_knowledge_of_contradiction_is_empty():
    model = random_product_model(23)
    assert common_knowledge_extension(model, parse("false")).worlds == frozenset()


def test_common_knowledge_after_father():
    model, _ = muddy_model(3, ["a", "b"])
    after = model.update(father_formula(3))
    result = common_knowledge_extension(after, father_formula(3))
    assert result.worlds == frozenset(after.loci())
    assert len(result.worlds) == 7


def test_nonempty_limits_yield_common_knowledge():
    rng = Random(61)
    seen = 0
    for seed in range(100):
        model = random_product_model(seed)
        f = random_formula(rng, max_depth=3, agents=2)
        trace = limit_model(model, f)
        if trace.outcome != "stabilized-nonempty":
            continue
        seen += 1
        result = common_knowledge_extension(trace.limit, f)
        assert result.worlds == frozenset(trace.limit.loci())
    assert seen >= 20


def _per_agent_common_knowledge(model, f):
    """Common knowledge round by round as one knowledge interior per agent:
    each round is the base met with every agent's interior of the last."""
    base = current = model.table(f)
    rounds = 0
    while True:
        refined = base
        for agent in range(1, model.agent_count + 1):
            refined &= knowledge_interior(model, current, agent)
        if refined == current:
            return model._read(current), rounds
        current, rounds = refined, rounds + 1


def test_common_knowledge_matches_the_per_agent_loop():
    # Full products (shift relations) at even seeds, sparse world lists
    # (pair relations) at odd ones, and three updates of each: one box over
    # the joint relation per round must give the worlds and round count of
    # the per-agent meet.
    rng = Random(29)
    cases = mismatches = deepest = 0
    for seed in range(400):
        model = random_product_model(seed)
        if seed % 2:
            listed = frozenset(w for w in model.worlds if rng.random() < 0.7)
            model = ProductModel(model.factors, listed, {a: area & listed for a, area in model.valuation.items()})
        agents = model.agent_count
        for stage in [model] + [model.update(random_formula(rng, 2, agents=agents)) for _ in range(3)]:
            for _ in range(8):
                f = random_formula(rng, 3, agents=agents)
                result = common_knowledge_extension(stage, f)
                cases += 1
                mismatches += (result.worlds, result.iterations) != _per_agent_common_knowledge(stage, f)
                deepest = max(deepest, result.iterations)
    assert (cases, mismatches) == (400 * 4 * 8, 0)
    assert deepest >= 2


def test_muddy_model_shape():
    model, actual = muddy_model(3, ["a", "b"])
    assert len(model.worlds) == 8
    assert actual == (1, 1, 0)
    # each agent's uncertainty at a world is exactly the own-bit flip
    evaluator_pairs = 0
    for world in model.worlds:
        for agent in range(3):
            flipped = world[:agent] + (1 - world[agent],) + world[agent + 1 :]
            assert flipped in model.worlds
            evaluator_pairs += 1
    assert evaluator_pairs == 24  # 12 unordered uncertainty edges


def test_muddy_three_two_matches_narrative():
    scenario = muddy_scenario(3, ["a", "b"])
    assert scenario.sizes == (8, 7, 4)
    assert scenario.ignorance_rounds == 1
    final = scenario.knowledge[-1]
    assert final["a"] == "knows-muddy"
    assert final["b"] == "knows-muddy"
    assert final["c"] == "unknown"
    assert scenario.unpointed_sizes == (7, 4, 1, 0)
    assert scenario.unpointed_outcome == "empty"


def test_muddy_single_child_knows_immediately():
    scenario = muddy_scenario(1, ["a"])
    assert scenario.sizes == (2, 1)
    assert scenario.ignorance_rounds == 0
    assert scenario.knowledge[-1]["a"] == "knows-muddy"


def test_muddy_rejects_empty_muddy_set():
    with pytest.raises(ValueError):
        muddy_scenario(3, [])
    with pytest.raises(ValueError):
        kripke_oracle(3, [])
    with pytest.raises(ValueError):
        muddy_scenario(3, ["z"])


def test_product_run_matches_kripke_oracle():
    cases = [
        (n, muddy) for n in range(1, 5) for size in range(1, n + 1) for muddy in combinations(CHILD_NAMES[:n], size)
    ]
    cases += [(n, muddy) for n in (8, 10) for muddy in ("a", "abc", "bdfh", CHILD_NAMES[:n])]
    for n, muddy in cases:
        scenario = muddy_scenario(n, muddy)
        oracle = kripke_oracle(n, muddy)
        assert scenario.rounds == oracle.rounds, (n, muddy)
        assert scenario.knowledge == oracle.knowledge, (n, muddy)
        assert scenario.ignorance_rounds == oracle.ignorance_rounds
        assert scenario.unpointed_sizes == oracle.unpointed_sizes
        assert scenario.unpointed_outcome == oracle.unpointed_outcome


def test_sixteen_children_follow_the_closed_form():
    # After the father and r ignorance rounds, the worlds with at most r
    # muddy children are gone; with three muddy, they know after round 2.
    n = 16
    remaining = [2**n - sum(comb(n, j) for j in range(r + 1)) for r in range(n + 1)]
    scenario = muddy_scenario(n, "abc")
    assert scenario.sizes == (2**n, *remaining[:3]) == (65_536, 65_535, 65_519, 65_399)
    assert scenario.ignorance_rounds == 2 and scenario.stop_reason == "halted-at-locus"
    final = {name: "knows-muddy" if name in "abc" else "unknown" for name in CHILD_NAMES[:n]}
    assert scenario.knowledge[-1] == final
    assert scenario.unpointed_sizes == tuple(remaining) and scenario.unpointed_outcome == "empty"


def test_children_range():
    for n in (0, len(CHILD_NAMES) + 1):
        with pytest.raises(ValueError, match="1..26 children"):
            muddy_model(n, "a")
        with pytest.raises(ValueError, match="1..26 children"):
            kripke_oracle(n, "a")
    assert CHILD_NAMES[:6] == "abcdef" and len(CHILD_NAMES) == 26


def test_muddy_run_finds_its_formulas_in_the_memo_by_identity(monkeypatch):
    # One ignorance formula per scenario, whose K_i nodes the knowledge
    # states read: no memo hit falls back to comparing formulas node by node.
    import geopal.formula as formula

    compared = []
    same = formula._same_structure
    monkeypatch.setattr(formula, "_same_structure", lambda a, b: compared.append(a) or same(a, b))
    scenario = muddy_scenario(4, "abc")
    assert scenario.ignorance_rounds == 2 and compared == []


def test_ssl_pointed_run_tracks_the_shrinking_neighbourhood():
    from geopal.sslmodel import SSLModel, Situation

    model = SSLModel.from_sets(["s", "t"], [["s"], ["s", "t"]], {"p": ["s"]})
    trace = announce_while_true(model, ("s", {"s", "t"}), parse("p"))
    assert trace.final_locus == Situation("s", frozenset({"s"}))
    assert trace.stage_count == 1


@pytest.mark.parametrize("kind, locus", [("topo", 99), ("ssl", (99, {99})), ("product", (99, 99))])
def test_pointed_run_rejects_a_foreign_locus(kind, locus):
    with pytest.raises(ValueError):
        announce_while_true(SAMPLERS[kind](0), locus, parse("p"))
