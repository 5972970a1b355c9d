"""Announcement elimination, schema validity, extensional equivalence."""

import dataclasses
import itertools
import time
from collections import Counter
from functools import partial
from pathlib import Path
from random import Random

import pytest

from geopal.formula import (
    FRAGMENTS,
    And,
    Announce,
    Atom,
    Bot,
    Closure,
    Effort,
    EffortDual,
    Implies,
    Interior,
    Know,
    KnowI,
    Not,
    Or,
    Possible,
    Top,
    UnsupportedOperator,
    children,
    complexity,
    parse,
    random_formula,
    rebuild,
    render,
    walk,
)
from geopal import formula, product, rewrite, sslmodel, topology, topomodel
from geopal.rewrite import (
    SEMANTICS,
    AxiomId,
    _single_step,
    axiom_instance,
    check_axiom,
    equivalent_on,
    normalize_duals,
    reduce,
    schema_pool,
)
from geopal.sslmodel import SSLModel, random_ssl_model, situations
from geopal.product import random_product_model
from geopal.topology import bits, compress_mask
from geopal.topomodel import random_topomodel


def has_announce(f):
    return any(isinstance(node, Announce) for node in walk(f))


def test_reduce_atomic():
    assert render(reduce(parse("[!p] q"), "ssl")) == "p -> q"


def test_reduce_negation():
    assert render(reduce(parse("[!p] ~q"), "ssl")) == "p -> ~(p -> q)"


def test_reduce_knowledge():
    assert render(reduce(parse("[!p] K q"), "ssl")) == "p -> K (p -> q)"


def test_reduce_interior():
    assert render(reduce(parse("[!p] I q"), "topo")) == "p -> I (p -> q)"


def test_reduce_announcing_truth_preserves_meaning():
    rng = Random(40)
    for seed in range(60):
        model = random_topomodel(seed, n=4, k=3)
        f = random_formula(rng, max_depth=3, modal="IC")
        reduced = reduce(Announce(parse("true"), f), "topo")
        assert not has_announce(reduced)
        assert equivalent_on(model, f, reduced)


def test_reduce_rejects_foreign_operators():
    with pytest.raises(UnsupportedOperator):
        reduce(parse("[!p] K q"), "topo")
    with pytest.raises(UnsupportedOperator):
        reduce(parse("I p"), "ssl")
    with pytest.raises(UnsupportedOperator):
        reduce(parse("E p"), "product")


def _node_of(kind):
    """One node of the class over the atoms p and q."""
    p, q = Atom("p"), Atom("q")
    if kind is Atom:
        return p
    if kind is KnowI:
        return KnowI(1, p)
    return kind(*(p, q)[: len(dataclasses.fields(kind))])


_SAMPLE_MODELS = {
    "topo": random_topomodel(0, n=3, k=2),
    "ssl": random_ssl_model(0),
    "product": random_product_model(0),
}


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_fragments_are_enforced_everywhere(semantics):
    # reduce, truth and satisfies reject exactly the node classes outside the
    # fragment, also inside a branch that evaluation skips.
    model = _SAMPLE_MODELS[semantics]
    locus = model.loci()[0]
    kinds = [Atom, Top, Bot, Not, And, Or, Implies, Interior, Closure,
             Know, Possible, Effort, EffortDual, KnowI, Announce]
    for kind in kinds:
        node = _node_of(kind)
        for f in (node, Or(Top(), node)):
            checks = (
                lambda: reduce(f, semantics),
                lambda: model.truth(f),
                lambda: model.satisfies(locus, f),
            )
            if semantics == "topo":
                checks += (lambda: topomodel.satisfies(model, locus, f),)
            for check in checks:
                if kind in FRAGMENTS[semantics]:
                    check()
                else:
                    with pytest.raises(UnsupportedOperator, match=kind.__name__):
                        check()


def test_oracle_is_independent_of_the_fast_paths(monkeypatch):
    # With every evaluator and table-based update made to raise, satisfies
    # still agrees with the truth sets computed before, nested announcements
    # included.
    rng = Random(4)
    nested = {"topo": "[![!p] I q] C [!~q] p", "ssl": "[![!p] K q] E [!~q] L p",
              "product": "[![!p] K1 q] K2 [!~q] p"}
    repertoire = {"topo": ("IC", 0), "ssl": ("KLED", 0), "product": ("", 2)}
    cases = []
    for seed in range(25):
        models = {"topo": random_topomodel(seed, 4, 3), "ssl": random_ssl_model(seed, 4, 4),
                  "product": random_product_model(seed, 2, 3)}
        for semantics, model in models.items():
            modal, agents = repertoire[semantics]
            for f in (parse(nested[semantics]),
                      random_formula(rng, 4, modal=modal, agents=agents, announce_depth=2)):
                cases.append((model, f, model.truth(f)))

    def fast_path(*args):
        raise AssertionError("the oracle reached a fast path")

    for module in (topology, formula, product):  # the modal kernel, under each name it is called by
        monkeypatch.setattr(module, "preimage", fast_path)
    for kind in (topomodel.TopoModel, sslmodel.SSLModel, product.ProductModel):
        monkeypatch.setattr(kind, "table", fast_path)
    modal = {"topo": "C p", "ssl": "E p", "product": "K1 p"}
    for fresh in (random_topomodel(99, 3, 2), random_ssl_model(99), random_product_model(99)):
        with pytest.raises(AssertionError, match="fast path"):  # the patches are live
            fresh.truth(parse("p"))
        with pytest.raises(AssertionError, match="fast path"):
            fresh._modal(parse(modal[fresh.fragment]), fresh._all)
    with pytest.raises(AssertionError, match="fast path"):
        product.knowledge_interior(random_product_model(99), 0, 1)
    assert sum(any(isinstance(n, Announce) for n in walk(f)) for _, f, _ in cases) > 100
    for model, f, holds in cases:
        for locus in model.loci():
            assert model.satisfies(locus, f) == (locus in holds), (str(f), locus)


def test_oracle_reads_long_runs_of_connectives_on_every_kind():
    # `holds` keeps negations, connectives and announcements on its own
    # stack, so a run 3,000 deep answers like the table on every kind.
    runs = ["~" * 3000 + "p", "[!q] " + "~" * 3000 + "p", " -> ".join(["q"] * 3000 + ["p"]),
            " | ".join(["q"] * 3000 + ["p"])]
    for model in (random_topomodel(5, 4, 3), random_ssl_model(5), random_product_model(5)):
        for f in map(parse, runs):
            holds = model.truth(f)
            assert [model.satisfies(locus, f) for locus in model.loci()] == [
                locus in holds for locus in model.loci()
            ], str(f)[:20]


def test_reduce_handles_duals_via_negation_form():
    reduced = reduce(parse("[!p] C q"), "topo")
    assert not has_announce(reduced)
    for seed in range(40):
        model = random_topomodel(seed, n=4, k=3)
        assert equivalent_on(model, parse("[!p] C q"), reduced)


def test_reduce_output_announcement_free():
    rng = Random(41)
    repertoire = {"topo": "IC", "ssl": "KLED", "product": ""}
    for semantics, modal in repertoire.items():
        agents = 2 if semantics == "product" else 0
        for _ in range(150):
            f = random_formula(rng, max_depth=6, modal=modal, agents=agents, announce_depth=3)
            reduced = reduce(f, semantics)
            assert not has_announce(reduced)


def _outermost_step(f):
    """One schema step at the outermost applicable announcement (the
    strategy `reduce` does not use), or None if none is left."""
    if type(f) is Announce and type(f.body) is not Announce:
        return _single_step(f.announced, f.body)
    kids = children(f)
    for i, kid in enumerate(kids):
        step = _outermost_step(kid)
        if step is not None:
            return rebuild(f, kids[:i] + (step,) + kids[i + 1 :])
    return None


def _outermost_normal_form(f):
    f = normalize_duals(f)
    while (step := _outermost_step(f)) is not None:
        f = step
    return f


def test_strategies_agree():
    # The schema set is orthogonal, so innermost elimination and repeated
    # outermost steps reach the same normal form, not merely equivalent ones.
    rng = Random(42)
    for _ in range(200):
        f = random_formula(rng, max_depth=5, modal="KLED", announce_depth=2)
        assert reduce(f, "ssl") == _outermost_normal_form(f)
    for _ in range(100):
        f = random_formula(rng, max_depth=5, modal="IC", announce_depth=2)
        assert reduce(f, "topo") == _outermost_normal_form(f)


def test_every_outermost_step_shrinks_complexity():
    rng = Random(43)
    for _ in range(120):
        f = normalize_duals(
            random_formula(rng, max_depth=5, modal="KLED", announce_depth=2)
        )
        measure = complexity(f)
        while True:
            step = _outermost_step(f)
            if step is None:
                break
            next_measure = complexity(step)
            assert next_measure < measure
            f, measure = step, next_measure
        assert not has_announce(f)


def test_axiom_id_ranges():
    AxiomId("ssl", 5)
    with pytest.raises(ValueError):
        AxiomId("topo", 5)
    with pytest.raises(ValueError):
        AxiomId("product", 0)
    with pytest.raises(ValueError):
        AxiomId("kripke", 1)


def test_schema_pool_is_layered():
    pool = schema_pool("ssl")
    texts = {render(f) for f in pool["phi"]}
    assert "p | K q" in texts  # boolean over modal: the layer that matters


@pytest.mark.parametrize(
    "semantics, index",
    [("topo", 1), ("topo", 2), ("topo", 3), ("topo", 4),
     ("ssl", 1), ("ssl", 2), ("ssl", 3), ("ssl", 4),
     ("product", 1), ("product", 2), ("product", 3), ("product", 4)],
)
def test_sound_schemas_have_no_counterexamples(semantics, index):
    report = check_axiom(AxiomId(semantics, index), sample_size=60, seed=90)
    assert report.valid_on_sample, report.render()


def test_effort_schema_fails_and_is_reverified():
    report = check_axiom(AxiomId("ssl", 5), sample_size=120, seed=90)
    assert not report.valid_on_sample
    # The report holds fresh models, not the memos the harness filled.
    assert all("_tables" not in vars(c.model) for c in report.counterexamples)
    smallest = report.minimal()
    assert smallest.model.satisfies(smallest.locus, smallest.lhs) == smallest.lhs_value
    assert smallest.model.satisfies(smallest.locus, smallest.rhs) == smallest.rhs_value
    assert smallest.lhs_value != smallest.rhs_value
    assert "counterexamples" in report.render()


def test_effort_schema_pinned_counter_model():
    # Directly constructed witness: announcing (p | K q) breaks the effort
    # law at (s, {s,t,u}) because {s,t} shrinks to a refinement of the
    # shrunken {s,t,u} even though it was no refinement of {s,t,u} itself.
    model = SSLModel.from_sets(
        ["s", "t", "u"], [["s", "t", "u"], ["s", "t"]], {"p": ["s"], "q": ["s", "t"]}
    )
    phi, psi = parse("p | K q"), parse("K p")
    lhs, rhs = axiom_instance(AxiomId("ssl", 5), phi, psi)
    locus = [sit for sit in situations(model)
             if sit.point == "s" and len(sit.nbhd) == 3][0]
    assert model.satisfies(locus, lhs) is True
    assert model.satisfies(locus, rhs) is False


ALL_SCHEMAS = [AxiomId(s, i) for s, top in (("topo", 4), ("ssl", 5), ("product", 4))
               for i in range(1, top + 1)]


def _agent_counts(axiom):
    return [2, 3] if (axiom.semantics, axiom.index) == ("product", 4) else [1]


def _instances(axiom, pools, agent_count):
    """(phi, psi, chi, agent, body) for every instance, numbered as
    `check_axiom` numbers them: phi p over body b is `p * len(bodies) + b`."""
    bodies = rewrite._bodies(axiom, pools, agent_count)
    return [(phi, *body) for phi in pools["phi"] for body in bodies]


@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_shared_instances_equal_axiom_instance(axiom):
    pools = schema_pool(axiom.semantics)
    pooled = {id(f) for pool in pools.values() for f in pool}
    for n in _agent_counts(axiom):
        instances = _instances(axiom, pools, n)
        assert [i[:4] for i in instances] == list(rewrite._instantiations(axiom, pools, n))
        bodies = {}
        for phi, psi, chi, agent, body in instances:
            assert (Announce(phi, body), _single_step(phi, body)) == axiom_instance(axiom, phi, psi, chi, agent)
            assert id(phi) in pooled
            bodies.setdefault(body, set()).add(id(body))
        # Each body is one object for every phi it is announced under, and
        # a pool formula wherever it equals one.
        assert all(len(objects) == 1 for objects in bodies.values())
        assert len(instances) == len(pools["phi"]) * len(bodies)
        assert any(objects <= pooled for objects in bodies.values())


def test_bodies_are_listed_with_no_structural_walk(monkeypatch):
    walks, same_structure = [], formula._same_structure
    monkeypatch.setattr(formula, "_same_structure", lambda *a: walks.append(a) or same_structure(*a))
    pooled = 0
    for axiom in ALL_SCHEMAS:
        pools = schema_pool(axiom.semantics)
        for n in _agent_counts(axiom):
            bodies = rewrite._bodies(axiom, pools, n)
            pooled += sum(any(body is f for f in pools["phi"]) for *_, body in bodies)
    assert pooled and not walks


def test_a_body_equal_to_a_pool_formula_is_that_formula():
    pools = schema_pool("ssl")
    know_p = next(f for f in pools["psi"] if f == Know(Atom("p")))
    phi, *_, body = _instances(AxiomId("ssl", 4), pools, 1)[0]
    assert Announce(phi, body) == Announce(Atom("p"), Know(Atom("p")))
    assert body is know_p


@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_check_axiom_builds_each_instance_once_per_agent_count(axiom, monkeypatch):
    # Most unions of 25 models are wider than half the tile bound, so most
    # tiles are one union, read for one mask.
    _assert_one_step_per_tile_and_body(axiom, 25, 11, monkeypatch)


@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_check_axiom_steps_once_per_tile_on_one_model(axiom, monkeypatch):
    # The axiom corpus's shape: a tile holds several of one model's masks,
    # and seed 9's model breaks ssl-5.
    _assert_one_step_per_tile_and_body(axiom, 1, 9, monkeypatch)


def _assert_one_step_per_tile_and_body(axiom, models, seed, monkeypatch):
    """`check_axiom(axiom, models, seed)` lists the bodies once per agent
    count and takes one `_single_step` per (tile, body) on masks."""
    listed, steps = [], []
    bodies, single_step = rewrite._bodies, rewrite._single_step
    monkeypatch.setattr(rewrite, "_bodies", lambda *a: listed.append(a[2]) or bodies(*a))
    monkeypatch.setattr(rewrite, "_single_step", lambda *a: steps.append(a) or single_step(*a))
    assert check_axiom(axiom, models, seed).valid_on_sample == (str(axiom) != "ssl-5")
    per_agent = (axiom.semantics, axiom.index) == ("product", 4)
    counts = {rewrite._SAMPLERS["product"](seed + o).agent_count for o in range(models)} if per_agent else {1}
    if per_agent and models > 1:
        assert len(counts) > 1
    assert sorted(listed) == sorted(counts)
    # One schema step per body, tile and run of models, each read on masks:
    # a tile holds as many of the distinct phi masks on the union as fit
    # the tile bound side by side.  Only a flagged ssl-5 pair
    # builds its right side as a node.
    pools = schema_pool(axiom.semantics)
    sampled = ((o, rewrite._SAMPLERS[axiom.semantics](seed + o)) for o in range(models))
    expected = copies = 0
    for run in rewrite._runs(sampled, axiom.semantics):
        union = formula.disjoint_union([model for _, model in run])[0]
        masks = {union.table(phi) for phi in pools["phi"]}
        per_tile = max(1, rewrite.TILE_WIDTH // len(union._order))
        tiles = -(-len(masks) // per_tile)
        agent_count = run[0][1].agent_count if per_agent else 1
        bodies = len(list(rewrite._instantiations(axiom, pools, agent_count))) // len(pools["phi"])
        expected += tiles * bodies
        copies = max(copies, min(per_tile, len(masks)))
    assert copies > 1 or models > 1
    on_masks = [step for step in steps if type(step[0]) is int]
    assert len(on_masks) == expected
    assert all(step[3] != rebuild for step in on_masks)
    assert len(steps) == len(on_masks) or str(axiom) == "ssl-5"


def _sampled_unions(semantics, count=25):
    """(agent count, disjoint union of the first `count` sampled models):
    one union per agent count 2 and 3 for products, else one union."""
    for n in (2, 3) if semantics == "product" else (None,):
        sampled = map(rewrite._SAMPLERS[semantics], itertools.count())
        models = list(itertools.islice((m for m in sampled if n is None or m.agent_count == n), count))
        yield n or 1, formula.disjoint_union(models)[0]


@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_left_sides_read_through_announce_equal_their_nodes(axiom):
    per_agent = (axiom.semantics, axiom.index) == ("product", 4)
    pools = schema_pool(axiom.semantics)
    for n, union in _sampled_unions(axiom.semantics):
        for phi, *_, body in _instances(axiom, pools, n if per_agent else 1):
            assert union._announce(body, union.table(phi)) == union.table(Announce(phi, body))


def _mask_read_mismatches(axiom):
    """(agent count, instance) pairs whose right side read on masks, as
    `check_axiom` reads it, differs from the table of its node on a union
    of sampled models."""
    per_agent = (axiom.semantics, axiom.index) == ("product", 4)
    pools = schema_pool(axiom.semantics)
    mismatches = []
    for n, union in _sampled_unions(axiom.semantics):
        for instance in _instances(axiom, pools, n if per_agent else 1):
            phi, *_, body = instance
            mask = union.table(phi)
            pushed = [union._announce(kid, mask) for kid in children(body)]
            if _single_step(mask, body, pushed, union._value) != union.table(_single_step(phi, body)):
                mismatches.append((n, instance))
    return mismatches


@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_right_sides_read_on_masks_equal_their_nodes(axiom):
    assert _mask_read_mismatches(axiom) == []


def test_a_fault_in_the_mask_reading_is_caught(monkeypatch):
    # Implies read as Or on masks breaks the guard of every guarded schema,
    # but not `tabulate`, which keeps its own copy of the connectives.
    value = formula.Model._value

    def faulty(self, f, kids):
        return kids[0] | kids[1] if type(f) is Implies else value(self, f, kids)

    monkeypatch.setattr(formula.Model, "_value", faulty)
    for axiom in (AxiomId("topo", 2), AxiomId("ssl", 4), AxiomId("product", 4)):
        assert _mask_read_mismatches(axiom), axiom
    assert _mask_read_mismatches(AxiomId("topo", 3)) == []  # distributive: no guard


def _record_announcements(monkeypatch):
    """Every `Announce` node `rewrite` builds from now on, kept alive."""
    built = []

    def recording(announced, body):
        built.append(Announce(announced, body))
        return built[-1]

    monkeypatch.setattr(rewrite, "Announce", recording)
    return built


@pytest.mark.parametrize("axiom", [a for a in ALL_SCHEMAS if str(a) != "ssl-5"], ids=str)
def test_check_axiom_builds_no_left_side(axiom, monkeypatch):
    # On a sound schema no side is built at all: no [phi] body, no pushed
    # [phi] g and no guard phi -> ..., by any constructor call.
    built = Counter()

    def counting(kind):
        init = kind.__init__
        return lambda self, *args: built.update([kind]) or init(self, *args)

    for kind in (Announce, Implies):
        monkeypatch.setattr(kind, "__init__", counting(kind))
    assert Implies(Atom("p"), Atom("q")) and built == Counter([Implies])  # the patches are live
    built.clear()
    assert check_axiom(axiom, 25, 11).valid_on_sample
    assert not built


def _per_model_check(axiom, sample_size, seed):
    """The validity report tabulated model by model, with no union: the
    reference `check_axiom` must equal."""
    pools = schema_pool(axiom.semantics)
    per_agent = (axiom.semantics, axiom.index) == ("product", 4)
    counterexamples = []
    for offset in range(sample_size):
        model = rewrite._SAMPLERS[axiom.semantics](seed + offset)
        agent_count = model.agent_count if per_agent else 1
        for phi, psi, chi, agent in rewrite._instantiations(axiom, pools, agent_count):
            # Both sides tabulated as nodes: the reference for the mask readings.
            lhs, rhs = rewrite.axiom_instance(axiom, phi, psi, chi, agent)
            lhs_holds = model.table(lhs)
            for i in bits(lhs_holds ^ model.table(rhs)):
                locus = model._order[i]
                lhs_value = bool(lhs_holds >> i & 1)
                if model.satisfies(locus, lhs) != lhs_value or model.satisfies(locus, rhs) == lhs_value:
                    continue
                counterexamples.append(rewrite.Counterexample(
                    dataclasses.replace(model), locus, phi, psi, chi, lhs, rhs, lhs_value, not lhs_value
                ))
                break
    return rewrite.ValidityReport(axiom, sample_size, seed, tuple(counterexamples))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_check_axiom_on_unions_equals_the_per_model_check(axiom, seed):
    report, reference = check_axiom(axiom, 60, seed), _per_model_check(axiom, 60, seed)
    for field in dataclasses.fields(rewrite.ValidityReport):
        if field.name != "counterexamples":
            assert getattr(report, field.name) == getattr(reference, field.name)
    assert len(report.counterexamples) == len(reference.counterexamples)
    for found, expected in zip(report.counterexamples, reference.counterexamples):
        for field in dataclasses.fields(rewrite.Counterexample):
            assert getattr(found, field.name) == getattr(expected, field.name), field.name
    assert report.render() == reference.render()


def _negate_right_sides(monkeypatch):
    """A right side negated in both readings, nodes and masks: the schema
    then fails on every instance and model."""
    original, negation = rewrite._single_step, Not(Top())
    monkeypatch.setattr(
        rewrite, "_single_step",
        lambda announced, body, pushed=None, make=rebuild: make(negation, [original(announced, body, pushed, make)]),
    )


def test_check_axiom_reports_in_seed_order_across_agent_counts(monkeypatch):
    # Broken on every product model, so both agent counts' runs find
    # counterexamples, interleaved in seed order.
    _negate_right_sides(monkeypatch)
    built = _record_announcements(monkeypatch)
    axiom = AxiomId("product", 2)
    report = check_axiom(axiom, 12, 0)
    # Nodes are built only for the reported pairs: each left side, and the
    # one pushed [phi] psi of its right side.
    assert len(built) == 2 * len(report.counterexamples)
    assert {id(node) for node in built} == {
        id(node) for c in report.counterexamples for side in (c.lhs, c.rhs)
        for node in walk(side) if type(node) is Announce
    }
    # The reference builds its right sides through the patched step too.
    reference = _per_model_check(axiom, 12, 0)
    counts = [c.model.agent_count for c in report.counterexamples]
    assert counts != sorted(counts)
    assert report == reference


@pytest.mark.parametrize("axiom", ALL_SCHEMAS, ids=str)
def test_check_axiom_on_one_model_equals_the_per_model_check(axiom):
    # The shape the axiom corpus calls, where announced formulas share masks most.
    for seed in range(100):
        assert check_axiom(axiom, 1, seed) == _per_model_check(axiom, 1, seed), seed
    if (axiom.semantics, axiom.index) == ("product", 4):
        assert {rewrite._SAMPLERS["product"](seed).agent_count for seed in range(100)} == {2, 3}


# (models, seed) of the pinned reports: one model at seeds 0-39, the axiom
# corpus's shape, where masks are tiled; then 25 and 300 models, whose
# unions are mostly read one mask at a time.
PINNED_REPORTS = [(1, seed) for seed in range(40)] + [(25, 7), (300, 0)]


def test_reports_equal_the_pinned_file():
    # `render()` of every schema at each (models, seed), one report per
    # paragraph, in that order: checked in before the masks were tiled.
    reports = [
        check_axiom(axiom, models, seed).render() + "\n"
        for models, seed in PINNED_REPORTS for axiom in ALL_SCHEMAS
    ]
    expected = (Path(__file__).parent / "data" / "axiom_reports.txt").read_text()
    assert "\n".join(reports) == expected


def test_every_formula_announced_on_a_shared_mask_is_reported(monkeypatch):
    axiom = AxiomId("ssl", 4)
    phis = schema_pool("ssl")["phi"]

    def largest_group(seed):
        """The announced formulas sharing the commonest mask on the seed's model."""
        model = rewrite._SAMPLERS["ssl"](seed)
        (mask, _), = Counter(model.table(phi) for phi in phis).most_common(1)
        return [phi for phi in phis if model.table(phi) == mask]

    seed = next(seed for seed in range(100) if len(largest_group(seed)) > 1)
    group = largest_group(seed)
    assert len(group) >= 2
    _negate_right_sides(monkeypatch)
    report = check_axiom(axiom, 1, seed)
    reported = [c.phi for c in report.counterexamples]
    assert all(phi in reported for phi in group)
    assert len(reported) == len(_instances(axiom, schema_pool("ssl"), 1))
    assert report == _per_model_check(axiom, 1, seed)


def test_check_axiom_runs_respect_the_size_bound_and_agent_counts():
    models = [rewrite._SAMPLERS["product"](seed) for seed in range(300)]
    runs = [[offset for offset, _ in run] for run in rewrite._runs(enumerate(models), "product")]
    assert sorted(offset for run in runs for offset in run) == list(range(300))
    assert len(runs) > 2
    for run in runs:
        assert run == sorted(run)
        assert len({models[offset].agent_count for offset in run}) == 1
        assert len(run) == 1 or sum(models[offset].size for offset in run) <= rewrite.UNION_SIZE


@pytest.mark.parametrize("axiom", [AxiomId("ssl", 3), AxiomId("product", 4)], ids=str)
def test_check_axiom_calls_share_no_node(axiom, monkeypatch):
    calls = [[], []]
    original = rewrite._bodies
    for record in calls:
        monkeypatch.setattr(rewrite, "_bodies", lambda *a: record.append(original(*a)) or record[-1])
        check_axiom(axiom, 10, 4)
    # Both calls' bodies stay alive in `calls`, so equal ids are one object.
    first, second = (
        {id(node) for bodies in record for *_, body in bodies for node in walk(body)}
        for record in calls
    )
    assert first and second
    assert first.isdisjoint(second)


def test_equivalence_basics():
    model = random_topomodel(3, n=4, k=3)
    assert equivalent_on(model, parse("p & q"), parse("q & p"))
    proper = random_topomodel(11, n=4, k=3)
    # find a model where p is neither empty nor full, then p vs ~p differ
    for seed in range(100):
        proper = random_topomodel(seed, n=4, k=3)
        mask = proper.valuation.get("p", 0)
        if 0 < mask < proper.space.full_mask:
            break
    result = equivalent_on(proper, parse("p"), parse("~p"))
    assert not result and result.witness is not None


def test_reduce_equivalent_topo():
    rng = Random(44)
    for seed in range(150):
        model = random_topomodel(seed, n=4, k=3)
        f = random_formula(rng, max_depth=5, modal="IC", announce_depth=2)
        assert equivalent_on(model, f, reduce(f, "topo")), (seed, str(f))


def test_reduce_equivalent_product():
    rng = Random(45)
    for seed in range(120):
        model = random_product_model(seed)
        f = random_formula(rng, max_depth=4, agents=2, announce_depth=2)
        assert equivalent_on(model, f, reduce(f, "product")), (seed, str(f))


def _shared_chain(depth, modal):
    """F_0 = p, F_k+1 = [!F_k | p] modal(F_k & q), built as a DAG: F_k+1 holds
    the one object F_k twice."""
    f = p = Atom("p")
    for _ in range(depth):
        f = Announce(Or(f, p), modal(And(f, Atom("q"))))
    return f


def test_shared_chains_reduce_and_evaluate_on_one_model():
    # One model per semantics for every depth, so its formula-keyed memo
    # matches equal but distinct DAGs: each hash and each == must cost a
    # node, not a tree (tens of seconds from depth 4 on when they walk it).
    start = time.perf_counter()
    for semantics, model, modal in (
        ("ssl", random_ssl_model(0), Know),
        ("product", random_product_model(0), partial(KnowI, 1)),
    ):
        assert model.loci()
        for depth in (5, 6, 7, 8):
            f = _shared_chain(depth, modal)
            assert equivalent_on(model, f, reduce(f, semantics)), (semantics, depth)
    assert time.perf_counter() - start < 2.0


def _ssl_equivalence_cases():
    rng = Random(46)
    for seed in range(250):
        yield random_ssl_model(seed), random_formula(
            rng, max_depth=5, modal="KLED", announce_depth=2
        )
    # The blind fuzz above rarely lands on the effort gap, so feed in the
    # schema shapes the harness itself falsified.
    report = check_axiom(AxiomId("ssl", 5), sample_size=60, seed=90)
    for counterexample in report.counterexamples[:10]:
        yield counterexample.model, counterexample.lhs


def _recorded_steps(monkeypatch):
    """The (announced, body) pair of every schema application from now on."""
    steps = []

    def recording(announced, body, pushed=None, make=rebuild):
        steps.append((announced, body))
        return _single_step(announced, body, pushed, make)

    monkeypatch.setattr(rewrite, "_single_step", recording)
    return steps


def test_reduce_equivalent_ssl_except_effort_gap(monkeypatch):
    # Divergences may exist, but each must be traceable to an unsound
    # effort-schema step demonstrated on the model itself or on a model the
    # reduction's announcements reach from it.
    divergent = 0
    trace = _recorded_steps(monkeypatch)
    for model, f in _ssl_equivalence_cases():
        trace.clear()  # the corpus's own check_axiom run applies steps too
        reduced = reduce(f, "ssl")
        if equivalent_on(model, f, reduced):
            continue
        divergent += 1
        effort_steps = [(a, b) for a, b in trace if isinstance(b, Effort)]
        assert effort_steps, f"divergence without an effort step: {f}"
        candidates = [model]
        announced = list({a for a, _ in trace})
        for a in announced:
            candidates.append(model.update(a))
        for base in list(candidates[1:]):
            for a in announced:
                candidates.append(base.update(a))
        witnessed = False
        for candidate in candidates:
            for a, b in effort_steps:
                if not equivalent_on(candidate, Announce(a, b), _single_step(a, b)):
                    witnessed = True
                    break
            if witnessed:
                break
        assert witnessed, f"divergence not explained by the effort gap: {f}"
    assert divergent >= 1, "corpus never exercised the effort gap"


def test_subspace_interior_identity():
    # Interior in the announced submodel equals interior of
    # (eliminated points union the area) in the original space, cut to the
    # survivors; this is what makes the interior schema sound.
    rng = Random(47)
    for seed in range(200):
        model = random_topomodel(seed, n=5, k=3)
        space = model.space
        full = space.full_mask
        carrier = rng.randrange(full + 1)
        sub = space.restrict(carrier)
        area_sub = rng.randrange((1 << len(sub.points)) + 0 if sub.points else 1) if sub.points else 0
        area_sub &= sub.full_mask
        # express the sub-area in the original index space
        area_full = 0
        for packed, label in enumerate(sub.points):
            if area_sub >> packed & 1:
                area_full |= 1 << space.index(label)
        lifted = space.interior((full & ~carrier) | area_full) & carrier
        assert compress_mask(lifted, carrier) == sub.interior(area_sub)
