"""Topological models: the two evaluators, the announcement update, the
visit-once pass and the per-model memo."""

import time
from random import Random

import pytest

import geopal.topomodel as topomodel
from geopal.formula import (
    And,
    Announce,
    Atom,
    Closure,
    Interior,
    Not,
    Or,
    UnsupportedOperator,
    parse,
    random_formula,
    walk,
)
from geopal import rewrite
from geopal.rewrite import equivalent_on, reduce
from geopal.topology import Topology, verify_topology
from geopal.topomodel import TopoModel, extension, random_topomodel, satisfies, update


def sierpinski():
    return TopoModel.from_sets([0, 1], [[], [0], [0, 1]], {"p": [0]})


def labels(model, mask):
    return model.space.labels(mask)


def test_extension_interior():
    model = sierpinski()
    assert labels(model, extension(model, parse("I p"))) == frozenset({0})


def test_extension_closure():
    model = sierpinski()
    assert labels(model, extension(model, parse("C p"))) == frozenset({0, 1})


def test_extension_announcement():
    model = sierpinski()
    assert labels(model, extension(model, parse("[!p] I p"))) == frozenset({0, 1})


def test_satisfies_examples():
    model = sierpinski()
    assert satisfies(model, 0, parse("I p")) is True
    assert satisfies(model, 1, parse("I p")) is False
    assert all(satisfies(model, s, parse("true")) for s in (0, 1))


def test_update_by_atom():
    model = sierpinski()
    updated = update(model, parse("p"))
    assert updated.space.points == (0,)
    assert {updated.space.labels(o) for o in updated.space.opens} == {
        frozenset(),
        frozenset({0}),
    }
    assert updated.space.labels(updated.valuation["p"]) == frozenset({0})


def test_update_by_truth_is_identity():
    model = sierpinski()
    assert update(model, parse("true")) == model


def test_update_by_falsity_empties():
    model = sierpinski()
    updated = update(model, parse("false"))
    assert updated.is_empty
    assert update(updated, parse("p")).is_empty  # evaluation on empty is vacuous


def test_update_idempotent_for_atoms():
    for seed in range(100):
        model = random_topomodel(seed, n=5, k=3)
        once = update(model, parse("p"))
        assert update(once, parse("p")) == once


def test_updated_space_is_a_topology():
    rng = Random(4)
    for seed in range(150):
        model = random_topomodel(seed, n=5, k=3)
        f = random_formula(rng, max_depth=4, modal="IC", announce_depth=1)
        space = update(model, f).space
        assert verify_topology(space.points, space.opens) == []


def test_evaluators_agree_on_announcement_free_formulas():
    rng = Random(12)
    for seed in range(500):
        model = random_topomodel(seed, n=4, k=3)
        f = random_formula(rng, max_depth=4, modal="IC")
        mask = extension(model, f)
        for index, point in enumerate(model.space.points):
            assert satisfies(model, point, f) == bool(mask >> index & 1)


def test_evaluators_agree_on_announcements_too():
    rng = Random(13)
    for seed in range(120):
        model = random_topomodel(seed, n=4, k=3)
        f = random_formula(rng, max_depth=4, modal="IC", announce_depth=2)
        mask = extension(model, f)
        for index, point in enumerate(model.space.points):
            assert satisfies(model, point, f) == bool(mask >> index & 1)


def test_s4_axioms_valid():
    rng = Random(5)
    for seed in range(300):
        model = random_topomodel(seed, n=4, k=3)
        full = model.space.full_mask
        phi = random_formula(rng, max_depth=3, modal="IC")
        psi = random_formula(rng, max_depth=3, modal="IC")
        reflexive = parse(f"I ({phi}) -> ({phi})")
        transitive = parse(f"I ({phi}) -> I I ({phi})")
        distribution = parse(f"I (({phi}) -> ({psi})) -> (I ({phi}) -> I ({psi}))")
        for axiom in (reflexive, transitive, distribution):
            assert extension(model, axiom) == full


def test_dualities_hold_extensionally():
    rng = Random(6)
    for seed in range(200):
        model = random_topomodel(seed, n=4, k=3)
        f = random_formula(rng, max_depth=3, modal="IC")
        closure_direct = extension(model, parse(f"C ({f})"))
        closure_dual = extension(model, parse(f"~I ~({f})"))
        assert closure_direct == closure_dual


def test_unsupported_operator_is_named():
    model = sierpinski()
    with pytest.raises(UnsupportedOperator) as excinfo:
        extension(model, parse("K p"))
    assert "Know" in str(excinfo.value)
    with pytest.raises(UnsupportedOperator):
        satisfies(model, 0, parse("K1 p"))
    # Also where the quantifier clauses would never reach the node.
    for text in ("true | K p", "false & K p", "[!false] K p", "p -> K1 p"):
        with pytest.raises(UnsupportedOperator):
            model.satisfies(1, parse(text))


def test_point_outside_carrier_rejected():
    with pytest.raises(Exception):
        satisfies(sierpinski(), 7, parse("p"))


def test_oracle_does_not_run_extension(monkeypatch):
    # The oracle must not lean on the evaluator it checks: with `extension`
    # replaced by one that announces nothing away, its verdicts stay put.
    formula = parse("[!p] I q")
    models = [random_topomodel(seed, 5, 3) for seed in range(200)]
    honest = [[satisfies(m, s, formula) for s in m.space.points] for m in models]
    honest_updates = [update(m, formula.announced) for m in models]
    monkeypatch.setattr(topomodel, "extension", lambda model, f: model.space.full_mask)
    # The stub is live: the fast update now keeps carriers the honest one shrinks.
    assert sum(update(m, formula.announced) != u for m, u in zip(models, honest_updates)) > 100
    assert [[satisfies(m, s, formula) for s in m.space.points] for m in models] == honest


# -- the visit-once pass ----------------------------------------------------


def chained(depth):
    """F_0 = p, F_k+1 = [!(F_k) | p] I ((F_k) & q): its reduction is a large DAG."""
    text = "p"
    for _ in range(depth):
        text = f"[!({text}) | p] I (({text}) & q)"
    return parse(text)


@pytest.mark.parametrize("depth", [3, 4])
def test_reduced_chain_evaluates_like_the_original(depth):
    model = random_topomodel(0, 6, 3)
    f = chained(depth)
    reduced = reduce(f, "topo")
    start = time.perf_counter()
    assert model.truth(reduced) == model.truth(f)
    assert time.perf_counter() - start < 2.0


def shared_chain(depth):
    """chained(depth) as a DAG: F_k+1 holds the one object F_k twice."""
    f = p = Atom("p")
    for _ in range(depth):
        f = Announce(Or(f, p), Interior(And(f, Atom("q"))))
    return f


def test_chain_reduces_in_time_linear_in_its_dag(monkeypatch):
    # Each announcement pushes each node of its eliminated body once; pushing
    # through that body as a tree takes about two million steps at depth 5.
    assert shared_chain(3) == chained(3)
    pushes = []
    single_step = rewrite._single_step

    def counting(*args):
        pushes.append(None)
        return single_step(*args)

    monkeypatch.setattr(rewrite, "_single_step", counting)
    model = random_topomodel(0, 6, 3)
    start = time.perf_counter()
    for depth in (5, 6, 7, 8):
        f = shared_chain(depth)
        pushes.clear()
        assert equivalent_on(model, f, reduce(f, "topo")), depth
    assert time.perf_counter() - start < 2.0
    assert 0 < len(pushes) < 5000


@pytest.fixture
def interior_calls(monkeypatch):
    """The areas passed to Topology.interior (closure calls it too)."""
    calls = []
    interior = Topology.interior

    def counting(self, area):
        calls.append(area)
        return interior(self, area)

    monkeypatch.setattr(Topology, "interior", counting)
    return calls


def test_each_shared_interior_is_computed_once(interior_calls):
    model = random_topomodel(0, 6, 3)
    reduced = reduce(chained(3), "topo")
    kinds = [type(node) for node in walk(reduced)]
    assert Announce not in kinds and Closure not in kinds
    model.truth(reduced)
    assert len(interior_calls) == kinds.count(Interior)


def test_deep_negation_chain_evaluates_and_updates():
    model = sierpinski()
    f = parse("p")
    for _ in range(20_001):
        f = Not(f)
    assert model.truth(f) == frozenset({1})
    assert update(model, f).space.points == (1,)


# -- the per-model memo -----------------------------------------------------


def test_truth_evaluates_each_node_object_once_per_model(interior_calls):
    calls = interior_calls
    model = random_topomodel(3, 5, 3)
    shared = parse("I (p | C q)")
    first = model.truth(shared)
    assert len(calls) == 2  # closure is the dual interior
    calls.clear()
    model.truth(Or(shared, Interior(Atom("q"))))
    assert len(calls) == 1  # only the new Interior
    announced = Announce(shared, Interior(Atom("p")))
    value = model.truth(announced)
    calls.clear()
    assert model.truth(announced) == value and model.truth(shared) == first
    assert calls == []
    assert model.truth(parse("I (p | C q)")) == first and calls == []  # an equal new object
    assert random_topomodel(3, 5, 3).truth(announced) == value


def test_update_is_memoized_per_carrier(monkeypatch):
    restricts = []
    restrict = Topology.restrict

    def counting(self, carrier):
        restricts.append(carrier)
        return restrict(self, carrier)

    monkeypatch.setattr(Topology, "restrict", counting)
    model = random_topomodel(3, 5, 3)
    f = parse("[!p] I q & C [!p] (I q | ~p)")
    model.truth(f)
    assert len(restricts) == 1  # both announcements of p restrict to one subspace
    updated = model.update(parse("p"))  # announced inside f: already built
    assert model.update(parse("p")) is updated
    assert model.update(parse("~~p")) is updated  # the same carrier
    assert len(restricts) == 1
