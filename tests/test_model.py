"""The model protocol the three kinds share through `formula.Model`: the
memos, what pickles and copies carry, tables computed once, updates built
once per truth mask, and tables on disjoint unions."""

import dataclasses
import gc
import pickle
import weakref
from collections import Counter
from itertools import count
from random import Random

import pytest

import geopal.formula as formula
from geopal.dynamics import limit_model
from geopal.formula import Announce, Atom, parse, random_formula
from geopal.product import ProductModel, random_product_model
from geopal.sslmodel import SSLModel, random_ssl_model
from geopal.topology import Topology, compress_mask
from geopal.topomodel import TopoModel, random_topomodel


def _indiscrete_pair():
    factor = Topology.from_sets([0, 1], [[], [0, 1]])
    return ProductModel.full([factor, factor], {"p": [(1, 0), (1, 1)]})


# Per kind: a model, and a formula with an announcement inside a modality.
KINDS = {
    "topo": (lambda: random_topomodel(3, 5, 3), "[!p] I q"),
    "ssl": (lambda: SSLModel.from_sets(["s", "t"], [["s"], ["s", "t"]], {"p": ["s"]}), "[!p] K q"),
    "product": (_indiscrete_pair, "[!p] K1 q"),
}
# Per kind: a formula announcing p twice, once under a modality, with the
# first formula of KINDS as a subformula.
TWICE = {
    "topo": "[!p] I q & C [!p] (I q | ~p)",
    "ssl": "[!p] K q & E [!p] (K q | D p)",
    "product": "[!p] K1 q & K2 [!p] (K1 q | p)",
}
# Per kind: the class whose `updated` builds an updated model.  Updates of
# every kind are built by the one `Model.updated`, on a memo miss.
BUILDERS = {"topo": TopoModel, "ssl": SSLModel, "product": ProductModel}
MEMO = {"_tables", "_truths", "_updates"}
each_kind = pytest.mark.parametrize("build, text", KINDS.values(), ids=KINDS)
by_name = pytest.mark.parametrize("kind", KINDS)


@each_kind
def test_memo_leaves_no_reference_cycle(build, text):
    gc.disable()
    try:
        model, f = build(), parse(text)
        model.truth(f)
        model.update(f)
        model.update(parse("true"))
        assert MEMO <= set(vars(model))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


@each_kind
def test_pickles_and_copies_carry_the_fields_not_the_memo(build, text):
    model, f = build(), parse(text)
    model.truth(f)
    model.update(parse("p"))
    assert MEMO <= set(vars(model))
    for copy in (pickle.loads(pickle.dumps(model)), dataclasses.replace(model)):
        assert copy == model and not MEMO & set(vars(copy))
        assert copy.truth(f) == model.truth(f)
        assert copy.update(parse("p")) == model.update(parse("p"))


# Per kind whose update is its root plus a carrier: a model whose update by p
# removes only loci at which no atom holds, so only the carrier tells them apart.
NO_ATOM_LOST = {
    "topo": lambda: TopoModel.from_sets([0, 1], [[], [0], [0, 1]], {"p": [0]}),
    "product": _indiscrete_pair,
}


@pytest.mark.parametrize("kind", NO_ATOM_LOST)
def test_equality_pickles_and_copies_see_the_carrier(kind):
    model, p, f = NO_ATOM_LOST[kind](), parse("p"), parse(TWICE[kind])
    updated = model.update(p)
    assert updated != model
    assert updated.loci() == [locus for locus in model.loci() if locus in model.truth(p)]
    trace = limit_model(model, p)
    assert trace.sizes == (model.size, updated.size) and updated.size < model.size
    assert trace.limit == updated
    for copy in (pickle.loads(pickle.dumps(updated)), dataclasses.replace(updated)):
        assert copy == updated and copy != model and not MEMO & set(vars(copy))
        assert copy.loci() == updated.loci()
        assert copy.table(f) == updated.table(f) and copy.truth(f) == updated.truth(f)


@each_kind
def test_truth_and_update_are_shared(build, text):
    model, f = build(), parse(text)
    assert model.truth(f) is model.truth(f)
    assert model.update(parse("p")) is model.update(parse("~~p"))  # one truth set, one update


@by_name
def test_truth_computes_each_table_once(kind, monkeypatch):
    # Atoms, modalities and announcements are the model's clauses; each
    # runs once per model and formula.
    build, text = KINDS[kind]
    model = build()
    computed = Counter()
    for name in ("_modal", "_announce"):
        clause = getattr(type(model), name)

        def counting(self, f, value, clause=clause):
            computed[id(self), f] += 1
            return clause(self, f, value)

        monkeypatch.setattr(type(model), name, counting)
    f = parse(TWICE[kind])
    first = model.truth(f)
    assert computed and set(computed.values()) == {1}
    total = sum(computed.values())
    assert model.truth(f) is first
    model.truth(parse(text))  # a subformula of f: already computed
    assert sum(computed.values()) == total


@pytest.fixture
def builds(request, monkeypatch):
    """The arguments of each call that builds an updated model of the kind."""
    owner = BUILDERS[request.getfixturevalue("kind")]
    calls = []
    build = owner.updated

    def counting(*args):
        if args[1] not in args[0]._updates:
            calls.append(args)
        return build(*args)

    monkeypatch.setattr(owner, "updated", counting)
    return calls


@by_name
def test_update_is_built_once_per_truth_set(kind, builds):
    build, text = KINDS[kind]
    model = build()
    model.truth(parse(TWICE[kind]))
    assert len(builds) == 1  # both announcements of p build one update
    updated = model.update(parse("p"))  # announced inside the formula: already built
    assert model.update(parse("p")) is updated
    assert model.update(parse("~~p")) is updated  # the same truth set
    assert len(builds) == 1
    f = parse(text)
    model.truth(f)
    builds.clear()
    updated = model.update(f)
    assert len(builds) <= 1
    assert model.update(f) is updated
    assert len(builds) <= 1


@by_name
def test_update_on_a_fresh_model_tabulates_once_and_builds_once(kind, builds, monkeypatch):
    tabulated = []
    tabulate = formula.tabulate

    def counting(model, f):
        tabulated.append(f)
        return tabulate(model, f)

    monkeypatch.setattr(formula, "tabulate", counting)
    build, text = KINDS[kind]
    model, f = build(), parse(text).body  # a modality, no announcement
    model.update(f)
    assert tabulated == [f]
    assert len(builds) == 1


def _sample(draw, size: int, agent_count: int | None = None) -> list:
    """`size` models from consecutive seeds, of one agent count if given;
    every third is replaced by its update by p, so carriers vary too."""
    models = (draw(seed) for seed in count())
    if agent_count is not None:
        models = (model for model in models if model.agent_count == agent_count)
    return [model.update(Atom("p")) if i % 3 == 2 else model for i, model in zip(range(size), models)]


# Per kind: a sample of the given size, and the repertoire of its formulas.
UNION_KINDS = {
    "topo": (lambda size: _sample(lambda seed: random_topomodel(seed, 4, 3), size), {"modal": "IC"}),
    "ssl": (lambda size: _sample(random_ssl_model, size), {"modal": "KLED"}),
    "product-2": (lambda size: _sample(random_product_model, size, 2), {"agents": 2}),
    "product-3": (lambda size: _sample(random_product_model, size, 3), {"agents": 3}),
}


@pytest.mark.parametrize("size", [1, 2, 25, 300])
@pytest.mark.parametrize("kind", UNION_KINDS)
def test_disjoint_union_tables_are_each_models_table_in_its_block(kind, size):
    sample, repertoire = UNION_KINDS[kind]
    models = sample(size)
    union, blocks = type(models[0]).disjoint_union(models)
    if size == 1:
        assert union is models[0]
    assert len(blocks) == size and sum(blocks) == union._all
    assert all(not a & b for a, b in zip(blocks, blocks[1:]))
    assert union.size == sum(model.size for model in models)
    rng = Random(size)

    def sub(depth):
        return random_formula(rng, depth, announce_depth=1, **repertoire)

    # Each block packed in the union's order against each model's loci
    # packed in its own order: the same bits, so the orders agree too.
    for _ in range(6):
        f = Announce(sub(2), Announce(sub(2), sub(3)))  # two nested announcements
        table = union.table(f)
        for model, block in zip(models, blocks):
            assert compress_mask(table & block, block) == compress_mask(model.table(f), model._all), (kind, str(f))


# Per kind: a sample to join, and formulas nesting announcements under every
# modality of the kind.  The oracle enumerates the opens of a topological
# sum, exponential in its model count, so topo and product unions join three
# models; the ssl union joins 25, and its masks are wider than 64 bits.
ORACLE_UNIONS = {
    "topo": (
        lambda: _sample(lambda seed: random_topomodel(seed, 3, 2), 3),
        ["[!q] C p", "[!C p] I [!q] C ~p", "C [!I p] I (q | [!~q] C p)"],
    ),
    "ssl": (
        lambda: _sample(random_ssl_model, 25),
        ["[!p] K [!L q] E [!D ~p] D q", "D K [!p | q] E ~q", "D ~L [![!q] K p] E L q"],
    ),
    "product": (
        lambda: _sample(random_product_model, 3, 2),
        ["[!p] K1 [!q] K2 ~p", "K2 [!K1 p | q] K1 [!~q] p", "[![!q] K1 p] K2 [!p] K1 q"],
    ),
}


@pytest.mark.parametrize("kind", ORACLE_UNIONS)
def test_kernel_tables_match_the_oracle_on_disjoint_unions(kind):
    sample, texts = ORACLE_UNIONS[kind]
    models = sample()
    union, _ = type(models[0]).disjoint_union(models)
    assert kind != "ssl" or union._all.bit_length() > 64
    verdicts = set()
    for text in texts:
        f = parse(text)
        holds = union.truth(f)
        for locus in union.loci():
            verdicts.add(locus in holds)
            assert union.satisfies(locus, f) == (locus in holds), (text, locus)
    assert verdicts == {True, False}


def _nested_chain(seed: int) -> SSLModel:
    """Members {0..3} > {0,1,2} > {0,1} > {0} plus {1,2,3}, so most situations
    have refinements; a seeded valuation of p and q."""
    rng = Random(seed)
    valuation = {atom: [x for x in range(4) if rng.random() < 0.5] for atom in "pq"}
    return SSLModel.from_sets(range(4), [range(4), range(3), range(2), range(1), range(1, 4)], valuation)


def test_effort_moves_above_64_bits_match_the_oracle():
    # Random subset spaces rarely nest members, so their unions carry few
    # E/D moves; this union's effort relation moves situations past bit 63.
    models = _sample(_nested_chain, 8)
    union, _ = SSLModel.disjoint_union(models)
    assert union._all.bit_length() > 64
    assert any(source >> 64 for source, _, _ in union._effort[1])
    verdicts = set()
    # Truth varies within a point's row only through K and L, so E and D
    # read K and L.
    for text in ["E K p", "D L ~q", "E (p | L q)", "[!q | K p] E K p", "[!p | L q] D (K q & E L ~p)"]:
        f = parse(text)
        holds = union.truth(f)
        for locus in union.loci():
            verdicts.add(locus in holds)
            assert union.satisfies(locus, f) == (locus in holds), (text, locus)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", UNION_KINDS)
def test_value_reads_every_node_as_tabulate_does(kind):
    # `Model._value` and `tabulate` each state the connectives' meaning on
    # masks; at every node of random formulas, with announcements, on a
    # union, the two agree given the same child masks.
    sample, repertoire = UNION_KINDS[kind]
    models = sample(25)
    union, _ = type(models[0]).disjoint_union(models)
    rng = Random(7)
    kinds = set()
    for _ in range(40):
        f = random_formula(rng, 4, announce_depth=1, **repertoire)
        for node in formula.walk(f):
            kids = [node.announced] if type(node) is Announce else formula.children(node)
            assert union._value(node, [union.table(kid) for kid in kids]) == union.table(node), str(node)
            kinds.add(type(node))
    assert kinds >= formula._LEAVES | formula._BINARY | {formula.Not, Announce}
