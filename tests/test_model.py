"""The model protocol the three kinds share through `formula.Model`: the
memos, what pickles and copies carry, tables computed once and updates
built once per truth mask."""

import dataclasses
import gc
import pickle
import weakref
from collections import Counter

import pytest

import geopal.formula as formula
import geopal.sslmodel as sslmodel
from geopal.dynamics import limit_model
from geopal.formula import parse
from geopal.product import ProductModel
from geopal.sslmodel import SSLModel
from geopal.topology import Topology
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
# Per kind: what builds an updated model, as (owner, attribute).  Topological
# and product updates are built by the one `Model.updated`, on a memo miss.
BUILDERS = {
    "topo": (TopoModel, "updated"),
    "ssl": (sslmodel, "apply_update"),
    "product": (ProductModel, "updated"),
}
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
    owner, name = BUILDERS[request.getfixturevalue("kind")]
    calls = []
    build = getattr(owner, name)

    def counting(*args):
        if owner is sslmodel or args[1] not in args[0]._updates:
            calls.append(args)
        return build(*args)

    monkeypatch.setattr(owner, name, counting)
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
