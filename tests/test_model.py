"""The model protocol the three kinds share through `formula.Model`: the
memos, what pickles and copies carry, and updates shared by truth mask."""

import dataclasses
import gc
import pickle
import weakref

import pytest

from geopal.formula import parse
from geopal.product import ProductModel
from geopal.sslmodel import SSLModel
from geopal.topology import Topology
from geopal.topomodel import random_topomodel


def _indiscrete_pair():
    factor = Topology.from_sets([0, 1], [[], [0, 1]])
    return ProductModel.full([factor, factor], {"p": [(1, 0), (1, 1)]})


# Per kind: a model, and a formula with an announcement inside a modality.
KINDS = {
    "topo": (lambda: random_topomodel(3, 5, 3), "[!p] I q"),
    "ssl": (lambda: SSLModel.from_sets(["s", "t"], [["s"], ["s", "t"]], {"p": ["s"]}), "[!p] K q"),
    "product": (_indiscrete_pair, "[!p] K1 q"),
}
MEMO = {"_tables", "_truths", "_updates"}
each_kind = pytest.mark.parametrize("build, text", KINDS.values(), ids=KINDS)


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


@each_kind
def test_truth_and_update_are_shared(build, text):
    model, f = build(), parse(text)
    assert model.truth(f) is model.truth(f)
    assert model.update(parse("p")) is model.update(parse("~~p"))  # one truth set, one update
